"""Character-side combinatorics of Fermat Hodge classes.

A character is a tuple of nonzero residues mod m with zero sum.  The
Hodge labels in even dimension n are the characters whose weight under
every unit t equals n/2 + 1.  As |t*alpha| = sum_k <t*k> x_k / m for
the count vector x, that condition *is* membership of (x; n/2 + 1) in
the residue-count monoid, checked by ``monoid.is_member`` for one
character.  ``enumerate_hodge_labels`` proves a whole level slice with
one exact numpy weight check instead, and builds its labels only from
the rows that check proved.  The two join operations mirror sum
decompositions on the monoid side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import numpy as np

from .errors import HodgeLabelError, JoinError, MembershipError
from .hilbert import HilbertBasis, is_decomposable
from .monoid import (
    MonoidVector,
    check_dimension,
    check_modulus,
    indices_to_rows,
    is_member,
    level_rows,
    rows_to_indices,
    rows_to_vectors,
    weight_table,
)


@dataclass(frozen=True)
class Character:
    """A tuple (a_0, ..., a_{n+1}) of residues in 1..m-1 summing to 0 mod m."""

    m: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.m)
        if len(self.entries) < 2:
            raise ValueError("a character needs at least two entries")
        if any(not 1 <= a <= self.m - 1 for a in self.entries):
            raise ValueError(f"entries must be nonzero residues mod {self.m}")
        if sum(self.entries) % self.m:
            raise ValueError(f"entries must sum to 0 mod {self.m}: {self.entries}")

    @property
    def n(self) -> int:
        """Dimension: two less than the number of entries."""
        return len(self.entries) - 2

    def sorted_entries(self) -> tuple[int, ...]:
        """Canonical representative under permutation equivalence."""
        return tuple(sorted(self.entries))


class HodgeLabel(Character):
    """A character verified to have weight n/2 + 1 under every unit."""

    def __post_init__(self):
        super().__post_init__()
        if not is_hodge_label(self):
            raise HodgeLabelError(f"not a Hodge label for m={self.m}: {self.entries}")

    @classmethod
    def _proved(cls, m: int, entries: tuple[int, ...]) -> "HodgeLabel":
        """A label whose weights the caller has just checked; no second proof."""
        label = object.__new__(cls)
        object.__setattr__(label, "m", m)
        object.__setattr__(label, "entries", entries)
        return label


def weight(alpha: Character, t: int = 1) -> Fraction:
    """|t*alpha| = sum <t*a_i> / m as an exact rational."""
    if gcd(t, alpha.m) != 1:
        raise ValueError(f"t={t} is not a unit mod {alpha.m}")
    m = alpha.m
    return Fraction(sum((t * a) % m for a in alpha.entries), m)


def _counts(alpha: Character) -> MonoidVector:
    """Count map: x_k = #{i : a_i = k}, level (n + 2) // 2."""
    rows = indices_to_rows(np.array([alpha.entries]), alpha.m, len(alpha.entries) // 2)
    return rows_to_vectors(rows)[0]


def is_hodge_label(alpha: Character) -> bool:
    """True iff n is even and |t*alpha| = n/2 + 1 for every unit t (``is_member``)."""
    return alpha.n % 2 == 0 and is_member(_counts(alpha), alpha.m)


def _proved_entries(m: int, y: int) -> np.ndarray:
    """The sorted entries of every level-y slice row, each row proved here.

    One exact weight check on the whole ``level_rows`` slice: count
    sum x_i == 2y, signs x_i >= 0, and x @ ``weight_table(m)`` == m*y,
    which is ``is_member`` on every row at once.  Count and sign bound
    every entry by 2y, so the int64 products cannot overflow.  A row that
    fails is a HodgeLabelError.  Each row of entries ascends; the rows
    come in slice order.
    """
    rows = level_rows(m, y)
    x = rows[:, :-1]
    proved = (
        (x.sum(axis=1) == 2 * y)
        & (x >= 0).all(axis=1)
        & (x @ weight_table(m)[1:] == m * y).all(axis=1)
    )
    if not proved.all():
        bad = rows[np.argmin(proved)].tolist()
        raise HodgeLabelError(f"level-{y} slice row is not a Hodge label for m={m}: {bad}")
    return rows_to_indices(rows)


def enumerate_hodge_labels(
    m: int, n: int, expand_permutations: bool = False
) -> list[HodgeLabel]:
    """Canonical (sorted-entry) Hodge labels of dimension n, sorted.

    Generated from the rows of the monoid level slice n/2 + 1 rather than
    a raw scan of all tuples: the weight conditions are exactly the level
    equations, and one weight check on the whole slice proves every row
    (``_proved_entries``); labels are built only from those rows.  With
    ``expand_permutations`` every distinct entry order is listed; weights
    do not depend on entry order, so no permutation is proved again.
    """
    check_modulus(m)
    check_dimension(n)
    # slice order ascends on x, which is descending order on sorted entries
    entries = _proved_entries(m, n // 2 + 1)[::-1].tolist()
    if expand_permutations:
        entries = sorted({p for rep in entries for p in permutations(rep)})
    return [HodgeLabel._proved(m, tuple(e)) for e in entries]


def to_monoid(alpha: Character) -> MonoidVector:
    """Count map: x_k = #{i : a_i = k}, level n/2 + 1."""
    if not is_hodge_label(alpha):
        raise HodgeLabelError(f"not a Hodge label: {alpha.entries}")
    return _counts(alpha)


def from_monoid(v: MonoidVector, m: int) -> HodgeLabel:
    """Inverse count map; ``is_member`` is the label's proof.

    A member's 2y entries are nonzero residues summing to its weight m*y
    under the unit 1, so they form a character of even dimension.
    """
    if not is_member(v, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {v}")
    return HodgeLabel._proved(m, tuple(rows_to_indices(np.array([v.row()]))[0].tolist()))


def star_join(beta: Character, gamma: Character) -> Character:
    """Concatenation join; zero sums concatenate to a zero sum."""
    if beta.m != gamma.m:
        raise ValueError(f"mismatched degrees {beta.m} and {gamma.m}")
    return Character(beta.m, beta.entries + gamma.entries)


def hash_join(beta: Character, gamma: Character) -> Character:
    """Drop both last entries (which must cancel mod m) and concatenate."""
    if beta.m != gamma.m:
        raise ValueError(f"mismatched degrees {beta.m} and {gamma.m}")
    if (beta.entries[-1] + gamma.entries[-1]) % beta.m:
        raise JoinError(
            f"last entries {beta.entries[-1]} and {gamma.entries[-1]} "
            f"do not cancel mod {beta.m}"
        )
    return Character(beta.m, beta.entries[:-1] + gamma.entries[:-1])


def satisfies_p1(
    alpha: Character, basis: HilbertBasis | None = None
) -> tuple[HodgeLabel, HodgeLabel] | None:
    """A star-join split of alpha into two Hodge labels, if one exists.

    Equivalent to decomposability of the count vector: a monoid witness
    c + d maps back to labels whose concatenation permutes to alpha.
    ``is_decomposable``'s membership check proves alpha a label.
    """
    try:
        witness = is_decomposable(_counts(alpha), alpha.m, basis=basis)
    except MembershipError:
        raise HodgeLabelError(f"not a Hodge label: {alpha.entries}") from None
    if witness is None:
        return None
    return (from_monoid(witness.c, alpha.m), from_monoid(witness.d, alpha.m))


def satisfies_p2(
    alpha: Character,
) -> tuple[HodgeLabel, HodgeLabel] | None:
    """A hash-join split of alpha into two Hodge labels, if one exists.

    Searches over the cancelled residue pair (j, m-j) and over balanced
    sub-multisets of alpha's entries: the left factor takes r+1 entries
    plus the appended j, the right factor the rest plus m-j, with r and
    s even and positive.  First hit in (r, j, submultiset) order wins.
    """
    if not is_hodge_label(alpha):
        raise HodgeLabelError(f"not a Hodge label: {alpha.entries}")
    n = alpha.n
    m = alpha.m
    entries = alpha.sorted_entries()
    for r in range(2, n - 1, 2):
        seen: set[tuple[int, ...]] = set()
        for positions in combinations(range(n + 2), r + 1):
            left = tuple(entries[i] for i in positions)
            if left in seen:
                continue
            seen.add(left)
            j = (-sum(left)) % m
            if j == 0:
                continue
            taken = set(positions)
            right = tuple(e for i, e in enumerate(entries) if i not in taken)
            try:
                beta = HodgeLabel(m, left + (j,))
                gamma = HodgeLabel(m, right + (m - j,))
            except (ValueError, HodgeLabelError):
                continue
            return (beta, gamma)
    return None
