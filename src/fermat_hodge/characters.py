"""Character-side combinatorics of Fermat Hodge classes.

A character is a tuple of nonzero residues mod m with zero sum.  The
Hodge labels in even dimension n are the characters whose weight under
every unit t equals n/2 + 1.  As |t*alpha| = sum_k <t*k> x_k / m for
the count vector x, that condition *is* membership of (x; n/2 + 1) in
the residue-count monoid, checked by ``monoid.is_member`` for one
character.  A label's proof is the exact check made by the code that
built it: ``enumerate_hodge_labels`` reads the level slice, whose join
checks every row's weights exactly; the P1 and P2 splits read the
classifier's fit test; a caller's character runs ``is_member``.  The
two join operations mirror sum decompositions on the monoid side: the
splits P1 (star join, through ``is_decomposable``) and P2 (hash join)
both read which sub-multisets of a label's entries are members or
complete to one from ``monoid.subset_completions``, the one place that
decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd

import numpy as np

from .errors import HodgeLabelError, JoinError, MembershipError
from .hilbert import is_decomposable
from .monoid import (
    MonoidVector,
    check_dimension,
    check_modulus,
    indices_to_vectors,
    is_member,
    level_rows,
    subset_completions,
    vectors_to_indices,
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
        """A label proved by the exact check of the code that built it.

        That check is the slice join, the classifier's fit test or
        ``is_member``; no second proof runs here.
        """
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


def is_hodge_label(alpha: Character) -> bool:
    """True iff n is even and |t*alpha| = n/2 + 1 for every unit t (``is_member``)."""
    (v,) = indices_to_vectors([alpha.entries], alpha.m)
    return alpha.n % 2 == 0 and is_member(v, alpha.m)


def enumerate_hodge_labels(
    m: int, n: int, expand_permutations: bool = False
) -> list[HodgeLabel]:
    """Canonical (sorted-entry) Hodge labels of dimension n, sorted.

    Generated from the rows of the monoid level slice n/2 + 1 rather than
    a raw scan of all tuples: the weight conditions are exactly the level
    equations, and ``level_rows`` checks every joined row's weights
    exactly, which proves each label.  With ``expand_permutations`` every
    distinct entry order is listed; weights do not depend on entry order,
    so no permutation is proved again.
    """
    check_modulus(m)
    check_dimension(n)
    # slice order ascends on x, which is descending order on sorted entries
    entries = level_rows(m, n // 2 + 1)[::-1].tolist()
    if expand_permutations:
        entries = sorted({p for rep in entries for p in permutations(rep)})
    return [HodgeLabel._proved(m, tuple(e)) for e in entries]


def to_monoid(alpha: Character) -> MonoidVector:
    """Count map: x_k = #{i : a_i = k}, level n/2 + 1."""
    if not is_hodge_label(alpha):
        raise HodgeLabelError(f"not a Hodge label: {alpha.entries}")
    return indices_to_vectors([alpha.entries], alpha.m)[0]


def from_monoid(v: MonoidVector, m: int) -> HodgeLabel:
    """Inverse count map; ``is_member`` is the label's proof.

    A member's 2y entries are nonzero residues summing to its weight m*y
    under the unit 1, so they form a character of even dimension.
    """
    if not is_member(v, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {v}")
    (entries,) = vectors_to_indices([v])
    return HodgeLabel._proved(m, tuple(entries[0].tolist()))


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


def satisfies_p1(alpha: Character) -> tuple[HodgeLabel, HodgeLabel] | None:
    """A star-join split of alpha into two Hodge labels, if one exists.

    Equivalent to decomposability of the count vector: the witness
    c + d of ``is_decomposable``, read off alpha's own entries, maps back
    to labels whose concatenation permutes to alpha.  Its membership
    check proves alpha a label, and its exact sub-multiset test proves
    both parts.
    """
    try:
        witness = is_decomposable(indices_to_vectors([alpha.entries], alpha.m)[0], alpha.m)
    except MembershipError:
        raise HodgeLabelError(f"not a Hodge label: {alpha.entries}") from None
    if witness is None:
        return None
    parts = vectors_to_indices([witness.c, witness.d])
    return tuple(HodgeLabel._proved(alpha.m, tuple(e)) for idx in parts for e in idx.tolist())


def satisfies_p2(
    alpha: Character,
) -> tuple[HodgeLabel, HodgeLabel] | None:
    """A hash-join split of alpha into two Hodge labels, if one exists.

    The left factor is an odd sub-multiset L of alpha's entries, with
    3 <= |L| <= n - 1, plus the cancelled residue j; the right factor is
    the rest plus m - j.  ``subset_completions`` codes j for each L that
    completes to a label L + j; the right factor follows by linearity.
    The first split by |L|, then by position in the sorted entries, wins.
    """
    if not is_hodge_label(alpha):
        raise HodgeLabelError(f"not a Hodge label: {alpha.entries}")
    m, idx = alpha.m, np.asarray([alpha.sorted_entries()])
    hits, codes = [np.zeros((0, idx.shape[1]), dtype=bool)], [np.zeros(0, dtype=int)]
    for bits, size, a in subset_completions(idx, m):
        (k,) = np.nonzero((a[0] > 0) & (size >= 3) & (size < alpha.n))
        hits.append(bits[k])
        codes.append(a[0, k])
    hits, codes = np.concatenate(hits), np.concatenate(codes)
    if not len(hits):
        return None
    size = hits.sum(axis=1)
    # the least |L|, then the first in combination order of its positions
    least = np.flatnonzero(size == size.min())
    first = least[np.lexsort(~hits[least].T[::-1])[0]]
    left, j = hits[first], int(codes[first])
    beta, gamma = idx[0, left].tolist(), idx[0, ~left].tolist()
    return (
        HodgeLabel._proved(m, tuple(beta) + (j,)),
        HodgeLabel._proved(m, tuple(gamma) + (m - j,)),
    )
