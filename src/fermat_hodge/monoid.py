"""Residue-count monoid attached to a Fermat degree m.

An element is a vector (x_1, ..., x_{m-1}; y) of non-negative integers
with y >= 1 such that for every t coprime to m

    sum_i <t*i> * x_i == m * y,

where <k> denotes the representative of k mod m lying in 1..m-1.
Adding the constraints for t and m-t shows sum_i x_i == 2*y, so each
level-y slice is a finite set of multisets of size 2y and can be
enumerated exhaustively.

Slices are enumerated once, by meet in the middle (Horowitz and Sahni,
J. ACM 21(2), 1974): each sorted multiset of size 2y is its y smallest
indices L followed by its y largest R, and the level equations become
a join of size-y half-multisets on their weight vectors.  The weight
under the unit t = 1 is the index sum, and every index of R is at
least max L, so w1(L) + y*max(L) <= m*y.  Only the halves meeting that
bound are built, a quarter of all comb(m+y-2, y) halves at level 3, a
sixth at level 4 and fewer above.  The one pruned table is joined to
itself: m - R, reversed, is again such a half, and its weights under
the half units are m*y minus those of R.  Every joined pair is checked
exactly on its weights, packed into one to a few uint64 words a half.
A slice is one (N, 2y) int16 array of ascending index rows, which the
sieve, the quasi search and the Hodge labels read as it is; count rows
(x..., y) are built only where rows leave them.
This module owns both formats: every module reads the weight table,
the index/count/vector codec and the canonical order from here.
``subset_completions`` is the one place that decides which
sub-multisets of rows' indices are members or complete to one by a
single index: ``is_decomposable``, the quasi search and P2 read its
codes.
``is_member``, the one exact test of a single vector, rejects
sum x_i != 2y first and uses Python integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from math import comb, gcd

import numpy as np

from .errors import InvalidModulusError, ShapeError

__all__ = [
    "MonoidVector",
    "units",
    "is_member",
    "enumerate_level",
    "level_rows",
    "rows_to_vectors",
    "format_vector",
    "parse_vector",
]


# L rows joined per budget spend
_CHUNK = 1 << 12


def check_modulus(m: int) -> None:
    """Reject degrees below 2; the defining system is degenerate for m = 1."""
    if not isinstance(m, int) or m < 2:
        raise InvalidModulusError(f"degree must be an integer >= 2, got {m!r}")


def check_dimension(n: int) -> None:
    """Reject odd or negative dimensions; Hodge classes live in even ones."""
    if n < 0 or n % 2:
        raise ValueError(f"dimension must be even and >= 0, got {n}")


def units(m: int) -> tuple[int, ...]:
    """Residues in 1..m-1 coprime to m, ascending."""
    check_modulus(m)
    return tuple(t for t in range(1, m) if gcd(t, m) == 1)


def half_units(m: int) -> tuple[int, ...]:
    """1 followed by the units t with 2 <= t <= m/2.

    Together with the derived count constraint sum x_i == 2y these
    representatives imply the constraints for all units: <(m-t)*i> is
    m - <t*i>, so the t and m-t constraints are equivalent once the
    count constraint holds.
    """
    check_modulus(m)
    return (1,) + tuple(t for t in range(2, m // 2 + 1) if gcd(t, m) == 1)


# per-degree cache for ``is_member``, which checks the degree first
_unit_reps = cache(half_units)


@dataclass(frozen=True)
class MonoidVector:
    """A candidate element (x_1, ..., x_{m-1}; y); y is the level."""

    x: tuple[int, ...]
    y: int

    def row(self) -> tuple[int, ...]:
        """Flat (x..., y) tuple; the representation used by searches."""
        return self.x + (self.y,)

    def __add__(self, other: "MonoidVector") -> "MonoidVector":
        return MonoidVector(
            x=tuple(a + b for a, b in zip(self.x, other.x, strict=True)),
            y=self.y + other.y,
        )

    def __sub__(self, other: "MonoidVector") -> "MonoidVector":
        return MonoidVector(
            x=tuple(a - b for a, b in zip(self.x, other.x, strict=True)),
            y=self.y - other.y,
        )


def weight_table(m: int) -> np.ndarray:
    """The (m, T) int32 table of <t*i> for i < m and the T units of ``half_units(m)``.

    Counts x of a level-y member have x @ table[1:] == m*y in every column.
    """
    half = np.asarray(half_units(m), dtype=np.int32)
    return np.arange(m, dtype=np.int32)[:, None] * half % m


def indices_to_rows(indices: np.ndarray, m: int) -> np.ndarray:
    """The int16 count rows (x..., y) of index rows over 1..m-1; index m pads.

    One ``bincount``: index i of row r counts in cell r*m + i - 1, so the
    padding counts in the level column, which then takes half the
    number of the other indices.
    """
    n, width = indices.shape
    flat = indices - 1 + m * np.arange(n)[:, None]
    rows = np.bincount(flat.ravel(), minlength=n * m).astype(np.int16).reshape(n, m)
    rows[:, -1] = (width - rows[:, -1]) // 2
    return rows


def canonical_keys(rows: np.ndarray) -> np.ndarray:
    """Each row (x..., y) as one opaque item, equal iff the rows are.

    The items are the big-endian bytes of (y, x...), so for non-negative
    entries they sort in canonical order: ascending level, then
    lexicographic on x.
    """
    big = np.ascontiguousarray(np.roll(rows, 1, axis=1), dtype=">i8")
    return big.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def rows_to_vectors(rows: np.ndarray) -> list[MonoidVector]:
    """The vectors of an int array of rows (x..., y); every entry a Python int."""
    return [MonoidVector(x=tuple(r[:-1]), y=r[-1]) for r in rows.tolist()]


def indices_to_vectors(indices, m: int) -> list[MonoidVector]:
    """The vectors of index rows over 1..m-1, through ``indices_to_rows``."""
    return rows_to_vectors(indices_to_rows(np.asarray(indices), m))


def vectors_to_indices(vectors) -> list[np.ndarray]:
    """The (N, 2y) ascending int16 index rows of vectors, one array per run of level y."""
    return [
        np.array([[i for i, c in enumerate(v.x, 1) for _ in range(c)] for v in run], np.int16)
        for _, run in groupby(vectors, key=lambda v: v.y)
    ]


# subsets per block of ``subset_completions``; (row, subset) cells per quasi-search chunk
_SUBSET_CELLS = 1 << 16


def subset_completions(idx: np.ndarray, m: int):
    """Which position subsets s of the (N, n) indices ``idx`` are members or complete to one.

    A block joins the 2^low <= ``_SUBSET_CELLS`` subsets of the first low
    positions with one subset of the rest.  Yields per block its subsets
    as (2^low, n) bool positions, their sizes and the (N, 2^low) codes a:
    0 where an even s meets the level equations (the empty s included),
    the residue in 1..m-1 where an odd s completes to the member s + e_a,
    and -1 elsewhere.  Under the unit 1 the level fixes a as
    m*ceil(|s|/2) - w_1(s); one dense int32 test per other half unit,
    w(s) + w(e_a) == m*ceil(|s|/2), then decides the whole block.
    """
    table = weight_table(m)
    n = idx.shape[1]
    low = min(n, _SUBSET_CELLS.bit_length() - 1)
    weights = np.zeros((len(idx), 1, table.shape[1]), dtype=np.int32)
    for p in range(low):
        weights = np.concatenate([weights, weights + table[idx[:, p], None]], axis=1)
    for high in range(1 << (n - low)):
        bits = (((high << low) + np.arange(1 << low))[:, None] >> np.arange(n)) & 1 == 1
        rest = table[idx[:, low:][:, bits[0, low:]]].sum(axis=1, dtype=np.int32)
        w = weights + rest[:, None]
        size = bits.sum(axis=1)
        target = (m * ((size + 1) // 2)).astype(np.int32)
        a = target - w[:, :, 0]
        fits = (a >= 0) & (a < m) & ((a == 0) == (size % 2 == 0))
        a = np.where(fits, a, 0)
        for t in range(1, table.shape[1]):  # the unit 1 holds by the choice of a
            fits &= w[:, :, t] + table[a, t] == target
        yield bits, size, np.where(fits, a, -1)


def format_vector(v: MonoidVector) -> str:
    """Canonical text form ``x1,...,x_{m-1};y``."""
    return ",".join(str(c) for c in v.x) + ";" + str(v.y)


def parse_vector(text: str) -> MonoidVector:
    xs, _, ys = text.partition(";")
    return MonoidVector(x=tuple(int(c) for c in xs.split(",")), y=int(ys))


def is_member(v: MonoidVector, m: int) -> bool:
    """Exact membership test: y >= 1, x >= 0 and every unit constraint.

    Every member has sum x_i == 2y, so a vector without it is rejected
    first; with it, the constraints for ``half_units(m)`` imply the
    rest.  Sums run over the nonzero entries in Python integers, so any
    entry size is exact.  A wrong entry count is a ShapeError.
    """
    check_modulus(m)
    if len(v.x) != m - 1:
        raise ShapeError(f"expected {m - 1} entries for degree {m}, got {len(v.x)}")
    if v.y < 1 or sum(v.x) != 2 * v.y or min(v.x) < 0:
        return False
    support = [(i, c) for i, c in enumerate(v.x, start=1) if c]
    target = m * v.y
    return all(
        sum((t * i) % m * c for i, c in support) == target for t in _unit_reps(m)
    )


def _halves(m: int, y: int, index_values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The size-y multisets L of indices 1..m-1 with w1(L) + y*max(L) <= m*y.

    Returns their index positions as y int16 columns (column p holds the
    (p+1)-th smallest index) and the sums of their indices' rows of the
    (m, d) uint64 ``index_values``.  The table grows one position at a
    time from the empty prefix: a prefix of k indices with index sum s
    and last index l takes a next index v in l..(m*y - s) // (2y - k).
    Its least completion repeats v, so exactly the prefixes that can
    complete are kept.
    """
    cols, last, w1 = [], np.ones(1, dtype=np.int16), np.zeros(1, dtype=np.int32)
    values = np.zeros((1, index_values.shape[1]), dtype=np.uint64)
    for k in range(y):
        fan = ((m * y - w1) // (2 * y - k) - last + 1).astype(np.int64)
        parent = np.repeat(np.arange(len(fan)), fan)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        last = (last[parent] + offset).astype(np.int16)
        cols = [c[parent] for c in cols] + [last]
        w1 = w1[parent] + last
        values = values[parent] + index_values[last]
    return cols, values


def level_rows(m: int, y: int, budget=None) -> np.ndarray:
    """The level-y slice as an (N, 2y) int16 array of ascending index rows.

    Rows are in canonical order: descending lexicographic, which is
    ascending lexicographic on x.  Meet in the middle: the 2y indices of
    a slice element, sorted, split uniquely into L, the y smallest, and
    R, the y largest, so max(L) <= min(R), and the element's weight
    vector over ``half_units(m)`` is w(L) + w(R) == m*y.  Under the
    unit 1 a weight is the index sum, so w1(L) + y*max(L) <= m*y: only
    the halves meeting that bound are built (``_halves``).  One table
    serves both sides: L' = m - R, reversed, has w_t(R) = m*y - w_t(L')
    for every half unit t, because <t*(m-i)> = m - <t*i>, and it meets
    the same bound.  So an element is a pair (L, L') of the table with
    w(L) == w(L') and max(L) + max(L') <= m, and its row is L followed
    by m - L' reversed.

    The join runs on a 64-bit linear key of the weight vector.  The
    low bit_length(m) bits of a key are cleared and hold the half's
    max, and one sort orders the table by (key group, max): the
    partners of L are the range of its own group with max at most
    m - max(L), two ``searchsorted`` lookups per chunk.  Keys equal in
    their high bits only collide like equal keys: a collision can only
    add pairs, never hide one.  Every joined pair is checked exactly on
    packed weight words: a unit weight of a half is below 2^b for
    b = bit_length(y*(m-1)), so 64 // b units share a uint64 word
    without carries, and w(L) == w(L') is an equality of one to a few
    words.

    The joined pairs fill one preallocated slice column by column, so
    beside the slice only one gathered column is alive at a time.

    The budget is spent comb(m+y-2, y), the count of all size-y halves
    and a conservative bound on the pruned table, before the table is
    built, and then per chunk of L the rows that chunk found.
    ``max_candidates`` counts those rows, not memory: the default 10^8
    admits slices past 8 GB ((24, 8) returns 7.2 M rows in 230 MB from a
    table of 311,928 halves; the call's traced peak is 496 MiB, most of
    it the final sort and its sorted copy).  Bounding slice memory, and
    a meter that counts the pruned table, is ROADMAP item 2.
    """
    check_modulus(m)
    if y < 1:
        raise ValueError(f"level must be >= 1, got {y}")
    if budget is not None:
        budget.spend(comb(m + y - 2, y))
    res = weight_table(m).astype(np.uint64)
    units = res.shape[1]
    # fixed odd multipliers of the weight key, one per half unit
    draw = random.Random(0)
    mix = np.asarray([draw.getrandbits(64) | 1 for _ in range(units)], dtype=np.uint64)
    # then the weight words: 64 // b unit weights a word, b bits each
    b = (y * (m - 1)).bit_length()
    per = 64 // b
    t, n_words = np.arange(units), -(-units // per)
    place = np.zeros((units, 1 + n_words), dtype=np.uint64)
    place[:, 0] = mix
    place[t, 1 + t // per] = np.uint64(1) << (t % per * b).astype(np.uint64)
    cols, values = _halves(m, y, res @ place)
    # high key bits group the halves; the low bits hold the max
    low = np.uint64((1 << m.bit_length()) - 1)
    key = values[:, 0] & ~low | cols[-1].astype(np.uint64)
    order = np.argsort(key)
    key, words = key[order], values[order, 1:]
    cols = [c[order] for c in cols]
    del order, values
    lefts, rights = [], []
    for lo in range(0, len(key), _CHUNK):
        group = key[lo : lo + _CHUNK] & ~low
        start = np.searchsorted(key, group)
        bound = group | (m - cols[-1][lo : lo + _CHUNK]).astype(np.uint64)
        fan = np.searchsorted(key, bound, side="right") - start
        left = np.repeat(np.arange(lo, lo + len(group)), fan)
        right = np.repeat(start - (np.cumsum(fan) - fan), fan) + np.arange(len(left))
        exact = (words[left] == words[right]).all(axis=1)
        lefts.append(left[exact])
        rights.append(right[exact])
        if budget is not None:
            budget.spend(len(lefts[-1]))
    # the table is never empty: y ones meet the bound
    left, right = np.concatenate(lefts), np.concatenate(rights)
    del lefts, rights, key, words
    rows = np.empty((len(left), 2 * y), dtype=np.int16)
    for p, c in enumerate(cols):
        rows[:, p] = c[left]
        rows[:, 2 * y - 1 - p] = m - c[right]
    del left, right, cols
    # equal-length multisets: ascending x is descending sorted sequence
    return rows[np.lexsort(rows.T[::-1])[::-1]]


def enumerate_level(m: int, y: int) -> list[MonoidVector]:
    """All elements of the level-y slice in canonical lexicographic order.

    The ``MonoidVector`` view of ``level_rows``; the package's own
    searches read the index rows.
    """
    return indices_to_vectors(level_rows(m, y), m)
