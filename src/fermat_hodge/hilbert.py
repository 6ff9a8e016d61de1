"""Indecomposable elements (Hilbert basis) of the residue-count monoid.

An element is decomposable when it is the sum of two members; the
indecomposable elements form the unique minimal generating set.  Two
independent algorithms are provided, and only the completion certifies
a basis (complete=True):

* ``levelwise`` sieves the exhaustive level slices 1..max_level.  It is
  exact for the levels it reads but cannot show that no indecomposable
  lives above them, so its result is never complete.  A slice row is
  dropped when it lies above an indecomposable of at most half its
  level, compared on that indecomposable's support only.
* ``completion`` works in a folded coordinate system.  Every
  indecomposable of level >= 2 contains no complementary residue pair
  {a, m-a} (it would dominate a level-1 element), so it is determined
  by the signed class vector u_a = x_a - x_{m-a}.  Membership becomes
  an explicit integer lattice condition on u, componentwise domination
  becomes the sign-compatible (Graver) order, and the indecomposables
  are exactly the Graver-minimal lattice vectors.  Those are computed
  by a Pottier-style completion (Hemmecke, "On the computation of
  Hilbert bases of cones", 2002): close the lattice basis under
  pairwise sums, reducing each sum by sign-compatible subtraction of
  known vectors.  One batched reducer does all reduction, against a
  store rebuilt in bulk from whole orbits under the signed action of
  every unit of Z/m.  It reduces one fixed member of each orbit among
  the incoming sums: the store is closed under the action and
  reduction chains transform along, so a sum reduces to zero when that
  member does, and each remainder enters the store as a whole orbit.
  Interreduction runs in rounds; each one lowers
  the total norm of the orbit representatives, so it ends.
  Termination of the closure follows from Dickson's lemma, and it
  certifies completeness without an a-priori level bound.  The result
  needs no minimality pass: the interreduced closure is an antichain
  under the sign order, which on pair-free rows is componentwise
  domination, and no pair-free row dominates a level-1 pair.  It
  returns the distinct count rows in canonical order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .budget import SearchBudget
from .errors import BudgetExceededError, IncompleteBasisError, MembershipError
from .monoid import (
    MonoidVector,
    canonical_keys,
    check_modulus,
    indices_to_rows,
    indices_to_vectors,
    is_member,
    level_rows,
    rows_to_vectors,
    subset_completions,
    units,
    vectors_to_indices,
    weight_table,
)

__all__ = [
    "DecompositionWitness",
    "HilbertBasis",
    "hilbert_basis",
    "is_decomposable",
    "phi",
    "required_dimension_bound",
]

# cells of one rep block's cancelling-pair mask, and the pair sums a
# batch handed to the reducer reaches before it closes
_PAIR_CELLS = 1 << 16
_PAIR_FLUSH = 1 << 17
# (row, store row) cells of one chunk's support-key test
_KEY_CELLS = 1 << 18
# index cells of one row block of a slice's level-one pair test
_SLICE_CELLS = 1 << 18


@dataclass(frozen=True)
class DecompositionWitness:
    """A split v = c + d with both summands of level >= 1."""

    c: MonoidVector
    d: MonoidVector


@dataclass(frozen=True)
class HilbertBasis:
    m: int
    elements: tuple[MonoidVector, ...]  # sorted by (level, x)
    complete: bool
    max_level_seen: int
    algorithm: str

    @property
    def max_element_level(self) -> int:
        return max((v.y for v in self.elements), default=0)


# ---------------------------------------------------------------------------
# folded (signed class) coordinates
# ---------------------------------------------------------------------------


def _class_rows(m: int) -> list[list[int]]:
    """Constraint rows over classes a = 1..floor(m/2) for pair-free vectors.

    A pair-free vector with class differences u satisfies every unit
    constraint iff sum u_a (2a - m) = 0 (absolute balance) and
    sum u_a (<t*a> - a) = 0 for the units t of ``half_units(m)`` other
    than 1 (relative balance; the remaining units follow from these).
    """
    a = np.arange(1, m // 2 + 1)
    relative = weight_table(m)[a, 1:].T - a
    return [(2 * a - m).tolist()] + relative.tolist()


def _integer_kernel(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the full integer kernel {u in Z^n : R u = 0}.

    Column reduction by unimodular operations; the columns of the
    accumulated transform that map to zero span the kernel lattice
    exactly (no finite-index defect).
    """
    A = [list(r) for r in rows]
    k = len(A)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(i: int, j: int) -> None:
        for r in range(k):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in range(k):
            A[r][dst] += q * A[r][src]
        for r in range(n):
            U[r][dst] += q * U[r][src]

    col = 0
    for row in range(k):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if A[row][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda j: abs(A[row][j]))
            if piv != col:
                col_swap(col, piv)
            clean = True
            for j in range(col + 1, n):
                if A[row][j] != 0:
                    col_addmul(j, col, -(A[row][j] // A[row][col]))
                    if A[row][j] != 0:
                        clean = False
            if clean:
                col += 1
                break
    return [
        [U[r][j] for r in range(n)]
        for j in range(col, n)
        if all(A[r][j] == 0 for r in range(k))
    ]


def _even_sum_sublattice(basis: list[list[int]]) -> list[list[int]]:
    """Basis of the index <= 2 sublattice with even coordinate sum."""
    odd = [i for i, b in enumerate(basis) if sum(b) % 2]
    if not odd:
        return basis
    k = odd[0]
    out = []
    for i, b in enumerate(basis):
        if i == k:
            continue
        out.append([x + y for x, y in zip(b, basis[k])] if i in odd else list(b))
    out.append([2 * x for x in basis[k]])
    return out


# ---------------------------------------------------------------------------
# sum-and-reduce completion (Graver basis of the folded lattice)
# ---------------------------------------------------------------------------


def _class_transforms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed class permutations induced by every unit t of Z/m.

    A unit t sends residue a to <t*a>; on class coordinates this is a
    permutation with a sign flip whenever the image falls on the upper
    half.  Returns the stacked (T, C) target indices and signs.  All
    units are listed: for even m the self-paired class m/2 is fixed with
    sign +1 by every unit, so t and m - t are not negatives of each
    other there.  The defining lattice is invariant under the action.
    """
    C = m // 2
    r = np.outer(units(m), np.arange(1, C + 1)) % m
    upper = r > C
    return np.where(upper, m - r, r) - 1, np.where(upper, -1, 1)


def _pack(V: np.ndarray, b: int) -> np.ndarray:
    """Rows of columns in 0..2^b - 1 packed into int64 words.

    Each word holds 63 // b columns, the first column most significant,
    and no column straddles two words, so no word is negative and the
    words of two rows compare lexicographically as the rows do.  The
    packing is one product with a placement matrix, linear in V modulo
    2^64 whatever its entries.
    """
    per = 63 // b
    C = V.shape[1]
    c = np.arange(C)
    place = np.zeros((C, -(-C // per)), dtype=np.int64)
    place[c, c // per] = 1 << (b * (per - 1 - c % per))
    return V @ place


def _unique_rows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of V in lexicographic order, and each row's index.

    The same as ``np.unique(V, axis=0, return_inverse=True)``: each row is
    packed by ``_pack`` in offset binary, b = bit_length(max - min) bits
    a column, and one ``lexsort`` over those few words replaces one
    stable sort per column.  Needs max - min < 2^63, which closure rows
    meet: their L1 norms are below 2^31.
    """
    lo, hi = (V.min(), V.max()) if V.size else (0, 0)
    b = max(1, int(hi - lo).bit_length())
    # the words of V - lo, without a copy of V: packing is linear mod 2^64
    words = _pack(V, b) - _pack(np.full((1, V.shape[1]), lo), b)
    order = np.lexsort(words.T[::-1])
    S = words[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    inverse = np.empty(len(V), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return V[order[new]], inverse


def _pair_sums(
    reps: np.ndarray, new: np.ndarray, block: np.ndarray, block_rep_idx: np.ndarray
):
    """Batches of the cancelling pair sums rep + block row, for ``reduce``.

    A pair cancels when the sign words meet, (pos(rep) & neg(row)) |
    (neg(rep) & pos(row)) != 0; the words hold every column exactly.  A
    new rep skips the block rows of lower reps, whose turn paired them
    already.  The masks are taken in rep blocks of about
    ``_PAIR_CELLS`` cells, and the sums come out rep-major, block rows
    ascending.  A batch closes after the rep at which it reaches
    ``_PAIR_FLUSH`` rows, and the last batch, maybe empty, closes after
    the last rep.
    """
    rep_pos, rep_neg = _pack(reps > 0, 1), _pack(reps < 0, 1)
    pos, neg = _pack(block > 0, 1), _pack(block < 0, 1)
    step = max(1, _PAIR_CELLS // max(len(block), 1))
    batch: list[np.ndarray] = []
    buffered = 0
    for lo in range(0, len(reps), step):
        hi = min(lo + step, len(reps))
        cancel = ((rep_pos[lo:hi, None] & neg) | (rep_neg[lo:hi, None] & pos)).any(axis=2)
        cancel &= ~(new[lo:hi, None] & (block_rep_idx < np.arange(lo, hi)[:, None]))
        r, c = np.nonzero(cancel)
        r += lo
        ends = np.cumsum(cancel.sum(axis=1))
        done = 0
        while (k := np.searchsorted(ends, _PAIR_FLUSH - buffered + done)) < len(ends):
            batch.append(block[c[done : ends[k]]] + reps[r[done : ends[k]]])
            yield batch
            batch, buffered, done = [], 0, ends[k]
        batch.append(block[c[done:]] + reps[r[done:]])
        buffered += len(c) - done
    yield batch


class _Closure:
    """Sum-and-reduce closure of a lattice basis under the sign order.

    Vectors are stored with packed support bitmasks; ``reduce``
    subtracts any stored vector g that fits a target w (g+ <= w+ and
    g- <= w-, tested as one sign product by ``_fits``), and it is the
    only reduction.  Only cancelling pairs (opposite strict signs
    somewhere) need processing: a sum without cancellation reduces to
    zero through its own summands.  ``_pair_sums`` finds them for blocks
    of representatives at once from one mask over their exact sign
    words, and every dedup (``_unique_rows``) sorts rows packed into a
    few int64 words instead of one column at a time; both pack with
    ``_pack``.

    The store holds whole orbits under the signed action of the full
    unit group and negation, rebuilt in bulk from the orbit
    representatives (each orbit's least member) by ``set_reps``.  The
    pair loop runs over representatives only: a sum of two orbit
    members is a unit transform of a representative paired against the
    transformed other, and reduction chains transform along, so closing
    over representative pairs closes over all pairs.  Each round pairs
    every representative with the orbits of all new ones; no scheduling
    is needed for termination, which follows from Dickson's lemma.  For
    the same reason ``reduce`` reduces one member of each orbit among
    the sums it gets, so the rows it spends of the budget (the rows
    handed to ``_chunks``) count orbit members, not distinct sums.
    """

    def __init__(self, C: int, budget: SearchBudget, transforms):
        self.C = C
        self.budget = budget
        perm, sign = transforms
        # the 2T signed transforms, negation second; a linear key scores
        # each of them, with fixed odd multipliers below 2^32 so that no
        # score of a row with an L1 norm below 2^31 overflows int64
        self.orbit_perm = np.vstack([perm, perm])
        self.orbit_sign = np.vstack([sign, -sign])
        draw = random.Random(0)
        mix = np.asarray([draw.getrandbits(32) | 1 for _ in range(C)], dtype=np.int64)
        self.orbit_key = (self.orbit_sign * mix[self.orbit_perm]).T
        self.bits = 1 << np.arange(C, dtype=np.int64)
        self.set_reps(np.zeros((0, C), dtype=np.int64))

    def _keys(self, V: np.ndarray) -> np.ndarray:
        """Support keys: positive columns in the low bits, negative ones 32 up.

        Past 32 columns the halves alias (bit k >= 32 holds column k's
        positive sign or column k - 32's negative one) and columns past
        63 drop out.  Every key bit is still an OR of sign bits of the
        row, so a store row that fits a target, whose signed supports lie
        inside the target's, has its key inside the target's key:
        aliasing only admits more pairs to ``_fits`` and never hides a
        fit.  The mask of ``_pair_sums`` needs the exact signs, so it is
        not read off these keys.
        """
        return ((V > 0) @ self.bits) | (((V < 0) @ self.bits) << 32)

    def set_reps(self, R: np.ndarray) -> None:
        """Rebuild the store from the orbits of the nonzero rows of R."""
        R = R[R.any(axis=1)]
        k, T = len(R), len(self.orbit_perm)
        W = np.zeros((k, T, self.C), dtype=np.int64)
        W[np.arange(k)[:, None, None], np.arange(T)[None, :, None], self.orbit_perm] = (
            self.orbit_sign * R[:, None, :]
        )
        self.G, inv = _unique_rows(W.reshape(-1, self.C))
        inv = inv.reshape(k, T)
        # rows come out sorted, so an orbit's least row index is its least member
        least, orbit = np.unique(inv.min(axis=1), return_inverse=True)
        self.reps = self.G[least]
        self.rep_of_row = np.empty(len(self.G), dtype=np.int64)
        self.rep_of_row[inv] = orbit.reshape(k, 1)
        self.keys = self._keys(self.G)

    def _chunks(self, V: np.ndarray):
        """Chunks of V with their (row, store row) support-prefilter pairs.

        Sign-compatible subtraction only shrinks both parts of a row, so
        the pairs stay a superset of the fits while a chunk is reduced.
        A chunk holds about ``_KEY_CELLS`` cells, and at least 32 rows;
        each chunk's rows are spent, so the chunk size does not change
        the total.
        """
        chunk = max(32, _KEY_CELLS // max(len(self.G), 1))
        for lo in range(0, len(V), chunk):
            W = V[lo : lo + chunk].copy()
            self.budget.spend(len(W))
            cand = (self.keys[None, :] & ~self._keys(W)[:, None]) == 0
            yield lo, W, *np.nonzero(cand)

    def _fits(self, W: np.ndarray, rows: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """Whether store row gs fits under W[rows]: g+ <= w+ and g- <= w-.

        Column by column that is g * (w - g) >= 0: g > 0 needs w >= g,
        g < 0 needs w <= g and g = 0 always fits.  Closure rows have L1
        norms below 2^31, so the product cannot overflow int64.
        """
        g = self.G[gs]
        return (g * (W[rows] - g) >= 0).all(axis=1)

    def orbit_rows(self, V: np.ndarray) -> np.ndarray:
        """Each row of V mapped to one fixed member of its orbit.

        The member is the signed transform (or its negation) of least
        linear key, so every member of an orbit maps to the same row
        unless two of its members tie on the key.  The scores are taken
        in row blocks of 2^16 cells, so a block's scores and gathered
        transforms stay small beside the rows themselves.
        """
        out = np.empty_like(V)
        block = max(1, (1 << 16) // len(self.orbit_perm))
        for lo in range(0, len(V), block):
            W = V[lo : lo + block]
            best = (W @ self.orbit_key).argmin(axis=1)
            out[np.arange(lo, lo + len(W))[:, None], self.orbit_perm[best]] = (
                self.orbit_sign[best] * W
            )
        return out

    def reduce(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reduce every row of the parts against the store; distinct remainders.

        Only one member of each orbit is reduced: rows are mapped by
        ``orbit_rows`` and exact duplicates dropped.  This is exact: the
        store is closed under the signed unit action and negation, so a
        reduction chain of t*s transformed by t^-1 is one of s, and each
        remainder enters the store as a whole orbit, so s reduces to zero
        whenever t*s does.  A key tie between two members only keeps
        both.  Each pass subtracts the lowest-index fit from
        every row that still has one, and keeps only the pairs that fit:
        subtraction shrinks both parts of a row, so a pair that does not
        fit now never will.
        """
        self.budget.spend(0)
        V = np.vstack([np.zeros((0, self.C), dtype=np.int64), *parts])
        V = _unique_rows(self.orbit_rows(V))[0]
        out = [np.zeros((0, self.C), dtype=np.int64)]
        for _, W, rows, gs in self._chunks(V[V.any(axis=1)]):
            while True:
                self.budget.spend(0)
                fit = self._fits(W, rows, gs)
                rows, gs = rows[fit], gs[fit]
                if not len(rows):
                    break
                first_rows, first_pos = np.unique(rows, return_index=True)
                W[first_rows] -= self.G[gs[first_pos]]
            out.append(W[W.any(axis=1)])
        return _unique_rows(np.vstack(out))[0]

    def interreduce(self, R: np.ndarray) -> None:
        """Store the orbits of R minus those reducible through the others.

        Each round marks the reps that a row of another orbit fits under,
        rebuilds the store from the rest, reduces the marked reps against
        it and adds the remainders back.  A fit other than the rep itself
        has a smaller norm, so the least marked rep always shrinks and
        the total norm of the reps falls until no rep is reducible.
        """
        self.set_reps(R)
        while True:
            self.budget.spend(0)
            marked = np.zeros(len(self.reps), dtype=bool)
            for lo, W, rows, gs in self._chunks(self.reps):
                fit = self._fits(W, rows, gs) & (self.rep_of_row[gs] != lo + rows)
                marked[lo + rows[fit]] = True
            if not marked.any():
                return
            reducible = self.reps[marked]
            self.set_reps(self.reps[~marked])
            self.set_reps(np.vstack([self.reps, self.reduce([reducible])]))

    def run(self, basis: list[list[int]]) -> np.ndarray:
        fresh = np.asarray(basis, dtype=np.int64)
        paired: set[bytes] = set()
        while True:
            self.interreduce(np.vstack([self.reps, fresh]))
            rep_keys = [r.tobytes() for r in self.reps]
            new = np.array([k not in paired for k in rep_keys], dtype=bool)
            if not new.any():
                break
            block_rows = np.flatnonzero(new[self.rep_of_row])
            remainders = [
                self.reduce(batch)
                for batch in _pair_sums(
                    self.reps, new, self.G[block_rows], self.rep_of_row[block_rows]
                )
            ]
            paired.update(rep_keys)
            fresh = np.vstack(remainders)
        return self.G


def _completion_rows(m: int, budget: SearchBudget) -> np.ndarray:
    """All minimal nonzero solutions of the defining system: distinct rows
    (x..., y) in canonical order.  A closure vector u folds back to
    x_a = max(u_a, 0), x_{m-a} = max(-u_a, 0) when u_{m/2} >= 0 (even m),
    at level half its entry count.
    """
    C = m // 2
    kernel = _integer_kernel(_class_rows(m), C)
    if m % 2 == 0:
        kernel = _even_sum_sublattice(kernel)
    U = np.zeros((0, C), dtype=np.int64)
    if kernel:
        U = _Closure(C, budget, _class_transforms(m)).run(kernel)
    # stored rows are nonzero, of even count: absolute balance or the even-sum lattice
    U = U[(U[:, -1] >= 0) | (m % 2 == 1)]
    count = np.abs(U).sum(axis=1)
    a = np.arange(1, (m + 1) // 2)  # the classes a < m/2, paired with m - a
    rows = np.zeros((len(U), m), dtype=np.int64)
    rows[:, :C] = np.maximum(U, 0)
    rows[:, m - 1 - a] = np.maximum(-U[:, a - 1], 0)
    rows[:, -1] = count // 2
    # The closure ends interreduced, so its rows form an antichain under
    # the sign order, and pair-free rows cannot dominate the level-one
    # pairs: no domination pass is needed.  Only the self-paired row
    # (x_{m/2} = 2; 1) of even m arrives twice, from level one and from
    # the lattice vector 2e_{m/2}.
    rows = np.concatenate([indices_to_rows(level_rows(m, 1), m), rows])
    return rows[np.unique(canonical_keys(rows), return_index=True)[1]]


# ---------------------------------------------------------------------------
# levelwise algorithm
# ---------------------------------------------------------------------------


def _indecomposable_in_slice(idx: np.ndarray, m: int, basis: list) -> np.ndarray:
    """Index rows of a level slice not lying above any lower-level basis row.

    If v = c + d then some indecomposable of level <= y/2 fits under v,
    so testing against basis elements of level <= y/2 is exact.  Level
    one is the pairs (a, m-a) and, for even m, 2*(m/2), so a row lies
    above one iff two of its indices sum to m, which each index column
    tests against the columns after it, in row blocks of about
    ``_SLICE_CELLS`` index cells transposed one at a time.  Only the rows
    left become count rows.  Higher levels are compared, one row b at a
    time, on b's support, at most 2k columns at level k, and only with
    the rows still left.
    """
    y = idx.shape[1] // 2
    if y < 2:
        return idx
    step = max(1, _SLICE_CELLS // (2 * y))
    kept = [idx[:0]]
    for lo in range(0, len(idx), step):
        block = idx[lo : lo + step]
        cols = np.ascontiguousarray(block.T)
        over_pair = np.zeros(len(block), dtype=bool)
        for p in range(2 * y - 1):
            over_pair |= (cols[p] + cols[p + 1 :] == m).any(axis=0)
        kept.append(block[~over_pair])
    idx = np.concatenate(kept)
    for level in basis[1 : y // 2]:
        left = indices_to_rows(idx, m)
        for b in indices_to_rows(level, m):
            support = np.flatnonzero(b[:-1])
            below = (left[:, support] < b[support]).any(axis=1)
            left, idx = left[below], idx[below]
    return idx


def _levelwise(
    m: int, top: int, budget: SearchBudget, bottom: int = 1
) -> tuple[list[np.ndarray], int]:
    """Sieve levels up to top; the indecomposable index rows of levels
    bottom..top, one array per level, and the levels sieved.

    Only the slices read are built: the levels bottom..top of the result
    and the levels 2..top//2 that sieve them, since a level-y row is
    tested against indecomposables of level at most y/2, and level one
    by the pairs (a, m-a), never by its slice, which is built only when
    ``bottom`` is 1.  A skipped level keeps its place in the sieve as an
    empty array and counts as sieved, so a count of ``top`` means every
    level the result needs was read.  Only the budget stops the sieve
    before ``top``, and the rows, each level in canonical order, are
    never a certified basis.  Each slice read past level one spends the
    budget as ``level_rows`` does, on the caller's meter; level one, the
    m//2 residue pairs, needs no search and is read without the budget.
    """
    basis: list[np.ndarray] = []  # indecomposable index rows, one array per level
    while len(basis) < top:
        y = len(basis) + 1
        if y < bottom and not 2 <= y <= top // 2:
            basis.append(np.zeros((0, 2 * y), dtype=np.int16))
            continue
        try:
            idx = level_rows(m, y, budget=budget if y > 1 else None)
        except BudgetExceededError:
            break  # report the last fully sieved level
        basis.append(_indecomposable_in_slice(idx, m, basis))
    return basis[bottom - 1 :], len(basis)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def hilbert_basis(
    m: int,
    max_level: int | None = None,
    algorithm: str = "completion",
    budget: SearchBudget | None = None,
) -> HilbertBasis:
    """All indecomposable elements of the degree-m monoid.

    Only ``completion`` certifies a basis (complete=True), and it takes
    no ``max_level``.  ``levelwise`` needs ``max_level``: it sieves
    levels 1..max_level, exactly, and its result is never complete.  A
    budget overrun of the completion yields a partial result with
    complete=False, holding level one.  The completion spends of the
    budget the rows it tests against its store: orbit representatives,
    and of the pair sums one member per orbit under the unit group and
    negation, not every distinct sum, so one cap reaches further than a
    count of sums.  Each such row is tested against the whole store, so
    ``max_candidates`` bounds completion rows, not work: 10^5 of them at
    degree 30 take about 5 s of CPU.  ``max_seconds`` bounds the time.
    """
    check_modulus(m)
    budget = budget or SearchBudget()
    complete = False
    if algorithm == "levelwise":
        if max_level is None:
            raise ValueError("the levelwise sieve needs a max_level")
        levels, seen = _levelwise(m, max_level, budget)
        elements = [v for idx in levels for v in indices_to_vectors(idx, m)]
    elif algorithm != "completion":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    elif max_level is not None:
        raise ValueError("the completion certifies every level; it takes no max_level")
    else:
        try:
            elements = rows_to_vectors(_completion_rows(m, budget))
        except BudgetExceededError:
            # the meter is spent, so a sieve would read no level past
            # one, which needs no search
            elements, seen = indices_to_vectors(level_rows(m, 1), m), 1
        else:
            complete, seen = True, elements[-1].y  # level one is never empty
    return HilbertBasis(
        m=m,
        elements=tuple(elements),
        complete=complete,
        max_level_seen=seen,
        algorithm=algorithm,
    )


def is_decomposable(
    v: MonoidVector, m: int, budget: SearchBudget | None = None
) -> DecompositionWitness | None:
    """First decomposition witness of v, or None if v is indecomposable.

    v = c + d with members c, d iff some member c is a sub-multiset of
    v's 2y indices, and c or v - c has level <= y/2.  The candidates are
    v's position subsets of even size 2..y (15 at level 3); one that
    ``subset_completions`` codes 0 is a member, and v - c is then one
    by linearity.  The witness is the least member c
    by level, then x: it is indecomposable, so it is the first fit among
    the indecomposables of level <= y/2.  The candidates are spent of
    the budget per block; an overrun raises BudgetExceededError.  A call weighs all
    4^y subsets whatever m is, about 10 ms at level 8; the package's own
    call (``verify-33``) is at level 3.
    """
    if not is_member(v, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {v}")
    budget = budget or SearchBudget()
    (idx,) = vectors_to_indices([v])
    members = []
    for bits, size, a in subset_completions(idx, m):
        even = (size % 2 == 0) & (size >= 2) & (size <= v.y)
        budget.spend(int(even.sum()))
        member = even & (a[0] == 0)
        members.append(np.where(bits[member], idx, m))  # index m pads
    seq = np.concatenate(members)
    if not len(seq):
        return None
    rows = indices_to_rows(seq, m)
    (c,) = rows_to_vectors(rows[np.argsort(canonical_keys(rows))[:1]])
    return DecompositionWitness(c=c, d=v - c)


def phi(m: int, budget: SearchBudget | None = None) -> int:
    """Maximum level among the indecomposable elements."""
    basis = hilbert_basis(m, budget=budget)
    if not basis.complete:
        raise IncompleteBasisError(
            f"basis for m={m} is incomplete (levels up to "
            f"{basis.max_level_seen} certified)",
        )
    return basis.max_element_level


def required_dimension_bound(m: int, budget: SearchBudget | None = None) -> int:
    """Checking dimensions n <= 2*(phi(m) - 1) settles every dimension."""
    return 2 * (phi(m, budget=budget) - 1)
