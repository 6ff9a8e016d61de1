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
  every unit of Z/m.  Interreduction runs in rounds; each one lowers
  the total norm of the orbit representatives, so it ends.
  Termination of the closure follows from Dickson's lemma, and it
  certifies completeness without an a-priori level bound.  The result
  needs no minimality pass: the interreduced closure is an antichain
  under the sign order, which on pair-free rows is componentwise
  domination, and no pair-free row dominates a level-1 pair.  It
  returns the distinct count rows in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import SearchBudget
from .errors import BudgetExceededError, IncompleteBasisError, MembershipError
from .monoid import (
    MonoidVector,
    canonical_keys,
    check_modulus,
    enumerate_level,
    format_vector,
    is_member,
    level_rows,
    rows_to_vectors,
    units,
    vectors_to_rows,
    weight_table,
)

__all__ = [
    "DecompositionWitness",
    "HilbertBasis",
    "hilbert_basis",
    "is_decomposable",
    "phi",
    "required_dimension_bound",
    "level_one",
]


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


def level_one(m: int) -> list[MonoidVector]:
    """The level-1 slice: residue pairs {a, m-a}, in canonical order."""
    return enumerate_level(m, 1)


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


def _unique_rows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of V in lexicographic order, and each row's index.

    The same as ``np.unique(V, axis=0, return_inverse=True)``, by one
    ``lexsort``, which is several times faster on int64 rows.
    """
    order = np.lexsort(V.T[::-1])
    S = V[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    inverse = np.empty(len(V), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return S[new], inverse


class _Closure:
    """Sum-and-reduce closure of a lattice basis under the sign order.

    Vectors are stored with their positive/negative parts and packed
    support bitmasks; ``reduce`` subtracts any stored vector whose
    positive and negative parts both fit inside the target's, and it is
    the only reduction.  Only cancelling pairs (opposite strict signs
    somewhere) need processing: a sum without cancellation reduces to
    zero through its own summands.

    The store holds whole orbits under the signed action of the full
    unit group and negation, rebuilt in bulk from the orbit
    representatives (each orbit's least member) by ``set_reps``.  The
    pair loop runs over representatives only: a sum of two orbit
    members is a unit transform of a representative paired against the
    transformed other, and reduction chains transform along, so closing
    over representative pairs closes over all pairs.  Each round pairs
    every representative with the orbits of all new ones; no scheduling
    is needed for termination, which follows from Dickson's lemma.
    """

    def __init__(self, C: int, budget: SearchBudget, transforms):
        self.C = C
        self.budget = budget
        self.perm, self.sign = transforms
        self.bits = 1 << np.arange(C, dtype=np.int64)
        self.ticks = 0
        self.set_reps(np.zeros((0, C), dtype=np.int64))

    def _keys(self, V: np.ndarray) -> np.ndarray:
        return ((V > 0) @ self.bits) | (((V < 0) @ self.bits) << 32)

    def set_reps(self, R: np.ndarray) -> None:
        """Rebuild the store from the orbits of the nonzero rows of R."""
        R = R[R.any(axis=1)]
        k, T = len(R), len(self.perm)
        W = np.zeros((k, T, self.C), dtype=np.int64)
        W[np.arange(k)[:, None, None], np.arange(T)[None, :, None], self.perm] = (
            self.sign * R[:, None, :]
        )
        W = np.concatenate([W, -W], axis=1).reshape(-1, self.C)
        self.G, inv = _unique_rows(W)
        inv = inv.reshape(k, 2 * T)
        # rows come out sorted, so an orbit's least row index is its least member
        least, orbit = np.unique(inv.min(axis=1), return_inverse=True)
        self.reps = self.G[least]
        self.rep_of_row = np.empty(len(self.G), dtype=np.int64)
        self.rep_of_row[inv] = orbit.reshape(k, 1)
        self.Gp = np.maximum(self.G, 0)
        self.Gm = self.Gp - self.G
        self.keys = self._keys(self.G)

    def _chunks(self, V: np.ndarray):
        """Chunks of V with their (row, store row) support-prefilter pairs.

        Sign-compatible subtraction only shrinks both parts of a row, so
        the pairs stay a superset of the fits while a chunk is reduced.
        """
        chunk = max(32, (1 << 20) // max(len(self.G), 1))
        for lo in range(0, len(V), chunk):
            W = V[lo : lo + chunk].copy()
            self.budget.check(self.ticks)
            self.ticks += len(W)
            cand = (self.keys[None, :] & ~self._keys(W)[:, None]) == 0
            yield lo, W, *np.nonzero(cand)

    def _fits(self, W: np.ndarray, rows: np.ndarray, gs: np.ndarray) -> np.ndarray:
        Wp = np.maximum(W, 0)
        Wm = Wp - W
        return (self.Gp[gs] <= Wp[rows]).all(axis=1) & (
            self.Gm[gs] <= Wm[rows]
        ).all(axis=1)

    def reduce(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reduce every row of the parts against the store; distinct remainders.

        Rows are sign-normalized (the store is closed under negation)
        and deduplicated.  Each pass subtracts the lowest-index fit from
        every row that still has one, and keeps only the pairs that fit:
        subtraction shrinks both parts of a row, so a pair that does not
        fit now never will.
        """
        self.budget.check(self.ticks)
        V = np.vstack([np.zeros((0, self.C), dtype=np.int64), *parts])
        first = V[np.arange(len(V)), np.argmax(V != 0, axis=1)]
        V = _unique_rows(V * np.where(first < 0, -1, 1)[:, None])[0]
        out = [np.zeros((0, self.C), dtype=np.int64)]
        for _, W, rows, gs in self._chunks(V[V.any(axis=1)]):
            while True:
                self.budget.check(self.ticks)
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
            self.budget.check(self.ticks)
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
            block = self.G[block_rows]
            block_rep_idx = self.rep_of_row[block_rows]
            sums: list[np.ndarray] = []
            buffered = 0
            remainders = []
            neg_block = block < 0
            pos_block = block > 0
            for i, g in enumerate(self.reps):
                cancel = (neg_block & (g > 0)).any(axis=1) | (
                    pos_block & (g < 0)
                ).any(axis=1)
                if new[i]:
                    cancel[block_rep_idx < i] = False
                if cancel.any():
                    sums.append(block[cancel] + g)
                    buffered += int(cancel.sum())
                    if buffered >= (1 << 17):
                        remainders.append(self.reduce(sums))
                        sums, buffered = [], 0
            remainders.append(self.reduce(sums))
            paired.update(rep_keys)
            fresh = np.vstack(remainders)
        return self.G


def _completion_rows(m: int, budget: SearchBudget) -> np.ndarray:
    """All minimal nonzero solutions of the defining system: distinct rows
    (x..., y) in canonical order.  A closure vector u folds back to
    x_a = max(u_a, 0), x_{m-a} = max(-u_a, 0) when u_{m/2} >= 0 (even m),
    at level half its entry count.
    """
    budget.start()
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
    rows = np.concatenate([level_rows(m, 1), rows])
    return rows[np.unique(canonical_keys(rows), return_index=True)[1]]


# ---------------------------------------------------------------------------
# levelwise algorithm
# ---------------------------------------------------------------------------


def _indecomposable_in_slice(rows: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Rows of a level slice not dominating any lower-level basis row.

    If v = c + d then some indecomposable of level <= y/2 fits under v,
    so testing against basis elements of level <= y/2 is exact.  A row
    dominates b iff it does so on b's support, at most 2k columns at
    level k.  Level one is the pairs (a, m-a) and, for even m, 2*(m/2),
    so one step finds the rows above a pair: min(x_a, x_{m-a}) >= 1
    for some a < m/2, or x_{m/2} >= 2.  Higher levels are compared, one
    row b at a time, on b's support and only with the rows still left.
    """
    y = int(rows[0, -1]) if len(rows) else 0
    if y < 2:
        return rows
    m = rows.shape[1]
    a = np.arange(1, (m + 1) // 2)
    over_pair = (np.minimum(rows[:, a - 1], rows[:, m - a - 1]) >= 1).any(axis=1)
    if m % 2 == 0:
        over_pair |= rows[:, m // 2 - 1] >= 2
    left = rows[~over_pair]
    for level in basis[1 : y // 2]:
        for b in level:
            support = np.flatnonzero(b[:-1])
            left = left[(left[:, support] < b[support]).any(axis=1)]
    return left


def _levelwise(
    m: int, top: int | None, budget: SearchBudget
) -> tuple[np.ndarray, int]:
    """Sieve levels 1..top upwards; the indecomposable rows and the levels sieved.

    Only the budget stops the sieve before ``top`` (with no top, only
    the budget stops it), and the rows, stacked in canonical order, are
    never a certified basis.
    """
    basis: list[np.ndarray] = []  # indecomposable rows, one array per level
    budget.start()
    processed = 0
    while top is None or len(basis) < top:
        try:
            rows = level_rows(m, len(basis) + 1, budget=budget)
            processed += len(rows)
            budget.check(processed)
        except BudgetExceededError:
            break  # report the last fully sieved level
        basis.append(_indecomposable_in_slice(rows, basis))
    return np.concatenate([np.zeros((0, m), dtype=np.int64), *basis]), len(basis)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def check_basis(basis: HilbertBasis, m: int) -> None:
    """Reject a caller's basis of another degree; its rows have another width."""
    if basis.m != m:
        raise ValueError(f"a basis of degree {basis.m} cannot answer degree {m}")


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
    complete=False, sieved in what is left of the budget.
    """
    check_modulus(m)
    budget = budget or SearchBudget()
    complete = False
    if algorithm == "levelwise":
        if max_level is None:
            raise ValueError("the levelwise sieve needs a max_level")
    elif algorithm != "completion":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    elif max_level is not None:
        raise ValueError("the completion certifies every level; it takes no max_level")
    else:
        try:
            rows = _completion_rows(m, budget)
        except BudgetExceededError:
            # the budget is finite, as it stopped the completion, and it
            # alone stops the uncertified sweep below
            budget = budget.remaining()
        else:
            complete, seen = True, int(rows[-1, -1])  # level one is never empty
    if not complete:
        rows, seen = _levelwise(m, max_level, budget)
    return HilbertBasis(
        m=m,
        elements=tuple(rows_to_vectors(rows)),
        complete=complete,
        max_level_seen=seen,
        algorithm=algorithm,
    )


def is_decomposable(
    v: MonoidVector,
    m: int,
    basis: HilbertBasis | None = None,
    budget: SearchBudget | None = None,
) -> DecompositionWitness | None:
    """First decomposition witness of v, or None if v is indecomposable.

    The witness c is the first fit c <= v in ascending level then
    lexicographic order.  Only indecomposable rows can be the first fit
    at the first level where anything fits, so the indecomposables of
    level <= y/2 (the sieve's, or a deep-enough ``basis``) give the same
    witness as the full slices.  When the budget stops the sieve of those
    levels short, no answer is certain and IncompleteBasisError is raised.
    A fit taken from ``basis`` is proved with ``is_member`` (d = v - c is
    then a member too); a non-member raises MembershipError.
    """
    if basis is not None:
        check_basis(basis, m)
    if not is_member(v, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {v}")
    if v.y < 2:
        return None
    limit = v.y // 2
    given = basis is not None and (basis.complete or basis.max_level_seen >= limit)
    if given:
        rows = vectors_to_rows([c for c in basis.elements if c.y <= limit], m)
    else:
        rows, sieved = _levelwise(m, limit, budget or SearchBudget())
        if sieved < limit:
            raise IncompleteBasisError(
                f"deciding {format_vector(v)} needs levels up to {limit}; the "
                f"budget stopped the sieve at level {sieved}",
                partial_max_level=int(rows[-1, -1]) if len(rows) else 0,
            )
    fits = rows[(rows[:, :-1] <= v.x).all(axis=1)]
    if not len(fits):
        return None
    (c,) = rows_to_vectors(fits[np.argsort(canonical_keys(fits))[:1]])
    if given and not is_member(c, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {c}")
    return DecompositionWitness(c=c, d=v - c)


def phi(
    m: int,
    basis: HilbertBasis | None = None,
    budget: SearchBudget | None = None,
) -> int:
    """Maximum level among the indecomposable elements."""
    if basis is None:
        basis = hilbert_basis(m, budget=budget)
    check_basis(basis, m)
    if not basis.complete:
        raise IncompleteBasisError(
            f"basis for m={m} is incomplete (levels up to "
            f"{basis.max_level_seen} certified)",
            partial_max_level=basis.max_element_level,
        )
    return basis.max_element_level


def required_dimension_bound(
    m: int,
    basis: HilbertBasis | None = None,
    budget: SearchBudget | None = None,
) -> int:
    """Checking dimensions n <= 2*(phi(m) - 1) settles every dimension."""
    return 2 * (phi(m, basis=basis, budget=budget) - 1)
