"""Indecomposable elements (Hilbert basis) of the residue-count monoid.

An element is decomposable when it is the sum of two members; the
indecomposable elements form the unique minimal generating set.  Two
independent algorithms are provided:

* ``levelwise`` sieves exhaustive level slices, which is exact for any
  level range it covers but cannot certify on its own that no
  indecomposable lives above the range.
* ``completion`` works in a folded coordinate system.  Every
  indecomposable of level >= 2 contains no complementary residue pair
  {a, m-a} (it would dominate a level-1 element), so it is determined
  by the signed class vector u_a = x_a - x_{m-a}.  Membership becomes
  an explicit integer lattice condition on u, componentwise domination
  becomes the sign-compatible (Graver) order, and the indecomposables
  are exactly the Graver-minimal lattice vectors.  Those are computed
  by a normal-form completion: close the lattice basis under pairwise
  sums, reducing each sum by sign-compatible subtraction of known
  vectors.  Termination follows from Dickson's lemma and the closure
  certifies completeness without an a-priori level bound.  The result
  needs no minimality pass: the interreduced closure is an antichain
  under the sign order, which on pair-free rows is componentwise
  domination, and no pair-free row dominates a level-1 pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .budget import SearchBudget
from .errors import BudgetExceededError, IncompleteBasisError, MembershipError
from .monoid import (
    MonoidVector,
    check_modulus,
    enumerate_level,
    is_member,
    level_rows,
    sort_key,
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

    def by_level(self, y: int) -> tuple[MonoidVector, ...]:
        return tuple(v for v in self.elements if v.y == y)

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
    sum u_a (<t*a> - a) = 0 for the units 2 <= t <= m/2 (relative
    balance; the remaining units follow from these).
    """
    C = m // 2
    rows = [[2 * a - m for a in range(1, C + 1)]]
    for t in range(2, m // 2 + 1):
        if gcd(t, m) == 1:
            rows.append([(t * a) % m - a for a in range(1, C + 1)])
    return rows


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


def _u_to_row(u, m: int) -> tuple[int, ...] | None:
    """Signed class vector back to (x; y); None when not realizable.

    Positive u_a places mass on residue a, negative on m - a.  The
    self-paired class m/2 (even m) cannot go negative, and the entry
    count must be even to yield an integer level.
    """
    C = m // 2
    x = [0] * (m - 1)
    count = 0
    for a in range(1, C + 1):
        v = int(u[a - 1])
        count += abs(v)
        if 2 * a == m:
            if v < 0:
                return None
            x[a - 1] = v
        elif v > 0:
            x[a - 1] = v
        elif v < 0:
            x[m - a - 1] = -v
    if count == 0 or count % 2:
        return None
    return tuple(x) + (count // 2,)


# ---------------------------------------------------------------------------
# normal-form completion (Graver basis of the folded lattice)
# ---------------------------------------------------------------------------


def _class_transforms(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Signed class permutations induced by the units t with 1 < t <= m/2.

    A unit t sends residue a to <t*a>; on class coordinates this is a
    permutation with a sign flip whenever the image falls on the upper
    half.  The units above m/2 act as the negatives of these, and the
    whole defining lattice is invariant under the action.
    """
    C = m // 2
    out = []
    for t in range(2, m // 2 + 1):
        if gcd(t, m) != 1:
            continue
        perm = np.zeros(C, dtype=np.int64)
        sign = np.zeros(C, dtype=np.int64)
        for a in range(1, C + 1):
            r = (t * a) % m
            if r <= C:
                perm[a - 1] = r - 1
                sign[a - 1] = 1
            else:
                perm[a - 1] = m - r - 1
                sign[a - 1] = -1
        out.append((perm, sign))
    return out


class _Closure:
    """Sum-and-reduce closure of a lattice basis under the sign order.

    Vectors are stored with their positive/negative parts and packed
    support bitmasks; reduction subtracts any stored vector whose
    positive and negative parts both fit inside the target's.  Only
    cancelling pairs (opposite strict signs somewhere) need processing:
    a sum without cancellation reduces to zero through its own
    summands.  Rows that reduce to zero through the others are
    redundant as reducers and are dropped when the store is
    interreduced.

    The store keeps whole orbits under the signed unit action, but the
    pair loop runs over orbit representatives only: a sum of two orbit
    members is a unit transform of a representative paired against the
    transformed other, and reduction chains transform along, so closing
    over representative pairs closes over all pairs.
    """

    def __init__(self, C: int, budget: SearchBudget, transforms):
        self.C = C
        self.budget = budget
        self.transforms = transforms
        self.bits = (1 << np.arange(C, dtype=np.int64)).astype(np.int64)
        self.ticks = 0
        self._alloc(1 << 10)
        self.n = 0
        self.rep_of_row: list[int] = []
        self.reps: list[np.ndarray] = []

    def _alloc(self, cap: int) -> None:
        self.G = np.zeros((cap, self.C), dtype=np.int64)
        self.Gp = np.zeros((cap, self.C), dtype=np.int64)
        self.Gm = np.zeros((cap, self.C), dtype=np.int64)
        self.keys = np.zeros(cap, dtype=np.int64)

    def _grow(self) -> None:
        old = (self.G, self.Gp, self.Gm, self.keys)
        self._alloc(2 * len(self.G))
        for new, prev in zip((self.G, self.Gp, self.Gm, self.keys), old):
            new[: self.n] = prev[: self.n]

    def orbit(self, v: np.ndarray) -> list[np.ndarray]:
        """All distinct signed unit transforms of v, including +-v."""
        seen = {v.tobytes(): v}
        seen.setdefault((-v).tobytes(), -v)
        for perm, sign in self.transforms:
            w = np.zeros(self.C, dtype=np.int64)
            w[perm] = sign * v
            seen.setdefault(w.tobytes(), w)
            seen.setdefault((-w).tobytes(), -w)
        return [seen[k] for k in sorted(seen)]

    def _add_row(self, v: np.ndarray, rep_index: int) -> None:
        if self.n == len(self.G):
            self._grow()
        i = self.n
        vp = np.maximum(v, 0)
        vm = vp - v
        self.G[i] = v
        self.Gp[i] = vp
        self.Gm[i] = vm
        self.keys[i] = int(((vp > 0) * self.bits).sum()) | (
            int(((vm > 0) * self.bits).sum()) << 32
        )
        self.rep_of_row.append(rep_index)
        self.n += 1

    def add_orbit(self, v: np.ndarray) -> bool:
        if not v.any():
            return False
        members = self.orbit(v)
        rep_index = len(self.reps)
        self.reps.append(min(members, key=lambda a: tuple(a)))
        for w in members:
            self._add_row(w, rep_index)
        return True

    @staticmethod
    def _pack(vp: np.ndarray, vm: np.ndarray, bits: np.ndarray) -> int:
        return int(((vp > 0) * bits).sum()) | (int(((vm > 0) * bits).sum()) << 32)

    def normal_form(self, v: np.ndarray) -> np.ndarray:
        self.ticks += 1
        if not self.ticks % 512:
            self.budget.check(self.ticks)
        n = self.n
        while v.any():
            vp = np.maximum(v, 0)
            vm = vp - v
            vkey = self._pack(vp, vm, self.bits)
            cand = np.flatnonzero((self.keys[:n] & ~vkey) == 0)
            if not len(cand):
                break
            fit = cand[
                (self.Gp[cand] <= vp).all(axis=1) & (self.Gm[cand] <= vm).all(axis=1)
            ]
            if not len(fit):
                break
            v = v - self.G[fit[0]]
        return v

    def batch_reduce(self, V: np.ndarray) -> np.ndarray:
        """Reduce every row of V against the store; distinct remainders.

        Rows are sign-normalized (the store is closed under negation)
        and deduplicated.  The packed-bitmask prefilter computes each
        row's candidate reducers once per chunk: sign-compatible
        subtraction only shrinks both parts of a row, so the initial
        candidate set stays a valid superset for every later pass, and
        each pass just re-verifies magnitudes and subtracts the
        lowest-index fit.
        """
        if not len(V):
            return np.zeros((0, self.C), dtype=np.int64)
        first = V[np.arange(len(V)), np.argmax(V != 0, axis=1)]
        V = V * np.where(first < 0, -1, 1)[:, None]
        V = np.unique(V, axis=0)
        V = V[np.abs(V).sum(axis=1) > 0]
        n = self.n
        chunk = max(32, (1 << 23) // max(n, 1))
        out = []
        for lo in range(0, len(V), chunk):
            W = V[lo : lo + chunk].copy()
            self.budget.check(self.ticks)
            self.ticks += len(W)
            Wp = np.maximum(W, 0)
            Wm = Wp - W
            vkeys = ((Wp > 0) @ self.bits) | (((Wm > 0) @ self.bits) << 32)
            cand = (self.keys[:n][None, :] & ~vkeys[:, None]) == 0
            pair_row, pair_g = np.nonzero(cand)
            alive = np.ones(len(W), dtype=bool)
            while alive.any() and len(pair_row):
                self.budget.check(self.ticks)
                sel = alive[pair_row]
                rows, gs = pair_row[sel], pair_g[sel]
                if not len(rows):
                    break
                Wp = np.maximum(W, 0)
                Wm = Wp - W
                fit = (self.Gp[gs] <= Wp[rows]).all(axis=1) & (
                    self.Gm[gs] <= Wm[rows]
                ).all(axis=1)
                rows, gs = rows[fit], gs[fit]
                settled = alive.copy()
                if len(rows):
                    first_rows, first_pos = np.unique(rows, return_index=True)
                    W[first_rows] -= self.G[gs[first_pos]]
                    settled[first_rows] = False
                    zeroed = first_rows[~W[first_rows].any(axis=1)]
                    alive[zeroed] = False
                alive[settled] = False
            nz = W[np.abs(W).sum(axis=1) > 0]
            if len(nz):
                out.append(nz)
        if not out:
            return np.zeros((0, self.C), dtype=np.int64)
        return np.unique(np.vstack(out), axis=0)

    def interreduce(self) -> None:
        """Drop orbits reducible through the others; rebuild norm-sorted."""
        reps = sorted(self.reps, key=lambda a: (int(np.abs(a).sum()), tuple(a)))
        self.n = 0
        self.reps = []
        self.rep_of_row = []
        for v in reps:
            r = self.normal_form(v.copy())
            if r.any():
                self.add_orbit(r)

    def run(self, basis: list[list[int]]) -> np.ndarray:
        fresh: list[np.ndarray] = [np.asarray(b, dtype=np.int64) for b in basis]
        paired: set[bytes] = set()
        while True:
            for v in sorted(fresh, key=lambda a: (int(np.abs(a).sum()), tuple(a))):
                r = self.normal_form(v.copy())
                if r.any():
                    self.add_orbit(r)
            self.interreduce()
            rep_keys = [r.tobytes() for r in self.reps]
            unpaired = [
                i for i, k in enumerate(rep_keys) if k not in paired
            ]
            if not unpaired:
                break
            # pair the lowest-norm band first so that junk generators get
            # interreduced away before they multiply into more sums
            rep_norms = [int(np.abs(self.reps[i]).sum()) for i in unpaired]
            cutoff = min(rep_norms) + 2
            band = [i for i, nm in zip(unpaired, rep_norms) if nm <= cutoff]
            block_reps = np.asarray(band, dtype=np.int64)
            in_block = np.zeros(len(self.reps), dtype=bool)
            in_block[block_reps] = True
            row_rep = np.asarray(self.rep_of_row, dtype=np.int64)
            block_rows = np.flatnonzero(in_block[row_rep])
            block = self.G[block_rows].copy()
            block_rep_idx = row_rep[block_rows]
            reps_snapshot = [r.copy() for r in self.reps]
            buf: list[np.ndarray] = []
            buffered = 0
            remainders: dict[bytes, np.ndarray] = {}

            def flush() -> None:
                nonlocal buffered
                if not buf:
                    return
                stacked = np.vstack(buf)
                buf.clear()
                buffered = 0
                for r in self.batch_reduce(stacked):
                    remainders.setdefault(r.tobytes(), r)

            neg_block = block < 0
            pos_block = block > 0
            for i, g in enumerate(reps_snapshot):
                if not in_block[i] and rep_keys[i] not in paired:
                    continue  # deferred rep; this pair runs when its band comes
                cancel = (neg_block & (g > 0)).any(axis=1) | (
                    pos_block & (g < 0)
                ).any(axis=1)
                if in_block[i]:
                    cancel[block_rep_idx < i] = False
                if cancel.any():
                    buf.append(block[cancel] + g)
                    buffered += int(cancel.sum())
                    if buffered >= (1 << 17):
                        flush()
            flush()
            paired.update(rep_keys[i] for i in band)
            fresh = [remainders[k] for k in sorted(remainders)]
        return self.G[: self.n].copy()


def _completion_rows(m: int, budget: SearchBudget) -> list[tuple[int, ...]]:
    """All minimal nonzero solutions of the defining system."""
    budget.start()
    rows = [v.row() for v in enumerate_level(m, 1)]
    C = m // 2
    kernel = _integer_kernel(_class_rows(m), C)
    if m % 2 == 0:
        kernel = _even_sum_sublattice(kernel)
    if kernel:
        closure = _Closure(C, budget, _class_transforms(m))
        for u in closure.run(kernel):
            row = _u_to_row(u, m)
            if row is not None:
                rows.append(row)
    # The closure ends interreduced, so its rows form an antichain under
    # the sign order, and pair-free rows cannot dominate the level-one
    # pairs: no domination pass is needed.  Only the self-paired row
    # (x_{m/2} = 2; 1) of even m arrives twice, from level one and from
    # the lattice vector 2e_{m/2}.
    return sorted(set(rows))


# ---------------------------------------------------------------------------
# levelwise algorithm
# ---------------------------------------------------------------------------


def _indecomposable_in_slice(rows: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Rows of a level slice not dominating any lower-level basis row.

    If v = c + d then some indecomposable of level <= y/2 fits under v,
    so testing against basis elements of level <= y/2 is exact.
    """
    if not len(rows):
        return rows
    y = int(rows[0, -1])
    decomposable = np.zeros(len(rows), dtype=bool)
    for level in basis[: y // 2]:
        for b in level:
            decomposable |= (rows >= b).all(axis=1)
    return rows[~decomposable]


def _levelwise(
    m: int,
    max_level: int | None,
    trusted_bound: int | None,
    budget: SearchBudget,
) -> tuple[HilbertBasis, dict[int, np.ndarray]]:
    """Sieve level slices upwards; the basis and the slices it read.

    The slices (``level_rows`` arrays for levels 1..max_level_seen) are
    handed back so that a caller searching the same levels, like the
    quasi search of ``check_condition``, reads them instead of
    enumerating them again.
    """
    basis: list[np.ndarray] = []  # indecomposable rows, one array per level
    slices: dict[int, np.ndarray] = {}
    budget.start()
    last_new = 0
    y = 0
    processed = 0
    truncated = False
    while True:
        y += 1
        if max_level is not None and y > max_level:
            y -= 1
            break
        if trusted_bound is not None and max_level is None and y > trusted_bound:
            y -= 1
            break
        try:
            rows = level_rows(m, y, budget=budget)
            processed += len(rows)
            budget.check(processed)
        except BudgetExceededError:
            # report the last fully sieved level instead of failing
            y -= 1
            truncated = True
            break
        slices[y] = rows
        fresh = _indecomposable_in_slice(rows, basis)
        basis.append(fresh)
        if len(fresh):
            last_new = y
        if max_level is None and trusted_bound is None:
            # heuristic stop: far past the last discovery; not a certificate
            if last_new and y >= 2 * last_new:
                break
    complete = not truncated and trusted_bound is not None and y >= trusted_bound
    elements = tuple(MonoidVector.from_row(r) for b in basis for r in b.tolist())
    return (
        HilbertBasis(
            m=m,
            elements=elements,
            complete=complete,
            max_level_seen=y,
            algorithm="levelwise",
        ),
        slices,
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def hilbert_basis(
    m: int,
    max_level: int | None = None,
    algorithm: str = "completion",
    budget: SearchBudget | None = None,
    trusted_bound: int | None = None,
) -> HilbertBasis:
    """All indecomposable elements of the degree-m monoid.

    ``completion`` certifies completeness on its own.  ``levelwise``
    runs to ``max_level`` (or ``trusted_bound``, or a heuristic stop)
    and reports complete=True only when a trusted bound covers the run.
    A budget overrun yields a partial result with complete=False.
    """
    check_modulus(m)
    budget = budget or SearchBudget()
    if algorithm == "levelwise":
        return _levelwise(m, max_level, trusted_bound, budget)[0]
    if algorithm != "completion":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    try:
        rows = _completion_rows(m, budget)
    except BudgetExceededError:
        # salvage an uncertified levelwise sweep in what is left of the budget
        partial = _levelwise(m, max_level, None, budget.remaining())[0]
        return HilbertBasis(
            m=m,
            elements=partial.elements,
            complete=False,
            max_level_seen=partial.max_level_seen,
            algorithm="completion",
        )
    elements = sorted((MonoidVector.from_row(r) for r in rows), key=sort_key)
    max_level_seen = max((v.y for v in elements), default=1)
    return HilbertBasis(
        m=m,
        elements=tuple(elements),
        complete=True,
        max_level_seen=max_level_seen,
        algorithm="completion",
    )


def is_decomposable(
    v: MonoidVector,
    m: int,
    basis: HilbertBasis | None = None,
    budget: SearchBudget | None = None,
) -> DecompositionWitness | None:
    """First decomposition witness of v, or None if v is indecomposable.

    Candidates run in ascending level then lexicographic order.  Only
    indecomposable candidates can be the first fit at the first level
    where anything fits, so searching basis elements of level <= y/2
    yields the same witness as scanning the full slices.
    """
    if not is_member(v, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {v}")
    if v.y < 2:
        return None
    limit = v.y // 2
    if basis is not None and (basis.complete or basis.max_level_seen >= limit):
        candidates = [b for b in basis.elements if b.y <= limit]
    else:
        candidates = list(
            hilbert_basis(
                m, max_level=limit, algorithm="levelwise", budget=budget
            ).elements
        )
    candidates.sort(key=sort_key)
    for c in candidates:
        if c.y <= v.y - 1 and all(a <= b for a, b in zip(c.x, v.x)):
            return DecompositionWitness(c=c, d=v - c)
    return None


def phi(
    m: int,
    basis: HilbertBasis | None = None,
    budget: SearchBudget | None = None,
) -> int:
    """Maximum level among the indecomposable elements."""
    if basis is None:
        basis = hilbert_basis(m, budget=budget)
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
