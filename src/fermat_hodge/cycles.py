"""Quasi-decomposability, standard cycles, condition checks and verdicts.

An element x is quasi-decomposable when x + b = c + d for some level-1
element b and members c, d both different from x.  Standard elements
are the explicitly constructed members known to come from algebraic
cycles; they may be excluded from the quasi-decomposability obligation.
The per-degree conditions ("every indecomposable in a level range is
quasi-decomposable or standard") drive the Hodge-conjecture verdicts,
which otherwise fall back to the recorded theorem facts.

There is one quasi search, ``_first_witnesses``: it takes the rows of
every element of a check at once and finds each one's first witness in
a few numpy passes over the stacked level pool.  A prefilter on the
support of x keeps only the pool rows c whose excess over x a level-1 b
can cover, and the work per chunk is capped at ``_CELLS`` element-row
cells, so its memory stays small.  ``is_quasi_decomposable`` is its
one-row call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from math import gcd

import numpy as np

from .budget import SearchBudget
from .errors import (
    BudgetExceededError,
    IncompleteBasisError,
    IncompletePoolError,
    MembershipError,
)
from .hilbert import HilbertBasis, _levelwise, hilbert_basis
from .monoid import (
    MonoidVector,
    check_dimension,
    check_modulus,
    is_member,
    level_rows,
    rows_to_vectors,
    sort_key,
)

__all__ = [
    "QuasiWitness",
    "StandardProvenance",
    "StandardSet",
    "VerdictStatus",
    "ConditionOutcome",
    "ConditionReport",
    "VerdictReport",
    "build_pool",
    "is_quasi_decomposable",
    "standard_elements",
    "check_condition",
    "scan_fourfolds",
    "verdict",
    "newton_identity_check",
    "power_sum_identity_holds",
    "COUNTEREXAMPLE_33",
]


# the degree-33 level-3 element shown not to be quasi-decomposable
COUNTEREXAMPLE_33 = MonoidVector(
    x=tuple(1 if i in (7, 10, 13, 19, 22, 28) else 0 for i in range(1, 33)),
    y=3,
)


@dataclass(frozen=True)
class QuasiWitness:
    """Certificate x + b = c + d with b of level 1 and c, d != x."""

    b: MonoidVector
    c: MonoidVector
    d: MonoidVector


@dataclass(frozen=True)
class StandardProvenance:
    p: int  # prime divisor used by the construction
    i: int  # seed residue
    doubled: bool


@dataclass(frozen=True)
class StandardSet:
    m: int
    vectors: tuple[MonoidVector, ...]
    provenance: dict[MonoidVector, StandardProvenance] = field(hash=False)

    def __contains__(self, v: MonoidVector) -> bool:
        return v in self.provenance


def build_pool(
    m: int, max_level: int, budget: SearchBudget | None = None
) -> np.ndarray:
    """Level slices 1..max_level stacked into one (N, m) int64 array.

    Rows (x..., y) run in search order: by level, then lexicographic.
    """
    check_modulus(m)
    return np.concatenate([level_rows(m, y, budget) for y in range(1, max_level + 1)])


def is_quasi_decomposable(
    x: MonoidVector, m: int, pool: np.ndarray | None = None
) -> QuasiWitness | None:
    """First quasi-decomposition witness of x, or None.

    A one-row call of the batched search that ``check_condition`` runs
    (see ``_first_witnesses``).  The pool is a ``build_pool`` array
    reaching at least the level of x (built when not given); its rows
    above that level are not read.  Search order: b, then c, each in
    pool order.  A non-member x is a MembershipError.
    """
    if not is_member(x, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {x}")
    return _witnesses(np.array([x.row()], dtype=np.int64), pool)[0]


# element x pool-row cells compared per chunk of the quasi search
_CELLS = 1 << 16


def _witnesses(
    rows: np.ndarray,
    pool: np.ndarray | None = None,
    budget: SearchBudget | None = None,
) -> list[QuasiWitness | None]:
    """First witnesses of the member rows (x..., y), ordered by level.

    Without a pool, one is built up to the last level of the rows.  The
    list is shorter than the rows only when the budget ran out; it then
    holds the elements decided so far.
    """
    if pool is None:
        pool = build_pool(rows.shape[1], int(rows[-1, -1]), budget=budget)
    found = _first_witnesses(rows, pool, budget)
    hit = found[:, 0] >= 0
    b, c = pool[found[hit, 0]], pool[found[hit, 1]]
    d = rows[: len(found)][hit] + b - c
    k = len(b)
    parts = rows_to_vectors(np.concatenate([b, c, d]))
    witnesses = map(QuasiWitness, parts[:k], parts[k : 2 * k], parts[2 * k :])
    return [next(witnesses) if h else None for h in hit.tolist()]


def _first_witnesses(
    xs: np.ndarray, pool: np.ndarray, budget: SearchBudget | None = None
) -> np.ndarray:
    """Least pool indices (b, c) with x + b = c + d, per row x of xs.

    Returns a (k, 2) array, -1 where x has no witness.  For each level-1
    b and each pool row c <= x + b with level between 1 and the level y
    of x, the difference d = x + b - c is a member by linearity, and d
    has level >= 1 because c's level is at most y, so a subtraction test
    replaces the literal three-way product scan.  d == x exactly when
    c == b.  The least pair, b first, is the first witness of the b-major
    scan over the pool.

    Rows of xs are members ordered by level; each run of one level is
    searched in chunks of at most ``_CELLS`` (element, pool row) cells
    against the pool prefix up to that level.  A chunk keeps the near
    pairs, whose excess E = max(c - x, 0) sums to at most 2 (a level-1 b
    has two entries): the sum is |c| minus the overlap of c with x, which
    reads only the at most 2y support columns of x.  b fits iff E <= b
    and b != c.  The level-1 rows (pairs e_a + e_{m-a}, and 2e_{m/2})
    have disjoint supports, so a nonzero E fits only the row through its
    first nonzero column, and E = 0 fits row 0, or row 1 when c is row 0.
    The witness is the least (b, c) over the near pairs.  The budget is
    checked, for time only, before each chunk; on an overrun the rows
    decided so far are returned, a prefix of xs.
    """
    found = np.full((len(xs), 2), -1, dtype=np.int64)
    levels = pool[:, -1]
    top = int(xs[:, -1].max())
    if not len(pool) or levels[-1] < top:
        raise IncompletePoolError(
            f"pool for m={pool.shape[1]} stops below level {top}"
        )
    ends = np.searchsorted(levels, np.arange(top + 1), side="right")
    cols = np.ascontiguousarray(pool[:, :-1].T, dtype=np.int32)
    size = cols.sum(axis=0)
    # the level-1 row through each column
    owner = np.empty(len(cols), dtype=np.int64)
    column, row = np.nonzero(cols[:, : ends[1]])
    owner[column] = row
    runs = np.flatnonzero(np.diff(xs[:, -1])) + 1
    for lo_run, hi_run in zip(np.r_[0, runs], np.r_[runs, len(xs)]):
        y = int(xs[lo_run, -1])
        n = int(ends[y])
        step = max(1, _CELLS // max(n, 1))
        for lo in range(lo_run, hi_run, step):
            if budget is not None:
                try:
                    budget.check(0)
                except BudgetExceededError:
                    return found[:lo]
            hi = min(lo + step, hi_run)
            X, out = xs[lo:hi, :-1], found[lo:hi]
            _search_chunk(X, y, cols[:, :n], size[:n], levels[:n], owner, out)
    return found


def _search_chunk(X, y, cols, size, levels, owner, out) -> None:
    """Fill ``out`` with the least (b, c) for the level-y rows X; see above."""
    X = X.astype(np.int32)
    present = X > 0
    width = int(present.sum(axis=1).max())
    at = np.argsort(~present, axis=1, kind="stable")[:, :width]
    val = np.take_along_axis(X, at, axis=1)
    overlap = np.zeros((len(X), cols.shape[1]), dtype=np.int32)
    for t in range(width):
        overlap += np.minimum(cols[at[:, t]], val[:, t, None])
    excess = size - overlap
    # near pairs, without c == x (no excess at the same level)
    near = (excess <= 2) & ((excess > 0) | (levels != y))
    e, c = np.nonzero(near)
    E = np.maximum(cols[:, c] - X.T[:, e], 0)
    # the one candidate b per pair; with one level-1 row (m <= 3), E = 0
    # and c == 0 give b == c, which the fit test rejects
    first = owner[np.argmax(E > 0, axis=0)]
    b = np.where(excess[e, c] > 0, first, np.minimum(c == 0, owner.max()))
    fit = (E <= cols[:, b]).all(axis=0) & (b != c)
    n = cols.shape[1]
    least = np.full(len(X), n * n, dtype=np.int64)
    np.minimum.at(least, e[fit], b[fit] * n + c[fit])
    hit = least < n * n
    out[hit, 0], out[hit, 1] = np.divmod(least[hit], n)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        else:
            d += 1
    if n > 1:
        out.append(n)
    return out


def standard_elements(m: int) -> StandardSet:
    """Members arising from the explicit cycle construction.

    For an odd prime p | m with step d = m/p and a seed residue i with
    p*i != 0 mod m, the residues i + k*d (k < p) plus m - p*i form a
    level (p+1)/2 member; for p = 2 the quadruple (i, i+d, m-i, m-i-d)
    has level 2.  Each candidate is recorded together with its
    componentwise double (the source listing is ambiguous about which
    of the two to keep, and a superset is conservative for the
    exclusion role this set plays).  Zero residues invalidate a
    candidate.
    """
    check_modulus(m)
    vectors: list[MonoidVector] = []
    provenance: dict[MonoidVector, StandardProvenance] = {}

    def record(residues: list[int], y: int, p: int, i: int) -> None:
        if any(r == 0 for r in residues):
            return
        x = [0] * (m - 1)
        for r in residues:
            x[r - 1] += 1
        base = MonoidVector(x=tuple(x), y=y)
        for v, doubled in ((base, False), (base + base, True)):
            if v not in provenance:
                provenance[v] = StandardProvenance(p=p, i=i, doubled=doubled)
                vectors.append(v)

    for p in _prime_factors(m):
        if p == m:
            continue
        d = m // p
        for i in range(1, m):
            if (p * i) % m == 0:
                continue
            if p == 2:
                residues = [i % m, (i + d) % m, (m - i) % m, (m - i - d) % m]
                record(residues, 2, p, i)
            else:
                residues = [(i + k * d) % m for k in range(p)]
                residues.append((m - p * i) % m)
                record(residues, (p + 1) // 2, p, i)
    vectors.sort(key=sort_key)
    return StandardSet(m=m, vectors=tuple(vectors), provenance=provenance)


class VerdictStatus(str, Enum):
    PROVEN_DIM_LE_2 = "PROVEN_DIM_LE_2"
    PROVEN_PRIME_OR_4 = "PROVEN_PRIME_OR_4"
    PROVEN_PRIME_SQUARE = "PROVEN_PRIME_SQUARE"
    PROVEN_M_LE_20 = "PROVEN_M_LE_20"
    PROVEN_M_21_27 = "PROVEN_M_21_27"
    PROVEN_FOURFOLD_COPRIME_6 = "PROVEN_FOURFOLD_COPRIME_6"
    PROVEN_BY_PNM_CHECK = "PROVEN_BY_PNM_CHECK"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class ConditionOutcome:
    element: MonoidVector
    kind: str  # "QUASI" | "STANDARD" | "FAIL"
    witness: QuasiWitness | None = None
    provenance: StandardProvenance | None = None


@dataclass(frozen=True)
class ConditionReport:
    m: int
    n: int | None  # None means the all-levels condition
    exclude_standard: bool
    outcomes: tuple[ConditionOutcome, ...]
    verdict: bool
    complete: bool
    standard_count: int  # elements in the standard set regardless of exclusion

    @property
    def counts(self) -> dict[str, int]:
        out = {"QUASI": 0, "STANDARD": 0, "FAIL": 0}
        for o in self.outcomes:
            out[o.kind] += 1
        return out


@dataclass(frozen=True)
class VerdictReport:
    m: int
    n: int
    status: VerdictStatus
    justification: str
    condition_report: ConditionReport | None = None


def check_condition(
    m: int,
    n: int | None = None,
    exclude_standard: bool = False,
    budget: SearchBudget | None = None,
    basis: HilbertBasis | None = None,
) -> ConditionReport:
    """Classify every indecomposable in the level range 3..top.

    With n given the range is 3..n/2+1 and exhaustive level slices
    certify it; without n the range runs to the top of a complete
    basis, ``basis`` or computed (an incomplete one raises).  Verdict is
    true iff no element is left unexplained (neither quasi-decomposable
    nor excluded as standard).

    Every element that is not excluded as standard is searched in one
    batch (``_first_witnesses``), with the first witness that
    ``is_quasi_decomposable`` would give it; only a caller's ``basis``
    is proved, as the exact slices prove the sieve's rows.  The budget
    bounds that search by time too: when it runs out, the report has
    complete=False and the outcomes of the elements decided so far, a
    prefix of the full report's outcomes.
    """
    check_modulus(m)
    budget = budget or SearchBudget()
    pool = None  # the sieved slices, stacked, for the n-dimensional range
    if n is not None:
        check_dimension(n)
        if basis is not None:
            raise ValueError("a basis applies to the all-levels condition only")
        top = n // 2 + 1
        rows, slices = _levelwise(m, top, budget)
        rows = rows[rows[:, -1] >= 3]
        elements = rows_to_vectors(rows)
        complete = len(slices) >= top
        if len(rows):
            pool = np.concatenate(slices)
    else:
        given = basis is not None
        if not given:
            basis = hilbert_basis(m, budget=budget)
        if not basis.complete:
            raise IncompleteBasisError(
                f"the all-levels condition for m={m} needs a complete basis",
                partial_max_level=basis.max_element_level,
            )
        elements = sorted((b for b in basis.elements if b.y >= 3), key=sort_key)
        for e in elements if given else ():
            if not is_member(e, m):
                raise MembershipError(f"not a member of the degree-{m} monoid: {e}")
        rows = np.array([e.row() for e in elements], dtype=np.int64).reshape(-1, m)
        complete = True
    standards = standard_elements(m)
    excluded = [exclude_standard and e in standards for e in elements]
    searched = rows[~np.array(excluded, dtype=bool)]
    witnesses = _witnesses(searched, pool, budget) if len(searched) else []
    complete = complete and len(witnesses) == len(searched)
    decided, outcomes = iter(witnesses), []
    for e, standard in zip(elements, excluded):
        if standard:
            kind, witness = "STANDARD", None
        elif (witness := next(decided, False)) is False:
            break  # the budget ran out before this element's search
        else:
            kind = "FAIL" if witness is None else "QUASI"
        provenance = standards.provenance[e] if standard else None
        outcomes.append(ConditionOutcome(e, kind, witness, provenance))
    return ConditionReport(
        m=m,
        n=n,
        exclude_standard=exclude_standard,
        outcomes=tuple(outcomes),
        verdict=all(o.kind != "FAIL" for o in outcomes),
        complete=complete,
        standard_count=len(standards.vectors),
    )


def scan_fourfolds(
    m_from: int,
    m_to: int,
    coprime_to: int | None = None,
    budget_per_m: SearchBudget | None = None,
) -> list[ConditionReport]:
    """Fourfold condition reports over a degree range.

    A degree whose check runs out of budget gets a report with
    complete=False (see ``check_condition``).
    """
    if m_from < 2 or m_from > m_to:
        raise ValueError(f"invalid range {m_from}..{m_to}")
    reports = []
    for m in range(m_from, m_to + 1):
        if coprime_to is not None and gcd(m, coprime_to) != 1:
            continue
        budget = budget_per_m or SearchBudget()
        reports.append(check_condition(m, n=4, exclude_standard=True, budget=budget))
    return reports


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_square(n: int) -> bool:
    factors = _prime_factors(n)
    return len(factors) == 1 and factors[0] ** 2 == n


def verdict(m: int, n: int, budget: SearchBudget | None = None) -> VerdictReport:
    """Strongest applicable Hodge-conjecture status for dimension n, degree m.

    Theorem facts are recorded, not re-proved; the computational path
    runs the level-range condition with standard exclusion (both the
    quasi-decomposable and the standard classes are algebraic, so the
    exclusion is sound).  A check cut short by the budget is UNDETERMINED
    and its justification says so.
    """
    check_modulus(m)
    check_dimension(n)
    if n <= 2:
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_DIM_LE_2,
            "classes of degree (1,1) are algebraic, settling dimensions <= 2",
        )
    if _is_prime(m) or m == 4:
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_PRIME_OR_4,
            "for prime degree or degree 4 the monoid is generated in level 1",
        )
    if _prime_square(m):
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_PRIME_SQUARE,
            "for a squared prime every Hodge class is spanned by standard cycles",
        )
    if m <= 20:
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_M_LE_20,
            "recorded verification of the all-levels condition for degrees <= 20",
        )
    if m in (21, 27):
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_M_21_27,
            "recorded verification of the all-levels condition for degrees 21 and 27",
        )
    if n == 4 and gcd(m, 6) == 1:
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_FOURFOLD_COPRIME_6,
            "fourfolds of degree coprime to 6 are settled by the induced structure",
        )
    report = check_condition(m, n=n, exclude_standard=True, budget=budget)
    if not report.complete:
        return VerdictReport(
            m, n, VerdictStatus.UNDETERMINED,
            "no recorded theorem applies and the level-range check was cut "
            "short by the budget",
            condition_report=report,
        )
    if report.verdict:
        return VerdictReport(
            m, n, VerdictStatus.PROVEN_BY_PNM_CHECK,
            "every indecomposable in the level range is quasi-decomposable "
            "or standard",
            condition_report=report,
        )
    return VerdictReport(
        m, n, VerdictStatus.UNDETERMINED,
        "no recorded theorem applies and the level-range check does not close",
        condition_report=report,
    )


# ---------------------------------------------------------------------------
# power-sum identity check
# ---------------------------------------------------------------------------


def _elementary_symmetric(xs: tuple[int, ...]) -> tuple[int, int, int]:
    e1 = e2 = e3 = 0
    for x in xs:
        e3 = e3 + e2 * x
        e2 = e2 + e1 * x
        e1 = e1 + x
    return e1, e2, e3


def power_sum_identity_holds(xs: tuple[int, ...], d: int) -> bool:
    """sum x_i^(3d) == e1^3 - 3 e1 e2 + 3 e3 on the d-th powers, exactly."""
    powered = tuple(x**d for x in xs)
    e1, e2, e3 = _elementary_symmetric(powered)
    return sum(x**3 for x in powered) == e1**3 - 3 * e1 * e2 + 3 * e3


def newton_identity_check(d: int, trials: int, seed: int) -> bool:
    """Seeded random check of the cubic power-sum identity on 6-tuples.

    Python integers are exact at any size, so no overflow handling is
    needed beyond using them.
    """
    if d < 1 or trials < 1:
        raise ValueError("d and trials must be >= 1")
    rng = random.Random(seed)
    for _ in range(trials):
        xs = tuple(rng.randint(-9, 9) for _ in range(6))
        if not power_sum_identity_holds(xs, d):
            return False
    return True
