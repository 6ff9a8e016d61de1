"""Quasi-decomposability, standard cycles, condition checks and verdicts.

An element x is quasi-decomposable when x + b = c + d for some level-1
element b and members c, d both different from x.  Standard elements
are the explicitly constructed members known to come from algebraic
cycles; they may be excluded from the quasi-decomposability obligation.
The per-degree conditions ("every indecomposable in a level range is
quasi-decomposable or standard") drive the Hodge-conjecture verdicts,
which otherwise fall back to the recorded theorem facts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from math import gcd

import numpy as np

from .budget import SearchBudget
from .errors import IncompleteBasisError, IncompletePoolError, MembershipError
from .hilbert import HilbertBasis, _levelwise, hilbert_basis
from .monoid import MonoidVector, check_modulus, is_member, level_rows, sort_key

__all__ = [
    "QuasiWitness",
    "StandardProvenance",
    "StandardSet",
    "LevelPool",
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


@dataclass
class LevelPool:
    """Exhaustive level slices 1..max_level, each in canonical order.

    A slice is held as the (N, m) int64 array of rows (x..., y) that
    ``level_rows`` produces; sequences of ``MonoidVector`` are accepted
    and converted once.
    """

    m: int
    levels: dict[int, np.ndarray]
    _stacked: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.levels = {y: _rows(s, self.m) for y, s in self.levels.items()}

    def stacked(self, top: int) -> np.ndarray:
        """Levels 1..top stacked in search order: by level, then lexicographic."""
        if top not in self._stacked:
            wanted = range(1, top + 1)
            for y in wanted:
                if y not in self.levels:
                    raise IncompletePoolError(f"pool for m={self.m} is missing level {y}")
            self._stacked[top] = np.concatenate([self.levels[y] for y in wanted])
        return self._stacked[top]


def _rows(vectors, m: int) -> np.ndarray:
    if isinstance(vectors, np.ndarray):
        return vectors
    return np.asarray([v.row() for v in vectors], dtype=np.int64).reshape(-1, m)


def build_pool(m: int, max_level: int, budget: SearchBudget | None = None) -> LevelPool:
    check_modulus(m)
    return LevelPool(
        m=m, levels={y: level_rows(m, y, budget) for y in range(1, max_level + 1)}
    )


def is_quasi_decomposable(
    x: MonoidVector,
    m: int,
    level_one_elements: list[MonoidVector] | None = None,
    pool: LevelPool | None = None,
) -> QuasiWitness | None:
    """First quasi-decomposition witness of x, or None.

    For each level-1 b and each pool element c <= x + b with level
    between 1 and the level of x, the difference d = x + b - c is a
    member by linearity, and d has level >= 1 because c's level is at
    most x's, so a subtraction test replaces the literal three-way
    product scan.  Search order: b (the pool's level 1 unless given),
    then c by ascending level and lexicographic position.  d == x
    exactly when c == b.
    """
    if not is_member(x, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {x}")
    if pool is None:
        pool = build_pool(m, x.y)
    rows = pool.stacked(x.y)
    if level_one_elements is None:
        ones = pool.levels[1]
    else:
        ones = _rows(level_one_elements, m)
    x_row = np.asarray(x.row(), dtype=np.int64)
    # c <= x + b iff b covers c's excess over x; only rows whose excess
    # is no larger than some b can fit at all
    excess = np.maximum(rows - x_row, 0)
    near = np.flatnonzero(excess.sum(axis=1) <= ones.sum(axis=1).max(initial=0))
    excess, near_rows = excess[near], rows[near]
    allowed = (near_rows != x_row).any(axis=1)
    for b in ones:
        fits = np.flatnonzero(
            allowed & (excess <= b).all(axis=1) & (near_rows != b).any(axis=1)
        )
        if len(fits):
            c = near_rows[fits[0]]
            return QuasiWitness(
                b=MonoidVector.from_row(b.tolist()),
                c=MonoidVector.from_row(c.tolist()),
                d=MonoidVector.from_row((x_row + b - c).tolist()),
            )
    return None


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
    """
    check_modulus(m)
    budget = budget or SearchBudget()
    pool = None
    if n is not None:
        if n < 0 or n % 2:
            raise ValueError(f"dimension must be even and >= 0, got {n}")
        if basis is not None:
            raise ValueError("a basis applies to the all-levels condition only")
        top = n // 2 + 1
        # the sieved slices become the pool of the quasi search
        sieve, slices = _levelwise(m, top, None, budget)
        elements = [b for b in sieve.elements if b.y >= 3]
        complete = sieve.max_level_seen >= top
        pool = LevelPool(m, levels=slices)
    else:
        if basis is None:
            basis = hilbert_basis(m, budget=budget)
        if not basis.complete:
            raise IncompleteBasisError(
                f"the all-levels condition for m={m} needs a complete basis",
                partial_max_level=basis.max_element_level,
            )
        elements = [b for b in basis.elements if b.y >= 3]
        complete = True
    standards = standard_elements(m)
    elements = sorted(elements, key=sort_key)
    outcomes = []
    for e in elements:
        if exclude_standard and e in standards:
            outcomes.append(
                ConditionOutcome(
                    element=e, kind="STANDARD", provenance=standards.provenance[e]
                )
            )
            continue
        if pool is None:
            pool = build_pool(m, elements[-1].y, budget=budget)
        witness = is_quasi_decomposable(e, m, pool=pool)
        if witness is not None:
            outcomes.append(ConditionOutcome(element=e, kind="QUASI", witness=witness))
        else:
            outcomes.append(ConditionOutcome(element=e, kind="FAIL"))
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
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_square(n: int) -> bool:
    r = int(round(n**0.5))
    return r * r == n and _is_prime(r)


def verdict(m: int, n: int, budget: SearchBudget | None = None) -> VerdictReport:
    """Strongest applicable Hodge-conjecture status for dimension n, degree m.

    Theorem facts are recorded, not re-proved; the computational path
    runs the level-range condition with standard exclusion (both the
    quasi-decomposable and the standard classes are algebraic, so the
    exclusion is sound).  A check cut short by the budget is UNDETERMINED
    and its justification says so.
    """
    check_modulus(m)
    if n < 0 or n % 2:
        raise ValueError(f"dimension must be even and >= 0, got {n}")
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
