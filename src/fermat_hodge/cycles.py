"""Quasi-decomposability, standard cycles, condition checks and verdicts.

An element x is quasi-decomposable when x + b = c + d for some level-1
element b and members c, d both different from x.  Standard elements
are the explicitly constructed members known to come from algebraic
cycles; they may be excluded from the quasi-decomposability obligation.
The per-degree conditions ("every indecomposable in a level range is
quasi-decomposable or standard") drive the Hodge-conjecture verdicts,
which otherwise fall back to the recorded theorem facts.

There is one quasi search, ``_witnesses``, and it reads the rows of x
alone: a witness c is a sub-multiset of x plus a part of the level-1 b,
so the search runs in numpy over the subsets of the sorted indices of
each x, and ``monoid.subset_completions`` decides which of them are
members or complete to one.  ``is_quasi_decomposable`` is its one-row
call.  Rows convert through the codec of ``monoid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd

import numpy as np

from . import monoid
from .budget import SearchBudget
from .errors import BudgetExceededError, IncompleteBasisError, MembershipError
from .hilbert import HilbertBasis, _levelwise, hilbert_basis
from .monoid import (
    MonoidVector,
    canonical_keys,
    check_dimension,
    check_modulus,
    format_vector,
    indices_to_rows,
    is_member,
    level_rows,
    rows_to_vectors,
    subset_completions,
    vectors_to_indices,
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
    """Level slices 1..max_level as count rows (x..., y) stacked in one array.

    Rows run by level, then lexicographic on x.  No search of the
    package reads a pool; this helper stays public only because the
    benchmark's trace list names it, and it goes with the benchmark
    change of ROADMAP item 4.
    """
    check_modulus(m)
    levels = range(1, max_level + 1)
    return np.concatenate([indices_to_rows(level_rows(m, y, budget), m) for y in levels])


def is_quasi_decomposable(
    x: MonoidVector, m: int, budget: SearchBudget | None = None
) -> QuasiWitness | None:
    """First quasi-decomposition witness of x, or None.

    A one-row call of the sub-multiset search that ``check_condition``
    runs (see ``_witnesses``): b first in level-one order, then c by
    level and lexicographic.  A non-member x is a MembershipError; a
    search the budget cuts short is a BudgetExceededError.  Without a
    budget the search is unbounded.
    """
    if not is_member(x, m):
        raise MembershipError(f"not a member of the degree-{m} monoid: {x}")
    budget = budget or SearchBudget(max_seconds=None, max_candidates=None)
    found = _witnesses(m, vectors_to_indices([x]), budget)
    if not found:
        raise BudgetExceededError(
            f"the quasi search of {format_vector(x)} was cut short by the budget"
        )
    return found[0]


def _witnesses(m: int, levels, budget: SearchBudget) -> list[QuasiWitness | None]:
    """First witnesses of the degree-m members in ``levels``, in order.

    ``levels`` holds (N, 2y) arrays of ascending index rows, one level
    each.  An element of level y is searched over the subsets of its 2y
    sorted indices but the empty, the full and the one-element ones, so
    it takes 2^(2y) - 2y - 2 cells.  A chunk holds at most
    ``monoid._SUBSET_CELLS`` cells, of several elements or of one block
    of the subsets of one, and each chunk's cells are spent of the
    budget before it is evaluated.  On an overrun the list holds the
    elements decided so far.
    """
    found: list[QuasiWitness | None] = []
    for idx in levels:
        n = idx.shape[1]
        step = max(1, monoid._SUBSET_CELLS // max((1 << n) - n - 2, 1))
        for lo in range(0, len(idx), step):
            try:
                found += _least_witnesses(idx[lo : lo + step], m, budget.spend)
            except BudgetExceededError:
                return found
    return found


def _least_witnesses(idx: np.ndarray, m: int, spend) -> list[QuasiWitness | None]:
    """The first witness of each index row of ``idx``, all of one level.

    The subsets come in the blocks of ``subset_completions``; ``spend`` is
    told each block's cells.  The least candidate of each x, by
    (b, level(c), x(c)), is carried from block to block; within a level,
    ascending x(c) is descending indices of c.
    """
    n = idx.shape[1]
    best = np.zeros((0, n + 5), dtype=np.int64)
    for bits, size, a in subset_completions(idx, m):
        spend(len(idx) * int(((size > 1) & (size < n)).sum()))
        best = np.concatenate([best, _candidates(idx, m, bits, size, a)])
        order = np.lexsort(np.concatenate([best[:, :3], -best[:, 3:]], axis=1).T[::-1])
        best = best[order[np.diff(best[order, 0], prepend=-1) != 0]]
    rows, b, level, seq = best[:, 0], best[:, 1], best[:, 2], best[:, 3:]
    pair = m // 2 - b
    b_idx = np.column_stack([pair, m - pair])
    b_rows, c_rows = indices_to_rows(b_idx, m), indices_to_rows(seq, m)
    d_rows = indices_to_rows(np.concatenate([idx[rows], b_idx], axis=1), m) - c_rows
    parts = rows_to_vectors(np.concatenate([b_rows, c_rows, d_rows]))
    witnesses: list[QuasiWitness | None] = [None] * len(idx)
    for i, x in enumerate(rows.tolist()):
        witnesses[x] = QuasiWitness(*parts[i :: len(rows)])
    return witnesses


def _candidates(idx, m, bits, size, a) -> np.ndarray:
    """Witness candidates from the subsets ``bits`` of the indices ``idx``.

    x + b = c + d with b = e_a + e_{m-a} (or 2e_{m/2}) of level one
    means c = s + t with s = min(c, x) a subset and t <= b, and then d
    is a member by linearity.  So c is one of:
    - s + e_a for an odd s that ``subset_completions`` codes a > 0;
      |s| = 1 always gives c = b;
    - s or s + b for an even member s, coded 0 (x is then decomposable),
      with b among the first two level-one rows.
    Candidates with c = x or c = b are dropped.  A candidate is the row
    (x index, b, level(c), c's indices ascending, padded with m); b =
    m//2 - min(a, m - a) indexes the pair of a in level-one order.
    """
    n = bits.shape[1]
    half_m = m // 2  # also the number of level-one rows
    r_even, k_even = np.nonzero((a == 0) & (size > 0) & (size < n))
    r, k = np.nonzero((a > 0) & (size > 1))
    a = a[r, k]
    # c = s with b = 0, 1, then c = s + b with b = 0, 1
    pairs = half_m - np.arange(2)
    t_even = np.concatenate([np.full((2, 2), m), np.column_stack([pairs, m - pairs])])
    rows = np.concatenate([r, np.repeat(r_even, 4)])
    seq = np.where(bits[np.concatenate([k, np.repeat(k_even, 4)])], idx[rows], m)
    t_odd = np.column_stack([a, np.full_like(a, m)])
    t = np.concatenate([t_odd, np.tile(t_even, (len(r_even), 1))])
    seq = np.sort(np.concatenate([seq, t], axis=1), axis=1)
    level = (seq < m).sum(axis=1) // 2
    b = np.concatenate([half_m - np.minimum(a, m - a), np.tile([0, 1, 0, 1], len(r_even))])
    pair = half_m - b
    is_x = (level == n // 2) & (seq[:, :n] == idx[rows]).all(axis=1)
    is_b = (level == 1) & (seq[:, 0] == pair) & (seq[:, 1] == m - pair)
    keep = (b < half_m) & ~is_x & ~is_b
    return np.column_stack([rows, b, level, seq])[keep]


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


def _standard_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct standard rows (x..., y) in canonical order, with the
    (p, i, doubled) columns of the first candidate giving each row.

    Candidates come per prime p, then seed i, each followed by its
    double; the construction is described in ``standard_elements``.
    """
    check_modulus(m)
    rows, origin = [np.zeros((0, m), dtype=np.int64)], [np.zeros((0, 3), dtype=np.int64)]
    for p in _prime_factors(m):
        if p == m:
            continue
        d = m // p
        i = np.arange(1, m)
        i = i[p * i % m != 0]
        if p == 2:
            residues = np.stack([i, i + d, m - i, m - i - d], axis=1) % m
        else:
            residues = np.column_stack([i[:, None] + d * np.arange(p), m - p * i]) % m
        valid = (residues != 0).all(axis=1)
        base = indices_to_rows(residues[valid], m)
        rows.append(np.stack([base, 2 * base], axis=1).reshape(-1, m))
        seeds = np.repeat(i[valid], 2)
        origin.append(np.stack([np.full_like(seeds, p), seeds, np.arange(len(seeds)) % 2], 1))
    rows, origin = np.concatenate(rows), np.concatenate(origin)
    _, first = np.unique(canonical_keys(rows), return_index=True)  # first candidate
    return rows[first], origin[first]


def standard_elements(m: int) -> StandardSet:
    """Members arising from the explicit cycle construction.

    For an odd prime p | m with step d = m/p and a seed residue i with
    p*i != 0 mod m, the residues i + k*d (k < p) plus m - p*i form a
    level (p+1)/2 member; for p = 2 the quadruple (i, i+d, m-i, m-i-d)
    has level 2.  Each candidate is recorded together with its
    componentwise double (the source listing is ambiguous about which
    of the two to keep, and a superset is conservative for the
    exclusion role this set plays).  Zero residues invalidate a
    candidate.  The vectors of ``_standard_rows``, in canonical order,
    each with the provenance of its first candidate.
    """
    rows, origin = _standard_rows(m)
    vectors = rows_to_vectors(rows)
    provenance = {
        v: StandardProvenance(p=p, i=i, doubled=bool(doubled))
        for v, (p, i, doubled) in zip(vectors, origin.tolist())
    }
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
) -> ConditionReport:
    """Classify every indecomposable in the level range 3..top.

    With n given the range is 3..n/2+1 and exhaustive level slices
    certify it.  The sieve builds only the slices it reads: levels
    3..n/2+1 and the levels 2..(n/2+1)//2 that sieve them, so n = 4
    reads (m, 3) alone, n >= 6 reads (m, 2)..(m, n/2+1) and n <= 2
    reads none; a skipped level counts as sieved, so only a budget
    overrun in a level read cuts the sieve short.  Without n the
    range runs to the top of the basis that ``hilbert_basis`` certifies
    (an incomplete one raises).  Verdict is
    true iff no element is left unexplained (neither quasi-decomposable
    nor excluded as standard).

    The standard set is read as rows (``_standard_rows``): its size is
    always reported, and with ``exclude_standard`` the elements equal to
    one of its rows are excluded, with that row's provenance.  Every
    element that is not excluded as standard is searched in one
    batch (``_witnesses``), with the first witness that
    ``is_quasi_decomposable`` would give it.  The sieve (or the
    completion) and that search spend one budget, the call's meter, by
    their candidates and cells: when it runs out, the report has
    complete=False and the outcomes of the elements decided so far, a
    prefix of the full report's outcomes.
    """
    check_modulus(m)
    budget = budget or SearchBudget()
    if n is None:
        return _all_levels_report(hilbert_basis(m, budget=budget), exclude_standard, budget)
    check_dimension(n)
    top = n // 2 + 1
    levels, sieved = _levelwise(m, top, budget, bottom=3)
    return _classify(m, n, levels, sieved >= top, exclude_standard, budget)


def _all_levels_report(basis: HilbertBasis, exclude_standard, budget) -> ConditionReport:
    """The all-levels report of a complete basis, read in its stored
    (canonical) order: the one ``check_condition`` computes, or the one
    the CLI's cache verified.  An incomplete basis raises.
    """
    if not basis.complete:
        raise IncompleteBasisError(
            f"the all-levels condition for m={basis.m} needs a complete basis"
        )
    levels = vectors_to_indices([b for b in basis.elements if b.y >= 3])
    return _classify(basis.m, None, levels, True, exclude_standard, budget)


def _classify(m, n, levels, complete, exclude_standard, budget) -> ConditionReport:
    """The report on the indecomposables of levels >= 3: their index rows,
    one array per level, each in canonical order."""
    rows = np.concatenate([np.zeros((0, m), int)] + [indices_to_rows(i, m) for i in levels])
    elements = rows_to_vectors(rows)
    standards, origin = _standard_rows(m)
    match = np.full(len(rows), -1)  # the equal standard row, if excluded
    if exclude_standard and len(standards):
        keys, probe = canonical_keys(standards), canonical_keys(rows)
        at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        match = np.where(keys[at] == probe, at, -1)
    ends = np.cumsum([len(idx) for idx in levels])
    searched = [idx[match[end - len(idx) : end] < 0] for idx, end in zip(levels, ends)]
    count = sum(map(len, searched))
    witnesses = _witnesses(m, searched, budget) if count else []
    complete = complete and len(witnesses) == count
    decided, outcomes = iter(witnesses), []
    for e, at in zip(elements, match.tolist()):
        provenance = None
        if at >= 0:
            kind, witness = "STANDARD", None
            p, i, doubled = origin[at].tolist()
            provenance = StandardProvenance(p=p, i=i, doubled=bool(doubled))
        elif (witness := next(decided, False)) is False:
            break  # the budget ran out before this element's search
        else:
            kind = "FAIL" if witness is None else "QUASI"
        outcomes.append(ConditionOutcome(e, kind, witness, provenance))
    return ConditionReport(
        m=m,
        n=n,
        exclude_standard=exclude_standard,
        outcomes=tuple(outcomes),
        verdict=all(o.kind != "FAIL" for o in outcomes),
        complete=complete,
        standard_count=len(standards),
    )


def scan_fourfolds(
    m_from: int,
    m_to: int,
    coprime_to: int | None = None,
    budget_per_m: SearchBudget | None = None,
) -> list[ConditionReport]:
    """Fourfold condition reports over a degree range.

    Each degree spends a fresh meter with the caps of ``budget_per_m``;
    the template itself is never spent.  A degree whose check runs out of
    budget gets a report with complete=False (see ``check_condition``).
    """
    if m_from < 2 or m_from > m_to:
        raise ValueError(f"invalid range {m_from}..{m_to}")
    caps = budget_per_m or SearchBudget()
    reports = []
    for m in range(m_from, m_to + 1):
        if coprime_to is not None and gcd(m, coprime_to) != 1:
            continue
        budget = SearchBudget(caps.max_seconds, caps.max_candidates)
        reports.append(check_condition(m, n=4, exclude_standard=True, budget=budget))
    return reports


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_square(n: int) -> bool:
    factors = _prime_factors(n)
    return len(factors) == 1 and factors[0] ** 2 == n


# the recorded theorems, tried in order: (applies to (m, n), status, justification)
_THEOREMS = (
    (lambda m, n: n <= 2, VerdictStatus.PROVEN_DIM_LE_2,
     "classes of degree (1,1) are algebraic, settling dimensions <= 2"),
    (lambda m, n: _is_prime(m) or m == 4, VerdictStatus.PROVEN_PRIME_OR_4,
     "for prime degree or degree 4 the monoid is generated in level 1"),
    (lambda m, n: _prime_square(m), VerdictStatus.PROVEN_PRIME_SQUARE,
     "for a squared prime every Hodge class is spanned by standard cycles"),
    (lambda m, n: m <= 20, VerdictStatus.PROVEN_M_LE_20,
     "recorded verification of the all-levels condition for degrees <= 20"),
    (lambda m, n: m in (21, 27), VerdictStatus.PROVEN_M_21_27,
     "recorded verification of the all-levels condition for degrees 21 and 27"),
    (lambda m, n: n == 4 and gcd(m, 6) == 1, VerdictStatus.PROVEN_FOURFOLD_COPRIME_6,
     "fourfolds of degree coprime to 6 are settled by the induced structure"),
)


def verdict(m: int, n: int, budget: SearchBudget | None = None) -> VerdictReport:
    """Strongest applicable Hodge-conjecture status for dimension n, degree m.

    Theorem facts are recorded in ``_THEOREMS``, not re-proved, and the
    first that applies answers; otherwise the computational path runs
    the level-range condition with standard exclusion (both the
    quasi-decomposable and the standard classes are algebraic, so the
    exclusion is sound).  A check cut short by the budget is UNDETERMINED
    and its justification says so.
    """
    check_modulus(m)
    check_dimension(n)
    for applies, status, justification in _THEOREMS:
        if applies(m, n):
            return VerdictReport(m, n, status, justification)
    report = check_condition(m, n=n, exclude_standard=True, budget=budget)
    if not report.complete:
        status, justification = VerdictStatus.UNDETERMINED, (
            "no recorded theorem applies and the level-range check was cut "
            "short by the budget"
        )
    elif report.verdict:
        status, justification = VerdictStatus.PROVEN_BY_PNM_CHECK, (
            "every indecomposable in the level range is quasi-decomposable "
            "or standard"
        )
    else:
        status, justification = VerdictStatus.UNDETERMINED, (
            "no recorded theorem applies and the level-range check does not close"
        )
    return VerdictReport(m, n, status, justification, condition_report=report)


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
    """sum x_i^(3d) == e1^3 - 3 e1 e2 + 3 e3 on the d-th powers, exactly.

    The one-row call of ``newton_identity_check``, which passes six
    column arrays instead of six integers and gets one answer per row.
    """
    powered = tuple(x**d for x in xs)
    e1, e2, e3 = _elementary_symmetric(powered)
    return sum(x**3 for x in powered) == e1**3 - 3 * e1 * e2 + 3 * e3


# 6-tuples drawn and checked at once by ``newton_identity_check``
_TUPLES = 1 << 12


def _draw_tuples(seed: int, trials: int):
    """``trials`` 6-tuples of integers in [-9, 9], seeded by ``seed``.

    Yields (k, 6) int64 arrays of at most ``_TUPLES`` rows.  As with
    ``random.Random``, the seed's sign is ignored.
    """
    rng = np.random.default_rng(abs(seed))
    for lo in range(0, trials, _TUPLES):
        k = min(_TUPLES, trials - lo)
        yield rng.integers(-9, 10, size=(k, 6), dtype=np.int64)


def newton_identity_check(d: int, trials: int, seed: int) -> bool:
    """Seeded random check of the cubic power-sum identity on 6-tuples.

    The tuples are ``trials`` rows of six integers in [-9, 9] from
    ``np.random.default_rng(seed)``, drawn and checked ``_TUPLES`` at a
    time by ``power_sum_identity_holds`` on the six columns, so memory
    stays bounded at any ``trials``.  The columns are int64 for d <= 5,
    where every intermediate is at most 546 * 9^(3d) < 2^63, and Python
    integers beyond, so the check is exact at any d.  The identity is
    polynomial, so it holds for every integer tuple, even under int64
    wraparound: the check can fail only through a fault of this
    implementation, never because of the tuples.
    """
    if d < 1 or trials < 1:
        raise ValueError("d and trials must be >= 1")
    dtype = np.int64 if d <= 5 else object
    for tuples in _draw_tuples(seed, trials):
        if not np.all(power_sum_identity_holds(tuple(tuples.astype(dtype).T), d)):
            return False
    return True
