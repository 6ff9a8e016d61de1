import hashlib
import inspect
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermat_hodge import (
    COUNTEREXAMPLE_33,
    HilbertBasis,
    MonoidVector,
    QuasiWitness,
    SearchBudget,
    VerdictStatus,
    build_pool,
    check_condition,
    enumerate_level,
    hilbert_basis,
    is_member,
    is_quasi_decomposable,
    newton_identity_check,
    parse_vector,
    power_sum_identity_holds,
    scan_fourfolds,
    standard_elements,
    verdict,
)
from fermat_hodge.errors import (
    BudgetExceededError,
    IncompleteBasisError,
    MembershipError,
)
from fermat_hodge.cache import report_to_dict
import fermat_hodge.cycles as cycles
import fermat_hodge.monoid as monoid
from fermat_hodge.cycles import _is_prime, _prime_square

# (m, x, b, c, d): first witnesses of the search, recorded from the
# b-major scan over per-level MonoidVector slices that the array search
# replaced; for each degree the first non-standard level-3 element and
# the one whose witness uses the latest level-one b
FIRST_WITNESSES = [
    (12, "0,0,0,2,2,0,0,0,2,0,0;3",
     "0,0,0,0,0,2,0,0,0,0,0;1",
     "0,0,0,1,1,1,0,0,1,0,0;2",
     "0,0,0,1,1,1,0,0,1,0,0;2"),
    (12, "0,0,2,0,0,1,2,0,0,1,0;3",
     "0,0,0,1,0,0,0,1,0,0,0;1",
     "0,0,1,0,0,1,1,1,0,0,0;2",
     "0,0,1,1,0,0,1,0,0,1,0;2"),
    (18, "0,0,0,0,0,0,2,2,0,0,0,2,0,0,0,0,0;3",
     "0,0,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0;1",
     "0,0,0,0,0,0,1,1,1,0,0,1,0,0,0,0,0;2",
     "0,0,0,0,0,0,1,1,1,0,0,1,0,0,0,0,0;2"),
    (18, "0,0,0,0,0,0,2,2,1,0,0,0,0,0,1,0,0;3",
     "0,0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0;1",
     "0,0,0,0,0,0,1,1,1,0,0,1,0,0,0,0,0;2",
     "0,0,0,0,0,1,1,1,0,0,0,0,0,0,1,0,0;2"),
    (24, "0,0,0,0,0,0,0,2,0,0,2,0,0,0,0,0,2,0,0,0,0,0,0;3",
     "0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0;1",
     "0,0,0,0,0,0,0,1,0,0,1,1,0,0,0,0,1,0,0,0,0,0,0;2",
     "0,0,0,0,0,0,0,1,0,0,1,1,0,0,0,0,1,0,0,0,0,0,0;2"),
    (24, "0,0,0,0,0,0,2,0,0,1,0,0,2,0,0,0,0,0,0,0,0,1,0;3",
     "0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0;1",
     "0,0,0,0,0,0,1,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0,0;2",
     "0,0,0,0,0,1,1,0,0,0,0,0,1,0,0,0,0,0,0,0,0,1,0;2"),
    (32, "0,0,0,0,0,0,0,0,0,2,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0;3",
     "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0;1",
     "0,0,0,0,0,0,0,0,0,1,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0;2",
     "0,0,0,0,0,0,0,0,0,1,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0;2"),
    (32, "0,0,0,0,0,0,0,1,0,0,0,1,0,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1;3",
     "0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0;1",
     "0,0,0,0,0,0,0,1,0,0,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0;2",
     "0,0,0,1,0,0,0,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1;2"),
    (33, "0,0,0,0,0,0,0,1,1,1,0,0,0,0,0,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,0,1;3",
     "0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0;1",
     "0,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1,0,0;2",
     "0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1;2"),
    (33, "0,0,0,0,0,0,0,1,1,1,0,0,0,0,0,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,0,1;3",
     "0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0;1",
     "0,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1,0,0;2",
     "0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1;2"),
]


def _b_major_scan(x, m):
    """The replaced search, literally: b in level-one order, then c by
    level and lexicographic position, skipping c == x and d == x."""
    ones = enumerate_level(m, 1)
    pool = [c for y in range(1, x.y + 1) for c in enumerate_level(m, y)]
    for b in ones:
        target = x + b
        for c in pool:
            if c != x and all(a <= t for a, t in zip(c.row(), target.row())):
                d = target - c
                if d != x:
                    return QuasiWitness(b=b, c=c, d=d)
    return None


def _nonstandard_level_three(m):
    std = standard_elements(m)
    sieve = hilbert_basis(m, max_level=3, algorithm="levelwise")
    return [e for e in sieve.elements if e.y == 3 and e not in std]


def _literal_standard_set(m):
    """The standard construction one candidate at a time, in Python integers:
    per prime p of m, then seed i, each candidate and then its double; the
    first candidate giving a vector names its provenance."""
    provenance = {}
    for p in cycles._prime_factors(m):
        if p == m:
            continue
        d = m // p
        for i in range(1, m):
            if p * i % m == 0:
                continue
            if p == 2:
                residues, y = [i % m, (i + d) % m, (m - i) % m, (m - i - d) % m], 2
            else:
                residues = [(i + k * d) % m for k in range(p)] + [(m - p * i) % m]
                y = (p + 1) // 2
            if 0 in residues:
                continue
            x = [0] * (m - 1)
            for r in residues:
                x[r - 1] += 1
            base = MonoidVector(tuple(x), y)
            for v, doubled in ((base, False), (base + base, True)):
                provenance.setdefault(v, cycles.StandardProvenance(p, i, doubled))
    return provenance


class TestStandardElements:
    def test_m9_seed_one(self):
        std = standard_elements(9)
        v = MonoidVector((1, 0, 0, 1, 0, 1, 1, 0), 2)
        assert v in std
        prov = std.provenance[v]
        assert prov.p == 3 and not prov.doubled

    def test_m25_seed_one(self):
        x = [0] * 24
        for r in (1, 6, 11, 16, 21, 20):
            x[r - 1] += 1
        assert MonoidVector(tuple(x), 3) in standard_elements(25)

    def test_prime_degree_empty(self):
        assert standard_elements(7).vectors == ()

    @pytest.mark.parametrize("m", range(2, 121))
    def test_rows_equal_the_literal_construction(self, m):
        expected = _literal_standard_set(m)
        std = standard_elements(m)
        assert std.vectors == tuple(sorted(expected, key=lambda v: (v.y, v.x)))
        assert std.provenance == expected
        # Python ints and bools, as the JSON report prints them
        for prov in std.provenance.values():
            assert (type(prov.p), type(prov.i), type(prov.doubled)) == (int, int, bool)

    @pytest.mark.parametrize("m", [15, 21, 24, 25, 27, 33, 35, 45])
    def test_check_excludes_exactly_the_standard_rows(self, m):
        std = standard_elements(m)
        report = check_condition(m, n=4, exclude_standard=True)
        plain = check_condition(m, n=4)
        assert report.standard_count == plain.standard_count == len(std.vectors)
        assert [o.element for o in report.outcomes] == [o.element for o in plain.outcomes]
        for o in report.outcomes:
            assert (o.kind == "STANDARD") == (o.element in std)
            assert o.provenance == std.provenance.get(o.element)

    @pytest.mark.parametrize("m", [9, 10, 12, 21, 25, 27, 33])
    def test_all_members_with_provenance(self, m):
        std = standard_elements(m)
        for v in std.vectors:
            assert is_member(v, m)
            prov = std.provenance[v]
            assert m % prov.p == 0
        doubled = [v for v in std.vectors if std.provenance[v].doubled]
        assert doubled, "doubling rule records doubled candidates"

    @pytest.mark.parametrize("p", [3, 5])
    def test_prime_square_levels(self, p):
        std = standard_elements(p * p)
        undoubled = [v for v in std.vectors if not std.provenance[v].doubled]
        assert undoubled
        assert {v.y for v in undoubled} == {(p + 1) // 2}


class TestQuasiDecomposable:
    def test_m4_level_one_not_quasi(self):
        assert is_quasi_decomposable(MonoidVector((1, 0, 1), 1), 4) is None

    def test_degree_33_counterexample_not_quasi(self):
        assert is_quasi_decomposable(COUNTEREXAMPLE_33, 33) is None

    def test_first_level_three_indecomposable_of_21_is_quasi(self, get_basis):
        first = next(v for v in get_basis(21).elements if v.y == 3)
        witness = is_quasi_decomposable(first, 21)
        assert witness is not None
        assert witness.b.y == 1
        assert witness.c != first and witness.d != first
        assert first + witness.b == witness.c + witness.d
        for part in (witness.b, witness.c, witness.d):
            assert is_member(part, 21)
        assert witness.c.y + witness.d.y == first.y + 1

    def test_non_member_raises(self):
        with pytest.raises(MembershipError):
            is_quasi_decomposable(MonoidVector((1, 1, 0), 1), 4)

    def test_budget_overrun_raises(self):
        # the counterexample's search takes 2^6 - 6 - 2 = 56 cells
        with pytest.raises(BudgetExceededError):
            is_quasi_decomposable(
                COUNTEREXAMPLE_33, 33, SearchBudget(max_candidates=55)
            )
        assert is_quasi_decomposable(
            COUNTEREXAMPLE_33, 33, SearchBudget(max_candidates=56)
        ) is None

    @pytest.mark.parametrize("m", [6, 8, 9, 10, pytest.param(12, marks=pytest.mark.slow)])
    def test_matches_literal_triple_loop(self, m, get_basis):
        """The subtraction search agrees with the appendix-style scan."""
        basis = get_basis(m)
        targets = [v for v in basis.elements if v.y >= 3] or [
            v for v in basis.elements if v.y == basis.max_element_level
        ]
        pool_levels = {}
        for x in targets:
            for y in range(1, x.y + 1):
                pool_levels.setdefault(y, tuple(enumerate_level(m, y)))
            ones = enumerate_level(m, 1)
            flat_pool = [v for y in sorted(pool_levels) for v in pool_levels[y] if y <= x.y]
            brute = False
            for b, c, d in product(ones, flat_pool, flat_pool):
                if x + b == c + d and c != x and d != x:
                    brute = True
                    break
            assert (is_quasi_decomposable(x, m) is not None) == brute


class TestWitnessIdentity:
    @pytest.mark.parametrize("m,x,b,c,d", FIRST_WITNESSES)
    def test_pinned_first_witness(self, m, x, b, c, d):
        witness = is_quasi_decomposable(parse_vector(x), m)
        assert witness == QuasiWitness(
            b=parse_vector(b), c=parse_vector(c), d=parse_vector(d)
        )

    @pytest.mark.parametrize("m", [12, 18, 24, 32, 33])
    def test_equals_b_major_scan(self, m):
        for x in _nonstandard_level_three(m):
            assert is_quasi_decomposable(x, m) == _b_major_scan(x, m), x

    @pytest.mark.parametrize("m", [8, 10])
    def test_element_split_into_blocks_equals_b_major_scan(self, m):
        """A level-9 element has 2^18 subsets, more than one chunk holds."""
        level = enumerate_level(m, 9)
        for x in (level[0], level[-1]):
            assert is_quasi_decomposable(x, m) == _b_major_scan(x, m), x


class TestKernelEdgeDegrees:
    """Degrees with one level-1 row (2, 3) and the self-paired row of even m."""

    @pytest.mark.parametrize("m", range(2, 12))
    def test_every_low_member_equals_b_major_scan(self, m):
        top = 4 if m < 9 else 3
        for x in (v for y in range(1, top + 1) for v in enumerate_level(m, y)):
            assert is_quasi_decomposable(x, m) == _b_major_scan(x, m), x


class TestBatchedSearch:
    """``check_condition`` searches all its elements in one batch."""

    @pytest.mark.parametrize(
        "m,cells",
        [
            pytest.param(m, cells, marks=[pytest.mark.slow] if (m, cells) == (24, 1) else [])
            for m in (12, 24, 32, 33)
            for cells in (1, 300)
        ],
    )
    def test_chunk_size_does_not_change_reports(self, m, cells, monkeypatch):
        default = [check_condition(m, n=4, exclude_standard=ex) for ex in (False, True)]
        monkeypatch.setattr(monoid, "_SUBSET_CELLS", cells)
        chunked = [check_condition(m, n=4, exclude_standard=ex) for ex in (False, True)]
        assert chunked == default

    @pytest.mark.parametrize(
        "m,n,levels",
        [(12, None, {3, 4, 5}), (14, None, {3}), (12, 6, {3, 4}), (18, 6, {3, 4})],
    )
    def test_mixed_levels_equal_b_major_scan(self, m, n, levels):
        report = check_condition(m, n=n)
        assert {o.element.y for o in report.outcomes} == levels
        for o in report.outcomes:
            assert o.witness == _b_major_scan(o.element, m), o.element

    @pytest.mark.parametrize("m", [24, 33])
    def test_one_row_call_equals_batch_entry(self, m):
        report = check_condition(m, n=4)
        assert report.outcomes
        for o in report.outcomes:
            assert is_quasi_decomposable(o.element, m) == o.witness
        if m == 33:
            assert COUNTEREXAMPLE_33 in [
                o.element for o in report.outcomes if o.kind == "FAIL"
            ]


class TestSearchBudget:
    """The quasi search checks the time budget; candidates count the request."""

    def test_overrun_in_the_search_is_incomplete(self, overrun_after_sieve):
        report = check_condition(36, n=4, budget=overrun_after_sieve())
        assert not report.complete
        assert report.outcomes == ()

    def test_decided_elements_are_a_prefix(self, overrun_after_sieve, monkeypatch):
        monkeypatch.setattr(monoid, "_SUBSET_CELLS", 64)  # one level-3 element a chunk
        budget = overrun_after_sieve()
        budget.grace = 3
        report = check_condition(36, n=4, budget=budget)
        full = check_condition(36, n=4)
        assert full.complete and not report.complete
        assert len(report.outcomes) == 3
        assert report.outcomes == full.outcomes[:3]

    def test_standard_elements_before_the_cut_are_kept(
        self, overrun_after_sieve, monkeypatch
    ):
        monkeypatch.setattr(monoid, "_SUBSET_CELLS", 64)  # one level-3 element a chunk
        budget = overrun_after_sieve()
        budget.grace = 1
        report = check_condition(15, n=4, exclude_standard=True, budget=budget)
        full = check_condition(15, n=4, exclude_standard=True)
        assert not report.complete
        assert [o.kind for o in full.outcomes[:3]] == ["QUASI", "STANDARD", "QUASI"]
        assert report.outcomes == full.outcomes[:2]

    def test_overrun_in_the_search_makes_the_verdict_undetermined(
        self, overrun_after_sieve
    ):
        report = verdict(33, 4, budget=overrun_after_sieve())
        assert report.status == VerdictStatus.UNDETERMINED
        assert "cut short" in report.justification

    def test_all_levels_search_checks_the_budget(self, overrun_after_sieve, monkeypatch):
        budget = overrun_after_sieve()
        search = cycles._witnesses

        def armed_search(*args):
            budget.armed = True
            return search(*args)

        monkeypatch.setattr(cycles, "_witnesses", armed_search)
        report = check_condition(12, budget=budget)
        assert not report.complete and report.outcomes == ()

    def test_candidate_cap_bounds_the_search(self):
        """``max_candidates`` bounds the request: the sieve and the search
        spend one meter.

        The sieve of (24, n=4) spends 3,778: the count of all halves of
        level 3 (2,300) and the rows found (1,478); it builds no level-2 slice,
        which a level-3 row is not sieved against.  The search evaluates
        56 subsets (sizes 2 to 5 of the 6 sorted indices) of each of its
        298 level-3 elements, 16,688 cells.
        """
        uncapped = SearchBudget(max_seconds=None, max_candidates=None)
        full = check_condition(24, n=4, exclude_standard=True, budget=uncapped)
        assert sum(o.kind != "STANDARD" for o in full.outcomes) == 298
        assert uncapped.spent == 3778 + 298 * 56 == 20466
        for cap, complete in ((5000, False), (20465, False), (20466, True)):
            budget = SearchBudget(max_seconds=None, max_candidates=cap)
            report = check_condition(24, n=4, exclude_standard=True, budget=budget)
            assert report.complete == complete, cap
            if complete:
                assert report == full
            else:
                assert report.outcomes == full.outcomes[: len(report.outcomes)]


class TestHeavyPins:
    """Checks too heavy for a pool scan, pinned by the sha256 of their
    ``report_to_dict`` payload."""

    @pytest.mark.parametrize(
        "m,n,counts,digest",
        [
            (60, 4, {"QUASI": 7704, "STANDARD": 8, "FAIL": 98},
             "7899cf1a0e97e9ed74ed6f541f79917c3f6e02e080ecf41ffeec3e8e5342392b"),
            (30, 6, {"QUASI": 3990, "STANDARD": 4, "FAIL": 0},
             "274c9e2586dd7fc3eba3de3417595d432d1b86844efcc433193b2f814149831a"),
            # levels 4 and 5 sieved by level 2
            (24, 8, {"QUASI": 1032, "STANDARD": 0, "FAIL": 0},
             "3b2836db51763b10ff01c022140892ce57c0f2f58eda53c35cd97ab154f27a69"),
            (36, 6, {"QUASI": 3520, "STANDARD": 0, "FAIL": 96},
             "2ca95cac336c4919bb9b9d2215b8a5d473a4381b6fda034fe0f7d499f60ad696"),
        ],
        ids=["60-4", "30-6", "24-8", "36-6"],
    )
    def test_report_is_pinned(self, m, n, counts, digest):
        report = check_condition(m, n=n, exclude_standard=True)
        assert report.complete and report.counts == counts
        payload = json.dumps(report_to_dict(report), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestHighLevelMemory:
    """The sieve's pair test runs on row blocks of a slice, so a high
    level-range check stays within a fixed memory."""

    @pytest.mark.slow
    def test_level_range_check_traced_peak(self):
        # 544 MiB traced; 757 MiB when the pair test transposed whole slices
        tracemalloc.start()
        try:
            report = check_condition(24, n=14, exclude_standard=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.complete
        assert report.counts == {"QUASI": 1244, "STANDARD": 0, "FAIL": 0}
        assert peak < 600 << 20

    @pytest.mark.slow
    def test_sixteen_fold_verdict_under_3_gib(self):
        # the check builds and sieves the 26.3 M-row level-9 slice of degree 24
        root = os.path.dirname(os.path.dirname(os.path.abspath(cycles.__file__)))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        limit = 3 << 30
        proc = subprocess.run(
            [sys.executable, "-c",
             "from fermat_hodge import verdict; print(verdict(24, 16).status.value)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "PROVEN_BY_PNM_CHECK"


class TestPoolBudget:
    def test_build_pool_honours_budget(self):
        with pytest.raises(BudgetExceededError):
            build_pool(47, 3, SearchBudget(max_seconds=None, max_candidates=10))


class TestCheckCondition:
    def test_truncated_fourfold_check_is_incomplete(self):
        budget = SearchBudget(max_seconds=None, max_candidates=100)
        report = check_condition(33, n=4, exclude_standard=True, budget=budget)
        assert not report.complete

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=8000))
    def test_any_candidate_cap_is_incomplete_or_exact(self, cap):
        budget = SearchBudget(max_seconds=None, max_candidates=cap)
        report = check_condition(33, n=4, exclude_standard=True, budget=budget)
        if report.complete:
            assert report == check_condition(33, n=4, exclude_standard=True)

    def test_truncated_fourfold_verdict_is_undetermined(self):
        budget = SearchBudget(max_seconds=None, max_candidates=100)
        report = verdict(33, 4, budget=budget)
        assert report.status == VerdictStatus.UNDETERMINED
        assert not report.condition_report.complete
        assert "cut short" in report.justification

    def test_each_slice_enumerated_once(self, slice_reads):
        report = check_condition(33, n=4)
        assert not report.verdict
        assert sorted(slice_reads) == [(33, 3)]

    def test_sixfold_check_reads_levels_two_to_four(self, slice_reads):
        # level 2 sieves level 4; level 1 is the pair test, never a slice
        report = check_condition(15, n=6)
        assert report.complete and report.outcomes
        assert sorted(slice_reads) == [(15, 2), (15, 3), (15, 4)]

    @pytest.mark.parametrize("n", [0, 2])
    def test_check_below_level_three_reads_no_slice(self, n, slice_reads):
        report = check_condition(15, n=n)
        assert report.complete and report.verdict and report.outcomes == ()
        assert slice_reads == []

    @pytest.mark.parametrize(
        "m,n", [(m, 4) for m in range(5, 41)] + [(m, 6) for m in range(5, 25)]
    )
    def test_skipped_slices_never_change_a_report(self, m, n):
        # the levelwise basis sieves every level 1..n/2+1
        basis = hilbert_basis(m, max_level=n // 2 + 1, algorithm="levelwise")
        levels = monoid.vectors_to_indices([b for b in basis.elements if b.y >= 3])
        for exclude in (False, True):
            every_level = cycles._classify(m, n, levels, True, exclude, SearchBudget())
            assert check_condition(m, n, exclude) == every_level

    def test_no_pool_when_every_element_is_standard(self, monkeypatch):
        import fermat_hodge.cycles as cycles

        def no_search(*args, **kwargs):
            raise AssertionError("searched although every element is standard")

        monkeypatch.setattr(cycles, "_witnesses", no_search)
        report = check_condition(25, n=4, exclude_standard=True)
        assert report.verdict and report.outcomes
        assert all(o.kind == "STANDARD" for o in report.outcomes)


    def test_sieve_rows_are_not_proved_again(self, count_member_calls):
        import fermat_hodge.hilbert as hilbert

        calls = count_member_calls(cycles, hilbert)
        report = check_condition(33, n=4)
        assert report.outcomes and not calls

    def test_a_callers_basis_is_not_taken(self):
        # an empty "complete" basis once made degree 33 pass vacuously
        basis = HilbertBasis(
            m=33, elements=(), complete=True, max_level_seen=1, algorithm="completion"
        )
        with pytest.raises(TypeError):
            check_condition(33, basis=basis)
        assert "basis" not in inspect.signature(check_condition).parameters

    def test_m21_with_exclusion(self):
        report = check_condition(21, exclude_standard=True)
        assert report.verdict and report.complete

    def test_m27_with_exclusion(self):
        report = check_condition(27, exclude_standard=True)
        assert report.verdict and report.complete

    def test_m33_fails_on_counterexample(self):
        report = check_condition(33)
        assert not report.verdict
        failing = [o.element for o in report.outcomes if o.kind == "FAIL"]
        assert COUNTEREXAMPLE_33 in failing

    def test_m12_all_quasi(self):
        report = check_condition(12)
        assert report.verdict
        assert report.counts["FAIL"] == 0

    def test_m13_vacuous(self):
        report = check_condition(13)
        assert report.verdict and not report.outcomes

    def test_incomplete_basis_rejected(self):
        # the completion of 30 runs out of 1000 candidates and falls back to the sieve
        with pytest.raises(IncompleteBasisError):
            check_condition(30, budget=SearchBudget(max_candidates=1000))

    def test_fourfold_range_levels_exactly_three(self, get_basis):
        report = check_condition(25, n=4, exclude_standard=True)
        assert report.verdict
        assert all(o.element.y == 3 for o in report.outcomes)
        assert all(o.kind == "STANDARD" for o in report.outcomes)


class TestScan:
    def test_range_with_counterexample(self):
        reports = scan_fourfolds(33, 33)
        assert len(reports) == 1 and not reports[0].verdict

    def test_small_coprime_range_all_true(self):
        reports = scan_fourfolds(5, 21, coprime_to=6)
        assert [r.m for r in reports] == [5, 7, 11, 13, 17, 19]
        assert all(r.verdict for r in reports)

    def test_empty_selection_is_empty(self):
        assert scan_fourfolds(10, 10, coprime_to=5) == []

    def test_m3_vacuous(self):
        reports = scan_fourfolds(3, 3)
        assert reports[0].verdict and not reports[0].outcomes

    def test_each_degree_spends_a_fresh_meter(self):
        template = SearchBudget(max_seconds=None, max_candidates=6000)
        reports = scan_fourfolds(28, 33, budget_per_m=template)
        assert reports == [
            check_condition(
                m, n=4, exclude_standard=True,
                budget=SearchBudget(max_seconds=None, max_candidates=6000),
            )
            for m in range(28, 34)
        ]
        assert template.spent == 0
        assert [r.m for r in reports if r.complete] == [29, 31]

    def test_truncated_degree_is_an_incomplete_report(self):
        budget = SearchBudget(max_seconds=None, max_candidates=100)
        (report,) = scan_fourfolds(33, 33, budget_per_m=budget)
        assert not report.complete
        assert report.standard_count == len(standard_elements(33).vectors)


class TestVerdict:
    def test_examples(self):
        assert verdict(7, 4).status == VerdictStatus.PROVEN_PRIME_OR_4
        assert verdict(25, 6).status == VerdictStatus.PROVEN_PRIME_SQUARE
        assert verdict(33, 4).status == VerdictStatus.UNDETERMINED
        assert verdict(35, 4).status == VerdictStatus.PROVEN_FOURFOLD_COPRIME_6
        assert verdict(12, 6).status == VerdictStatus.PROVEN_M_LE_20
        assert verdict(21, 8).status == VerdictStatus.PROVEN_M_21_27
        assert verdict(35, 0).status == VerdictStatus.PROVEN_DIM_LE_2

    def test_pnm_check_path(self):
        report = verdict(22, 4)
        assert report.status == VerdictStatus.PROVEN_BY_PNM_CHECK
        assert report.condition_report is not None
        assert report.condition_report.verdict

    @pytest.mark.parametrize("m", [24, pytest.param(30, marks=pytest.mark.slow)])
    def test_tenfold_pnm_check(self, m):
        report = verdict(m, 10)
        assert report.status == VerdictStatus.PROVEN_BY_PNM_CHECK
        assert report.condition_report.complete and report.condition_report.verdict

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            verdict(7, 3)

    def test_never_undetermined_when_a_theorem_applies(self):
        for m in range(2, 31):
            for n in range(0, 10, 2):
                theorem_applies = (
                    n <= 2
                    or _is_prime(m)
                    or m == 4
                    or _prime_square(m)
                    or m <= 20
                    or m in (21, 27)
                    or (n == 4 and gcd(m, 6) == 1)
                )
                if theorem_applies:
                    assert verdict(m, n).status != VerdictStatus.UNDETERMINED, (m, n)


class TestNewtonIdentity:
    def test_all_ones(self):
        assert power_sum_identity_holds((1, 1, 1, 1, 1, 1), 1)

    def test_cancellation(self):
        assert power_sum_identity_holds((1, -1, 0, 0, 0, 0), 1)

    def test_seeded_runs(self):
        assert newton_identity_check(2, 100, 7)
        for d in (1, 2, 3):
            assert newton_identity_check(d, 200, d)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            newton_identity_check(0, 10, 1)

    @pytest.mark.parametrize("seed", [0, 3, 7, 12345])
    @pytest.mark.parametrize(
        "trials",
        [1, cycles._TUPLES - 1, cycles._TUPLES, cycles._TUPLES + 1, 20000],
    )
    def test_draws_are_seeded_bounded_chunks(self, seed, trials):
        chunks = list(cycles._draw_tuples(seed, trials))
        again = list(cycles._draw_tuples(seed, trials))
        assert len(chunks) == len(again)
        assert all(np.array_equal(a, b) for a, b in zip(chunks, again))
        assert all(chunk.dtype == np.int64 for chunk in chunks)
        assert all(chunk.shape[1] == 6 for chunk in chunks)
        assert all(len(chunk) <= cycles._TUPLES for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == trials
        drawn = np.concatenate(chunks)
        assert drawn.min() >= -9 and drawn.max() <= 9

    def test_negative_seed_draws_as_its_absolute_value(self):
        # like random.Random, the draw ignores the sign of the seed
        (negative,) = cycles._draw_tuples(-3, 10)
        (positive,) = cycles._draw_tuples(3, 10)
        assert np.array_equal(negative, positive)
        assert newton_identity_check(2, 10, -3)

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("x", [9, -9])
    def test_exact_at_the_int64_boundary(self, d, x, monkeypatch):
        # Every draw is x, so e1, e2, e3 are 6, 15 and 20 times x^d, x^(2d)
        # and x^(3d).  The identity is polynomial and survives int64
        # wraparound, so the terms the batch computes are compared with
        # exact integers instead; e1^3 = 216 x^(3d) exceeds 2^63 at d = 6.
        def constant(seed, trials):
            yield np.full((trials, 6), x, dtype=np.int64)

        sums = []

        def recorded(xs):
            sums.append(symmetric(xs))
            return sums[-1]

        symmetric = cycles._elementary_symmetric
        monkeypatch.setattr(cycles, "_draw_tuples", constant)
        monkeypatch.setattr(cycles, "_elementary_symmetric", recorded)
        assert newton_identity_check(d, 3, 0)
        (e1, e2, e3), = sums
        cube = x ** (3 * d)
        terms = (e1**3, e1 * e2, e3)
        assert [[int(v) for v in t] for t in terms] == [
            [216 * cube] * 3, [90 * cube] * 3, [20 * cube] * 3
        ]
        assert power_sum_identity_holds((x,) * 6, d)

    def test_detects_a_wrong_identity(self, monkeypatch):
        # the check reads the row-wise answers: one false row fails the run
        def one_false(xs, d):
            holds = np.ones(len(xs[0]), dtype=bool)
            holds[-1] = False
            return holds

        monkeypatch.setattr(cycles, "power_sum_identity_holds", one_false)
        assert not newton_identity_check(1, cycles._TUPLES + 1, 0)

    @given(
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8),
        st.integers(1, 4),
    )
    def test_one_row_matches_the_scalar_formula(self, xs, d):
        powered = [x**d for x in xs]
        e1 = sum(powered)
        e2 = sum(a * b for i, a in enumerate(powered) for b in powered[i + 1 :])
        e3 = sum(
            a * b * c
            for i, a in enumerate(powered)
            for j, b in enumerate(powered[i + 1 :], start=i + 1)
            for c in powered[j + 1 :]
        )
        expected = sum(p**3 for p in powered) == e1**3 - 3 * e1 * e2 + 3 * e3
        assert power_sum_identity_holds(tuple(xs), d) is expected
