"""Acceptance criteria, one test per criterion.

Each test prints a single pass line when its assertions hold, so a
verbose run reads as a checklist.  The stretch tiers (larger degree
ranges) are opt-in through FERMAT_STRETCH=1.
"""

import time
from itertools import product
from math import gcd

import pytest

from fermat_hodge import (
    COUNTEREXAMPLE_33,
    MonoidVector,
    SearchBudget,
    check_condition,
    enumerate_hodge_labels,
    enumerate_level,
    from_monoid,
    hilbert_basis,
    is_decomposable,
    is_hodge_label,
    is_member,
    is_quasi_decomposable,
    level_one,
    newton_identity_check,
    satisfies_p1,
    scan_fourfolds,
    to_monoid,
)
from fermat_hodge.characters import Character
from fermat_hodge.cli import main

from .conftest import stretch_enabled  # noqa: F401  (re-exported helper)

# reference maximum indecomposable levels
PHI_SMALL = {
    2: 1, 3: 1, 4: 1, 5: 1, 6: 3, 7: 1, 8: 3, 9: 2, 10: 3, 11: 1,
    12: 5, 13: 1, 14: 3, 15: 3, 16: 5, 17: 1, 18: 7, 19: 1,
}
PHI_TABLE = {
    20: 5, 21: 3, 22: 7, 23: 1, 24: 9, 25: 3, 26: 7, 27: 5,
    28: 7, 29: 1, 30: 9, 31: 1, 32: 9, 33: 5, 34: 5,
}
PHI_STRETCH = {
    35: 8, 36: 13, 37: 1, 38: 11, 39: 5, 40: 17, 41: 1, 42: 11, 43: 1,
    44: 17, 45: 11, 46: 11, 47: 1,
}


def test_criterion_01_phi_table_regression(get_basis):
    t0 = time.time()
    computed = {}
    for m in sorted(PHI_TABLE):
        basis = get_basis(m)
        assert basis.complete, f"m={m} did not certify completeness"
        computed[m] = basis.max_element_level
    assert computed == PHI_TABLE
    elapsed = time.time() - t0
    assert elapsed <= 1800, f"took {elapsed:.0f}s, budget is 30 minutes"
    print(f"\n[criterion 1] phi table m=20..34 matches exactly "
          f"({elapsed:.0f}s): PASS")


def test_criterion_02_small_degree_plot(get_basis):
    t0 = time.time()
    computed = {m: get_basis(m).max_element_level for m in sorted(PHI_SMALL)}
    assert computed == PHI_SMALL
    elapsed = time.time() - t0
    assert elapsed <= 120, f"took {elapsed:.0f}s, budget is 2 minutes"
    print(f"\n[criterion 2] phi plot values m=2..19 match exactly "
          f"({elapsed:.0f}s): PASS")


def test_criterion_03_prime_or_four_generated_in_level_one(get_basis):
    t0 = time.time()
    for m in (3, 5, 7, 11, 13, 4):
        basis = get_basis(m)
        assert basis.complete
        assert all(v.y == 1 for v in basis.elements), m
    elapsed = time.time() - t0
    assert elapsed <= 60
    print(f"\n[criterion 3] prime/4 bases live in level 1 ({elapsed:.0f}s): PASS")


def test_criterion_04_all_levels_condition_through_20(get_basis):
    t0 = time.time()
    for m in range(2, 21):
        report = check_condition(m, basis=get_basis(m))
        assert report.verdict, f"condition fails at m={m}"
        assert report.complete
    elapsed = time.time() - t0
    assert elapsed <= 900, f"took {elapsed:.0f}s, budget is 15 minutes"
    print(f"\n[criterion 4] all-levels condition true for m=2..20 "
          f"({elapsed:.0f}s): PASS")


@pytest.mark.parametrize("m", [21, 27])
def test_criterion_05_degrees_21_and_27(m, get_basis):
    t0 = time.time()
    report = check_condition(m, exclude_standard=True, basis=get_basis(m))
    assert report.verdict and report.complete
    elapsed = time.time() - t0
    assert elapsed <= 1800, f"took {elapsed:.0f}s, budget is 30 minutes"
    print(f"\n[criterion 5] degree {m} condition with standard exclusion "
          f"({elapsed:.0f}s): PASS")


def test_criterion_06_degree_33_counterexample(tmp_path, capsys):
    t0 = time.time()
    code = main(["verify-33", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "membership: confirmed",
        "indecomposable: confirmed",
        "non-standard: confirmed",
        "not-quasi-decomposable: confirmed",
    ]
    elapsed = time.time() - t0
    assert elapsed <= 600, f"took {elapsed:.0f}s, budget is 10 minutes"
    print(f"\n[criterion 6] degree-33 counterexample certificate "
          f"({elapsed:.0f}s): PASS")


def test_criterion_07_fourfold_scan_to_60():
    t0 = time.time()
    failures = []
    for m in range(5, 61):
        if gcd(m, 6) != 1:
            continue
        report = check_condition(m, n=4, exclude_standard=True)
        if not report.verdict:
            failures.append(m)
    assert not failures, f"fourfold condition fails at {failures}"
    elapsed = time.time() - t0
    assert elapsed <= 3600, f"took {elapsed:.0f}s, budget is 60 minutes"
    print(f"\n[criterion 7] fourfold scan 5..60 coprime to 6 all true "
          f"({elapsed:.0f}s): PASS")


def test_criterion_08_oracle_equivalences(get_basis):
    t0 = time.time()
    # (a) exhaustive box scan equals the pruned enumeration
    for m in range(2, 9):
        for y in (1, 2, 3):
            expected = set()
            for xs in product(range(2 * y + 1), repeat=m - 1):
                if sum(xs) == 2 * y and is_member(MonoidVector(xs, y), m):
                    expected.add(xs)
            assert {v.x for v in enumerate_level(m, y)} == expected, (m, y)
    # (b) subtraction-based quasi search equals the literal product scan
    for m in range(2, 13):
        basis = get_basis(m)
        targets = [v for v in basis.elements if v.y >= 3]
        if not targets:
            continue
        levels = {y: tuple(enumerate_level(m, y)) for y in range(1, max(v.y for v in targets) + 1)}
        ones = level_one(m)
        for x in targets:
            flat = [v for y in range(1, x.y + 1) for v in levels[y]]
            literal = False
            for b, c, d in product(ones, flat, flat):
                if x + b == c + d and c != x and d != x:
                    literal = True
                    break
            assert (is_quasi_decomposable(x, m) is not None) == literal
    # (c) the two basis algorithms agree through degree 20; only the
    # completion certifies
    for m in range(2, 21):
        completion = get_basis(m)
        levelwise = hilbert_basis(
            m, algorithm="levelwise", max_level=completion.max_element_level
        )
        assert not levelwise.complete, m
        assert levelwise.elements == completion.elements, m
    elapsed = time.time() - t0
    print(f"\n[criterion 8] box scan, literal quasi loop and levelwise "
          f"cross-checks agree ({elapsed:.0f}s): PASS")


def test_criterion_09_correspondence_suite(get_basis):
    t0 = time.time()
    for m in range(2, 11):
        for y in (1, 2, 3):
            slice_rows = enumerate_level(m, y)
            for v in slice_rows:
                assert to_monoid(from_monoid(v, m)) == v
            labels = enumerate_hodge_labels(m, 2 * (y - 1))
            assert {to_monoid(lab) for lab in labels} == set(slice_rows)
            for lab in labels:
                assert from_monoid(to_monoid(lab), m).entries == lab.sorted_entries()
    # split existence mirrors decomposability of the count vector
    from .test_characters import _brute_force_p1

    for m in range(2, 9):
        for n in (2, 4):
            for alpha in enumerate_hodge_labels(m, n):
                brute = _brute_force_p1(alpha)
                split = satisfies_p1(alpha, basis=get_basis(m))
                witness = is_decomposable(to_monoid(alpha), m, basis=get_basis(m))
                assert (split is not None) == (witness is not None) == brute
    elapsed = time.time() - t0
    print(f"\n[criterion 9] correspondence round trips and split "
          f"equivalence hold ({elapsed:.0f}s): PASS")


def test_criterion_10_power_sum_identity():
    t0 = time.time()
    for d in (1, 2, 3):
        assert newton_identity_check(d, 1000, seed=d)
    elapsed = time.time() - t0
    assert elapsed <= 10
    print(f"\n[criterion 10] 3000 seeded identity trials pass "
          f"({elapsed:.1f}s): PASS")


@pytest.mark.skipif(not stretch_enabled(), reason="set FERMAT_STRETCH=1 to run")
@pytest.mark.parametrize("m", sorted(PHI_STRETCH))
def test_stretch_phi_values(m):
    import os

    seconds = float(os.environ.get("FERMAT_STRETCH_SECONDS", "900"))
    basis = hilbert_basis(
        m, budget=SearchBudget(max_seconds=seconds, max_candidates=None)
    )
    if not basis.complete:
        pytest.skip(f"budget exhausted before certifying m={m}")
    assert basis.max_element_level == PHI_STRETCH[m]
    print(f"\n[stretch] phi({m}) = {PHI_STRETCH[m]}: PASS")


def test_fourfold_scan_61_to_100():
    """The range of the stretch scan below, in one ``scan_fourfolds`` call
    with its default budget: every degree coprime to 6 holds."""
    reports = scan_fourfolds(61, 100, 6)
    assert [r.m for r in reports] == [m for m in range(61, 101) if gcd(m, 6) == 1]
    assert len(reports) == 13
    assert all(r.verdict and r.complete for r in reports)


@pytest.mark.skipif(not stretch_enabled(), reason="set FERMAT_STRETCH=1 to run")
def test_stretch_fourfold_scan_to_100():
    failures = []
    for m in range(61, 101):
        if gcd(m, 6) != 1:
            continue
        report = check_condition(
            m, n=4, exclude_standard=True,
            budget=SearchBudget(max_seconds=1200),
        )
        if not report.verdict:
            failures.append(m)
    assert not failures
    print("\n[stretch] fourfold scan 61..100 coprime to 6 all true: PASS")
