"""The benchmark's library pins hold in the test suite too.

``perfbench/reference.json`` pins the count and digest of every basis
that the ``basis-completion`` workload certifies, its phi, and the
summary of every fourfold report of ``fourfold-coprime6`` and
``fourfold-composite``.  These tests replay each pinned call once,
through the workload module's own digest and summary functions.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fermat_hodge import check_condition

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCE = WORKLOADS.load_reference()


@pytest.mark.parametrize("m", WORKLOADS.BASIS_DEGREES)
def test_basis_is_pinned(m, get_basis):
    basis = get_basis(m)
    pinned = REFERENCE["basis"][str(m)]
    assert basis.complete
    assert WORKLOADS.elements_digest(basis) == (pinned["count"], pinned["digest"])
    assert basis.max_element_level == REFERENCE["phi"][str(m)]


def test_every_fourfold_pin_has_a_degree():
    degrees = WORKLOADS.COPRIME6_DEGREES + WORKLOADS.COMPOSITE_DEGREES
    assert sorted(REFERENCE["fourfold"], key=int) == sorted(map(str, degrees), key=int)


@pytest.mark.parametrize("m", sorted(map(int, REFERENCE["fourfold"])))
def test_fourfold_summary_is_pinned(m):
    report = check_condition(m, n=4, exclude_standard=True)
    assert report.complete
    summary = WORKLOADS.fourfold_summary(report)
    assert summary == REFERENCE["fourfold"][str(m)]
    if m == 33:
        assert REFERENCE["counterexample_33"] in summary["fails"]
