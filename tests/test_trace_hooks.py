"""The benchmark's trace mode wraps package functions by name.

``perfbench/spans.py`` lists (module, function) pairs and cache methods
and looks each one up when ``--trace 1`` installs its spans; a name that
no longer resolves makes the traced run raise.  These tests resolve
every listed name against the package, so a rename or deletion shows
up here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fermat_hodge.cache import ResultCache

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module,function", SPANS.FUNCTIONS)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"fermat_hodge.{module}"), function))


@pytest.mark.parametrize(
    "method", [m for m, _ in SPANS.CACHE_METHODS] + ["_read", "_write", "_path"]
)
def test_traced_cache_method_resolves(method):
    assert callable(vars(ResultCache)[method])
