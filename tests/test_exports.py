"""The package's exports are resolved lazily from their defining modules."""

import importlib
import json
import subprocess
import sys

import pytest

import fermat_hodge


@pytest.mark.parametrize("name", fermat_hodge.__all__)
def test_export_is_the_defining_modules_object(name):
    home = importlib.import_module(f"fermat_hodge.{fermat_hodge._HOME[name]}")
    value = getattr(fermat_hodge, name)
    assert value is getattr(home, name)
    if callable(value):
        assert value.__module__ == home.__name__
    assert name in dir(fermat_hodge)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fermat_hodge import *", namespace)
    assert set(fermat_hodge.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(fermat_hodge, name) for name in fermat_hodge.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fermat_hodge.no_such_name
    with pytest.raises(ImportError):
        exec("from fermat_hodge import no_such_name", {})


def test_bare_import_loads_no_numpy():
    code = (
        "import json, sys, fermat_hodge\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'numpy' or m.startswith('fermat_hodge.'))\n"
        "bare = loaded()\n"
        "fermat_hodge.phi\n"
        "print(json.dumps([bare, loaded(), fermat_hodge.monoid.__name__]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bare, after_phi, monoid = json.loads(proc.stdout)
    assert bare == []
    assert {"numpy", "fermat_hodge.hilbert", "fermat_hodge.monoid"} <= set(after_phi)
    assert monoid == "fermat_hodge.monoid"
