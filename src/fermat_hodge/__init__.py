"""Combinatorics of Hodge classes on Fermat varieties.

The package computes the residue-count monoid attached to a degree,
its indecomposable elements (two independent algorithms), the
character-side Hodge labels with their joins, quasi-decomposability
and standard-cycle classifications, and the resulting per-degree
Hodge-conjecture verdicts.

The exports are resolved lazily (PEP 562): ``import fermat_hodge``
imports no submodule and no numpy, and the first access of an export
imports its defining module and keeps the value here.  So a cached
answer read through ``fermat_hodge.cli`` or ``fermat_hodge.cache``
needs only the standard library and the ``budget``, ``errors`` and
``cache`` modules; ``monoid``, ``hilbert``, ``cycles`` and
``characters`` (and with them numpy) load when something is computed.
"""

import importlib

__version__ = "0.1.0"

# the defining module of every export
_EXPORTS = {
    "budget": ("SearchBudget",),
    "characters": (
        "Character", "HodgeLabel", "enumerate_hodge_labels", "from_monoid", "hash_join",
        "is_hodge_label", "satisfies_p1", "satisfies_p2", "star_join", "to_monoid",
        "weight",
    ),
    "cycles": (
        "COUNTEREXAMPLE_33", "ConditionOutcome", "ConditionReport", "QuasiWitness",
        "StandardProvenance", "StandardSet", "VerdictReport", "VerdictStatus",
        "build_pool", "check_condition", "is_quasi_decomposable",
        "newton_identity_check", "power_sum_identity_holds", "scan_fourfolds",
        "standard_elements", "verdict",
    ),
    "hilbert": (
        "DecompositionWitness", "HilbertBasis", "hilbert_basis", "is_decomposable",
        "phi", "required_dimension_bound",
    ),
    "monoid": (
        "MonoidVector", "enumerate_level", "format_vector", "is_member", "parse_vector",
        "units",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # e.g. fermat_hodge.monoid, with no import of its own
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
