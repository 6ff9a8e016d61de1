"""Combinatorics of Hodge classes on Fermat varieties.

The package computes the residue-count monoid attached to a degree,
its indecomposable elements (two independent algorithms), the
character-side Hodge labels with their joins, quasi-decomposability
and standard-cycle classifications, and the resulting per-degree
Hodge-conjecture verdicts.
"""

from .budget import SearchBudget
from .characters import (
    Character,
    HodgeLabel,
    enumerate_hodge_labels,
    from_monoid,
    hash_join,
    is_hodge_label,
    satisfies_p1,
    satisfies_p2,
    star_join,
    to_monoid,
    weight,
)
from .cycles import (
    COUNTEREXAMPLE_33,
    ConditionOutcome,
    ConditionReport,
    QuasiWitness,
    StandardProvenance,
    StandardSet,
    VerdictReport,
    VerdictStatus,
    build_pool,
    check_condition,
    is_quasi_decomposable,
    newton_identity_check,
    power_sum_identity_holds,
    scan_fourfolds,
    standard_elements,
    verdict,
)
from .hilbert import (
    DecompositionWitness,
    HilbertBasis,
    hilbert_basis,
    is_decomposable,
    phi,
    required_dimension_bound,
)
from .monoid import (
    MonoidVector,
    enumerate_level,
    format_vector,
    is_member,
    parse_vector,
    units,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "ConditionOutcome",
    "ConditionReport",
    "COUNTEREXAMPLE_33",
    "DecompositionWitness",
    "HilbertBasis",
    "HodgeLabel",
    "MonoidVector",
    "QuasiWitness",
    "SearchBudget",
    "StandardProvenance",
    "StandardSet",
    "VerdictReport",
    "VerdictStatus",
    "build_pool",
    "check_condition",
    "enumerate_hodge_labels",
    "enumerate_level",
    "format_vector",
    "from_monoid",
    "hash_join",
    "hilbert_basis",
    "is_decomposable",
    "is_hodge_label",
    "is_member",
    "is_quasi_decomposable",
    "newton_identity_check",
    "parse_vector",
    "phi",
    "power_sum_identity_holds",
    "required_dimension_bound",
    "satisfies_p1",
    "satisfies_p2",
    "scan_fourfolds",
    "standard_elements",
    "star_join",
    "to_monoid",
    "units",
    "verdict",
    "weight",
]
