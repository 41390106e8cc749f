"""Finite-ring computational algebra: Cayley-table rings, one-sided ideal
computation, and classification along the morphic hierarchy.

Every public name below is re-exported lazily: its defining module is
imported on first access, so ``import morphring`` loads no numpy and the
exact Q/Z suite runs without the Cayley-table engine.
"""

import importlib

_EXPORTS = {
    "cli": (
        "build_ring",
        "default_corpus",
        "parse_ring_expr",
        "projected_order",
        "run_command",
        "serialize_ring_expr",
    ),
    "classify": (
        "ClassProfile",
        "CommutationProfile",
        "ElementClass",
        "Flag",
        "MorphicProfile",
        "RegularityProfile",
        "SideHierarchy",
        "StructuralProfile",
        "classify_ring",
        "commutation_profile",
        "element_class",
        "regularity_profile",
        "ring_morphic_profile",
        "structural_profile",
    ),
    "common": (
        "OrderCapExceeded",
        "VerificationReport",
        "order_cap",
    ),
    "ideals": (
        "ElementCensus",
        "LatticeOverflow",
        "Side",
        "all_ideals",
        "annihilator",
        "element_census",
        "fg_ideal",
        "is_essential",
        "is_ideal",
        "jacobson_radical",
        "lattice_cap",
        "mask_members",
        "mask_of",
        "principal_ideal",
        "singular_ideal",
        "socle",
        "subgroup_sum",
    ),
    "qz": (
        "FULL",
        "CyclicSub",
        "QFrac",
        "TEIdeal",
        "base_annihilator",
        "bound_cap",
        "cyclic_submodule",
        "lattice_meet_join",
        "submodule_leq",
        "te_left_annihilator",
        "te_morphic_witness",
        "te_principal_ideal",
        "te_product",
        "verify_qz_suite",
    ),
    "verify": (
        "CornerCase",
        "TriangularCase",
        "TrivialExtensionCase",
        "search_counterexample",
        "verify_extension_heredity",
        "verify_finite_qf",
        "verify_lemma_equivalences",
        "verify_pseudo_consequences",
        "verify_quasi_equivalence",
        "verify_reduced_equivalences",
        "verify_regular_criteria",
        "verify_triangular_example_identity",
        "verify_witness_identities",
    ),
    "rings": (
        "AxiomCheck",
        "BimoduleSpec",
        "FiniteRing",
        "build_cap",
        "check_bimodule",
        "check_ring_axioms",
        "direct_product",
        "formal_triangular",
        "ideal_bimodule",
        "make_gf",
        "make_zmod",
        "matrix_ring",
        "opposite",
        "pierce_corner",
        "regular_bimodule",
        "ring_from_tables",
        "trivial_extension",
        "truncated_poly",
        "zero_bimodule",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
