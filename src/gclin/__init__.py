"""Exact-arithmetic toolkit for generalized complex linear algebra.

Every name below is loaded from its module on first use (PEP 562), so
``import gclin`` and ``python -m gclin`` import no submodule until one
is needed, and a CLI verb loads only the modules it runs.
"""

_EXPORTS = {
    "core": (
        "BiVector",
        "GCAut",
        "IsotropicE",
        "TwoForm",
        "complex_structure",
        "conjugate_by_basis",
        "direct_sum",
        "dualize",
        "pairing",
        "quadratic_form",
        "symplectic_structure",
        "to_aut",
        "to_eigenspace",
        "twist",
        "twisted_product",
        "validate_aut",
        "validate_eigenspace",
    ),
    "fields": ("QI", "QQ", "GaussianRational"),
    "linalg": ("Matrix", "Subspace"),
    "multivector": ("Multivector",),
    "spinor": (
        "SpinorLine",
        "StandardForm",
        "annihilator_subspace",
        "clifford_act",
        "is_pure",
        "mukai_pairing",
        "spinor_from_subspace",
        "standard_form",
        "subspace_from_standard_form",
    ),
    "transforms": (
        "RecoveredData",
        "StructureType",
        "analyze_t",
        "assemble_sum_transform",
        "b_transform",
        "beta_transform",
        "classify_type",
        "recover",
        "t_operator",
    ),
    "subspaces": (
        "InducedStructure",
        "beta_between",
        "find_split_complement",
        "induce_on_quotient",
        "induce_on_subspace",
        "is_generalized_coisotropic",
        "is_generalized_isotropic",
        "is_generalized_lagrangian",
        "restrict_spinor",
        "satisfies_graph_condition",
        "split_induced",
        "verify_split",
    ),
    "classification": (
        "Decomposition",
        "build_graphnotsub_example",
        "build_notquot_example",
        "build_subnotquot_example",
        "build_symplectic_with_t",
        "canonical_c",
        "canonical_s",
        "decompose",
        "reassemble",
    ),
    "relations": (
        "LinearRelation",
        "annihilator_composition_identity",
        "closure_check",
        "compose",
        "graph_iso_test",
        "identity_relation",
        "is_canonical",
        "map_relation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        # the submodules an eager package import used to bind, as gclin.core
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
