"""gsfuzz: exact decision procedures for fuzzy-algebraic predicates over
finite Gamma-semigroups, with witness extraction and theorem verification.

Public names resolve on first use (PEP 562): `import gsfuzz` loads no
submodule, and `gsfuzz.X` or `from gsfuzz import X` imports X's home module
(or the submodule X itself).
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {  # home module -> the public names it defines
    "errors": ("GsfError",),
    "fuzzy": (
        "IN", "IN_AND_Q", "IN_OR_Q", "Q", "FuzzyPoint", "FuzzySubset", "PointRelation",
        "as_grade", "cap05", "characteristic", "constant", "critical_thresholds",
        "level_sets", "o05_product", "o_product", "point_satisfies", "pointwise_family",
        "support",
    ),
    "predicates": (
        "AlphaBetaPair", "PredicateVerdict", "Witness", "check_by_name",
        "is_alpha_beta_bi_ideal", "is_alpha_beta_subsemigroup", "is_eq_bi_ideal",
        "is_eq_ideal", "is_eq_one_sided_ideal", "is_eq_subsemigroup", "is_fuzzy_bi_ideal",
        "is_fuzzy_subsemigroup", "subset_or_q",
    ),
    "search": (
        "Fixture", "GeneratorConfig", "find_witness", "fixtures", "generate_structures",
        "mod_surrogate", "random_fuzzy", "sample_eq_bi_ideals",
    ),
    "structure": (
        "GammaSemigroup", "Homomorphism", "classify_structure", "classify_subset",
        "enumerate_crisp", "enumerate_homomorphisms", "gamma_product",
        "validate_homomorphism", "validate_structure",
    ),
    "theorems": (
        "TheoremReport", "image", "is_f_invariant", "preimage",
        "report_bi_ideal_equivalences", "report_level_characterization",
        "report_product_characterization", "report_regular_intra_characterization",
        "report_regularity_characterization", "report_subsemigroup_equivalences",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOMES:  # `gsfuzz.fuzzy` after a bare `import gsfuzz`
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
