"""The public `gsfuzz` namespace: every name resolves lazily to its home module's object."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gsfuzz

# home module -> its public names, frozen as the public API
PUBLIC = {
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
NAMES = {name for names in PUBLIC.values() for name in names}


def test_public_names_are_their_home_objects():
    assert len(NAMES) == 59
    assert gsfuzz.__version__ == "0.1.0"
    for module, names in PUBLIC.items():
        home = import_module(f"gsfuzz.{module}")
        for name in names:
            assert getattr(gsfuzz, name) is getattr(home, name), name


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from gsfuzz import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert NAMES | {"__version__"} <= set(dir(gsfuzz))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'gsfuzz' has no attribute 'no_such_name'"):
        gsfuzz.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from gsfuzz import no_such_name", {})


def test_submodules_are_attributes_after_a_bare_import():
    code = ("import sys, gsfuzz; "
            f"assert all(getattr(gsfuzz, m) is sys.modules['gsfuzz.' + m] for m in {list(PUBLIC)!r})")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, timeout=60, check=True)
