"""gsfuzz: exact decision procedures for fuzzy-algebraic predicates over
finite Gamma-semigroups, with witness extraction and theorem verification."""

from .errors import GsfError
from .fuzzy import (
    IN,
    IN_AND_Q,
    IN_OR_Q,
    Q,
    FuzzyPoint,
    FuzzySubset,
    PointRelation,
    as_grade,
    cap05,
    characteristic,
    constant,
    critical_thresholds,
    level_sets,
    o05_product,
    o_product,
    point_satisfies,
    pointwise_family,
    support,
)
from .predicates import (
    AlphaBetaPair,
    PredicateVerdict,
    Witness,
    check_by_name,
    is_alpha_beta_bi_ideal,
    is_alpha_beta_subsemigroup,
    is_eq_bi_ideal,
    is_eq_ideal,
    is_eq_one_sided_ideal,
    is_eq_subsemigroup,
    is_fuzzy_bi_ideal,
    is_fuzzy_subsemigroup,
    subset_or_q,
)
from .search import (
    Fixture,
    GeneratorConfig,
    find_witness,
    fixtures,
    generate_structures,
    mod_surrogate,
    random_fuzzy,
    sample_eq_bi_ideals,
)
from .structure import (
    GammaSemigroup,
    Homomorphism,
    classify_structure,
    classify_subset,
    enumerate_crisp,
    enumerate_homomorphisms,
    gamma_product,
    validate_homomorphism,
    validate_structure,
)
from .theorems import (
    TheoremReport,
    image,
    is_f_invariant,
    preimage,
    report_bi_ideal_equivalences,
    report_level_characterization,
    report_product_characterization,
    report_regular_intra_characterization,
    report_regularity_characterization,
    report_subsemigroup_equivalences,
)

__version__ = "0.1.0"
