"""Verdicts and witnesses of every decider against definitional oracles.

The corpus is every structure with n <= 2 (k <= 2) and n = 3 (k = 1), each
with seeded fuzzy subsets on the 1/10 grid (so 1/2 is a grade).  The
closed forms must agree with a full scan on the verdict and on the first
failing index in the pinned witness order; the (alpha, beta) deciders, for
all 24 pairs (beta negated or not), must agree with a critical-threshold
sweep through point_satisfies on the verdict and the failing position, and
on the first refuting (t, r) among the cell representatives cut by the
grades involved.  They are also checked on a slice of order-4 structures
with one and with two operation symbols, and on grades that mix
denominators (thirds, sevenths, twelfths next to exactly 1/2 and 1), where
the common base of the scaled integer kernels is not the 1/10 grid.
"""

from __future__ import annotations

from gsfuzz import (
    AlphaBetaPair,
    is_alpha_beta_bi_ideal,
    is_alpha_beta_subsemigroup,
    is_eq_bi_ideal,
    is_eq_ideal,
    is_eq_one_sided_ideal,
    is_eq_subsemigroup,
    is_fuzzy_bi_ideal,
    is_fuzzy_subsemigroup,
)
from fractions import Fraction

from gsfuzz import FuzzySubset
from gsfuzz.search import GeneratorConfig, SplitMix64, random_fuzzy

from corpus import exhaustive, size4_structures
from oracles import first_alpha_beta_failure, first_closed_failure

CLOSED = {
    "fuzzy-subsemigroup": is_fuzzy_subsemigroup,
    "fuzzy-bi-ideal": is_fuzzy_bi_ideal,
    "eq-subsemigroup": is_eq_subsemigroup,
    "eq-bi-ideal": is_eq_bi_ideal,
    "eq-left-ideal": lambda mu: is_eq_one_sided_ideal(mu, "left"),
    "eq-right-ideal": lambda mu: is_eq_one_sided_ideal(mu, "right"),
    "eq-ideal": is_eq_ideal,
}

PAIRS = [
    AlphaBetaPair.parse(f"{a},{negated}{b}")
    for a in ("in", "q", "invq")
    for b in ("in", "q", "invq", "inandq")
    for negated in ("", "not-")
]


def _position(w) -> tuple:
    return tuple(v for v in (w.x, w.y, w.gamma, w.z, w.delta) if v is not None)


def _seeded(structures, per: int) -> list:
    pairs = []
    for i, s in enumerate(structures):
        config = GeneratorConfig(n=s.n, k=s.k, seed=100 * s.n + 10 * s.k + i, grid=10, count=per)
        pairs += [(s, mu) for mu in random_fuzzy(s, config)]
    return pairs


def _corpus(per_n3: int) -> list:
    shapes = [((1, 1), 8), ((1, 2), 8), ((2, 1), 8), ((2, 2), 4), ((3, 1), per_n3)]
    return [pair for (n, k), per in shapes for pair in _seeded(exhaustive(n, k), per)]


def _order4_slice() -> list:
    return [pair for k in (1, 2) for pair in _seeded(size4_structures(k=k, count=8), 2)]


MIXED_GRADES = [Fraction(v) for v in ("0", "1/3", "2/7", "5/12", "1/2", "1", "3/4", "5/6", "4/7")]


def _mixed_denominators() -> list:
    """Seeded fuzzy subsets with grades drawn from MIXED_GRADES, on every
    structure of the corpus shapes and the order-4 slice."""
    structures = [s for (n, k) in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)) for s in exhaustive(n, k)]
    structures += [s for k in (1, 2) for s in size4_structures(k=k, count=8)]
    pairs = []
    for i, s in enumerate(structures):
        rng = SplitMix64(7000 + i)
        while len(pairs) < 3 * (i + 1):
            grades = tuple(MIXED_GRADES[rng.below(len(MIXED_GRADES))] for _ in range(s.n))
            if any(grades):
                pairs.append((s, FuzzySubset(s, grades)))
    return pairs


def _check_closed_forms(corpus) -> None:
    refuted = 0
    for _, mu in corpus:
        for name, decide in CLOSED.items():
            verdict = decide(mu)
            expected = first_closed_failure(name, mu)
            assert verdict.holds == (expected is None), (name, mu.grades)
            if expected is not None:
                refuted += 1
                assert _position(verdict.witness) == expected, (name, mu.grades)
    assert refuted > len(corpus)  # the corpus exercises the witnesses


def test_closed_forms_match_definitional_scan():
    _check_closed_forms(_corpus(per_n3=8) + _order4_slice())


def test_closed_forms_match_on_mixed_denominators():
    _check_closed_forms(_mixed_denominators())


def test_alpha_beta_deciders_match_threshold_sweep():
    outcomes = set()
    for _, mu in _corpus(per_n3=2) + _order4_slice() + _mixed_denominators()[::8]:
        for pair in PAIRS:
            for bi, decide in ((False, is_alpha_beta_subsemigroup), (True, is_alpha_beta_bi_ideal)):
                verdict = decide(mu, pair)
                expected = first_alpha_beta_failure(mu, pair.alpha, pair.beta, bi)
                label = (pair.alpha.token, pair.beta.token, bi, mu.grades)
                assert verdict.holds == (expected is None), label
                outcomes.add((len(mu.grades), bi, verdict.holds))
                if expected is not None:
                    w = verdict.witness
                    assert _position(w) + (w.t, w.r) == expected, label
    assert len(outcomes) == 4 * 2 * 2  # every order, both forms, both verdicts
