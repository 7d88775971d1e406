"""Verdicts and witnesses of every decider against definitional oracles.

The corpus is every structure with n <= 2 (k <= 2) and n = 3 (k = 1), each
with seeded fuzzy subsets on the 1/10 grid (so 1/2 is a grade).  The
closed forms must agree with a full scan on the verdict and on the first
failing index in the pinned witness order; the (alpha, beta) deciders, for
all 24 pairs (beta negated or not), must agree with a critical-threshold
sweep through point_satisfies on the verdict and the failing position, and
on the first refuting (t, r) among the cell representatives cut by the
grades involved.  They are also checked on a slice of order-4 structures
with one and with two operation symbols.
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
from gsfuzz.search import GeneratorConfig, random_fuzzy

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


def test_closed_forms_match_definitional_scan():
    corpus = _corpus(per_n3=8)
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


def test_alpha_beta_deciders_match_threshold_sweep():
    outcomes = set()
    for _, mu in _corpus(per_n3=2) + _order4_slice():
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
