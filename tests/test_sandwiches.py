"""The cached sandwich sets x Gamma S Gamma z and every scan that reads them.

GammaSemigroup.sandwiches is checked against the brute-force set of all
x a y b z on every structure with n <= 3, k <= 2, on the ex2.1 mod-12
surrogate, on direct products of order 4 and 6, and on the full
transformation semigroup T_3 (n = 27, Gamma = {a constant map, a
transposition}).  On the larger ones, crisp is_bi_ideal is checked against
the definitional scan, the theorem reports' sandwich product against two
nested sup-min products, and the bi-ideal deciders' witnesses against the
definitional oracles on fuzzy subsets that pass the pair scan, so that the
sandwich branch decides them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from gsfuzz import (
    FuzzySubset,
    is_alpha_beta_bi_ideal,
    is_eq_bi_ideal,
    is_fuzzy_bi_ideal,
    mod_surrogate,
    validate_structure,
)
from gsfuzz.fuzzy import _sup_min_scaled
from gsfuzz.search import SplitMix64
from gsfuzz.structure import is_bi_ideal
from gsfuzz.theorems import _sandwich_sup

from corpus import direct_product, exhaustive
from oracles import bi_ideal_by_definition, first_alpha_beta_failure, first_closed_failure
from test_scan_oracles import PAIRS, _position

CLOSED = (("fuzzy-bi-ideal", is_fuzzy_bi_ideal), ("eq-bi-ideal", is_eq_bi_ideal))


def _t3():
    """T_3: the maps of {0, 1, 2}, where x g y is the composite x, then g, then y."""
    maps = list(product(range(3), repeat=3))
    index = {f: i for i, f in enumerate(maps)}

    def then(f, g):
        return tuple(g[f[i]] for i in range(3))

    gammas = [(0, 0, 0), (1, 0, 2)]
    cube = [[[index[then(then(x, c), y)] for y in maps] for c in gammas] for x in maps]
    return validate_structure(["".join(map(str, f)) for f in maps], ["c", "t"], cube)


T3 = _t3()
MOD12 = mod_surrogate(12).structure
LARGE = [
    MOD12,
    direct_product(*exhaustive(2, 2)[1:3]),
    direct_product(exhaustive(2, 1)[2], exhaustive(3, 1)[5]),
    T3,
]


def _brute_sandwich(s, x: int, z: int) -> tuple:
    ops, carrier = range(s.k), range(s.n)
    return tuple(sorted({s.op(s.op(x, a, y), b, z) for y in carrier for a in ops for b in ops}))


def test_sandwiches_are_every_x_a_y_b_z():
    structures = [s for n, k in product((1, 2, 3), (1, 2)) for s in exhaustive(n, k)] + LARGE
    assert len(structures) > 500 and max(s.n for s in LARGE[1:3]) == 6
    for s in structures:
        table = s.sandwiches
        assert table is s.sandwiches  # computed once per structure
        expected = tuple(tuple(_brute_sandwich(s, x, z) for z in range(s.n)) for x in range(s.n))
        assert table == expected, s.cayley


def _closure(s, gens) -> set:
    """The subsemigroup generated by gens."""
    out = set(gens)
    while new := {s.op(x, g, y) for x in out for g in range(s.k) for y in out} - out:
        out |= new
    return out


def _seeded_subsets(s, seed: int, count: int) -> list:
    """Seeded random subsets and the subsemigroups seeded generators span."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        out.append(frozenset(x for x in range(s.n) if rng.below(2)) or frozenset({0}))
        out.append(frozenset(_closure(s, [rng.below(s.n) for _ in range(1 + rng.below(3))])))
    return out


def test_is_bi_ideal_matches_definition_beyond_order_three():
    seen = set()
    for i, s in enumerate(LARGE):
        for a in _seeded_subsets(s, 400 + i, 30):
            bi = is_bi_ideal(s, a)
            assert bi == bi_ideal_by_definition(s, a), (s.n, sorted(a))
            seen.add((s.n, bi))
    assert seen == {(n, b) for n in (12, 4, 6, 27) for b in (True, False)}


def test_sandwich_sup_is_the_nested_product():
    structures = exhaustive(3, 1) + exhaustive(3, 2)[::20] + LARGE
    for i, s in enumerate(structures):
        rng = SplitMix64(900 + i)
        for _ in range(4):
            base = 20  # grades on the 1/10 grid, scaled to an even base
            g = [2 * rng.below(11) for _ in range(s.n)]
            for cap in (base, base // 2):
                nested = _sup_min_scaled(s, _sup_min_scaled(s, g, [base] * s.n, cap), g, cap)
                assert _sandwich_sup(s, g, cap) == nested, (s.cayley, g, cap)


def _pair_passing(s, seed: int, count: int) -> list:
    """Fuzzy subsets whose level sets are two nested subsemigroups: they pass
    every pair scan of the fuzzy and (in, in-or-q) forms, so their bi-ideal
    verdicts come from the sandwich scan."""
    rng = SplitMix64(seed)
    grid = [Fraction(i, 10) for i in range(1, 11)]
    out = []
    for _ in range(count):
        gens = [rng.below(s.n) for _ in range(1 + rng.below(3))]
        outer, inner = _closure(s, gens), _closure(s, gens[: 1 + rng.below(len(gens))])
        lo, hi = sorted((grid[rng.below(10)], grid[rng.below(10)]))
        grades = (hi if x in inner else lo if x in outer else Fraction(0) for x in range(s.n))
        out.append(FuzzySubset(s, tuple(grades)))
    return out


def test_bi_ideal_witnesses_past_the_pair_scan():
    outcomes = set()
    for s, seed in ((T3, 5), (MOD12, 6)):
        for mu in _pair_passing(s, seed, 10):
            for name, decide in CLOSED:
                verdict, expected = decide(mu), first_closed_failure(name, mu)
                assert verdict.holds == (expected is None), (name, mu.grades)
                if expected is not None:
                    assert len(expected) == 5, (name, mu.grades)  # a sandwich witness
                    assert _position(verdict.witness) == expected, (name, mu.grades)
                outcomes.add((name, verdict.holds))
    assert len(outcomes) == 4  # both forms hold and fail


def test_alpha_beta_bi_ideal_witnesses_past_the_pair_scan():
    outcomes = set()
    for s, seed in ((T3, 5), (MOD12, 6)):
        for mu in _pair_passing(s, seed, 6):
            for pair in PAIRS:
                verdict = is_alpha_beta_bi_ideal(mu, pair)
                expected = first_alpha_beta_failure(mu, pair.alpha, pair.beta, True)
                label = (pair.alpha.token, pair.beta.token, mu.grades)
                assert verdict.holds == (expected is None), label
                if expected is not None:
                    w = verdict.witness
                    assert _position(w) + (w.t, w.r) == expected, label
                outcomes.add(None if verdict.holds else len(_position(verdict.witness)))
    assert outcomes == {None, 3, 5}  # holds, pair witnesses and sandwich witnesses
