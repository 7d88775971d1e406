from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest

from gsfuzz import (
    AlphaBetaPair,
    FuzzyPoint,
    FuzzySubset,
    as_grade,
    cap05,
    characteristic,
    constant,
    critical_thresholds,
    gamma_product,
    is_eq_bi_ideal,
    level_sets,
    o05_product,
    o_product,
    point_satisfies,
    pointwise_family,
    support,
)
from gsfuzz.errors import (
    EmptyFamily,
    IndexOutOfRange,
    InvalidGrade,
    InvalidThreshold,
    StructureMismatch,
    UnknownElement,
)
from gsfuzz.fuzzy import HALF, IN, IN_AND_Q, IN_OR_Q, ONE, Q, PointRelation, ZERO, _scaled
from gsfuzz.search import GeneratorConfig, random_fuzzy

from corpus import exhaustive
from oracles import naive_o_product


def test_as_grade_parses_decimals_exactly():
    assert as_grade("0.78") == F(39, 50)
    assert as_grade("3/5") == F(3, 5)
    assert as_grade(1) == ONE
    with pytest.raises(InvalidGrade):
        as_grade("3/2")
    with pytest.raises(InvalidGrade):
        as_grade("-1/2")
    with pytest.raises(InvalidGrade):
        as_grade("x")
    with pytest.raises(InvalidGrade) as exc:
        as_grade(0.1)  # a binary float, never exactly 1/10
    assert str(exc.value) == "float grade 0.1 is inexact; pass a str, int or Fraction"


def test_fuzzy_subset_from_list_keeps_a_tuple(ex34):
    grades = [F(1, 2), F(3, 5), F(3, 5)]
    mu = FuzzySubset(ex34.structure, grades)
    assert mu == ex34.fuzzy["mu"] and hash(mu) == hash(ex34.fuzzy["mu"])
    grades[0] = 2  # the validated subset does not follow its source list
    assert mu.grades == (F(1, 2), F(3, 5), F(3, 5))


def test_point_satisfies_named_point(ex46):
    mu = ex46.fuzzy["mu"]
    a = ex46.structure.element_index["a"]
    assert point_satisfies(FuzzyPoint(a, F(78, 100)), mu, IN)


def test_point_satisfies_full_membership(ex34):
    mu = characteristic(ex34.structure, {0, 1, 2})
    for rel in (IN, Q, IN_OR_Q, IN_AND_Q):
        for t in (F(1, 10), HALF, ONE):
            assert point_satisfies(FuzzyPoint(0, t), mu, rel)


def test_point_satisfies_via_q_only(ex34):
    mu = ex34.fuzzy["mu"]
    p = FuzzyPoint(0, F(3, 5))  # e_{0.6}: 1/2 < 3/5 but 1/2 + 3/5 > 1
    assert not point_satisfies(p, mu, IN)
    assert point_satisfies(p, mu, Q)
    assert point_satisfies(p, mu, IN_OR_Q)
    assert not point_satisfies(p, mu, IN_AND_Q)
    assert point_satisfies(p, mu, PointRelation.parse("not-in"))
    with pytest.raises(ValueError, match="unknown relation token 'zz'"):
        PointRelation.parse("zz")
    with pytest.raises(ValueError, match="unknown relation token 'not-not-q'"):
        PointRelation.parse("not-not-q")
    with pytest.raises(ValueError, match="unknown relation token 'not-not-q'"):
        AlphaBetaPair.parse("in,not-not-q")


def test_point_satisfies_unknown_element(ex34):
    with pytest.raises(UnknownElement):
        point_satisfies(FuzzyPoint(9, HALF), ex34.fuzzy["mu"], IN)
    with pytest.raises(UnknownElement, match="unknown element 'zz'"):
        ex34.fuzzy["mu"].grade_of("zz")
    for value in (F(0), F(3, 2)):
        with pytest.raises(InvalidGrade) as exc:
            FuzzyPoint(0, value)
        assert str(exc.value) == f"point value {value} outside (0,1]"
    with pytest.raises(InvalidGrade) as exc:
        FuzzyPoint(0, 0.1)
    assert str(exc.value) == "float point value 0.1 is inexact; pass a Fraction"


def test_point_support_and_value_are_checked(ex34):
    # a bool is an int but no element index; a non-int support is no index
    mu = ex34.fuzzy["mu"]
    for support in (True, False, "a", 1.0, None):
        with pytest.raises(UnknownElement) as exc:
            point_satisfies(FuzzyPoint(support, HALF), mu, IN)
        assert str(exc.value) == f"element index {support!r} out of range"
    for value in ("x", "1/0", None, [1]):
        with pytest.raises(InvalidGrade) as exc:
            FuzzyPoint(0, value)
        assert str(exc.value) == f"not an exact rational: {value!r}"
    # what Fraction reads is the point value it stands for
    assert FuzzyPoint(0, "1/2") == FuzzyPoint(0, HALF)
    assert FuzzyPoint(2, 1).value == ONE and type(FuzzyPoint(2, 1).value) is F
    assert point_satisfies(FuzzyPoint(0, "1/2"), mu, IN)
    with pytest.raises(InvalidGrade, match=r"point value 3/2 outside \(0,1\]"):
        FuzzyPoint(0, "3/2")


def test_level_sets_examples(ex34, ex46):
    s = ex34.structure
    ls = level_sets(ex34.fuzzy["mu"], F(3, 5))
    assert ls.u == {1, 2}  # mu(e) = 1/2 < 3/5
    full = level_sets(ex34.fuzzy["mu"], ONE)
    assert full.q == support(ex34.fuzzy["mu"])
    idx = ex46.structure.element_index
    ls46 = level_sets(ex46.fuzzy["mu"], F(66, 100))
    assert ls46.u == {idx["a"], idx["b"]}
    assert ls46.bracket == {idx["a"], idx["b"], idx["d"], idx["e"]}
    assert ls46.bracket == ls46.u | ls46.q


def test_level_sets_threshold_range(ex34):
    with pytest.raises(InvalidThreshold):
        level_sets(ex34.fuzzy["mu"], 0)
    with pytest.raises(InvalidThreshold):
        level_sets(ex34.fuzzy["mu"], F(3, 2))
    with pytest.raises(InvalidThreshold) as exc:
        level_sets(ex34.fuzzy["mu"], 0.1)
    assert str(exc.value) == "float threshold 0.1 is inexact; pass a str, int or Fraction"


def test_level_sets_refuse_non_rationals(ex34):
    # refused as as_grade refuses a grade, not with the Fraction error
    for raw in ("abc", "1/0", None):
        with pytest.raises(InvalidThreshold) as exc:
            level_sets(ex34.fuzzy["mu"], raw)
        assert str(exc.value) == f"not an exact rational: {raw!r}"


@pytest.mark.parametrize("kind, raw, error, message", [
    ("grade", "-1/2", InvalidGrade, "grade -1/2 outside [0,1]"),
    ("grade", None, InvalidGrade, "not an exact rational: None"),
    ("threshold", 0, InvalidThreshold, "threshold 0 outside (0,1]"),
    ("threshold", "3/2", InvalidThreshold, "threshold 3/2 outside (0,1]"),
])
def test_exact_rational_refusals_are_pinned(ex34, kind, raw, error, message):
    # the messages the float, bool and non-rational tests above leave unpinned
    coerce = as_grade if kind == "grade" else lambda v: level_sets(ex34.fuzzy["mu"], v)
    with pytest.raises(error) as exc:
        coerce(raw)
    assert exc.type is error and str(exc.value) == message


def test_bool_grades_are_refused(ex34):
    # a bool is an int, but True is no grade 1 and False no grade 0
    s, mu = ex34.structure, ex34.fuzzy["mu"]
    for flag in (True, False):
        with pytest.raises(InvalidGrade) as exc:
            as_grade(flag)
        assert str(exc.value) == f"bool grade {flag!r}; pass a str, int or Fraction"
        with pytest.raises(InvalidGrade, match=f"bool grade {flag!r}"):
            constant(s, flag)
        with pytest.raises(InvalidGrade, match=f"bool grade {flag!r}"):
            FuzzySubset.from_mapping(s, {"a": flag})
        with pytest.raises(InvalidGrade) as exc:
            FuzzyPoint(0, flag)
        assert str(exc.value) == f"bool point value {flag!r}; pass a Fraction"
        with pytest.raises(InvalidThreshold) as exc:
            level_sets(mu, flag)
        assert str(exc.value) == f"bool threshold {flag!r}; pass a str, int or Fraction"
    assert constant(s, 0).is_zero and as_grade(1) == ONE  # the ints still read


def test_support(ex34):
    s = ex34.structure
    assert support(ex34.fuzzy["mu"]) == {0, 1, 2}
    assert support(constant(s, 0)) == frozenset()
    assert support(FuzzySubset.from_mapping(s, {"a": "1/2"})) == {1}


def test_o_product_examples(ex34, ex427):
    mu3 = ex427.fuzzy["mu"]
    assert o_product(mu3, mu3).grade_of("a") == F(4, 5)
    mu1 = ex34.fuzzy["mu"]
    assert o_product(mu1, mu1).grade_of("b") == F(3, 5)  # only b g b = b
    zero = constant(ex34.structure, 0)
    assert o_product(zero, mu1).is_zero


def test_o_product_matches_naive_scan(builtin_fixtures):
    pools = []
    for f in builtin_fixtures.values():
        if f.structure.n > 5 or not f.fuzzy:
            continue
        pools.append([f.fuzzy["mu"], characteristic(f.structure, range(0, f.structure.n, 2))])
    # operands on the 1/3 and the 1/7 grid meet on a common base
    structures = [f.structure for f in builtin_fixtures.values()]
    structures += [s for n, k in product((1, 2), (1, 2)) for s in exhaustive(n, k)]
    for i, s in enumerate(structures):
        thirds = GeneratorConfig(n=s.n, k=s.k, seed=50 + i, grid=3, count=2)
        sevenths = GeneratorConfig(n=s.n, k=s.k, seed=90 + i, grid=7, count=2)
        pools.append(list(random_fuzzy(s, thirds)) + list(random_fuzzy(s, sevenths)))
    for pool in pools:
        for lam, rho in product(pool, repeat=2):
            plain = naive_o_product(lam, rho)
            assert o_product(lam, rho) == plain
            assert o05_product(lam, rho).grades == tuple(min(g, HALF) for g in plain.grades)


def test_o_product_associative_on_fixture_pool(ex34, ex46, ex427):
    for f in (ex34, ex46, ex427):
        s = f.structure
        pool = [
            f.fuzzy["mu"],
            characteristic(s, range(s.n)),
            characteristic(s, {0}),
            constant(s, HALF),
        ]
        for a, b, c in product(pool, repeat=3):
            assert o_product(o_product(a, b), c) == o_product(a, o_product(b, c))


def test_o_product_structure_mismatch(ex34, ex427):
    with pytest.raises(StructureMismatch):
        o_product(ex34.fuzzy["mu"], ex427.fuzzy["mu"])


def test_o05_examples(ex34, ex427):
    mu3 = ex427.fuzzy["mu"]
    assert o05_product(mu3, mu3).grade_of("a") == HALF
    mu1 = ex34.fuzzy["mu"]
    assert o05_product(mu1, mu1).grade_of("e") == HALF
    assert o05_product(mu1, constant(ex34.structure, 0)).is_zero


def test_o05_is_capped_o_product(ex34, ex46, ex427):
    for f in (ex34, ex46, ex427):
        mu = f.fuzzy["mu"]
        chi = characteristic(f.structure, {0})
        for lam, rho in product((mu, chi), repeat=2):
            plain = o_product(lam, rho)
            capped = o05_product(lam, rho)
            assert capped.grades == tuple(min(g, HALF) for g in plain.grades)


def test_cap05_examples(ex34, ex46):
    mu2 = ex46.fuzzy["mu"]
    assert cap05(mu2, mu2).grades == tuple(min(g, HALF) for g in mu2.grades)
    s = ex34.structure
    mu1 = ex34.fuzzy["mu"]
    assert cap05(mu1, constant(s, 1)) == cap05(mu1, constant(s, HALF))
    chi_ea = characteristic(s, {0, 1})
    chi_ab = characteristic(s, {1, 2})
    got = cap05(chi_ea, chi_ab)
    assert got.grades == (ZERO, HALF, ZERO)


def test_cap05_matches_characteristic_identities(ex34, ex427):
    # chi_A cap05 chi_B = chi_{A&B} cap 0.5_S ; chi_A o05 chi_B = chi_{AGB} cap 0.5_S
    from corpus import size4_structures

    structures = [ex34.structure, ex427.structure] + size4_structures(count=3)
    for s in structures:
        half = constant(s, HALF)
        subsets = [frozenset(i for i in range(s.n) if m >> i & 1) for m in range(1 << s.n)]
        for a in subsets:
            for b in subsets:
                assert cap05(characteristic(s, a), characteristic(s, b)) == cap05(
                    characteristic(s, a & b), half
                )
                assert o05_product(characteristic(s, a), characteristic(s, b)) == cap05(
                    characteristic(s, gamma_product(s, a, b)), half
                )


def test_characteristic_product_identity(ex34, ex427):
    # chi_A o chi_B = chi_{A Gamma B} and chi_A min chi_B = chi_{A & B}
    for f in (ex34, ex427):
        s = f.structure
        subsets = [frozenset(i for i in range(s.n) if m >> i & 1) for m in range(1 << s.n)]
        for a in subsets:
            for b in subsets:
                assert o_product(characteristic(s, a), characteristic(s, b)) == \
                    characteristic(s, gamma_product(s, a, b))
                assert pointwise_family("min", [characteristic(s, a), characteristic(s, b)]) == \
                    characteristic(s, a & b)


def test_pointwise_family(ex46):
    s = ex46.structure
    mu = ex46.fuzzy["mu"]
    assert pointwise_family("min", [mu, mu]) == mu
    assert pointwise_family("max", [mu, constant(s, 0)]) == mu
    chi_ab = characteristic(s, {0, 1})
    inter = pointwise_family("min", [mu, chi_ab])
    assert inter.grades == (F(4, 5), F(7, 10), ZERO, ZERO, ZERO)
    with pytest.raises(EmptyFamily):
        pointwise_family("min", [])
    with pytest.raises(ValueError):
        pointwise_family("sum", [mu])


def test_characteristic_and_constant(ex34, ex427):
    s = ex427.structure
    assert characteristic(s, frozenset()).is_zero
    assert constant(s, HALF).grades == (HALF, HALF, HALF)
    mu1 = ex34.fuzzy["mu"]
    on_support = constant(ex34.structure, HALF, support(mu1))
    assert on_support == constant(ex34.structure, HALF)  # Supp(mu1) = S
    # members are element indices: never dropped, never read as bools
    for members, shown in (([5], "5"), ([-1], "-1"), (["a"], "'a'"), ([True], "True")):
        with pytest.raises(IndexOutOfRange) as exc:
            characteristic(ex34.structure, members)
        assert str(exc.value) == f"element index {shown} out of range"


def test_critical_thresholds_cover_all_cells(ex46):
    mu = ex46.fuzzy["mu"]
    crits = critical_thresholds(mu)
    assert HALF in crits and ONE in crits
    for g in mu.grades:
        if g > ZERO:
            assert g in crits
        if ZERO < ONE - g:
            assert ONE - g in crits
    # level data is constant between consecutive criticals: sample a denser
    # grid and check each value reproduces some critical's level sets
    dense = [F(i, 97) for i in range(1, 98)]
    shapes = {(level_sets(mu, t).u, level_sets(mu, t).q) for t in crits}
    for t in dense:
        assert (level_sets(mu, t).u, level_sets(mu, t).q) in shapes


def test_bracket_definition_at_criticals(ex46, ex34):
    for f in (ex46, ex34):
        mu = f.fuzzy["mu"]
        for t in critical_thresholds(mu):
            ls = level_sets(mu, t)
            expected = frozenset(
                x for x, g in enumerate(mu.grades) if g >= t or g + t > ONE
            )
            assert ls.bracket == expected == ls.u | ls.q


def test_no_point_is_in_and_q_when_capped(ex46):
    # grades all <= 1/2 leave in-and-q unsatisfiable at every critical value
    s = ex46.structure
    mu = cap05(ex46.fuzzy["mu"], constant(s, 1))
    for x in range(s.n):
        for t in critical_thresholds(mu):
            assert not point_satisfies(FuzzyPoint(x, t), mu, IN_AND_Q)


def test_scaled_memo_leaves_values_unchanged(ex34):
    s = ex34.structure
    grades = (F(1, 3), F(2, 5), F(3, 4), ONE, F(5, 6), ZERO)[: s.n]
    assert len(grades) == s.n
    decided, fresh = FuzzySubset(s, grades), FuzzySubset(s, grades)
    is_eq_bi_ideal(decided)
    assert "_scaled" in decided.__dict__ and "_scaled" not in fresh.__dict__
    assert decided == fresh and hash(decided) == hash(fresh) == hash((s, grades))
    assert repr(decided) == repr(fresh)
    scaled, base = _scaled(decided)
    assert base == 2 * lcm(2, *(g.denominator for g in grades))
    assert scaled == tuple(g * base for g in grades) and all(type(v) is int for v in scaled)
    assert _scaled(fresh) == (scaled, base)
    # replace builds a new instance: same value, and no memo of the old grades
    assert replace(decided) == decided
    halved = replace(decided, grades=tuple(g / 2 for g in grades))
    assert _scaled(halved) == (tuple(g * 2 * base for g in halved.grades), 2 * base)


def test_fuzzy_subset_validation(ex34):
    with pytest.raises(InvalidGrade):
        FuzzySubset(ex34.structure, (ONE, ONE))
    with pytest.raises(InvalidGrade):
        FuzzySubset(ex34.structure, (ONE, ONE, F(3, 2)))
    with pytest.raises(UnknownElement):
        FuzzySubset.from_mapping(ex34.structure, {"zz": "1/2"})
