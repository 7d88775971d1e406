from fractions import Fraction as F
from hashlib import sha256
from itertools import product

import pytest

from gsfuzz import (
    enumerate_crisp,
    fixtures,
    is_eq_bi_ideal,
    is_eq_subsemigroup,
    is_fuzzy_subsemigroup,
    mod_surrogate,
    validate_structure,
)
from gsfuzz.errors import BudgetExhausted, CarrierTooLarge, UnknownPredicateName
from gsfuzz.predicates import _resolve_predicate
from gsfuzz.search import (
    GeneratorConfig,
    SplitMix64,
    find_witness,
    generate_structures,
    grid_subsets,
    parse_want,
    random_fuzzy,
    sample_eq_bi_ideals,
)

from corpus import exhaustive
from oracles import find_witness_by_definition

# seeded-stream goldens, frozen from the first recorded run
GEN_N3_SEED42 = [
    "010111010", "000000001", "111111012", "000222222", "002002220",
]
FUZZ_EX34_SEED7 = [
    ("1/5", "0", "0"), ("0", "7/10", "7/10"), ("1/10", "9/10", "1/5"),
]
# sha256 of repr([s.cayley ...]) over the whole exhaustive stream
EXHAUSTIVE_SHA256 = {
    (2, 2): "2824fb3b14dc7b75", (3, 1): "d3d712cc3778ee12", (3, 2): "c60d064ce5db4a12",
}
# sha256 of repr(list(stream)): names, their tuple types and the cubes
EXHAUSTIVE_FULL_SHA256 = {
    (2, 2): "1df667b930a94729", (3, 1): "9fbe00e1978b9fa0", (3, 2): "6927b294174e59d1",
}
GEN_N2_K2_SEED9 = ["01010101", "11011111", "01101001", "10100101", "10100101", "10010110"]
SPLITMIX_SEED0 = [
    16294208416658607535, 7960286522194355700, 487617019471545679,
]


def _cube_digits(s):
    return "".join(str(v) for plane in s.cayley for row in plane for v in row)


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == SPLITMIX_SEED0


def test_fixture_ids_and_validity(mod12):
    pool = {f.id: f for f in fixtures()}
    assert sorted(pool) == ["ex2.1-mod-12", "ex3.4", "ex4.27", "ex4.6"]
    s = mod12.structure
    assert validate_structure(s.elements, s.gammas, s.cayley) == s


def test_fixture_expected_values(ex34, ex427):
    assert is_eq_subsemigroup(ex34.fuzzy["mu"]).holds
    assert not is_fuzzy_subsemigroup(ex34.fuzzy["mu"]).holds
    assert is_eq_subsemigroup(ex427.fuzzy["mu"]).holds


def test_mod_surrogate_sizes():
    f5 = mod_surrogate(5)
    assert f5.structure.n == 5 and f5.structure.k == 2
    validate_structure(
        f5.structure.elements, f5.structure.gammas, f5.structure.cayley
    )


def test_exhaustive_counts():
    def stream(n, k):
        return list(generate_structures(GeneratorConfig(n=n, k=k), exhaustive=True))

    def cubes(n, k):
        return [s.cayley for s in stream(n, k)]

    def count(n, k):
        return len(cubes(n, k))

    assert count(1, 1) == 1
    assert count(1, 2) == 1
    assert count(2, 1) == 8    # associative binary magmas on 2 elements
    assert count(2, 2) == 14
    assert count(3, 1) == 113
    assert count(3, 2) == 413
    # the emission order is pinned too: callers take prefixes of these streams
    for (n, k), prefix in EXHAUSTIVE_SHA256.items():
        assert sha256(repr(cubes(n, k)).encode()).hexdigest().startswith(prefix), (n, k)
    for (n, k), prefix in EXHAUSTIVE_FULL_SHA256.items():
        assert sha256(repr(stream(n, k)).encode()).hexdigest().startswith(prefix), (n, k)
    with pytest.raises(CarrierTooLarge):
        next(generate_structures(GeneratorConfig(n=4, k=1), exhaustive=True))


def test_exhaustive_count_cap():
    got = list(generate_structures(GeneratorConfig(n=3, k=1, count=5), exhaustive=True))
    assert len(got) == 5
    for s in got:
        assert validate_structure(s.elements, s.gammas, s.cayley) == s


def test_generate_structures_deterministic():
    cfg = GeneratorConfig(n=3, k=1, seed=42, count=5)
    first = [_cube_digits(s) for s in generate_structures(cfg)]
    second = [_cube_digits(s) for s in generate_structures(cfg)]
    assert first == second == GEN_N3_SEED42


def test_generate_structures_all_valid():
    got = list(generate_structures(GeneratorConfig(n=2, k=2, seed=9, count=6)))
    assert [_cube_digits(s) for s in got] == GEN_N2_K2_SEED9
    for s in got:
        assert validate_structure(s.elements, s.gammas, s.cayley) == s


def test_generate_structures_budget():
    with pytest.raises(BudgetExhausted) as exc:
        list(generate_structures(GeneratorConfig(n=3, k=1, seed=1, count=5), budget=20))
    assert str(exc.value) == "20 rejection attempts produced 0/5"


def test_random_fuzzy_deterministic(ex34):
    cfg = GeneratorConfig(n=3, k=1, seed=7, grid=10, count=3)
    got = [tuple(str(g) for g in mu.grades) for mu in random_fuzzy(ex34.structure, cfg)]
    assert got == FUZZ_EX34_SEED7
    again = [tuple(str(g) for g in mu.grades) for mu in random_fuzzy(ex34.structure, cfg)]
    assert got == again


def test_random_fuzzy_grid_one_gives_characteristics(ex34):
    cfg = GeneratorConfig(n=3, k=1, seed=3, grid=1, count=20)
    for mu in random_fuzzy(ex34.structure, cfg):
        assert all(g in (F(0), F(1)) for g in mu.grades)
        assert not mu.is_zero


def test_random_fuzzy_grid_two_singleton_carrier():
    s = validate_structure(["a"], ["g"], [[[0]]])
    cfg = GeneratorConfig(n=1, k=1, seed=3, grid=2, count=20)
    seen = {mu.grades[0] for mu in random_fuzzy(s, cfg)}
    assert seen == {F(1, 2), F(1)}  # zero draws are filtered out


def test_grid_subsets_order_and_size(ex427):
    subs = list(grid_subsets(ex427.structure, 2))
    assert len(subs) == 3 ** 3 - 1  # zero subset filtered
    assert subs[0].grades == (F(0), F(0), F(1, 2))
    assert subs[1].grades == (F(0), F(0), F(1))
    assert subs[-1].grades == (F(1), F(1), F(1))


def test_grid_below_one_is_a_value_error(ex34):
    s = ex34.structure
    for grid in (0, -1):
        with pytest.raises(ValueError, match="grid >= 1"):
            list(grid_subsets(s, grid))
        with pytest.raises(ValueError, match="grid >= 1"):
            sample_eq_bi_ideals(s, 3, 1, grid=grid)
        with pytest.raises(ValueError, match="grid >= 1"):
            find_witness([s], "eq_subsemigroup", grid)
        with pytest.raises(ValueError, match="grid >= 1"):
            find_witness([s], "union_of_two_eq_subsemigroups", grid)
        # refused at the call, before any structure is drawn
        with pytest.raises(ValueError, match="grid >= 1"):
            find_witness([], "eq_subsemigroup", grid)
        with pytest.raises(ValueError, match="grid >= 1"):
            find_witness([], "union_of_two_eq_subsemigroups", grid)
    with pytest.raises(ValueError, match="count >= 0"):
        sample_eq_bi_ideals(s, -3, 1)
    assert sample_eq_bi_ideals(s, 0, 1) == []


def test_enumerate_crisp_examples(ex34, ex427):
    bis427 = enumerate_crisp(ex427.structure, "bi_ideal")
    assert frozenset({0}) in bis427 and frozenset({1}) in bis427 and frozenset({2}) in bis427
    assert len(bis427) == 7  # left projection: every non-empty subset qualifies
    bis34 = enumerate_crisp(ex34.structure, "bi_ideal")
    assert frozenset({0}) in bis34
    assert bis34 == [
        frozenset({0}), frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2}),
    ]
    subs34 = enumerate_crisp(ex34.structure, "subsemigroup")
    assert frozenset(range(3)) in subs34
    assert set(bis34) <= set(subs34)
    with pytest.raises(ValueError):
        enumerate_crisp(ex34.structure, "prime")


def test_enumerate_crisp_scan_cap(mod12):
    with pytest.raises(CarrierTooLarge) as exc:
        enumerate_crisp(mod_surrogate(17).structure, "bi_ideal")
    assert str(exc.value) == "2^17 subset scan exceeds the cap (n <= 16)"
    assert frozenset({0}) in enumerate_crisp(mod12.structure, "left_ideal")


def test_bi_ideals_subset_of_subsemigroups():
    for s in generate_structures(GeneratorConfig(n=3, k=1, seed=17, count=10)):
        assert set(enumerate_crisp(s, "bi_ideal")) <= set(enumerate_crisp(s, "subsemigroup"))


def _truth_table(want):
    """The compiled test under all 8 assignments of its three atoms."""
    test, _, _ = parse_want(want)
    names = ("eq_subsemigroup", "fuzzy_subsemigroup", "eq_bi_ideal")
    scans = [_resolve_predicate(name)[0] for name in names]
    table = []
    for values in product((False, True), repeat=3):
        value = dict(zip(scans, values))
        table.append(test(lambda scan, pair: value[scan]))
    return table


def test_parse_want_grammar():
    assignments = list(product((False, True), repeat=3))
    assert _truth_table("eq_subsemigroup AND NOT (fuzzy_subsemigroup OR eq_bi_ideal)") == [
        a and not (b or c) for a, b, c in assignments
    ]
    with pytest.raises(UnknownPredicateName):
        parse_want("eq_subsemigroup AND no_such_thing")
    with pytest.raises(UnknownPredicateName):
        parse_want("(eq_subsemigroup")
    with pytest.raises(UnknownPredicateName):
        parse_want("eq_subsemigroup extra")
    for text, message in (
        ("", "unexpected end of expression"),
        ("NOT", "unexpected end of expression"),
        ("eq_subsemigroup AND", "unexpected end of expression"),
        ("(eq_subsemigroup", "missing closing parenthesis"),
        ("(eq_subsemigroup eq_bi_ideal)", "missing closing parenthesis"),
        ("eq_subsemigroup )", "trailing token ')'"),
        ("no_such", "unknown predicate name 'no_such'"),
    ):
        with pytest.raises(UnknownPredicateName) as exc:
            parse_want(text)
        assert str(exc.value) == message, text
    # keywords are case-blind, and AND binds tighter than OR
    assert _truth_table("eq_subsemigroup and not fuzzy_subsemigroup or eq_bi_ideal") == [
        a and not b or c for a, b, c in assignments
    ]
    # pair mode is known from the parse
    assert parse_want("NOT union_of_two_eq_bi_ideals OR eq_subsemigroup")[1]
    for want in (
        "eq_subsemigroup AND NOT (fuzzy_subsemigroup OR eq_bi_ideal)",
        "eq_subsemigroup and not fuzzy_subsemigroup or eq_bi_ideal",
    ):
        assert not parse_want(want)[1]


def test_find_witness_eq_not_fuzzy(ex34):
    res = find_witness([ex34.structure], "eq_subsemigroup AND NOT fuzzy_subsemigroup", 10)
    assert res.found
    # the first grid-lex witness is the fixture's own fuzzy subset
    assert res.subsets[0].grades == (F(1, 2), F(3, 5), F(3, 5))
    assert res.subsets_scanned == 677
    assert is_eq_subsemigroup(res.subsets[0]).holds
    assert not is_fuzzy_subsemigroup(res.subsets[0]).holds


def test_find_witness_impossible_hunt_exhausts(ex34):
    res = find_witness([ex34.structure], "fuzzy_subsemigroup AND NOT eq_subsemigroup", 4)
    assert not res.found
    assert res.structures_scanned == 1
    assert res.subsets_scanned == 5 ** 3 - 1


def test_find_witness_union_closure_counterexample():
    # the pointwise max of two eq-subsemigroups need not be one: recorded
    # outcome of the exhaustive n=3, k=1, grid=4 hunt
    stream = generate_structures(GeneratorConfig(n=3, k=1), exhaustive=True)
    res = find_witness(
        stream, "union_of_two_eq_subsemigroups AND NOT eq_subsemigroup", 4
    )
    assert res.found
    assert res.structures_scanned == 9
    assert _cube_digits(res.structure) == "000010002"  # the ex3.4 table
    m1, m2, union = res.subsets
    assert [str(g) for g in m1.grades] == ["0", "0", "1/4"]
    assert [str(g) for g in m2.grades] == ["0", "1/4", "0"]
    assert is_eq_subsemigroup(m1).holds and is_eq_subsemigroup(m2).holds
    assert not is_eq_subsemigroup(union).holds


def test_sample_eq_bi_ideals(ex46):
    got = sample_eq_bi_ideals(ex46.structure, 10, seed=19)
    assert len(got) == 10
    assert all(is_eq_bi_ideal(mu).holds for mu in got)


# Grades of sample_eq_bi_ideals over a mixed stream, pinned by sha256 so that a
# rewrite of the sampler keeps every seeded draw, verdict and count.
PINNED_SAMPLES_SHA256 = "5b73a6b82f6ae57d"


def test_sample_eq_bi_ideals_are_pinned():
    stream = [s for n, k in ((1, 1), (1, 2), (2, 1), (2, 2)) for s in exhaustive(n, k)]
    stream += exhaustive(3, 1)[::10]
    samples = [
        [mu.grades for mu in sample_eq_bi_ideals(s, count, seed, grid)]
        for s in stream for grid in (1, 2, 10) for count in (0, 3, 24) for seed in (3, 8)
    ]
    assert sha256(repr(samples).encode()).hexdigest().startswith(PINNED_SAMPLES_SHA256)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=0, k=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, k=1, count=-1)
    stream = generate_structures(GeneratorConfig(n=1, k=1))
    with pytest.raises(ValueError, match="random generation needs count >= 1"):
        next(stream)


HUNTS = (
    "union_of_two_eq_subsemigroups AND NOT eq_subsemigroup",
    "union_of_two_eq_bi_ideals AND NOT eq_bi_ideal",
    "union_of_two_eq_bi_ideals AND NOT fuzzy_bi_ideal AND (eq-left-ideal OR NOT eq_right_ideal)",
    "eq_subsemigroup AND NOT fuzzy_subsemigroup",
    "eq_ideal AND NOT eq_bi_ideal",
    "eq_subsemigroup AND NOT ab-subsemigroup:q,invq",
)


def _hunt_outcome(structures, want, grid):
    res = find_witness(structures, want, grid)
    grades = tuple(mu.grades for mu in res.subsets)
    return res.found, res.structure, grades, res.structures_scanned, res.subsets_scanned


def test_find_witness_matches_unmemoized_hunt():
    # every n <= 2 structure and a few n = 3 ones, alone and as one stream;
    # the pair hunts decide atoms from a per-call memo, the unary hunts one
    # verdict per order type, the oracle neither.  Grid 6 repeats order
    # types, grid 5 caps the hunts of capped expressions at 3/5, above 1/2,
    # and the mixed stream alternates n = 2 and n = 3, so the unary hunts
    # share each n's types across structures.
    small = [s for n, k in ((1, 1), (1, 2), (2, 1), (2, 2)) for s in exhaustive(n, k)]
    triples = exhaustive(3, 1)[::20] + exhaustive(3, 2, count=60)[::30]
    mixed = [s for pair in zip(small[-len(triples):], triples) for s in pair]
    outcomes = set()
    for want in HUNTS:
        cases = [([s], grid) for s in small for grid in (2, 3, 5, 6)]
        cases += [([s], grid) for s in triples for grid in (2, 3)]
        cases += [(small, 2), (triples, 2), (mixed, 2)]
        if not parse_want(want)[1]:
            cases += [([s], 6) for s in triples] + [(mixed, 6)]
        for structures, grid in cases:
            got = _hunt_outcome(structures, want, grid)
            assert got == find_witness_by_definition(structures, want, grid), (want, grid)
            outcomes.add((want.startswith("union"), got[0]))
    assert outcomes == {(pair, found) for pair in (True, False) for found in (True, False)}


# Outcomes of find_witness over one mixed stream, pinned by sha256 so that a
# rewrite of the --want evaluator keeps every verdict, count and witness.
# The tenth expression reads as fuzzy_subsemigroup only when AND binds
# tighter than OR; with the precedence swapped it can never hold.
PINNED_WANTS = (
    "eq_subsemigroup AND NOT fuzzy_subsemigroup",
    "eq_subsemigroup and not fuzzy_subsemigroup or eq_bi_ideal",
    "NOT (eq_ideal OR fuzzy_bi_ideal) AND eq_bi_ideal",
    "(eq_subsemigroup OR eq_bi_ideal) AND NOT fuzzy_subsemigroup",
    "NOT NOT eq-left-ideal AND NOT eq_right_ideal",
    "eq_ideal AND NOT eq_bi_ideal",
    "union_of_two_eq_subsemigroups AND NOT eq_subsemigroup",
    "NOT union_of_two_eq_bi_ideals OR eq_subsemigroup",
    "ab-bi-ideal:q,invq AND NOT invq_in_subsemigroup",
    "fuzzy_subsemigroup OR eq_subsemigroup AND NOT eq_subsemigroup",
    "NOT eq_bi_ideal AND eq_bi_ideal OR eq_ideal",
)
PINNED_WANTS_SHA256 = "40ea49ab3373e894"


def test_find_witness_outcomes_are_pinned():
    stream = exhaustive(2, 1) + exhaustive(2, 2) + exhaustive(3, 1)[::10]
    outcomes = []
    for want in PINNED_WANTS:
        for grid in (2, 3):
            res = find_witness(stream, want, grid)
            cayley = res.structure.cayley if res.found else None
            grades = tuple(mu.grades for mu in res.subsets)
            outcomes.append(
                (res.found, res.structures_scanned, res.subsets_scanned, cayley, grades)
            )
    assert sha256(repr(outcomes).encode()).hexdigest().startswith(PINNED_WANTS_SHA256)
