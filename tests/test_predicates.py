import copy
import pickle
from collections import defaultdict
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction as F
from functools import partial
from itertools import product
from math import lcm

import pytest

from gsfuzz import (
    AlphaBetaPair,
    FuzzySubset,
    characteristic,
    check_by_name,
    constant,
    is_alpha_beta_bi_ideal,
    is_alpha_beta_subsemigroup,
    is_eq_bi_ideal,
    is_eq_ideal,
    is_eq_one_sided_ideal,
    is_eq_subsemigroup,
    is_fuzzy_bi_ideal,
    is_fuzzy_subsemigroup,
    o_product,
    predicates,
    subset_or_q,
    support,
    validate_structure,
)
from gsfuzz.errors import EmptyFuzzySubset, InvalidAlpha, UnknownPredicateName
from gsfuzz.fuzzy import (
    HALF,
    IN,
    ONE,
    FuzzyPoint,
    PointRelation,
    critical_thresholds,
    point_satisfies,
)
from gsfuzz.predicates import (
    PredicateVerdict,
    Witness,
    _failing_cell,
    _product_bounds,
    _resolve_predicate,
)
from gsfuzz.search import GeneratorConfig, find_witness, generate_structures, random_fuzzy
from gsfuzz.structure import classify_subset

from corpus import exhaustive
from oracles import failing_cell_by_candidates, refuting_cells_by_grades

ALPHAS = ("in", "q", "invq")
BETAS = ("in", "q", "invq", "inandq")
# all 24 (alpha, beta) pairs, negated beta included
ALL_PAIRS = [f"{a},{n}{b}" for a in ALPHAS for n in ("", "not-") for b in BETAS]

# the six closed-form deciders
CLOSED_FORMS = (
    is_fuzzy_subsemigroup, is_fuzzy_bi_ideal, is_eq_subsemigroup, is_eq_bi_ideal,
    partial(is_eq_one_sided_ideal, side="left"), partial(is_eq_one_sided_ideal, side="right"),
)

# the (alpha, beta) combinations Example 4.6 refutes, plus (in, in)
REFUTED_PAIRS = [
    "in,in", "q,in", "in,q", "q,invq", "q,inandq", "invq,inandq",
    "invq,in", "in,inandq", "q,q", "invq,q", "invq,invq",
]


def _samples(structure, seed, count=25, grid=10):
    cfg = GeneratorConfig(n=structure.n, k=structure.k, seed=seed, grid=grid, count=count)
    return list(random_fuzzy(structure, cfg))


def test_fuzzy_subsemigroup_examples(ex34, ex46):
    v = is_fuzzy_subsemigroup(ex34.fuzzy["mu"])
    assert not v.holds
    assert (v.witness.x, v.witness.y, v.witness.gamma) == (1, 2, 0)  # (a, b, g)
    assert ex34.fuzzy["mu"].grades[ex34.structure.op(1, 0, 2)] == HALF
    assert is_fuzzy_subsemigroup(constant(ex34.structure, 1)).holds
    v46 = is_fuzzy_subsemigroup(ex46.fuzzy["mu"])
    assert not v46.holds and (v46.witness.x, v46.witness.y) == (0, 1)


def test_fuzzy_subsemigroup_rejects_zero(ex34):
    with pytest.raises(EmptyFuzzySubset):
        is_fuzzy_subsemigroup(constant(ex34.structure, 0))


def test_fuzzy_bi_ideal_examples(ex34):
    for c in ("1/5", "1/2", "1"):
        assert is_fuzzy_bi_ideal(constant(ex34.structure, c)).holds
    assert not is_fuzzy_bi_ideal(ex34.fuzzy["mu"]).holds  # already fails S1
    assert is_fuzzy_bi_ideal(characteristic(ex34.structure, {0})).holds  # chi_{e}


def test_eq_subsemigroup_examples(ex34, ex46, ex427):
    assert is_eq_subsemigroup(ex34.fuzzy["mu"]).holds
    assert is_eq_subsemigroup(ex46.fuzzy["mu"]).holds
    skew = FuzzySubset.from_mapping(ex427.structure, {"a": "0.2", "b": "0.9", "c": "0.2"})
    assert is_eq_subsemigroup(skew).holds  # x g y = x keeps the bound


def test_eq_bi_ideal_examples(ex46, ex427):
    assert is_eq_bi_ideal(ex46.fuzzy["mu"]).holds
    assert is_eq_bi_ideal(ex427.fuzzy["mu"]).holds
    assert is_eq_bi_ideal(constant(ex46.structure, 1)).holds


def test_eq_one_sided_examples(ex427):
    s = ex427.structure
    assert is_eq_one_sided_ideal(constant(s, HALF), "left").holds
    assert is_eq_one_sided_ideal(constant(s, HALF), "right").holds
    mu3 = ex427.fuzzy["mu"]
    # x g y = x and all grades >= 1/2, so both one-sided bounds hold
    assert is_eq_one_sided_ideal(mu3, "right").holds
    assert is_eq_one_sided_ideal(mu3, "left").holds
    assert is_eq_ideal(mu3).holds
    with pytest.raises(ValueError):
        is_eq_one_sided_ideal(mu3, "up")


def test_eq_one_sided_negative_case():
    # Z2 with addition: chi_{1} fails the left bound at 1 g 1 = 0
    s = validate_structure(["0", "1"], ["g"], [[[0, 1]], [[1, 0]]])
    chi = characteristic(s, {1})
    v = is_eq_one_sided_ideal(chi, "left")
    assert not v.holds and (v.witness.x, v.witness.y) == (1, 1)


def test_subset_or_q(ex34, ex427):
    mu1 = ex34.fuzzy["mu"]
    assert subset_or_q(mu1, mu1)
    assert subset_or_q(o_product(mu1, mu1), mu1)
    s = ex427.structure
    mu = constant(s, F(2, 5))
    nu = constant(s, F(9, 20))
    assert not subset_or_q(nu, mu)  # 2/5 < min(9/20, 3/5)


def test_alpha_beta_in_in_witness(ex46):
    mu = ex46.fuzzy["mu"]
    v = is_alpha_beta_subsemigroup(mu, AlphaBetaPair.parse("in,in"))
    assert not v.holds
    w = v.witness
    # any valid witness is acceptable; re-verify it refutes the implication
    assert point_satisfies(FuzzyPoint(w.x, w.t), mu, IN)
    assert point_satisfies(FuzzyPoint(w.y, w.r), mu, IN)
    prod = ex46.structure.op(w.x, w.gamma, w.y)
    assert not point_satisfies(FuzzyPoint(prod, min(w.t, w.r)), mu, IN)


@pytest.mark.parametrize("spec", REFUTED_PAIRS)
def test_alpha_beta_refuted_pairs_ex46(ex46, spec):
    mu = ex46.fuzzy["mu"]
    pair = AlphaBetaPair.parse(spec)
    assert not is_alpha_beta_subsemigroup(mu, pair).holds
    assert not is_alpha_beta_bi_ideal(mu, pair).holds


def test_alpha_beta_eq_pair_holds_ex46(ex46):
    mu = ex46.fuzzy["mu"]
    pair = AlphaBetaPair.parse("in,invq")
    assert is_alpha_beta_subsemigroup(mu, pair).holds
    assert is_alpha_beta_bi_ideal(mu, pair).holds


def test_alpha_beta_constant_one_satisfies_everything(ex34):
    one = constant(ex34.structure, 1)
    for a in ALPHAS:
        for b in BETAS:
            pair = AlphaBetaPair.parse(f"{a},{b}")
            assert is_alpha_beta_subsemigroup(one, pair).holds
            assert is_alpha_beta_bi_ideal(one, pair).holds


def test_alpha_beta_pair_values_ignore_compiled_rule():
    pairs = [AlphaBetaPair.parse(spec) for spec in ALL_PAIRS]
    assert len(set(pairs)) == 24
    for pair in pairs:
        twin = AlphaBetaPair(pair.alpha, pair.beta)
        assert pair == twin == replace(pair)
        assert hash(pair) == hash(twin) == hash((pair.alpha, pair.beta))
        assert repr(pair) == f"AlphaBetaPair(alpha={pair.alpha!r}, beta={pair.beta!r})"
    assert AlphaBetaPair.parse("in,q") != AlphaBetaPair.parse("in,not-in")


def test_alpha_beta_rejects_bad_alpha():
    with pytest.raises(InvalidAlpha):
        AlphaBetaPair.parse("inandq,in")
    with pytest.raises(InvalidAlpha):
        AlphaBetaPair.parse("not-in,in")
    with pytest.raises(InvalidAlpha):
        AlphaBetaPair.parse("in")


def test_alpha_beta_negated_beta_accepted(ex34):
    # negated beta is outside the asserted theory but must be decidable
    one = constant(ex34.structure, 1)
    v = is_alpha_beta_subsemigroup(one, AlphaBetaPair.parse("in,not-in"))
    assert not v.holds and v.witness is not None


def _scaled(values):
    """The base the deciders scale these grades to, and the scaled grades."""
    base = 2 * lcm(2, *(F(v).denominator for v in values))
    return base, [int(F(v) * base) for v in values]


def _grid(d):
    return [F(i, d) for i in range(d + 1)]


def _sampler_cells(spec, base, scaled):
    """Per triple (a, c, w) of scaled grades: the cell sampler's (t, r), or None."""
    pair = AlphaBetaPair.parse(spec)
    return tuple(_failing_cell(pair, base, *t) for t in product(scaled, repeat=3))


def _refuted(cells):
    return tuple(c is not None for c in cells)


def _bound_fails(spec, base, scaled):
    """Per triple, in the same order: does the closed-form bound refute it?"""
    key, bounds = _product_bounds(AlphaBetaPair.parse(spec), scaled, base)
    at = range(len(scaled))
    return tuple(key[w] < bounds[a][c] for a, c, w in product(at, repeat=3))


@pytest.fixture(scope="module")
def grid24_sampler():
    """The scaled 1/24 grid and each pair's sampler cells on its triples."""
    base, scaled = _scaled(_grid(24))
    return base, scaled, {spec: _sampler_cells(spec, base, scaled) for spec in ALL_PAIRS}


# grades with mixed denominators, 0 and 1 included
MIXED = [0, F(1, 5), F(1, 4), F(1, 3), F(2, 5), HALF, F(2, 3), F(3, 4), F(4, 5), 1]


def test_alpha_beta_bounds_match_sampler(grid24_sampler):
    # a, c and w each run over the whole grid, so a = 0 and c = 0 are covered
    for values in (_grid(12), _grid(7), MIXED):
        base, scaled = _scaled(values)
        for spec in ALL_PAIRS:
            assert _bound_fails(spec, base, scaled) == _refuted(
                _sampler_cells(spec, base, scaled)), (spec, values)
    base, scaled, sampled = grid24_sampler
    for spec in ALL_PAIRS:
        assert _bound_fails(spec, base, scaled) == _refuted(sampled[spec]), spec


def _assert_first_refuting_cells(values, base, sampled):
    """Each sampled (t, r) is the first refuting cell by definition."""
    values = [F(v) for v in values]
    alphas = [PointRelation.parse(a) for a in ALPHAS]
    betas = [PointRelation.parse(n + b) for n in ("", "not-") for b in BETAS]
    assert [PointRelation.parse(t) for spec in ALL_PAIRS for t in spec.split(",")] == [
        r for pair in product(alphas, betas) for r in pair]
    columns = [sampled[spec] for spec in ALL_PAIRS]
    as_grade = [F(v, base) for v in range(base + 1)]
    for at, triple in enumerate(product(values, repeat=3)):
        expected = refuting_cells_by_grades(alphas, betas, *triple)
        for spec, cells, want in zip(ALL_PAIRS, columns, expected):
            cell = cells[at]
            got = cell and (as_grade[cell[0]], as_grade[cell[1]])
            assert got == want, (spec, triple)


@pytest.mark.parametrize("values", [_grid(12), _grid(7), MIXED], ids=["grid12", "grid7", "mixed"])
def test_failing_cell_is_first_refuting_cell(values):
    # the exact (t, r), not only whether a cell refutes, for every triple
    base, scaled = _scaled(values)
    _assert_first_refuting_cells(
        values, base, {spec: _sampler_cells(spec, base, scaled) for spec in ALL_PAIRS})


def test_failing_cell_is_first_refuting_cell_on_grid24(grid24_sampler):
    base, _, sampled = grid24_sampler
    _assert_first_refuting_cells(_grid(24), base, sampled)



def _candidate_cells(spec, base, scaled):
    """_sampler_cells, by the full candidate walk the cell search replaced."""
    pair = AlphaBetaPair.parse(spec)
    return tuple(failing_cell_by_candidates(pair, base, *t) for t in product(scaled, repeat=3))


@pytest.mark.parametrize("values", [_grid(12), MIXED], ids=["grid12", "mixed"])
def test_failing_cell_matches_candidate_walk(values):
    base, scaled = _scaled(values)
    for spec in ALL_PAIRS:
        assert _sampler_cells(spec, base, scaled) == _candidate_cells(spec, base, scaled), spec


def test_failing_cell_matches_candidate_walk_on_grid24(grid24_sampler):
    base, scaled, sampled = grid24_sampler
    for spec in ALL_PAIRS:
        assert sampled[spec] == _candidate_cells(spec, base, scaled), spec

def test_alpha_beta_pairs_fall_into_ten_regions(grid24_sampler):
    _, _, sampled = grid24_sampler
    classes = defaultdict(set)
    for spec, cells in sampled.items():
        classes[_refuted(cells)].add(spec)
    regions = {frozenset(c) for c in classes.values()}
    assert len(regions) == 10
    assert {
        frozenset({"in,q", "in,inandq", "q,in", "q,inandq", "invq,in", "invq,q",
                   "invq,inandq"}),
        frozenset({"in,not-in", "in,not-invq", "q,not-q", "q,not-invq", "invq,not-in",
                   "invq,not-q", "invq,not-invq"}),
        frozenset({"q,invq", "invq,invq"}),
        frozenset({"q,not-inandq", "invq,not-inandq"}),
    } <= regions


def test_negated_beta_is_dual_at_points(ex34, ex46, ex427):
    # x_t not-beta mu iff x_t beta* (1 - mu), beta* swapping in/q and invq/inandq
    dual = {"in": "q", "q": "in", "invq": "inandq", "inandq": "invq"}
    for f in (ex34, ex46, ex427):
        mus = [f.fuzzy["mu"], *_samples(f.structure, seed=6, count=8)]
        for mu in mus:
            co = FuzzySubset(mu.structure, tuple(ONE - g for g in mu.grades))
            ts = set(critical_thresholds(mu)) | set(critical_thresholds(co))
            for x, t, b in product(range(mu.structure.n), ts, BETAS):
                point = FuzzyPoint(x, t)
                assert point_satisfies(point, mu, PointRelation.parse(f"not-{b}")) == (
                    point_satisfies(point, co, PointRelation.parse(dual[b])))


def test_failing_cell_runs_once_per_refutation(ex34, ex46, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _failing_cell(*args)

    monkeypatch.setattr(predicates, "_failing_cell", counted)
    closed_outcomes = set()
    for f in (ex34, ex46):
        for mu in [f.fuzzy["mu"], *_samples(f.structure, seed=9, count=10)]:
            for spec in ALL_PAIRS:
                for decide in (is_alpha_beta_subsemigroup, is_alpha_beta_bi_ideal):
                    calls.clear()
                    v = decide(mu, AlphaBetaPair.parse(spec))
                    assert len(calls) == (0 if v.holds else 1)
            # the closed forms share the scan but never sample cells
            for decide in CLOSED_FORMS:
                calls.clear()
                closed_outcomes.add(decide(mu).holds)
                assert not calls
    assert closed_outcomes == {True, False}


def test_verdict_witness_shape():
    with pytest.raises(ValueError):
        PredicateVerdict(True, Witness(0, 0, 0))
    with pytest.raises(ValueError):
        PredicateVerdict(False, None)



def test_verdict_value_types_are_pinned():
    bare, full = Witness(0, 1, 2), Witness(0, 1, 0, 2, 1, F(1, 2), F(3, 4))
    assert bare == Witness(x=0, y=1, gamma=2) == Witness(0, 1, 2, None, None, None, None)
    assert full == Witness(0, 1, 0, z=2, delta=1, r=F(3, 4), t=F(1, 2))
    assert bare != full and bare != (0, 1, 2) and full != replace(full, r=F(1, 2))
    assert [(f.name, f.default) for f in fields(Witness)] == [
        ("x", MISSING), ("y", MISSING), ("gamma", MISSING), ("z", None),
        ("delta", None), ("t", None), ("r", None)]
    assert vars(full) == {"x": 0, "y": 1, "gamma": 0, "z": 2, "delta": 1,
                          "t": F(1, 2), "r": F(3, 4)}
    assert hash(full) == hash((0, 1, 0, 2, 1, F(1, 2), F(3, 4)))
    assert repr(bare) == "Witness(x=0, y=1, gamma=2, z=None, delta=None, t=None, r=None)"
    assert repr(full) == (
        "Witness(x=0, y=1, gamma=0, z=2, delta=1, t=Fraction(1, 2), r=Fraction(3, 4))")
    holds, fails = PredicateVerdict(True), PredicateVerdict(False, full)
    assert holds == PredicateVerdict(holds=True) == PredicateVerdict(True, None)
    assert fails == PredicateVerdict(holds=False, witness=full) != PredicateVerdict(False, bare)
    assert [(f.name, f.default) for f in fields(PredicateVerdict)] == [
        ("holds", MISSING), ("witness", None)]
    assert vars(fails) == {"holds": False, "witness": full}
    assert hash(holds) == hash((True, None)) and hash(fails) == hash((False, full))
    assert repr(holds) == "PredicateVerdict(holds=True, witness=None)"
    assert repr(fails) == f"PredicateVerdict(holds=False, witness={full!r})"
    for value, name in ((full, "t"), (fails, "holds")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        with pytest.raises(FrozenInstanceError):
            value.extra = 1
    assert replace(full, t=None, r=None) == Witness(0, 1, 0, 2, 1)
    assert replace(fails, witness=bare) == PredicateVerdict(False, bare)
    with pytest.raises(ValueError):
        replace(fails, holds=True)
    for value in (bare, full, holds, fails):
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value) and vars(twin) == vars(value)
    assert copy.deepcopy(fails).witness is not full


def test_verdict_refuses_non_bool_holds():
    for holds, witness in ((1, None), (0, Witness(0, 0, 0)), (None, Witness(0, 0, 0))):
        with pytest.raises(ValueError, match=f"non-bool holds {holds!r}"):
            PredicateVerdict(holds, witness)

def test_witness_reverification_on_random_samples(ex34, ex46):
    pair = AlphaBetaPair.parse("in,in")
    for f in (ex34, ex46):
        for mu in _samples(f.structure, seed=21):
            v = is_alpha_beta_subsemigroup(mu, pair)
            if v.holds:
                continue
            w = v.witness
            assert point_satisfies(FuzzyPoint(w.x, w.t), mu, IN)
            assert point_satisfies(FuzzyPoint(w.y, w.r), mu, IN)
            prod = f.structure.op(w.x, w.gamma, w.y)
            assert not point_satisfies(FuzzyPoint(prod, min(w.t, w.r)), mu, IN)


def test_closed_form_witness_reverification(ex34, ex46):
    for f in (ex34, ex46):
        for mu in _samples(f.structure, seed=22):
            v = is_fuzzy_subsemigroup(mu)
            if not v.holds:
                w = v.witness
                prod = f.structure.op(w.x, w.gamma, w.y)
                assert mu.grades[prod] < min(mu.grades[w.x], mu.grades[w.y])
            vb = is_eq_bi_ideal(mu)
            if not vb.holds and vb.witness.z is not None:
                w = vb.witness
                u = f.structure.op(w.x, w.gamma, w.y)
                prod = f.structure.op(u, w.delta, w.z)
                assert mu.grades[prod] < min(mu.grades[w.x], mu.grades[w.z], HALF)


def test_witness_is_lexicographically_first(ex34):
    # both (a,b) and (b,a) violate; the scan must report (a,b) first
    mu = FuzzySubset.from_mapping(ex34.structure, {"e": "1/10", "a": "1/2", "b": "9/10"})
    v = is_fuzzy_subsemigroup(mu)
    assert not v.holds
    assert (v.witness.x, v.witness.y, v.witness.gamma) == (1, 2, 0)
    assert mu.grades[ex34.structure.op(2, 0, 1)] < min(mu.grades[2], mu.grades[1])


def test_closed_forms_are_the_in_in_and_in_invq_scans(ex34, ex46):
    # same verdict and witness (x, y, gamma, z, delta); only t, r are extra
    forms = [
        ("in,in", is_fuzzy_subsemigroup, is_alpha_beta_subsemigroup),
        ("in,in", is_fuzzy_bi_ideal, is_alpha_beta_bi_ideal),
        ("in,invq", is_eq_subsemigroup, is_alpha_beta_subsemigroup),
        ("in,invq", is_eq_bi_ideal, is_alpha_beta_bi_ideal),
    ]
    structures = [s for n in (1, 2, 3) for k in (1, 2) for s in exhaustive(n, k)]
    inputs = [
        mu for i, s in enumerate(structures) for mu in _samples(s, seed=100 + i, count=3, grid=6)
    ]
    inputs += [ex34.fuzzy["mu"], ex46.fuzzy["mu"], constant(ex34.structure, 1)]
    inputs += _samples(ex34.structure, seed=23, count=40)
    shapes = set()
    for mu in inputs:
        for spec, closed, general in forms:
            got, want = closed(mu), general(mu, AlphaBetaPair.parse(spec))
            assert got.holds == want.holds, (mu.structure.cayley, mu.grades, spec)
            if not want.holds:
                assert got.witness == replace(want.witness, t=None, r=None)
                shapes.add((spec, want.witness.z is None))
    # both pairs refute in the pair and in the sandwich shape
    assert shapes == {(spec, pair) for spec in ("in,in", "in,invq") for pair in (True, False)}


def test_invq_invq_implies_eq_pair(ex34, ex46):
    # every (invq, invq) subsemigroup/bi-ideal is an (in, invq) one
    strong = AlphaBetaPair.parse("invq,invq")
    weak = AlphaBetaPair.parse("in,invq")
    for f in (ex34, ex46):
        for mu in _samples(f.structure, seed=24, count=40):
            if is_alpha_beta_subsemigroup(mu, strong).holds:
                assert is_alpha_beta_subsemigroup(mu, weak).holds
            if is_alpha_beta_bi_ideal(mu, strong).holds:
                assert is_alpha_beta_bi_ideal(mu, weak).holds


def test_plain_fuzzy_implies_eq(ex34, ex46):
    for f in (ex34, ex46):
        for mu in _samples(f.structure, seed=25, count=40):
            if is_fuzzy_subsemigroup(mu).holds:
                assert is_eq_subsemigroup(mu).holds
            if is_fuzzy_bi_ideal(mu).holds:
                assert is_eq_bi_ideal(mu).holds


def test_support_closure_for_passing_alpha_beta(ex34, ex46):
    # a non-zero mu passing any (alpha, beta) predicate has a subsemigroup
    # (bi-ideal) support; negated beta carries no such claim
    pairs = [AlphaBetaPair.parse(f"{a},{b}") for a in ALPHAS for b in BETAS]
    for f in (ex34, ex46):
        for mu in _samples(f.structure, seed=26, count=15):
            supp = support(mu)
            for pair in pairs:
                if is_alpha_beta_subsemigroup(mu, pair).holds:
                    assert classify_subset(mu.structure, supp).subsemigroup
                if is_alpha_beta_bi_ideal(mu, pair).holds:
                    assert classify_subset(mu.structure, supp).bi_ideal


def test_one_sided_ideal_implies_bi_ideal(ex34, ex46, ex427):
    for f in (ex34, ex46, ex427):
        for mu in _samples(f.structure, seed=27, count=40):
            left = is_eq_one_sided_ideal(mu, "left").holds
            right = is_eq_one_sided_ideal(mu, "right").holds
            if left or right:
                assert is_eq_bi_ideal(mu).holds


def test_regular_left_duo_bi_ideals_are_right_ideals(ex427):
    # ex4.27 is regular and left duo
    for mu in _samples(ex427.structure, seed=28, count=60):
        if is_eq_bi_ideal(mu).holds:
            assert is_eq_one_sided_ideal(mu, "right").holds


def test_check_by_name_dispatch(ex46):
    mu = ex46.fuzzy["mu"]
    assert check_by_name("eq-subsemigroup", mu).holds
    assert check_by_name("eq-bi-ideal", mu).holds
    assert not check_by_name("fuzzy-subsemigroup", mu).holds
    assert not check_by_name("ab-subsemigroup:in,in", mu).holds
    assert check_by_name("eq-left-ideal", constant(ex46.structure, HALF)).holds
    with pytest.raises(ValueError):
        check_by_name("nonsense", mu)


def test_predicate_names_accept_both_spellings(ex34, ex46, ex427):
    named = {
        "fuzzy-subsemigroup": is_fuzzy_subsemigroup,
        "fuzzy-bi-ideal": is_fuzzy_bi_ideal,
        "eq-subsemigroup": is_eq_subsemigroup,
        "eq-bi-ideal": is_eq_bi_ideal,
        "eq-left-ideal": partial(is_eq_one_sided_ideal, side="left"),
        "eq-right-ideal": partial(is_eq_one_sided_ideal, side="right"),
        "eq-ideal": is_eq_ideal,
    }
    outcomes = set()
    for f in (ex34, ex46, ex427):
        for mu in [f.fuzzy["mu"], *_samples(f.structure, seed=13, count=12)]:
            for name, decide in named.items():
                verdict = decide(mu)
                assert check_by_name(name, mu) == verdict, (name, mu.grades)
                assert check_by_name(name.replace("-", "_"), mu) == verdict
                outcomes.add((name, verdict.holds))
    assert outcomes == {(name, holds) for name in named for holds in (False, True)}
    for f in (ex34, ex46):
        mu = f.fuzzy["mu"]
        for a in ALPHAS:
            for b in BETAS:
                pair = AlphaBetaPair.parse(f"{a},{b}")
                sub = is_alpha_beta_subsemigroup(mu, pair)
                bi = is_alpha_beta_bi_ideal(mu, pair)
                assert check_by_name(f"ab-subsemigroup:{a},{b}", mu) == sub
                assert check_by_name(f"{a}_{b}_subsemigroup", mu) == sub
                assert check_by_name(f"ab-bi-ideal:{a},{b}", mu) == bi
                assert check_by_name(f"{a}_{b}_bi_ideal", mu) == bi
    mu = ex46.fuzzy["mu"]
    with pytest.raises(UnknownPredicateName):
        check_by_name("union_of_two_eq_subsemigroups", mu)
    hyphen = find_witness([ex46.structure], "ab-bi-ideal:in,q AND NOT eq-ideal", 2)
    underscore = find_witness([ex46.structure], "in_q_bi_ideal AND NOT eq_ideal", 2)
    assert hyphen == underscore and hyphen.found
    (found,) = hyphen.subsets
    assert is_alpha_beta_bi_ideal(found, AlphaBetaPair.parse("in,q")).holds
    assert not is_eq_ideal(found).holds


# the seven named forms, then both (alpha, beta) forms of all 24 pairs
SCANNED_NAMES = (
    "fuzzy-subsemigroup", "fuzzy-bi-ideal", "eq-subsemigroup", "eq-bi-ideal",
    "eq-left-ideal", "eq-right-ideal", "eq-ideal",
) + tuple(f"ab-{form}:{pair}" for form in ("subsemigroup", "bi-ideal") for pair in ALL_PAIRS)


def test_integer_scans_match_deciders_on_grid_vectors():
    # the witness hunts decide v / grid as 2v over base 2 * grid; every
    # bound is homogeneous in (grades, base), so that agrees with check_by_name
    # on the Fraction subset, whose own base is 2 * lcm(2, denominators)
    cases = [(s, grid) for n, k in ((1, 1), (1, 2), (2, 1), (2, 2))
             for s in exhaustive(n, k) for grid in (1, 2, 3, 4)]
    cases += [(s, 2) for s in exhaustive(3, 2)[::40]]
    scans = [_resolve_predicate(name)[0] for name in SCANNED_NAMES]
    outcomes = set()
    for s, grid in cases:
        for vec in product(range(grid + 1), repeat=s.n):
            if not any(vec):
                continue
            mu = FuzzySubset(s, tuple(F(v, grid) for v in vec))
            g = [v + v for v in vec]
            for name, scan in zip(SCANNED_NAMES, scans):
                holds = check_by_name(name, mu).holds
                assert (scan(s, g, 2 * grid) is None) == holds, (name, s.cayley, vec)
                outcomes.add((name, holds))
    assert outcomes == {(name, holds) for name in SCANNED_NAMES for holds in (False, True)}
