from fractions import Fraction as F
from itertools import product

import pytest

from gsfuzz import (
    FuzzySubset,
    cap05,
    characteristic,
    constant,
    critical_thresholds,
    enumerate_crisp,
    image,
    is_eq_bi_ideal,
    is_eq_ideal,
    is_eq_subsemigroup,
    is_f_invariant,
    o05_product,
    pointwise_family,
    preimage,
    report_bi_ideal_equivalences,
    report_level_characterization,
    report_product_characterization,
    report_regular_intra_characterization,
    report_regularity_characterization,
    report_subsemigroup_equivalences,
    validate_homomorphism,
    validate_structure,
)
from gsfuzz.errors import EmptyFuzzySubset, SampleNotBiIdeal, StructureMismatch
from gsfuzz import predicates, theorems
from gsfuzz.fuzzy import HALF
from gsfuzz.search import (
    GeneratorConfig,
    SplitMix64,
    mod_surrogate,
    random_fuzzy,
    sample_eq_bi_ideals,
)
from gsfuzz.structure import (
    classify_structure,
    classify_subset,
    enumerate_homomorphisms,
    is_regular,
)
from gsfuzz.theorems import TheoremReport, _report

from corpus import direct_product, exhaustive
from oracles import (
    regularity_flags_by_enumeration,
    report_flags_by_definition,
    thresholds_by_definition,
)


def _samples(structure, seed, count=30, grid=10):
    cfg = GeneratorConfig(n=structure.n, k=structure.k, seed=seed, grid=grid, count=count)
    return list(random_fuzzy(structure, cfg))


TENTHS = tuple(F(i, 10) for i in range(11))
MIXED = tuple(F(v) for v in ("0", "1/3", "2/7", "5/12", "1/2", "3/4", "1"))

MU_REPORTS = {
    "thm3.2": report_subsemigroup_equivalences,
    "thm3.5": report_bi_ideal_equivalences,
    "thm4.23": lambda mu: report_level_characterization(mu, "subsemigroup"),
    "thm4.24": lambda mu: report_level_characterization(mu, "bi_ideal"),
    "thm4.25": lambda mu: report_product_characterization(mu, "subsemigroup"),
    "thm4.26": lambda mu: report_product_characterization(mu, "bi_ideal"),
}


def _draws(structure, values, seed, count):
    """count seeded non-zero fuzzy subsets with grades drawn from values."""
    rng, drawn = SplitMix64(seed), []
    while len(drawn) < count:
        vec = tuple(values[rng.below(len(values))] for _ in range(structure.n))
        if any(vec):
            drawn.append(FuzzySubset(structure, vec))
    return drawn


def test_report_invariant_shape():
    with pytest.raises(ValueError):
        TheoremReport("x", (True, False), True)
    with pytest.raises(ValueError):
        TheoremReport("x", (True, True), True, ((0,), "detail"))
    # a disagreement names the minority flags; a tie names the true ones
    for flags, indices in (
        ((True, True, True, False, False), (3, 4)),
        ((True, False), (0,)),
        ((True, True, False), (2,)),
    ):
        rep = _report("x", flags, "detail")
        assert not rep.agree and rep.discrepancy == (indices, "detail"), flags


def test_report_formats_grades_only_on_disagreement(ex34, monkeypatch):
    mu, formatted = ex34.fuzzy["mu"], []
    detail = theorems._grades_detail
    monkeypatch.setattr(theorems, "_grades_detail", lambda m: formatted.append(m) or detail(m))
    for report in MU_REPORTS.values():
        assert report(mu).agree
    assert formatted == []
    rep = _report("x", (True, False), mu)
    assert rep.discrepancy == ((0,), " ".join(map(str, mu.grades))) and formatted == [mu]


def test_product_characterization_checks_kind_first(ex34, monkeypatch):
    def product(*args):
        raise AssertionError("computed a product for a bad kind")

    monkeypatch.setattr(theorems, "_sup_min_scaled", product)
    monkeypatch.setattr(theorems, "_sandwich_sup", product)
    with pytest.raises(ValueError, match="kind must be"):
        report_product_characterization(ex34.fuzzy["mu"], "ideal")


def test_subsemigroup_equivalences_examples(ex34):
    rep = report_subsemigroup_equivalences(ex34.fuzzy["mu"])
    assert rep.agree and rep.condition_flags == (True,) * 5
    one = constant(ex34.structure, 1)
    assert report_subsemigroup_equivalences(one).condition_flags == (True,) * 5
    # all five oracles land false together on a failing subset
    skew = FuzzySubset.from_mapping(ex34.structure, {"e": "0.2", "a": "0.9", "b": "0.1"})
    rep = report_subsemigroup_equivalences(skew)
    assert rep.agree and all(rep.condition_flags)  # 0.2 >= min(0.9, 0.1, 0.5)
    failing = FuzzySubset.from_mapping(ex34.structure, {"e": "0.1", "a": "0.9", "b": "0.9"})
    rep = report_subsemigroup_equivalences(failing)
    assert rep.agree and not any(rep.condition_flags)


def test_bi_ideal_equivalences_examples(ex46, ex427):
    rep = report_bi_ideal_equivalences(ex46.fuzzy["mu"])
    assert rep.agree and all(rep.condition_flags)
    halfc = constant(ex46.structure, HALF)
    assert report_bi_ideal_equivalences(halfc).agree
    for mu in _samples(ex427.structure, seed=31, count=25):
        assert report_bi_ideal_equivalences(mu).agree


def test_bi_ideal_equivalences_scan_once(builtin_fixtures, monkeypatch):
    # thm3.5 reads its subsemigroup hypothesis off the bi-ideal verdict
    pool = [
        mu
        for f in builtin_fixtures.values()
        for mu in [*f.fuzzy.values(), *_samples(f.structure, seed=5, count=10)]
    ]
    kinds = {(v.holds, v.holds or v.witness.z is not None) for v in map(is_eq_bi_ideal, pool)}
    assert kinds == {(True, True), (False, True), (False, False)}
    scan, calls = predicates._first_failure, []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(predicates, "_first_failure", counted)
    for mu in pool:
        calls.clear()
        report_bi_ideal_equivalences(mu)
        assert len(calls) == 1


def test_level_characterization(ex34, ex46):
    rep = report_level_characterization(ex34.fuzzy["mu"], "subsemigroup")
    assert rep.theorem_id == "thm4.23" and rep.agree and all(rep.condition_flags)
    one = constant(ex34.structure, 1)
    assert report_level_characterization(one, "subsemigroup").condition_flags == (True, True)
    rep = report_level_characterization(ex46.fuzzy["mu"], "bi_ideal")
    assert rep.theorem_id == "thm4.24" and rep.agree and all(rep.condition_flags)
    with pytest.raises(ValueError):
        report_level_characterization(one, "ideal")


def test_product_characterization(ex34, ex427):
    mu3 = ex427.fuzzy["mu"]
    rep = report_product_characterization(mu3, "bi_ideal")
    assert rep.theorem_id == "thm4.26" and rep.agree and all(rep.condition_flags)
    # containment is strict at a: the capped square loses 3/10
    assert o05_product(mu3, mu3).grade_of("a") == HALF < F(4, 5) == mu3.grade_of("a")
    chi_e = characteristic(ex34.structure, {0})
    assert report_product_characterization(chi_e, "bi_ideal").agree
    assert report_product_characterization(chi_e, "subsemigroup").theorem_id == "thm4.25"
    with pytest.raises(EmptyFuzzySubset):
        report_product_characterization(constant(ex34.structure, 0), "subsemigroup")
    with pytest.raises(ValueError, match="kind must be"):
        report_product_characterization(mu3, "x")


def test_image_preimage_examples(ex427):
    s = ex427.structure
    mu3 = ex427.fuzzy["mu"]
    ident = validate_homomorphism(s, s, (0, 1, 2))
    assert image(ident, mu3) == mu3
    assert preimage(ident, mu3) == mu3
    const = validate_homomorphism(s, s, (0, 0, 0))
    img = image(const, mu3)
    assert img.grades == (F(4, 5), F(0), F(0))
    assert image(const, constant(s, 0)).is_zero
    pre = preimage(const, mu3)
    assert pre.grades == (F(4, 5),) * 3
    assert preimage(const, constant(s, 1)) == constant(s, 1)


def test_image_structure_mismatch(ex34, ex427):
    const = validate_homomorphism(ex427.structure, ex427.structure, (0, 0, 0))
    with pytest.raises(StructureMismatch):
        image(const, ex34.fuzzy["mu"])
    with pytest.raises(StructureMismatch):
        preimage(const, ex34.fuzzy["mu"])
    with pytest.raises(StructureMismatch):
        is_f_invariant(ex34.fuzzy["mu"], const)


def test_f_invariance(ex427):
    s = ex427.structure
    mu3 = ex427.fuzzy["mu"]
    ident = validate_homomorphism(s, s, (0, 1, 2))
    const = validate_homomorphism(s, s, (0, 0, 0))
    assert is_f_invariant(mu3, ident)
    assert not is_f_invariant(mu3, const)  # 4/5 != 7/10 on one fiber
    assert is_f_invariant(constant(s, HALF), const)


def test_image_preimage_preserve_predicates(builtin_fixtures):
    small = [f.structure for f in builtin_fixtures.values() if f.structure.n <= 3]
    for src in small:
        for dst in small:
            for hom in enumerate_homomorphisms(src, dst, surjective_only=True):
                for mu in _samples(src, seed=33, count=12):
                    if is_eq_subsemigroup(mu).holds:
                        assert is_eq_subsemigroup(image(hom, mu)).holds
                    if is_eq_bi_ideal(mu).holds:
                        assert is_eq_bi_ideal(image(hom, mu)).holds
                for nu in _samples(dst, seed=34, count=12):
                    if is_eq_subsemigroup(nu).holds:
                        assert is_eq_subsemigroup(preimage(hom, nu)).holds
                    if is_eq_bi_ideal(nu).holds:
                        assert is_eq_bi_ideal(preimage(hom, nu)).holds


def test_intersection_family_closure(ex34, ex46):
    for f in (ex34, ex46):
        pool = [mu for mu in _samples(f.structure, seed=35, count=40)
                if is_eq_subsemigroup(mu).holds]
        for i in range(len(pool) - 2):
            family = pool[i:i + 3]
            inter = pointwise_family("min", family)
            if not inter.is_zero:
                assert is_eq_subsemigroup(inter).holds
        bi_pool = [mu for mu in pool if is_eq_bi_ideal(mu).holds]
        for i in range(len(bi_pool) - 1):
            inter = pointwise_family("min", bi_pool[i:i + 2])
            if not inter.is_zero:
                assert is_eq_bi_ideal(inter).holds


def test_cap05_closure(ex34, ex46):
    for f in (ex34, ex46):
        pool = [mu for mu in _samples(f.structure, seed=36, count=40)
                if is_eq_subsemigroup(mu).holds]
        for m1, m2 in zip(pool, pool[1:]):
            meet = cap05(m1, m2)
            if not meet.is_zero:
                assert is_eq_subsemigroup(meet).holds


def test_o05_product_closure(ex34, ex46):
    # two eq-subsemigroups, one an eq-bi-ideal: the capped product is one
    for f in (ex34, ex46):
        pool = [mu for mu in _samples(f.structure, seed=37, count=60)
                if is_eq_subsemigroup(mu).holds]
        bis = [mu for mu in pool if is_eq_bi_ideal(mu).holds]
        for m1 in bis[:5]:
            for m2 in pool[:8]:
                for left, right in ((m1, m2), (m2, m1)):
                    prod = o05_product(left, right)
                    if not prod.is_zero:
                        assert is_eq_bi_ideal(prod).holds


def test_characteristic_correspondence(builtin_fixtures):
    from corpus import size4_structures

    structures = [f.structure for f in builtin_fixtures.values() if f.structure.n <= 4]
    structures += size4_structures(count=5)
    for s in structures:
        for mask in range(1, 1 << s.n):
            a = frozenset(i for i in range(s.n) if mask >> i & 1)
            chi = characteristic(s, a)
            flags = classify_subset(s, a)
            assert flags.subsemigroup == is_eq_subsemigroup(chi).holds
            assert flags.bi_ideal == is_eq_bi_ideal(chi).holds


def test_regular_duo_ideal_equivalence():
    # Z6 under multiplication is regular, intra-regular and commutative (duo)
    cube = [[[(x * y) % 6 for y in range(6)]] for x in range(6)]
    s = validate_structure([str(i) for i in range(6)], ["g"], cube)
    flags = classify_structure(s)
    assert flags.regular and flags.duo
    for mu in _samples(s, seed=38, count=40):
        assert is_eq_bi_ideal(mu).holds == is_eq_ideal(mu).holds


def test_regularity_characterization(ex427):
    samples = sample_eq_bi_ideals(ex427.structure, 20, seed=39)
    rep = report_regularity_characterization(ex427.structure, samples)
    assert rep.theorem_id == "thm4.28" and rep.agree and all(rep.condition_flags)
    single = validate_structure(["a"], ["g"], [[[0]]])
    assert report_regularity_characterization(single).condition_flags == (True, True)


def test_regularity_characterization_non_regular():
    # null semigroup on two elements: x g y = 0 is not regular
    s = validate_structure(["0", "1"], ["g"], [[[0, 0]], [[0, 0]]])
    rep = report_regularity_characterization(s, [])
    assert rep.agree and rep.condition_flags == (False, False)


def _brandt():
    """The Brandt semigroup B2 on 0 and the matrix units e_ij."""
    names = ["0", "e11", "e12", "e21", "e22"]
    unit = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
    index = {ij: x for x, ij in unit.items()}

    def mul(x, y):
        if x == 0 or y == 0 or unit[x][1] != unit[y][0]:
            return 0
        return index[(unit[x][0], unit[y][1])]

    return validate_structure(names, ["g"], [[[mul(x, y) for y in range(5)]] for x in range(5)])


def test_regular_not_intra_regular_separates_the_regularity_reports():
    # the Brandt semigroup B2 is regular but not intra-regular (e12 e12 = 0):
    # its bi-ideals satisfy A S A = A but not all A A = A, which no n <= 3
    # structure shows
    s = _brandt()
    reg = report_regularity_characterization(s)
    intra = report_regular_intra_characterization(s)
    assert reg.agree and reg.condition_flags == (True, True)
    assert intra.agree and intra.condition_flags == (False, False, False)
    assert reg.condition_flags == report_flags_by_definition("thm4.28", s, [])
    assert intra.condition_flags == report_flags_by_definition("thm4.29", s, [])


def test_generated_bi_ideals_are_the_least_holding_one_or_two_elements():
    # the regularity reports run over the least crisp bi-ideal holding X, for
    # every 1 <= |X| <= 2, each listed once in the order its X first comes
    structures = [s for n, k in product((1, 2, 3), (1, 2)) for s in exhaustive(n, k)]
    structures += [mod_surrogate(n).structure for n in range(2, 13)] + [_brandt()]
    for s in structures:
        bis = enumerate_crisp(s, "bi_ideal")
        least = [
            frozenset.intersection(*(b for b in bis if {x, y} <= b))
            for x in range(s.n) for y in range(x, s.n)
        ]
        assert theorems._bi_ideals(s, ()) == list(dict.fromkeys(least)), s.cayley


def _factor_pairs(k: int) -> list:
    """Factor pairs for direct products of n <= 3 structures with k operation
    symbols, n <= 9: every 2 x 2 pair, and a stride through 2 x 3 and 3 x 3."""
    twos, threes = exhaustive(2, k), exhaustive(3, k)
    return (
        list(product(twos, twos))
        + list(product(twos, threes[::11 * k]))
        + list(product(threes[::23 * k], threes[5::29 * k]))
    )


def test_regularity_reports_match_bi_ideal_enumeration():
    # both reports without samples give the flags of the set identities over
    # every crisp bi-ideal of the 2^n subset scan
    structures = [s for n, k in product((1, 2, 3), (1, 2)) for s in exhaustive(n, k)]
    structures += [mod_surrogate(n).structure for n in range(2, 17)] + [_brandt()]
    pairs = _factor_pairs(1) + _factor_pairs(2)
    structures += [direct_product(a, b) for a, b in pairs]
    seen = set()
    for s in structures:
        flags = (
            report_regularity_characterization(s).condition_flags,
            report_regular_intra_characterization(s).condition_flags,
        )
        assert flags == regularity_flags_by_enumeration(s), s.cayley
        seen.add(flags)
    # all true, all false, and B2's regular but not intra-regular flags
    assert len(seen) == 3
    # some k = 2 products of regular factors are not regular: a = a g x h a
    # must hold with the same g, h in both coordinates
    lost = [p for p in pairs if all(map(is_regular, p)) and not is_regular(direct_product(*p))]
    assert lost and {a.k for a, _ in lost} == {2}


def test_samples_and_pairs_on_other_structures_rejected(ex34, ex427):
    s, other = ex427.structure, ex34.fuzzy["mu"]
    for report in (report_regularity_characterization, report_regular_intra_characterization):
        with pytest.raises(StructureMismatch):
            report(s, [other])


def test_regularity_rejects_non_bi_ideal_sample(ex34):
    bad = ex34.fuzzy["mu"]  # eq-subsemigroup but not an eq-bi-ideal? it is one;
    # use a genuinely failing sample instead
    failing = FuzzySubset.from_mapping(ex34.structure, {"e": "0.1", "a": "0.9", "b": "0.9"})
    with pytest.raises(SampleNotBiIdeal):
        report_regularity_characterization(ex34.structure, [failing])


def test_regularity_reports_have_no_carrier_cap():
    # the reports generate their bi-ideals and scan no 2^n subsets, so Z_17
    # (past the n <= 16 cap of enumerate_crisp) is decided, and a bad sample
    # is refused as a sample
    s = mod_surrogate(17).structure
    bad = FuzzySubset.from_mapping(s, {"1": 1})  # 1 5 1 = 5 has grade 0
    assert not is_eq_bi_ideal(bad).holds
    for report in (report_regularity_characterization, report_regular_intra_characterization):
        with pytest.raises(SampleNotBiIdeal, match=r"^sample with grades 0 1( 0){15}$"):
            report(s, [bad])
    assert report_regularity_characterization(s).condition_flags == (True, True)
    assert report_regular_intra_characterization(s).condition_flags == (True, True, True)


def test_regular_intra_characterization(ex427, ex34):
    samples = sample_eq_bi_ideals(ex427.structure, 20, seed=40)
    rep = report_regular_intra_characterization(ex427.structure, samples)
    assert rep.theorem_id == "thm4.29" and rep.agree and all(rep.condition_flags)
    single = validate_structure(["a"], ["g"], [[[0]]])
    assert report_regular_intra_characterization(single).condition_flags == (True,) * 3
    # the null semigroup fails all three conditions together
    null2 = validate_structure(["0", "1"], ["g"], [[[0, 0]], [[0, 0]]])
    rep = report_regular_intra_characterization(null2)
    assert rep.agree and rep.condition_flags == (False, False, False)


def test_reports_match_fraction_definitions():
    seen = set()
    for n, k in product((1, 2, 3), (1, 2)):
        for i, s in enumerate(exhaustive(n, k)):
            seed = 1000 * n + 100 * k + i
            tenths, mixed = _draws(s, TENTHS, seed, 1), _draws(s, MIXED, seed, 1)
            for mu in tenths + mixed:
                assert critical_thresholds(mu) == thresholds_by_definition(mu)
                for theorem_id, report in MU_REPORTS.items():
                    flags = report(mu).condition_flags
                    assert flags == report_flags_by_definition(theorem_id, mu), (
                        theorem_id, s.cayley, mu.grades)
                    seen.add((theorem_id, flags))
            # bi-ideal samples alternate the two grids, so consecutive
            # samples (paired by thm4.29) have different denominators
            bis = [[mu for mu in _draws(s, grid, seed + 1, 8) if is_eq_bi_ideal(mu).holds]
                   for grid in (TENTHS, MIXED)]
            samples = [mu for pair in zip(*bis) for mu in pair]
            runs = (
                ("thm4.28", report_regularity_characterization(s, samples), (s, samples)),
                ("thm4.29", report_regular_intra_characterization(s, samples), (s, samples)),
            )
            for theorem_id, rep, args in runs:
                assert rep.condition_flags == report_flags_by_definition(theorem_id, *args), (
                    theorem_id, s.cayley, [mu.grades for mu in args[1]])
                seen.add((theorem_id, rep.condition_flags))
    # every report was seen both holding and failing
    for theorem_id in [*MU_REPORTS, "thm4.28", "thm4.29"]:
        assert {all(f) for t, f in seen if t == theorem_id} == {True, False}, theorem_id
