from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from corpus import direct_product, exhaustive, size4_structures
from gsfuzz import (
    classify_structure,
    classify_subset,
    enumerate_crisp,
    gamma_product,
    validate_homomorphism,
    validate_structure,
)
from gsfuzz.errors import (
    AssociativityViolation,
    DuplicateName,
    EmptyCarrier,
    EmptyGammaSet,
    GammaMismatch,
    HomomorphismViolation,
    IndexOutOfRange,
    OutOfRangeEntry,
)
from gsfuzz.search import GeneratorConfig, SplitMix64, generate_structures, mod_surrogate
from oracles import duo_flags_by_definition

EX34_CUBE = [[[0, 0, 0]], [[0, 1, 0]], [[0, 0, 2]]]


def test_validate_ex34_table():
    s = validate_structure(["e", "a", "b"], ["g"], EX34_CUBE)
    assert s.n == 3 and s.k == 1
    assert s.op(1, 0, 2) == 0  # a g b = e


def test_validate_single_element():
    s = validate_structure(["a"], ["g"], [[[0]]])
    assert s.n == 1


def test_sizes_are_cached_outside_the_fields():
    # n and k are computed once, as element_index is, and stay out of ==,
    # hash, repr and dataclasses.replace
    s = validate_structure(["e", "a", "b"], ["g"], EX34_CUBE)
    fresh = validate_structure(["e", "a", "b"], ["g"], EX34_CUBE)
    text = repr(s)
    assert (s.n, s.k) == (3, 1) and (vars(s)["n"], vars(s)["k"]) == (3, 1)
    assert "n" not in vars(fresh) and "k" not in vars(fresh)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == text == repr(fresh)
    assert "n=" not in text and "k=" not in text
    copied = replace(s)
    assert copied == s and "n" not in vars(copied) and copied.n == 3
    wider = replace(s, gammas=("g", "h"))
    assert (wider.n, wider.k) == (3, 2) and wider != s


def test_validate_rejects_broken_associativity():
    # mutate a g b to b; exhaustive scan finds (b g a) g b != b g (a g b)
    bad = [[[0, 0, 0]], [[0, 1, 2]], [[0, 0, 2]]]
    with pytest.raises(AssociativityViolation) as exc:
        validate_structure(["e", "a", "b"], ["g"], bad)
    assert exc.value.witness == ("b", "g", "a", "g", "b")
    assert exc.value.left == "e" and exc.value.right == "b"


def test_validate_rejects_out_of_range_cell():
    with pytest.raises(OutOfRangeEntry):
        validate_structure(["a", "b"], ["g"], [[[0, 1]], [[0, 5]]])


def test_validate_rejects_bool_cells():
    # bool is an int subclass; True/False must not pass for element indices
    with pytest.raises(OutOfRangeEntry) as exc:
        validate_structure(["a", "b"], ["g"], [[[True, False]], [[False, True]]])
    assert exc.value.value is True


def test_validate_rejects_empty_and_duplicates():
    with pytest.raises(EmptyCarrier):
        validate_structure([], ["g"], [])
    with pytest.raises(EmptyGammaSet):
        validate_structure(["a"], [], [[]])
    with pytest.raises(DuplicateName):
        validate_structure(["a", "a"], ["g"], [[[0, 0]], [[0, 0]]])
    with pytest.raises(DuplicateName, match="duplicate gamma identifier"):
        validate_structure(["a"], ["g", "g"], [[[0], [0]]])
    with pytest.raises(ValueError):
        validate_structure(["a", "b"], ["g"], [[[0, 0]]])


def test_gamma_product_examples(ex34, ex46):
    s = ex34.structure
    assert gamma_product(s, {1}, {2}) == {0}  # {a} G {b} = {e}
    assert gamma_product(s, frozenset(), {0, 1, 2}) == frozenset()
    t = ex46.structure
    c, e = t.element_index["c"], t.element_index["e"]
    assert gamma_product(t, {c, e}, {c}) == {c}


def test_gamma_product_monotone(ex46):
    s = ex46.structure
    rng = SplitMix64(5)
    subsets = [
        frozenset(i for i in range(s.n) if rng.below(2)) for _ in range(12)
    ]
    for a in subsets:
        for b in subsets:
            big = gamma_product(s, a | {0}, b | {1})
            assert gamma_product(s, a, b) <= big


def test_classify_subset_examples(ex34, ex46):
    flags = classify_subset(ex34.structure, {0})  # {e}
    assert (flags.subsemigroup, flags.left_ideal, flags.right_ideal, flags.bi_ideal) == (
        True, True, True, True,
    )
    assert not classify_subset(ex46.structure, {0, 1}).subsemigroup  # a g b = d
    empty = classify_subset(ex34.structure, frozenset())
    assert empty.empty and not empty.subsemigroup and not empty.bi_ideal
    with pytest.raises(IndexOutOfRange):
        classify_subset(ex34.structure, {7})


def test_whole_carrier_always_classifies(builtin_fixtures):
    for f in builtin_fixtures.values():
        s = f.structure
        flags = classify_subset(s, range(s.n))
        assert flags.subsemigroup and flags.bi_ideal
        assert flags.left_ideal and flags.right_ideal


def test_classify_structure_fixtures(ex34, ex46, ex427):
    f34 = classify_structure(ex34.structure)
    assert (f34.regular, f34.intra_regular, f34.duo) == (True, True, True)
    f46 = classify_structure(ex46.structure)
    assert (f46.regular, f46.intra_regular) == (True, True)
    assert (f46.left_duo, f46.right_duo, f46.duo) == (False, True, False)
    # left projection: every a = a g a g a; left ideals are only S itself
    f427 = classify_structure(ex427.structure)
    assert (f427.regular, f427.intra_regular) == (True, True)
    assert (f427.left_duo, f427.right_duo, f427.duo) == (True, False, False)
    # rectangular band L2 x R2, x g y = 2 (x div 2) + (y mod 2): both one-sided
    # flags fail, so the duo scan may stop before the last subset
    cube = [[[0, 1, 0, 1]], [[0, 1, 0, 1]], [[2, 3, 2, 3]], [[2, 3, 2, 3]]]
    band = validate_structure(["a", "b", "c", "d"], ["g"], cube)
    fb = classify_structure(band)
    assert (fb.regular, fb.intra_regular) == (True, True)
    assert (fb.left_duo, fb.right_duo, fb.duo) == (False, False, False)
    # (left_duo, right_duo) over the exhaustive n <= 3, k <= 2 corpus (k = 1 at n = 1)
    corpus = [s for n, k in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)) for s in exhaustive(n, k)]
    duo_flags = Counter((f.left_duo, f.right_duo) for f in map(classify_structure, corpus))
    assert len(corpus) == 549
    assert duo_flags == {(True, True): 313, (True, False): 118, (False, True): 118}


def test_duo_flags_match_the_subset_definition(builtin_fixtures):
    """(left_duo, right_duo, duo) against the 2^n - 1 subset scan of
    oracles.duo_flags_by_definition, on the exhaustive n <= 3, k <= 2 corpus,
    100 seeded order-4 structures, the fixtures, Z_2 to Z_14 and direct
    products of orders 4, 6 and 12."""
    twos, threes = exhaustive(2, 1), exhaustive(3, 1)[::10]
    fours = size4_structures(k=1, count=50)
    corpus = [s for n, k in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)) for s in exhaustive(n, k)]
    corpus += fours + size4_structures(k=2, count=50)
    corpus += [f.structure for f in builtin_fixtures.values()]
    corpus += [mod_surrogate(n).structure for n in range(2, 15)]
    corpus += [direct_product(a, b) for k in (1, 2) for a in exhaustive(2, k) for b in exhaustive(2, k)]
    corpus += [direct_product(a, b) for a in twos for b in threes]
    corpus += [direct_product(a, b) for a in fours[:3] for b in threes[:1]]
    patterns = Counter()
    for s in corpus:
        f = classify_structure(s)
        assert (f.left_duo, f.right_duo, f.duo) == duo_flags_by_definition(s), s.cayley
        patterns[f.left_duo, f.right_duo, f.duo] += 1
    assert len(corpus) == 1025
    assert set(patterns) == {
        (True, True, True), (True, False, False), (False, True, False), (False, False, False)
    }


def test_classify_structure_degenerate():
    s = validate_structure(["a"], ["g"], [[[0]]])
    flags = classify_structure(s)
    assert all(
        (flags.regular, flags.intra_regular, flags.left_duo, flags.right_duo, flags.duo)
    )


def test_classify_structure_has_no_subset_cap():
    # Z_17 with Gamma = {5, 7} is commutative, so its one-sided ideals are
    # two-sided, and its non-zero elements are units, so it is regular
    flags = classify_structure(mod_surrogate(17).structure)
    assert all(
        (flags.regular, flags.intra_regular, flags.left_duo, flags.right_duo, flags.duo)
    )


def test_homomorphism_identity_and_constant(ex34, ex427):
    f = validate_homomorphism(ex34.structure, ex34.structure, (0, 1, 2))
    assert f.surjective
    g = validate_homomorphism(ex427.structure, ex427.structure, (0, 0, 0))
    assert not g.surjective  # x -> a; a g a = a makes it a homomorphism


def test_homomorphism_violation_witness(ex34):
    with pytest.raises(HomomorphismViolation) as exc:
        validate_homomorphism(ex34.structure, ex34.structure, (1, 0, 2))
    assert exc.value.witness == ("e", "g", "a")


def test_bool_element_indices_rejected(ex34):
    # bool is an int subclass; True/False must not pass for element indices
    s = ex34.structure
    with pytest.raises(IndexOutOfRange):
        validate_homomorphism(s, s, [False, True, 2])
    with pytest.raises(IndexOutOfRange):
        classify_subset(s, [True])


def test_homomorphism_gamma_mismatch(ex34, mod12):
    with pytest.raises(GammaMismatch):
        validate_homomorphism(ex34.structure, mod12.structure, (0, 0, 0))
    with pytest.raises(IndexOutOfRange):
        validate_homomorphism(ex34.structure, ex34.structure, (0, 1))


def test_association_orders_agree_on_fixtures(builtin_fixtures):
    for f in builtin_fixtures.values():
        s = f.structure
        for x, b, y, g, z in product(
            range(s.n), range(s.k), range(s.n), range(s.k), range(s.n)
        ):
            assert s.op(s.op(x, b, y), g, z) == s.op(x, b, s.op(y, g, z))


def test_generated_structures_associative():
    for s in generate_structures(GeneratorConfig(n=3, k=1, seed=3, count=10)):
        validate_structure(s.elements, s.gammas, s.cayley)


def test_enumerated_bi_ideals_reverify(builtin_fixtures):
    for f in builtin_fixtures.values():
        s = f.structure
        if s.n > 5:
            continue
        carrier = frozenset(range(s.n))
        for b in enumerate_crisp(s, "bi_ideal"):
            assert gamma_product(s, b, b) <= b
            assert gamma_product(s, gamma_product(s, b, carrier), b) <= b


def _crisp_identity_holds(s):
    bis = enumerate_crisp(s, "bi_ideal")
    for p in bis:
        for q in bis:
            if p & q != gamma_product(s, p, q) & gamma_product(s, q, p):
                return False
    return True


def test_bi_ideal_intersection_identity_iff_regular_intra(builtin_fixtures):
    """P.Q = PGQ.QGP for all bi-ideal pairs exactly on the regular+intra-regular
    structures; checked on the small fixtures and a seeded n<=4 batch."""
    from corpus import size4_structures

    structures = [
        f.structure for f in builtin_fixtures.values() if f.structure.n <= 5
    ]
    structures += list(generate_structures(GeneratorConfig(n=3, k=1, seed=11, count=15)))
    structures += list(generate_structures(GeneratorConfig(n=2, k=2, seed=11, count=10)))
    structures += size4_structures(count=8)
    for s in structures:
        flags = classify_structure(s)
        assert _crisp_identity_holds(s) == (flags.regular and flags.intra_regular)
