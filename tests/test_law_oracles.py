"""The Gamma-semigroup laws and crisp structure flags against their definitions.

Mixed associativity and the homomorphism law are each checked in one place
in the library; these tests compare that checker, through every public
entry point, with literal full scans from oracles.py: the witness and both
evaluations of validate_structure on seeded random cubes (mostly not
associative), the witness of validate_homomorphism on seeded maps, the
maps enumerate_homomorphisms returns in both modes (surjective mode also
at n = 3, where it tests permutations only between structures that share
iso_invariant), and is_regular, is_intra_regular and is_bi_ideal over every
structure with n <= 3, k <= 2.  Targets also appear with their gamma symbols
listed in reverse, so the law must match operations by name.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from gsfuzz import enumerate_homomorphisms, validate_homomorphism, validate_structure
from gsfuzz.errors import AssociativityViolation, HomomorphismViolation
from gsfuzz.search import SplitMix64
from gsfuzz.structure import _nonempty_subsets, is_bi_ideal, is_intra_regular, is_regular

from corpus import _seeded_permutation, exhaustive, relabel
from oracles import (
    bi_ideal_by_definition,
    first_assoc_failure,
    first_hom_failure,
    intra_regular_by_definition,
    regular_by_definition,
)

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def _gammas_reversed(s):
    cube = [[list(row) for row in reversed(plane)] for plane in s.cayley]
    return validate_structure(s.elements, s.gammas[::-1], cube)


def _pool(max_n: int, k: int) -> list:
    structures = [s for n in range(1, max_n + 1) for s in exhaustive(n, k)]
    return structures + [_gammas_reversed(s) for s in structures if k > 1]


def test_validate_structure_witness_matches_oracle():
    rng = SplitMix64(31)
    verdicts = set()
    for _ in range(800):
        n, k = 1 + rng.below(3), 1 + rng.below(2)
        cube = [[[rng.below(n) for _ in range(n)] for _ in range(k)] for _ in range(n)]
        elements, gammas = [f"e{i}" for i in range(n)], [f"g{i}" for i in range(k)]
        expected = first_assoc_failure(cube)
        verdicts.add(expected is None)
        if expected is None:
            assert validate_structure(elements, gammas, cube).cayley == tuple(
                tuple(tuple(row) for row in plane) for plane in cube
            )
            continue
        with pytest.raises(AssociativityViolation) as exc:
            validate_structure(elements, gammas, cube)
        x, b, y, g, z, left, right = expected
        names = (elements[x], gammas[b], elements[y], gammas[g], elements[z])
        assert exc.value.witness == names, cube
        assert (exc.value.left, exc.value.right) == (elements[left], elements[right])
    assert verdicts == {True, False}


def test_validate_homomorphism_witness_matches_oracle():
    rng = SplitMix64(32)
    verdicts = set()
    for k in (1, 2):
        pool = _pool(3, k)
        for _ in range(400):
            source, target = pool[rng.below(len(pool))], pool[rng.below(len(pool))]
            mapping = tuple(rng.below(target.n) for _ in range(source.n))
            expected = first_hom_failure(source, target, mapping)
            verdicts.add(expected is None)
            if expected is None:
                assert validate_homomorphism(source, target, mapping).mapping == mapping
                continue
            with pytest.raises(HomomorphismViolation) as exc:
                validate_homomorphism(source, target, mapping)
            x, g, y, lhs, rhs = expected
            assert exc.value.witness == (
                source.elements[x], source.gammas[g], source.elements[y]
            )
            assert exc.value.image_of_product == target.elements[lhs]
            assert exc.value.product_of_images == target.elements[rhs]
    assert verdicts == {True, False}


def test_enumerate_homomorphisms_matches_oracle():
    found = 0
    for k in (1, 2):
        pool = _pool(2, k)
        for source, target, surjective_only in product(pool, pool, (False, True)):
            expected = [
                m for m in product(range(target.n), repeat=source.n)
                if (not surjective_only or len(set(m)) == target.n)
                and first_hom_failure(source, target, m) is None
            ]
            got = enumerate_homomorphisms(source, target, surjective_only)
            assert [h.mapping for h in got] == expected
            assert all(h.source is source and h.target is target for h in got)
            found += len(got)
    assert found
    one, two = exhaustive(2, 1)[0], exhaustive(2, 2)[0]
    assert enumerate_homomorphisms(one, two) == []


def _seeded_slice(structures: list, rng: SplitMix64, draws: int) -> list:
    return [structures[i] for i in sorted({rng.below(len(structures)) for _ in range(draws)})]


def test_surjective_homomorphisms_match_oracle_at_n3():
    drawn = _seeded_slice(exhaustive(3, 2), SplitMix64(33), 12)
    outcomes = Counter()
    for pool in (_pool(3, 1), drawn + [_gammas_reversed(s) for s in drawn]):
        for source, target in product(pool, pool):
            expected = [
                m for m in product(range(target.n), repeat=source.n)
                if len(set(m)) == target.n and first_hom_failure(source, target, m) is None
            ]
            got = enumerate_homomorphisms(source, target, True)
            assert [h.mapping for h in got] == expected, (source.cayley, target.cayley)
            if source.n == target.n == 3:
                shared = source.iso_invariant == target.iso_invariant
                outcomes[shared, bool(expected)] += 1
    # The invariant rejects pairs, and some pairs that share it still have
    # no isomorphism, so the permutation scan is exercised both ways.
    assert outcomes[False, False] and outcomes[True, False] and outcomes[True, True]


def test_isomorphic_copies_keep_their_relabelling():
    rng = SplitMix64(34)
    for s in exhaustive(3, 1) + _seeded_slice(exhaustive(3, 2), rng, 100):
        perm, reversed_ = _seeded_permutation(rng, s.n), _gammas_reversed(s)
        copies = (
            (relabel(s, perm), perm),
            (reversed_, tuple(range(s.n))),
            (relabel(reversed_, perm), perm),
        )
        for copy, mapping in copies:
            found = [h.mapping for h in enumerate_homomorphisms(s, copy, True)]
            assert mapping in found, (s.cayley, copy.gammas, mapping)


def test_regularity_and_bi_ideals_match_oracle():
    seen = set()
    for n, k in SHAPES:
        for s in exhaustive(n, k):
            regular, intra = is_regular(s), is_intra_regular(s)
            assert regular == regular_by_definition(s), s.cayley
            assert intra == intra_regular_by_definition(s), s.cayley
            seen |= {("regular", regular), ("intra", intra)}
            for a in _nonempty_subsets(n):
                bi = is_bi_ideal(s, a)
                assert bi == bi_ideal_by_definition(s, a), (s.cayley, a)
                seen.add(("bi", bi))
    assert len(seen) == 6
