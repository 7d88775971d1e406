"""Seeded structure corpora shared by the test modules.

Structure generation stops at carrier size 3, so the n=4 part of the
corpus is built from constructions that are associative by design: direct products of
2-element semigroups, modular gamma-multiplication carriers, and seeded
relabelings of both.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from itertools import islice, product

from gsfuzz import GammaSemigroup, validate_structure
from gsfuzz.search import GeneratorConfig, SplitMix64, generate_structures


def exhaustive(n: int, k: int = 1, count: int = 0):
    return list(generate_structures(GeneratorConfig(n=n, k=k, count=count), exhaustive=True))


def direct_product(s1: GammaSemigroup, s2: GammaSemigroup) -> GammaSemigroup:
    """Componentwise product; carrier is the pair set, gammas must agree."""
    assert s1.gammas == s2.gammas
    pairs = [(x1, x2) for x1 in range(s1.n) for x2 in range(s2.n)]
    index = {p: i for i, p in enumerate(pairs)}
    elements = [f"p{i}" for i in range(len(pairs))]
    cube = [
        [
            [
                index[(s1.cayley[x1][g][y1], s2.cayley[x2][g][y2])]
                for (y1, y2) in pairs
            ]
            for g in range(s1.k)
        ]
        for (x1, x2) in pairs
    ]
    return GammaSemigroup(tuple(elements), tuple(s1.gammas), _as_cube(cube))


def _as_cube(cube):
    return tuple(tuple(tuple(row) for row in plane) for plane in cube)


def modular(n: int, gammas: tuple[int, ...]) -> GammaSemigroup:
    """Z_n with x g y = x*g*y mod n; mixed associativity is automatic."""
    cube = [[[(x * g * y) % n for y in range(n)] for g in gammas] for x in range(n)]
    names = [f"g{i}" for i in range(len(gammas))]
    return validate_structure([str(i) for i in range(n)], names, cube)


def relabel(s: GammaSemigroup, perm: tuple[int, ...]) -> GammaSemigroup:
    """Transport the cube along a carrier permutation (an isomorphic copy)."""
    inv = [0] * s.n
    for i, p in enumerate(perm):
        inv[p] = i
    cube = [
        [
            [perm[s.cayley[inv[x]][g][inv[y]]] for y in range(s.n)]
            for g in range(s.k)
        ]
        for x in range(s.n)
    ]
    return GammaSemigroup(s.elements, s.gammas, _as_cube(cube))


def _seeded_permutation(rng: SplitMix64, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def size4_structures(seed: int = 2024, k: int = 1, count: int = 60):
    """Deterministic pool of 4-element structures with k operation symbols."""
    rng = SplitMix64(seed)
    pool: list[GammaSemigroup] = []
    seen = set()

    def push(s: GammaSemigroup):
        if s.cayley not in seen:
            seen.add(s.cayley)
            pool.append(s)

    if k == 1:
        twos = exhaustive(2, 1)
        for s1 in twos:
            for s2 in twos:
                push(direct_product(s1, s2))
        push(modular(4, (1,)))
        push(modular(4, (3,)))
    else:
        for gs in product((1, 3, 5, 7), repeat=k):
            push(modular(4, gs))
        twos = exhaustive(2, k)
        for s1 in twos:
            for s2 in twos:
                push(direct_product(s1, s2))
    base = list(pool)
    while len(pool) < count and base:
        s = base[rng.below(len(base))]
        push(relabel(s, _seeded_permutation(rng, s.n)))
    return pool[:count]


def mixed_corpus(min_pairs: int = 1000, grid: int = 10, seed: int = 7):
    """(structure, fuzzy subset) sample pairs spanning n <= 4, k <= 2."""
    from gsfuzz.search import random_fuzzy

    structures: list[GammaSemigroup] = []
    structures += exhaustive(1, 1)
    structures += exhaustive(2, 1)
    structures += exhaustive(2, 2)
    structures += exhaustive(3, 1)
    structures += list(islice(generate_structures(
        GeneratorConfig(n=3, k=2, count=0), exhaustive=True), 80))
    structures += size4_structures(seed=seed, k=1, count=50)
    structures += size4_structures(seed=seed + 1, k=2, count=40)

    per = -(-min_pairs // len(structures))  # ceil
    pairs = []
    for i, s in enumerate(structures):
        cfg = GeneratorConfig(n=s.n, k=s.k, seed=seed + 1000 + i, grid=grid, count=per)
        for mu in random_fuzzy(s, cfg):
            pairs.append((s, mu))
    return pairs
