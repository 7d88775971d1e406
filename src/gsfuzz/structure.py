"""Finite Gamma-semigroups and their crisp structural predicates.

A Gamma-semigroup is a carrier S together with a family of binary operations
indexed by a second finite set Gamma, written x g y, subject to the mixed
associativity law (x b y) g z = x b (y g z) for all elements and all b, g.
The operation family is stored as an n x k x n cube of element indices, so
every product is a single indexed lookup.

Element and gamma identifiers are arbitrary strings; they are mapped to dense
indices on construction and all computation below is index-based.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AssociativityViolation,
    CarrierTooLarge,
    DuplicateName,
    EmptyCarrier,
    EmptyGammaSet,
    GammaMismatch,
    HomomorphismViolation,
    IndexOutOfRange,
    OutOfRangeEntry,
)

Cube = tuple[tuple[tuple[int, ...], ...], ...]

# Crisp subsets are frozensets of element indices.
CrispSubset = frozenset

# Carrier-size cap for 2^n subset scans.
SUBSET_SCAN_LIMIT = 16


@dataclass(frozen=True)
class GammaSemigroup:
    """A validated finite Gamma-semigroup.

    cayley[x][g][y] is the index of the product x g y.  Instances should be
    built through validate_structure, which checks closure and associativity.
    """

    elements: tuple[str, ...]
    gammas: tuple[str, ...]
    cayley: Cube

    @cached_property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def k(self) -> int:
        return len(self.gammas)

    def op(self, x: int, g: int, y: int) -> int:
        return self.cayley[x][g][y]

    @cached_property
    def element_index(self) -> dict:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def gamma_index(self) -> dict:
        return {name: i for i, name in enumerate(self.gammas)}

    @cached_property
    def iso_invariant(self) -> tuple:
        """Sorted per-element tuples, over the gammas by name, of (x g x == x,
        how many products a g b equal x); isomorphic structures share it."""
        order = sorted(range(self.k), key=self.gammas.__getitem__)
        counts = [Counter(w for planes in self.cayley for w in planes[g]) for g in order]
        return tuple(sorted(
            tuple((self.cayley[x][g][x] == x, c[x]) for g, c in zip(order, counts))
            for x in range(self.n)
        ))

    @cached_property
    def sandwiches(self) -> tuple:
        """sandwiches[x][z] is x Gamma S Gamma z, the union over u in x Gamma S
        of u Gamma z, as a sorted tuple: every x a y b z, whatever y, a, b.
        The x with equal sets x Gamma S share one row."""
        cayley, ops = self.cayley, range(self.k)
        sets = [frozenset(w for row in planes for w in row) for planes in cayley]
        rows = {
            xs: tuple(tuple(sorted({cayley[u][b][z] for u in xs for b in ops})) for z in range(self.n))
            for xs in set(sets)
        }
        return tuple(rows[xs] for xs in sets)

    def subset_of_names(self, names: Iterable[str]) -> CrispSubset:
        return frozenset(self.element_index[name] for name in names)

    def names_of(self, subset: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in sorted(subset))


def validate_structure(
    elements: Sequence[str], gammas: Sequence[str], raw_cube: Sequence
) -> GammaSemigroup:
    """Check closure and mixed associativity; return the validated structure.

    Raises EmptyCarrier / EmptyGammaSet / DuplicateName on malformed carriers,
    OutOfRangeEntry on a cube cell that is not an element index, and
    AssociativityViolation carrying the first failing quintuple (x,b,y,g,z)
    in element/gamma scan order together with both evaluations.
    """
    elements = tuple(elements)
    gammas = tuple(gammas)
    if not elements:
        raise EmptyCarrier("carrier must contain at least one element")
    if not gammas:
        raise EmptyGammaSet("gamma set must contain at least one symbol")
    if len(set(elements)) != len(elements):
        raise DuplicateName("duplicate element identifier")
    if len(set(gammas)) != len(gammas):
        raise DuplicateName("duplicate gamma identifier")

    n, k = len(elements), len(gammas)
    if len(raw_cube) != n or any(
        len(plane) != k or any(len(row) != n for row in plane) for plane in raw_cube
    ):
        raise ValueError(f"cube must have shape {n}x{k}x{n}")

    cube: Cube = tuple(tuple(tuple(row) for row in plane) for plane in raw_cube)
    for x in range(n):
        for g in range(k):
            for y in range(n):
                v = cube[x][g][y]
                if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                    raise OutOfRangeEntry(elements[x], gammas[g], elements[y], v)

    bad = _assoc_failure(cube)
    if bad is not None:
        x, b, y, g, z = bad
        raise AssociativityViolation(
            elements[x], gammas[b], elements[y], gammas[g], elements[z],
            elements[cube[cube[x][b][y]][g][z]], elements[cube[x][b][cube[y][g][z]]],
        )
    return GammaSemigroup(elements, gammas, cube)


def _assoc_failure(cube: Cube) -> tuple[int, int, int, int, int] | None:
    """First (x, b, y, g, z) in scan order with (x b y) g z != x b (y g z)."""
    rng, ops = range(len(cube)), range(len(cube[0]))
    for x in rng:
        for b in ops:
            xb = cube[x][b]
            for y in rng:
                xby = cube[xb[y]]
                for g in ops:
                    left, yg = xby[g], cube[y][g]
                    for z in rng:
                        if left[z] != xb[yg[z]]:
                            return (x, b, y, g, z)
    return None


def _check_subset(s: GammaSemigroup, a: Iterable[int]) -> CrispSubset:
    a = frozenset(a)
    for i in a:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < s.n:
            raise IndexOutOfRange(f"element index {i!r} out of range")
    return a


def gamma_product(s: GammaSemigroup, a: Iterable[int], b: Iterable[int]) -> CrispSubset:
    """A Gamma B = {x g y : x in A, y in B, g in Gamma}."""
    return _gamma_product(s, _check_subset(s, a), _check_subset(s, b))


def _gamma_product(s: GammaSemigroup, a: CrispSubset, b: CrispSubset) -> CrispSubset:
    """gamma_product of subsets already checked."""
    return frozenset(row[y] for x in a for row in s.cayley[x] for y in b)


@dataclass(frozen=True)
class SubsetClassification:
    empty: bool
    subsemigroup: bool
    left_ideal: bool
    right_ideal: bool
    bi_ideal: bool


def is_left_ideal(s: GammaSemigroup, a: CrispSubset) -> bool:
    return all(s.cayley[x][g][y] in a for x in range(s.n) for g in range(s.k) for y in a)


def is_right_ideal(s: GammaSemigroup, a: CrispSubset) -> bool:
    return all(s.cayley[x][g][y] in a for x in a for g in range(s.k) for y in range(s.n))


def is_subsemigroup(s: GammaSemigroup, a: CrispSubset) -> bool:
    return all(s.cayley[x][g][y] in a for x in a for g in range(s.k) for y in a)


def is_bi_ideal(s: GammaSemigroup, a: CrispSubset) -> bool:
    """Subsemigroup with A Gamma S Gamma A contained in A."""
    return is_subsemigroup(s, a) and all(w in a for x in a for z in a for w in s.sandwiches[x][z])


def classify_subset(s: GammaSemigroup, a: Iterable[int]) -> SubsetClassification:
    """Crisp flags for A: subsemigroup, one-sided ideals, bi-ideal.

    The empty set is reported with all flags false and empty=True; the crisp
    notions require non-empty subsets.
    """
    a = _check_subset(s, a)
    if not a:
        return SubsetClassification(True, False, False, False, False)
    sub = is_subsemigroup(s, a)
    return SubsetClassification(
        empty=False,
        subsemigroup=sub,
        left_ideal=is_left_ideal(s, a),
        right_ideal=is_right_ideal(s, a),
        bi_ideal=sub and is_bi_ideal(s, a),
    )


@dataclass(frozen=True)
class StructureClassification:
    regular: bool
    intra_regular: bool
    left_duo: bool
    right_duo: bool
    duo: bool


def is_regular(s: GammaSemigroup) -> bool:
    """Every a equals a x b x' a for some x and operation pair (exhaustive)."""
    rng, ops = range(s.n), range(s.k)
    for a in rng:
        if not any(
            s.cayley[s.cayley[a][al][x]][be][a] == a
            for x in rng for al in ops for be in ops
        ):
            return False
    return True


def is_intra_regular(s: GammaSemigroup) -> bool:
    """Every a equals x a a y under some choice of operators (exhaustive)."""
    rng, ops = range(s.n), range(s.k)
    for a in rng:
        if not any(
            s.cayley[s.cayley[s.cayley[x][al][a]][be][a]][ga][y] == a
            for x in rng for al in ops for be in ops for ga in ops for y in rng
        ):
            return False
    return True


def _nonempty_subsets(n: int) -> Iterator[CrispSubset]:
    for mask in range(1, 1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


_CRISP_KINDS: dict[str, Callable] = {
    "subsemigroup": is_subsemigroup,
    "left_ideal": is_left_ideal,
    "right_ideal": is_right_ideal,
    "bi_ideal": is_bi_ideal,
}


def enumerate_crisp(structure: GammaSemigroup, kind: str) -> list[CrispSubset]:
    """All non-empty subsets of the requested kind, ascending by bitmask."""
    check = _CRISP_KINDS.get(kind)
    if check is None:
        raise ValueError(f"kind must be one of {sorted(_CRISP_KINDS)}")
    if structure.n > SUBSET_SCAN_LIMIT:
        raise CarrierTooLarge(
            f"2^{structure.n} subset scan exceeds the cap (n <= {SUBSET_SCAN_LIMIT})"
        )
    return [a for a in _nonempty_subsets(structure.n) if check(structure, a)]


def classify_structure(s: GammaSemigroup) -> StructureClassification:
    """Regularity, intra-regularity and the duo flags, for every n.

    Left duo (every left ideal is a right ideal) holds exactly when the n
    principal left ideals {a} | S Gamma a are right ideals: each is a left
    ideal, and a left ideal L is the union of those of its elements, while a
    union of right ideals is a right ideal.  Right duo is the mirror image.
    """
    carrier = range(s.n)
    left_duo = all(is_right_ideal(s, gamma_product(s, carrier, {a}) | {a}) for a in carrier)
    right_duo = all(is_left_ideal(s, gamma_product(s, {a}, carrier) | {a}) for a in carrier)
    return StructureClassification(
        is_regular(s), is_intra_regular(s), left_duo, right_duo, left_duo and right_duo
    )


@dataclass(frozen=True)
class Homomorphism:
    """A validated map f with f(x g y) = f(x) g f(y); Gamma sets must agree."""

    source: GammaSemigroup
    target: GammaSemigroup
    mapping: tuple[int, ...]

    @property
    def surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.n


def validate_homomorphism(
    source: GammaSemigroup, target: GammaSemigroup, mapping: Sequence[int]
) -> Homomorphism:
    """Check totality and the homomorphism law; witness the first violation."""
    if set(source.gammas) != set(target.gammas):
        raise GammaMismatch("source and target must share the gamma identifier set")
    mapping = tuple(mapping)
    if len(mapping) != source.n:
        raise IndexOutOfRange("mapping must assign every source element")
    for v in mapping:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < target.n:
            raise IndexOutOfRange(f"mapped value {v!r} out of target range")
    tg = [target.gamma_index[name] for name in source.gammas]
    bad = _hom_failure(source.cayley, target.cayley, tg, mapping)
    if bad is not None:
        x, g, y = bad
        h = tg[g]
        raise HomomorphismViolation(
            source.elements[x], source.gammas[g], source.elements[y],
            target.elements[mapping[source.cayley[x][g][y]]],
            target.elements[target.cayley[mapping[x]][h][mapping[y]]],
        )
    return Homomorphism(source, target, mapping)


def _hom_failure(
    cube: Cube, target_cube: Cube, tg: list[int], mapping: Sequence[int]
) -> tuple[int, int, int] | None:
    """First (x, g, y) in scan order with f(x g y) != f(x) g f(y), for the
    source and target Cayley cubes; the target index of source gamma g is
    tg[g], as the symbols may be listed in different orders on the two sides."""
    for x, planes in enumerate(cube):
        fx = target_cube[mapping[x]]
        for g, row in enumerate(planes):
            frow = fx[tg[g]]
            for y, w in enumerate(row):
                if mapping[w] != frow[mapping[y]]:
                    return (x, g, y)
    return None


def enumerate_homomorphisms(
    source: GammaSemigroup, target: GammaSemigroup, surjective_only: bool = False
) -> list[Homomorphism]:
    """All (optionally only the surjective) homomorphisms source -> target,
    in lexicographic order of their mappings.

    All m^n maps are tested, or with surjective_only only the surjections:
    none when m > n; when m == n the n! permutations, or none when the
    structures differ in iso_invariant; else the maps onto all m elements.
    Different gamma identifier sets give [] (validate_homomorphism raises
    GammaMismatch instead).
    """
    if set(source.gammas) != set(target.gammas):
        return []
    n, m = source.n, target.n
    if not surjective_only:
        maps = product(range(m), repeat=n)
    elif m < n:
        maps = (f for f in product(range(m), repeat=n) if len(set(f)) == m)
    elif m == n and source.iso_invariant == target.iso_invariant:
        maps = permutations(range(m))
    else:
        return []
    cube, target_cube = source.cayley, target.cayley
    tg = [target.gamma_index[name] for name in source.gammas]
    return [
        Homomorphism(source, target, mapping)
        for mapping in maps
        if _hom_failure(cube, target_cube, tg, mapping) is None
    ]
