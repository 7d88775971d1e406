"""Built-in fixtures, structure and fuzzy-subset generation, and witness search.

Pseudo-random generation uses SplitMix64 (Steele-Lea-Flood mixing, 64-bit),
implemented here so that every seeded stream is bit-identical across
platforms and Python versions.  Structures come from one corpus, every
associative cube of a shape in lexicographic order, read in order or by
seeded draws.  Scan orders are pinned: structures in generation order, fuzzy
subsets in grid-lexicographic order over the grade vector, elements in
declaration order.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product, tee
from typing import Callable, Iterable, Iterator

from .errors import CarrierTooLarge, UnknownPredicateName
from .fuzzy import FuzzySubset
from .predicates import _resolve_predicate
from .structure import Cube, GammaSemigroup, _assoc_failure, validate_structure

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; the algorithm is part of the contract."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from range(n), unbiased via rejection."""
        limit = MASK64 + 1 - (MASK64 + 1) % n
        while True:
            v = self.next64()
            if v < limit:
                return v % n


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    k: int
    seed: int = 0
    grid: int = 10
    count: int = 0

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.grid < 1 or self.count < 0:
            raise ValueError("need n >= 1, k >= 1, grid >= 1, count >= 0")


# ---------------------------------------------------------------- fixtures

@dataclass(frozen=True)
class Fixture:
    id: str
    structure: GammaSemigroup
    fuzzy: dict


# id, elements, cube over the one gamma "g", grades of mu in element order
_FIXTURES = (
    ("ex3.4", ("e", "a", "b"), [[[0, 0, 0]], [[0, 1, 0]], [[0, 0, 2]]], ("1/2", "3/5", "3/5")),
    (
        "ex4.6",
        ("a", "b", "c", "d", "e"),
        [
            [[0, 3, 0, 3, 3]],
            [[0, 1, 0, 3, 3]],
            [[0, 3, 2, 3, 4]],
            [[0, 3, 0, 3, 3]],
            [[0, 3, 2, 3, 4]],
        ],
        ("4/5", "7/10", "3/10", "1/2", "3/5"),
    ),
    ("ex4.27", ("a", "b", "c"), [[[0, 0, 0]], [[1, 1, 1]], [[2, 2, 2]]], ("4/5", "7/10", "3/5")),
)


def mod_surrogate(n: int = 12) -> Fixture:
    """Z_n with x g y = x*g*y mod n for g in {5, 7}.

    Finite stand-in for the classic example over the naturals with
    Gamma = {5, 7}; same multiplication formula, carrier reduced mod n.
    """
    elements = [str(i) for i in range(n)]
    gammas = ["5", "7"]
    cube = [
        [[(x * g * y) % n for y in range(n)] for g in (5, 7)] for x in range(n)
    ]
    s = validate_structure(elements, gammas, cube)
    return Fixture(f"ex2.1-mod-{n}", s, {})


def fixtures() -> list[Fixture]:
    pool = []
    for fid, elements, cube, grades in _FIXTURES:
        s = validate_structure(elements, ["g"], cube)
        mu = FuzzySubset.from_mapping(s, dict(zip(elements, grades)))
        pool.append(Fixture(fid, s, {"mu": mu}))
    return pool + [mod_surrogate()]


# ------------------------------------------------------------- generation

def _names(n: int, k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(f"e{i}" for i in range(n)), tuple(f"g{i}" for i in range(k))


def _all_cubes(n: int, k: int) -> Iterator[Cube]:
    """Every associative n x k x n cube, in lexicographic order.

    Only tables associative on their own are combined, at most 8^6 candidate
    cubes of them: so n <= 3, with any k at n = 1, k <= 6 at n = 2 and
    k <= 2 at n = 3.
    """
    if n > 3:
        raise CarrierTooLarge("structure generation is limited to n <= 3")
    rows = list(product(range(n), repeat=n))
    singles = [t for t in product(rows, repeat=n) if _assoc_failure(tuple(zip(t))) is None]
    if len(singles) ** k > 8 ** 6:
        raise CarrierTooLarge(
            "structure generation is limited to 8^6 candidate cubes; "
            f"n={n}, k={k} has {len(singles)}^{k}"
        )
    for tabs in product(singles, repeat=k):
        cube = tuple(zip(*tabs))
        if _assoc_failure(cube) is None:
            yield cube


def generate_structures(
    config: GeneratorConfig, *, exhaustive: bool = False
) -> Iterator[GammaSemigroup]:
    """Stream of validated structures, deterministic for a given config.

    Both modes read the corpus of every associative cube of the shape, in
    lexicographic order (_all_cubes).  Exhaustive mode yields it in that
    order, the first count structures, or all of it when count = 0.  Random
    mode yields count draws, uniform with replacement, of SplitMix64(seed)
    indices into it, so count must be at least 1.  Drawing uniform cubes
    and keeping the associative ones would give the same distribution.
    """
    if not exhaustive and config.count < 1:
        raise ValueError("random generation needs count >= 1")
    elements, gammas = _names(config.n, config.k)
    if exhaustive:
        cubes = islice(_all_cubes(config.n, config.k), config.count or None)
    else:
        corpus = list(_all_cubes(config.n, config.k))
        rng = SplitMix64(config.seed)
        cubes = (corpus[rng.below(len(corpus))] for _ in range(config.count))
    for cube in cubes:
        yield GammaSemigroup(elements, gammas, cube)


def _grid_vectors(n: int, grid: int) -> Iterator[tuple[int, ...]]:
    """The non-zero vectors of {0, ..., grid}^n in lexicographic order; a
    grid below 1 raises at the call."""
    if grid < 1:
        raise ValueError("need grid >= 1")
    return islice(product(range(grid + 1), repeat=n), 1, None)  # past the zero vector


def _position(vec: tuple[int, ...], grid: int) -> int:
    """The 1-based position of the non-zero vector vec in _grid_vectors(len(vec), grid)."""
    position = 0
    for v in vec:
        position = position * (grid + 1) + v
    return position


def _order_types(n: int, grid: int) -> Iterator[tuple[int, ...]]:
    """The first vector of each order type among the non-zero vectors of
    {0, ..., grid}^n in lexicographic order, as grades v / grid.

    The order type of the grades is the side of 1/2 each grade lies on and
    the rank of each folded grade min(g, 1 - g) among the vector's folded
    grades and 0, so rank 0 is a grade 0 or 1.  Every predicate compares
    only grades, their complements, 1/2 and 1, so the vectors of one type
    share every verdict.  The capped hunts use _capped_types instead.
    """
    fold = [min(v, grid - v) for v in range(grid + 1)]
    side = [(v + v > grid) - (v + v < grid) for v in range(grid + 1)]
    seen: set = set()
    codes: dict = {}  # the set of a vector's values -> value -> 3 * rank + side
    for vec in _grid_vectors(n, grid):
        values = frozenset(vec)
        if values not in codes:
            levels = sorted({0, *map(fold.__getitem__, values)})
            codes[values] = {v: 3 * levels.index(fold[v]) + side[v] for v in values}
        key = tuple(map(codes[values].__getitem__, vec))
        if key not in seen:
            seen.add(key)
            yield vec


def _capped_types(n: int, top: int) -> Iterator[tuple[int, ...]]:
    """The non-zero vectors of {0, ..., top}^n whose entries strictly between
    0 and top are exactly 1, ..., j for some j, in lexicographic order.

    With top = ceil(grid / 2), a grade v / grid is at least 1/2 exactly when
    v >= top, so the order type of min(mu, 1/2) is which grades reach 1/2
    and the weak order of the others with 0.  Each vector here is the first
    vector of one such type: it lowers the j distinct grades below the cap
    to 1, ..., j and the rest to top, pointwise no higher than any vector of
    its type, over the whole grid too.
    """
    alphabet = (*range(min(n, top - 1) + 1), top)
    for vec in islice(product(alphabet, repeat=n), 1, None):  # past the zero vector
        inner = set(vec)
        inner.discard(0)
        inner.discard(top)
        if len(inner) == max(inner, default=0):
            yield vec


def _grid_subsets(s: GammaSemigroup, vecs: Iterable, grid: int) -> Iterator[FuzzySubset]:
    """The fuzzy subset with grades v / grid for each vector v of vecs, read
    from one list of the grid's Fractions (a Fraction per grade is slower)."""
    steps = [Fraction(v, grid) for v in range(grid + 1)]
    return (FuzzySubset(s, tuple(steps[x] for x in v)) for v in vecs)


def grid_subsets(structure: GammaSemigroup, grid: int) -> Iterator[FuzzySubset]:
    """All non-zero fuzzy subsets with grades in {0, 1/d, ..., 1}, lex order."""
    return _grid_subsets(structure, _grid_vectors(structure.n, grid), grid)


def _grid_draws(n: int, grid: int, seed: int) -> Iterator[tuple[int, ...]]:
    """Endless seeded vectors of {0, ..., grid}^n, the zero vector included."""
    rng = SplitMix64(seed)
    while True:
        yield tuple(rng.below(grid + 1) for _ in range(n))


def random_fuzzy(structure: GammaSemigroup, config: GeneratorConfig) -> Iterator[FuzzySubset]:
    """Seeded stream of non-zero fuzzy subsets with grades on the d-grid."""
    draws = _grid_draws(structure.n, config.grid, config.seed)
    return _grid_subsets(structure, islice(filter(any, draws), config.count), config.grid)


def sample_eq_bi_ideals(
    structure: GammaSemigroup, count: int, seed: int, grid: int = 10
) -> list[FuzzySubset]:
    """Up to `count` seeded random (in, in-or-q)-fuzzy bi-ideals.

    Rejection-filters seeded grid draws v, deciding each by the eq-bi-ideal
    scan on 2v over base 2 * grid; may return fewer than `count` if the cap
    of 400 draws per requested sample runs out.
    """
    if grid < 1 or count < 0:
        raise ValueError("need grid >= 1, count >= 0")
    scan, base = _resolve_predicate("eq-bi-ideal")[0], 2 * grid
    draws = islice(_grid_draws(structure.n, grid, seed), 400 * max(count, 1))
    kept = (v for v in draws if any(v) and scan(structure, [x + x for x in v], base) is None)
    return list(_grid_subsets(structure, islice(kept, count), grid))


# ---------------------------------------------------------- witness search

# Pair predicates hold when both operands satisfy the named unary predicate.
_PAIR_PREDICATES = {
    "union_of_two_eq_subsemigroups": "eq_subsemigroup",
    "union_of_two_eq_bi_ideals": "eq_bi_ideal",
}


def parse_want(text: str) -> tuple[Callable[[Callable], bool], bool, bool]:
    """Compile to (test, pair_mode, capped).  Grammar: expr := term (OR term)*;
    term := fact (AND fact)*; fact := NOT fact | ( expr ) | NAME.

    test(lookup) is the expression's truth value, with chains short-circuited
    left to right; lookup(scan, pair) is an atom's, for its (unary)
    predicate's scan, predicates._resolve_predicate(name)[0], and whether it
    is a pair predicate.  pair_mode: some atom is a pair predicate.  capped:
    every atom's predicate sees mu only through min(mu, 1/2)
    (predicates._resolve_predicate(name)[2]), and so does test.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()[::-1]
    pair_mode, capped = False, True

    def fact() -> Callable:
        nonlocal pair_mode, capped
        if not tokens:
            raise UnknownPredicateName("unexpected end of expression")
        tok = tokens.pop()
        if tok.upper() == "NOT":
            inner = fact()
            return lambda lookup: not inner(lookup)
        if tok == "(":
            e = expr()
            if not tokens or tokens.pop() != ")":
                raise UnknownPredicateName("missing closing parenthesis")
            return e
        unary = _PAIR_PREDICATES.get(tok.replace("-", "_"))
        scan, _, half_capped = _resolve_predicate(unary or tok)
        is_pair = unary is not None
        pair_mode, capped = pair_mode or is_pair, capped and half_capped
        return lambda lookup: lookup(scan, is_pair)

    def chain(keyword: str, part: Callable[[], Callable], stop: bool) -> Callable:
        """part (KEYWORD part)*: the first part whose value is stop (False
        for AND, True for OR) decides the chain, else it is not stop."""
        parts = [part()]
        while tokens and tokens[-1].upper() == keyword:
            tokens.pop()
            parts.append(part())
        if len(parts) == 1:
            return parts[0]

        def joined(lookup) -> bool:
            for p in parts:
                if p(lookup) == stop:
                    return stop
            return not stop

        return joined

    def expr() -> Callable:
        return chain("OR", lambda: chain("AND", fact, False), True)

    test = expr()
    if tokens:
        raise UnknownPredicateName(f"trailing token {tokens[-1]!r}")
    return test, pair_mode, capped


@dataclass(frozen=True)
class WitnessSearch:
    found: bool
    structure: GammaSemigroup | None
    subsets: tuple[FuzzySubset, ...]
    structures_scanned: int
    subsets_scanned: int


def find_witness(
    structures: Iterable[GammaSemigroup], want: str, grid: int
) -> WitnessSearch:
    """First (structure, fuzzy subset(s)) satisfying the predicate expression.

    With no pair predicate, the expression is decided on grid subsets; if it
    mentions one, ordered pairs of grid subsets are scanned and the unary
    predicates apply to their pointwise union (the witness tuple is then
    (mu1, mu2, union)).  Scan order is the deterministic structure /
    grid-lexicographic order, so the first hit is well defined, and
    subsets_scanned counts every subset (or pair) up to it; with no hit the
    bounds scanned are reported.  Atoms are decided by their integer scans
    on the grid vector v, as grades 2v over base 2 * grid, and FuzzySubsets
    are built only for the witness returned.

    When every atom sees mu only through min(mu, 1/2), so does the
    expression (the hunt is capped): mu and min(mu, top / grid), top =
    ceil(grid / 2), share it, and the latter comes no later in grid order
    (for pairs too, as the union of capped vectors is the capped union), so
    only vectors with every entry at most top are scanned.  A unary hunt
    decides the expression once per order type, on the type's first vector:
    a capped one per type of min(mu, 1/2), from _capped_types, which types
    no vector (at an odd grid these are fewer than the types of the capped
    vectors), any other per type of the grid vectors, from _order_types.
    """
    test, pair_mode, capped = parse_want(want)
    _grid_vectors(1, grid)  # refuses a bad grid before the first structure
    base = 2 * grid
    top = (grid + 1) // 2 if capped else grid
    n_struct = 0
    n_sub = 0
    # n -> an unadvanced tee of the type representatives of length n: it
    # keeps every one any structure reached, so each is made once per call
    types: dict = {}
    for s in structures:
        n_struct += 1
        count = (grid + 1) ** s.n - 1
        if not pair_mode:
            if s.n not in types:
                reps = _capped_types(s.n, top) if capped else _order_types(s.n, grid)
                types[s.n] = tee(reps, 1)[0]
            for vec in copy(types[s.n]):
                g = [v + v for v in vec]
                if test(lambda scan, pair: scan(s, g, base) is None):
                    n_sub += _position(vec, grid)
                    subsets = tuple(_grid_subsets(s, [vec], grid))
                    return WitnessSearch(True, s, subsets, n_struct, n_sub)
            n_sub += count
        else:
            # Each (atom, grid vector) is decided at most once per structure,
            # and the union of two grid vectors is found by its index.
            vecs = list(_grid_vectors(s.n, top))
            where = {v: i for i, v in enumerate(vecs)}
            scaled = [[v + v for v in vec] for vec in vecs]
            verdicts: dict = {}

            def holds(scan, index: int) -> bool:
                if (scan, index) not in verdicts:
                    verdicts[scan, index] = scan(s, scaled[index], base) is None
                return verdicts[scan, index]

            def lookup(scan, pair) -> bool:
                if pair:
                    return holds(scan, i) and holds(scan, j)
                return holds(scan, u)

            for i, v1 in enumerate(vecs):
                for j, v2 in enumerate(vecs):
                    u = where[tuple(map(max, v1, v2))]
                    if test(lookup):
                        n_sub += (_position(v1, grid) - 1) * count + _position(v2, grid)
                        subsets = tuple(_grid_subsets(s, [vecs[i], vecs[j], vecs[u]], grid))
                        return WitnessSearch(True, s, subsets, n_struct, n_sub)
            n_sub += count * count
    return WitnessSearch(False, None, (), n_struct, n_sub)
