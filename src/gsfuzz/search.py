"""Structure/fuzzy-subset generation, crisp enumeration, and witness search.

Pseudo-random generation uses SplitMix64 (Steele-Lea-Flood mixing, 64-bit),
implemented here so that every seeded stream is bit-identical across
platforms and Python versions.  Scan orders are pinned: structures in
generation order, fuzzy subsets in grid-lexicographic order over the grade
vector, elements in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Callable, Iterable, Iterator

from .errors import (
    BudgetExhausted,
    CarrierTooLarge,
    UnknownPredicateName,
)
from .fuzzy import FuzzySubset
from .predicates import (
    _resolve_predicate,
    is_eq_bi_ideal,
    is_eq_subsemigroup,
)
from .structure import (
    SUBSET_SCAN_LIMIT,
    CrispSubset,
    GammaSemigroup,
    _assoc_failure,
    _nonempty_subsets,
    is_bi_ideal,
    is_left_ideal,
    is_right_ideal,
    is_subsemigroup,
    validate_structure,
)

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


def _fixture_ex34() -> Fixture:
    s = validate_structure(
        ["e", "a", "b"],
        ["g"],
        [[[0, 0, 0]], [[0, 1, 0]], [[0, 0, 2]]],
    )
    mu = FuzzySubset.from_mapping(s, {"e": "1/2", "a": "3/5", "b": "3/5"})
    return Fixture("ex3.4", s, {"mu": mu})


def _fixture_ex46() -> Fixture:
    s = validate_structure(
        ["a", "b", "c", "d", "e"],
        ["g"],
        [
            [[0, 3, 0, 3, 3]],
            [[0, 1, 0, 3, 3]],
            [[0, 3, 2, 3, 4]],
            [[0, 3, 0, 3, 3]],
            [[0, 3, 2, 3, 4]],
        ],
    )
    mu = FuzzySubset.from_mapping(
        s, {"a": "4/5", "b": "7/10", "c": "3/10", "d": "1/2", "e": "3/5"}
    )
    return Fixture("ex4.6", s, {"mu": mu})


def _fixture_ex427() -> Fixture:
    s = validate_structure(
        ["a", "b", "c"],
        ["g"],
        [[[0, 0, 0]], [[1, 1, 1]], [[2, 2, 2]]],
    )
    mu = FuzzySubset.from_mapping(s, {"a": "4/5", "b": "7/10", "c": "3/5"})
    return Fixture("ex4.27", s, {"mu": mu})


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
    return [_fixture_ex34(), _fixture_ex46(), _fixture_ex427(), mod_surrogate()]


# ------------------------------------------------------------- generation

def _names(n: int, k: int) -> tuple[list[str], list[str]]:
    return [f"e{i}" for i in range(n)], [f"g{i}" for i in range(k)]


def _exhaustive(config: GeneratorConfig) -> Iterator[GammaSemigroup]:
    n, k = config.n, config.k
    if n > 3 or k > 2:
        raise CarrierTooLarge("exhaustive enumeration is limited to n <= 3, k <= 2")
    elements, gammas = _names(n, k)
    rows = list(product(range(n), repeat=n))
    # each operation alone must be associative, so only those tables are combined
    singles = [t for t in product(rows, repeat=n) if _assoc_failure(tuple(zip(t))) is None]
    emitted = 0
    for tabs in product(singles, repeat=k):
        cube = tuple(zip(*tabs))
        if _assoc_failure(cube) is not None:
            continue
        yield GammaSemigroup(tuple(elements), tuple(gammas), cube)
        emitted += 1
        if config.count and emitted >= config.count:
            return


def generate_structures(
    config: GeneratorConfig, *, exhaustive: bool = False, budget: int = 10 ** 6
) -> Iterator[GammaSemigroup]:
    """Stream of validated structures, deterministic for a given config.

    Random mode draws n x k x n cubes from SplitMix64(seed) and keeps the
    associative ones (rejection); duplicates are possible.  Exhaustive mode
    enumerates all cubes in lexicographic order (n <= 3, k <= 2); there
    count = 0 means the whole corpus.
    """
    if exhaustive:
        yield from _exhaustive(config)
        return
    n, k = config.n, config.k
    elements, gammas = _names(n, k)
    rng = SplitMix64(config.seed)
    emitted = 0
    attempts = 0
    while emitted < config.count:
        if attempts >= budget:
            raise BudgetExhausted(
                f"{attempts} rejection attempts produced {emitted}/{config.count}"
            )
        attempts += 1
        cube = tuple(
            tuple(tuple(rng.below(n) for _ in range(n)) for _ in range(k))
            for _ in range(n)
        )
        if _assoc_failure(cube) is not None:
            continue
        yield GammaSemigroup(tuple(elements), tuple(gammas), cube)
        emitted += 1


def grid_subsets(structure: GammaSemigroup, grid: int) -> Iterator[FuzzySubset]:
    """All non-zero fuzzy subsets with grades in {0, 1/d, ..., 1}, lex order."""
    if grid < 1:
        raise ValueError("need grid >= 1")
    for vec in product([Fraction(v, grid) for v in range(grid + 1)], repeat=structure.n):
        if any(vec):
            yield FuzzySubset(structure, vec)


def _grid_draws(n: int, grid: int, seed: int) -> Iterator[tuple[Fraction, ...]]:
    """Endless seeded grade vectors on the d-grid, the zero vector included."""
    rng = SplitMix64(seed)
    steps = [Fraction(v, grid) for v in range(grid + 1)]
    while True:
        yield tuple(steps[rng.below(grid + 1)] for _ in range(n))


def random_fuzzy(structure: GammaSemigroup, config: GeneratorConfig) -> Iterator[FuzzySubset]:
    """Seeded stream of non-zero fuzzy subsets with grades on the d-grid."""
    draws = _grid_draws(structure.n, config.grid, config.seed)
    for vec in islice((vec for vec in draws if any(vec)), config.count):
        yield FuzzySubset(structure, vec)


def sample_eq_bi_ideals(
    structure: GammaSemigroup, count: int, seed: int, grid: int = 10
) -> list[FuzzySubset]:
    """Up to `count` seeded random (in, in-or-q)-fuzzy bi-ideals.

    Rejection-filters seeded grid draws; may return fewer than `count` if
    the cap of 400 draws per requested sample runs out.
    """
    if grid < 1 or count < 0:
        raise ValueError("need grid >= 1, count >= 0")
    draws = islice(_grid_draws(structure.n, grid, seed), 400 * max(count, 1))
    subsets = (FuzzySubset(structure, vec) for vec in draws if any(vec))
    return list(islice((mu for mu in subsets if is_eq_bi_ideal(mu).holds), count))


# ------------------------------------------------------------ enumeration

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


# ---------------------------------------------------------- witness search

# Pair predicates hold when both operands satisfy the unary decider; the
# unary names are the predicates module's vocabulary.
_PAIR_PREDICATES = {
    "union_of_two_eq_subsemigroups": is_eq_subsemigroup,
    "union_of_two_eq_bi_ideals": is_eq_bi_ideal,
}


def _pair_decider(name: str) -> Callable | None:
    return _PAIR_PREDICATES.get(name.replace("-", "_"))


class _Expr:
    """Parsed boolean combination of named predicates."""

    def __init__(self, kind: str, *parts):
        self.kind = kind
        self.parts = parts

    def atoms(self) -> set:
        if self.kind == "atom":
            return {self.parts[0]}
        return set().union(*(p.atoms() for p in self.parts))

    def evaluate(self, lookup: Callable) -> bool:
        """lookup(decide, pair) is an atom's truth value."""
        if self.kind == "atom":
            return lookup(*self.parts[1:])
        if self.kind == "not":
            return not self.parts[0].evaluate(lookup)
        if self.kind == "and":
            return all(p.evaluate(lookup) for p in self.parts)
        return any(p.evaluate(lookup) for p in self.parts)


def parse_want(text: str) -> _Expr:
    """Grammar: expr := term (OR term)*; term := fact (AND fact)*;
    fact := NOT fact | ( expr ) | NAME."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def fact() -> _Expr:
        tok = peek()
        if tok is None:
            raise UnknownPredicateName("unexpected end of expression")
        if tok.upper() == "NOT":
            take()
            return _Expr("not", fact())
        if tok == "(":
            take()
            e = expr()
            if peek() != ")":
                raise UnknownPredicateName("missing closing parenthesis")
            take()
            return e
        name = take()
        pair = _pair_decider(name)
        return _Expr("atom", name, pair or _resolve_predicate(name), pair is not None)

    def term() -> _Expr:
        parts = [fact()]
        while peek() and peek().upper() == "AND":
            take()
            parts.append(fact())
        return parts[0] if len(parts) == 1 else _Expr("and", *parts)

    def expr() -> _Expr:
        parts = [term()]
        while peek() and peek().upper() == "OR":
            take()
            parts.append(term())
        return parts[0] if len(parts) == 1 else _Expr("or", *parts)

    out = expr()
    if peek() is not None:
        raise UnknownPredicateName(f"trailing token {peek()!r}")
    return out


@dataclass(frozen=True)
class WitnessSearch:
    found: bool
    structure: GammaSemigroup | None
    subsets: tuple[FuzzySubset, ...]
    structures_scanned: int
    subsets_scanned: int

    @property
    def exhausted(self) -> bool:
        return not self.found


def find_witness(
    structures: Iterable[GammaSemigroup], want: str, grid: int
) -> WitnessSearch:
    """First (structure, fuzzy subset(s)) satisfying the predicate expression.

    Unary predicates are evaluated on each grid subset; if the expression
    mentions a pair predicate, ordered pairs of grid subsets are scanned and
    the unary predicates apply to their pointwise union (the witness tuple is
    then (mu1, mu2, union)).  Scan order is the deterministic structure /
    grid-lexicographic order, so the first hit is well defined; with no hit
    the bounds scanned are reported.
    """
    tree = parse_want(want)
    pair_mode = any(_pair_decider(name) for name in tree.atoms())
    n_struct = 0
    n_sub = 0
    for s in structures:
        n_struct += 1
        if not pair_mode:
            for mu in grid_subsets(s, grid):
                n_sub += 1
                if tree.evaluate(lambda decide, pair: decide(mu).holds):
                    return WitnessSearch(True, s, (mu,), n_struct, n_sub)
        else:
            # Each (atom, grid subset) is decided at most once per structure.
            # vecs[i] is grid * pool[i].grades (both in grid_subsets order),
            # so the union of two grid subsets is found by its integer vector.
            pool = list(grid_subsets(s, grid))
            vecs = [v for v in product(range(grid + 1), repeat=s.n) if any(v)]
            where = {v: i for i, v in enumerate(vecs)}
            verdicts: dict = {}

            def holds(decide, index: int) -> bool:
                if (decide, index) not in verdicts:
                    verdicts[decide, index] = decide(pool[index]).holds
                return verdicts[decide, index]

            def lookup(decide, pair) -> bool:
                if pair:
                    return holds(decide, i) and holds(decide, j)
                return holds(decide, u)

            for i, v1 in enumerate(vecs):
                for j, v2 in enumerate(vecs):
                    n_sub += 1
                    u = where[tuple(map(max, v1, v2))]
                    if tree.evaluate(lookup):
                        return WitnessSearch(True, s, (pool[i], pool[j], pool[u]), n_struct, n_sub)
    return WitnessSearch(False, None, (), n_struct, n_sub)
