"""Order types of grade vectors, which the unary witness hunts decide once each.

Every predicate compares only grades, their complements, 1/2 and 1, so a
verdict depends on mu only through its order type: the side of 1/2 each
grade lies on and the weak order of the folded grades min(g, 1 - g), with
0 among them.  A hunt that sees mu only through min(mu, 1/2) decides one
vector per type of min(mu, 1/2) instead, which it builds without typing
any vector.  Both sets of first vectors are checked here against a
Fraction definition, and the verdicts of all 55 scans against the types,
on a seeded sample of the n <= 3, k <= 2 corpus at an even and an odd grid
and on seeded grades with denominators up to 1000.  The scans a hunt treats as seeing mu only
through min(mu, 1/2) are pinned, and checked to give v and its cap one
verdict on the same sample.
"""

from fractions import Fraction as F
from itertools import product

from gsfuzz import FuzzySubset
from gsfuzz.predicates import _resolve_predicate, check_by_name
from gsfuzz.search import (
    SplitMix64,
    _capped_types,
    _order_types,
    _position,
    find_witness,
    parse_want,
)

from corpus import exhaustive
from oracles import find_witness_by_definition, order_type_by_definition
from test_predicates import SCANNED_NAMES

# order types of the non-zero grade vectors of length n = 1, ..., 4
TYPE_COUNTS = (4, 32, 292, 3392)


def _typed_vectors(n: int, grid: int) -> list:
    """The non-zero vectors of {0, ..., grid}^n in lexicographic order, each
    with its order type by definition."""
    return [
        (vec, order_type_by_definition([F(v, grid) for v in vec]))
        for vec in product(range(grid + 1), repeat=n) if any(vec)
    ]


def test_order_type_counts():
    for n, count in enumerate(TYPE_COUNTS, 1):
        assert sum(1 for _ in _order_types(n, 2 * n + 2)) == count
    # a grid d holds every type exactly when d is even and d >= 2n + 2
    for n in (1, 2, 3):
        for grid in range(1, 11):
            complete = grid % 2 == 0 and grid >= 2 * n + 2
            found = sum(1 for _ in _order_types(n, grid))
            assert (found == TYPE_COUNTS[n - 1]) == complete, (n, grid, found)
    # the hunts of capped expressions decide 50 vectors of {0, ..., 5}^3 at grid 10
    assert sum(1 for _ in _capped_types(3, 5)) == 50


def _firsts(typed: list) -> list:
    """The first vector of each order type in typed, in order."""
    firsts, seen = [], set()
    for vec, key in typed:
        if key not in seen:
            seen.add(key)
            firsts.append(vec)
    return firsts


def test_order_types_are_first_vectors_of_each_type():
    for n, grid in ((1, 1), (1, 4), (2, 5), (2, 6), (3, 4), (3, 7), (3, 10)):
        typed = _typed_vectors(n, grid)
        assert list(_order_types(n, grid)) == _firsts(typed), (n, grid)
        for position, (vec, _) in enumerate(typed, 1):
            assert _position(vec, grid) == position, (grid, vec)


def test_capped_types_are_first_vectors_of_each_type_below_the_cap():
    # at grid 2 * top the cap top is 1/2, so the order types of the vectors
    # with every entry at most top are those of min(mu, 1/2)
    for n in range(1, 5):
        for top in range(1, 7):
            typed = [(vec, key) for vec, key in _typed_vectors(n, 2 * top) if max(vec) <= top]
            assert list(_capped_types(n, top)) == _firsts(typed), (n, top)
    # an odd grid splits grades just below and above 1/2 into two types that
    # min(mu, 1/2) merges: at grid 5 the capped vectors hold 56 types, 44 here
    capped = [(vec, key) for vec, key in _typed_vectors(3, 5) if max(vec) <= 3]
    assert len(_firsts(capped)) == 56
    assert sum(1 for _ in _capped_types(3, 3)) == 44


def _sample() -> list:
    """Every structure with n <= 2, and seeded picks of n = 3 with k = 1 and 2."""
    rng = SplitMix64(21)
    structures = [s for n, k in ((1, 1), (1, 2), (2, 1), (2, 2)) for s in exhaustive(n, k)]
    for k in (1, 2):
        corpus = exhaustive(3, k)
        structures += [corpus[rng.below(len(corpus))] for _ in range(3)]
    return structures


def test_vectors_of_one_type_share_every_verdict():
    # one verdict tuple per (structure, type), shared by both grids: grid 10
    # holds every type with n <= 3, grid 7 only some, on other grades; then
    # seeded mu with denominators up to 1000, decided by check_by_name
    scans = [_resolve_predicate(name)[0] for name in SCANNED_NAMES]
    outcomes = set()
    for index, s in enumerate(_sample()):
        first: dict = {}
        for grid in (10, 7):
            for vec, key in _typed_vectors(s.n, grid):
                g = [v + v for v in vec]
                verdicts = tuple(scan(s, g, 2 * grid) is None for scan in scans)
                assert first.setdefault(key, verdicts) == verdicts, (s.cayley, grid, vec)
                outcomes.update(enumerate(verdicts))
        rng = SplitMix64(2100 + index)
        for _ in range(8):
            grades = [F(rng.below(d + 1), d) for d in (7 + rng.below(994) for _ in range(s.n))]
            if any(grades):
                mu = FuzzySubset(s, tuple(grades))
                verdicts = tuple(check_by_name(name, mu).holds for name in SCANNED_NAMES)
                assert first[order_type_by_definition(grades)] == verdicts, (s.cayley, grades)
    assert outcomes == {(i, holds) for i in range(len(scans)) for holds in (False, True)}


# The scan names the hunts treat as seeing mu only through min(mu, 1/2): the
# (in, in-or-q) forms and the (alpha, beta) pairs whose bound is capped at 1/2
# on key mu, or is 1 on key 1 - mu (support-only with a negated beta).
HALF_CAPPED = {"eq-subsemigroup", "eq-bi-ideal", "eq-left-ideal", "eq-right-ideal", "eq-ideal"} | {
    f"ab-{form}:{pair}" for form in ("subsemigroup", "bi-ideal") for pair in (
        "in,invq", "q,invq", "invq,invq",
        "in,not-in", "in,not-invq", "q,not-q", "q,not-invq",
        "invq,not-in", "invq,not-q", "invq,not-invq",
    )
}


def test_half_capped_scans_see_grades_only_up_to_the_cap():
    # the hunt scans only vectors capped at top = ceil(grid / 2), which is
    # sound when every flagged scan gives v and min(v, top) one verdict; an
    # odd grid puts top above 1/2
    flagged = [name for name in SCANNED_NAMES if parse_want(name)[2]]
    assert set(flagged) == HALF_CAPPED
    scans = [_resolve_predicate(name)[0] for name in flagged]
    outcomes = set()
    for s in _sample():
        for grid in (10, 7):
            top = (grid + 1) // 2
            for vec in product(range(grid + 1), repeat=s.n):
                if max(vec) <= top:
                    continue
                g = [v + v for v in vec]
                capped = [min(v, top) * 2 for v in vec]
                for name, scan in zip(flagged, scans):
                    holds = scan(s, g, 2 * grid) is None
                    assert (scan(s, capped, 2 * grid) is None) == holds, (name, s.cayley, vec)
                    outcomes.add((name, holds))
    assert outcomes == {(name, holds) for name in flagged for holds in (False, True)}


# Grid 4 holds 124 of the 292 order types of n = 3 grade vectors, and none
# that satisfies this expression on the n = 3, k = 2 corpus; grid 6 holds
# more types, one of them a witness.
GRID4_MISS = (
    "ab-subsemigroup:in,not-inandq AND NOT ab-subsemigroup:q,not-inandq"
    " AND NOT ab-subsemigroup:in,not-q AND NOT eq-subsemigroup AND ab-bi-ideal:in,not-inandq"
)


def test_grid_four_misses_a_witness_that_grid_six_finds():
    corpus = exhaustive(3, 2)
    miss = find_witness(corpus, GRID4_MISS, 4)
    assert (miss.found, miss.structures_scanned, miss.subsets_scanned) == (False, 413, 51212)
    hit = find_witness(corpus, GRID4_MISS, 6)
    assert (hit.found, hit.structures_scanned, hit.subsets_scanned) == (True, 4, 1160)
    assert hit.subsets[0].grades == (F(1, 3), F(5, 6), F(1, 6))
    grades = tuple(mu.grades for mu in hit.subsets)
    assert find_witness_by_definition(corpus[:4], GRID4_MISS, 6) == (
        True, hit.structure, grades, 4, 1160
    )
