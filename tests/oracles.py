"""Independent brute-force oracles used to cross-check the library deciders.

These deliberately avoid the library's closed forms and cell sampler: the
point quantifications are swept over the critical threshold set directly
through point_satisfies, and products are recomputed by scanning all (y,g,z)
triples instead of the precomputed factorization lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, product

from gsfuzz import FuzzySubset
from gsfuzz.search import parse_want
from gsfuzz.structure import enumerate_crisp
from gsfuzz.fuzzy import (
    HALF,
    IN,
    IN_OR_Q,
    ONE,
    ZERO,
    FuzzyPoint,
    PointRelation,
    RelKind,
    _critical,
    _scaled,
    _thresholds,
    critical_thresholds,
    point_satisfies,
)


def sweep_eq_subsemigroup(mu: FuzzySubset) -> bool:
    """(in, in-or-q) subsemigroup via threshold sweep over critical t, r."""
    s = mu.structure
    crits = critical_thresholds(mu)
    for x in range(s.n):
        ts = [t for t in crits if mu.grades[x] >= t]
        if not ts:
            continue
        for y in range(s.n):
            rs = [r for r in crits if mu.grades[y] >= r]
            if not rs:
                continue
            for g in range(s.k):
                w = s.cayley[x][g][y]
                for t in ts:
                    for r in rs:
                        if not point_satisfies(FuzzyPoint(w, min(t, r)), mu, IN_OR_Q):
                            return False
    return True


def sweep_subset_or_q(nu: FuzzySubset, mu: FuzzySubset) -> bool:
    """nu subset-or-q mu via threshold sweep over joint criticals."""
    crits = sorted(set(critical_thresholds(nu)) | set(critical_thresholds(mu)))
    for x in range(mu.structure.n):
        for r in crits:
            if nu.grades[x] >= r and not point_satisfies(FuzzyPoint(x, r), mu, IN_OR_Q):
                return False
    return True


def naive_o_product(lam: FuzzySubset, mu: FuzzySubset) -> FuzzySubset:
    """Product by scanning every (y, g, z) triple."""
    s = lam.structure
    grades = []
    for a in range(s.n):
        best = ZERO
        for y in range(s.n):
            for g in range(s.k):
                for z in range(s.n):
                    if s.cayley[y][g][z] == a:
                        best = max(best, min(lam.grades[y], mu.grades[z]))
        grades.append(best)
    return FuzzySubset(s, tuple(grades))


def _pair_failures(mu: FuzzySubset, bound):
    """(x, y, gamma) with mu(x gamma y) < bound(mu(x), mu(y)), in scan order."""
    s, g = mu.structure, mu.grades
    for x, y, c in product(range(s.n), range(s.n), range(s.k)):
        if g[s.cayley[x][c][y]] < bound(g[x], g[y]):
            yield (x, y, c)


def _sandwich_failures(mu: FuzzySubset, cap):
    """(x, y, a, z, b) with mu(x a y b z) < min(mu(x), mu(z), cap), in scan order."""
    s, g = mu.structure, mu.grades
    n, k = range(s.n), range(s.k)
    for x, y, z, a, b in product(n, n, n, k, k):
        if g[s.cayley[s.cayley[x][a][y]][b][z]] < min(g[x], g[z], cap):
            yield (x, y, a, z, b)


def first_closed_failure(name: str, mu: FuzzySubset) -> tuple | None:
    """First refuting index tuple of a closed-form predicate, or None.

    Checks the defining inequality at every product, with no pruning, in
    the pinned witness order: pairs (x, y, gamma) first, then for bi-ideals
    sandwiches (x, y, alpha, z, beta); eq-ideal is the left then the right
    ideal scan.
    """
    cap = ONE if name.startswith("fuzzy") else HALF

    def sub():
        return _pair_failures(mu, lambda a, b: min(a, b, cap))

    def left():
        return _pair_failures(mu, lambda a, b: min(b, cap))

    def right():
        return _pair_failures(mu, lambda a, b: min(a, cap))

    scans = {
        "fuzzy-subsemigroup": (sub(),),
        "fuzzy-bi-ideal": (sub(), _sandwich_failures(mu, cap)),
        "eq-subsemigroup": (sub(),),
        "eq-bi-ideal": (sub(), _sandwich_failures(mu, cap)),
        "eq-left-ideal": (left(),),
        "eq-right-ideal": (right(),),
        "eq-ideal": (left(), right()),
    }[name]
    return next(chain(*scans), None)


@lru_cache(maxsize=8)
def _premise(mu: FuzzySubset, alpha: PointRelation) -> tuple[list, ...]:
    """Per element x, the critical t (ascending) with x_t alpha mu."""
    crits = critical_thresholds(mu)
    return tuple(
        [t for t in crits if point_satisfies(FuzzyPoint(x, t), mu, alpha)]
        for x in range(mu.structure.n)
    )


@cache
def _cells(*grades) -> tuple:
    """Breakpoints g, 1 - g in (0,1] and 1, plus one value inside every cell."""
    breaks = sorted({v for g in grades for v in (g, ONE - g) if v > ZERO} | {ONE})
    inner = {breaks[0] / 2} | {(a + b) / 2 for a, b in zip(breaks, breaks[1:])}
    return tuple(sorted(set(breaks) | inner))


def _first_refuting_cell(mu, alpha, beta, x: int, z: int, w: int) -> tuple:
    """First (t, r), ascending over the cells cut by the grades of x, z and w,
    with x_t and z_r alpha mu but not w_min(t,r) beta mu."""
    cells = _cells(mu.grades[x], mu.grades[z], mu.grades[w])

    @cache
    def premise(e: int, v) -> bool:
        return point_satisfies(FuzzyPoint(e, v), mu, alpha)

    @cache
    def concludes(v) -> bool:
        return point_satisfies(FuzzyPoint(w, v), mu, beta)

    return next(
        (t, r)
        for t in cells if premise(x, t)
        for r in cells if premise(z, r) and not concludes(min(t, r))
    )


@cache
def _grade_points(*grades) -> tuple:
    """The cells cut by the grades, and per grade g, at every cell v, the
    pair (x_v in mu, x_v q mu) for mu(x) = g: g >= v and g + v > 1."""
    cells = _cells(*grades)
    return cells, {g: [(g >= v, g + v > ONE) for v in cells] for g in grades}


def _holding_cells(rel: PointRelation, points: list) -> list:
    """The indices of the cells v with x_v rel mu, from _grade_points."""
    if rel.kind is RelKind.IN:
        holds = [b for b, _ in points]
    elif rel.kind is RelKind.Q:
        holds = [q for _, q in points]
    elif rel.kind is RelKind.IN_OR_Q:
        holds = [b or q for b, q in points]
    else:
        holds = [b and q for b, q in points]
    return [i for i, h in enumerate(holds) if h != rel.negated]


def refuting_cells_by_grades(alphas, betas, a, c, w) -> list:
    """For every (alpha, beta) in alphas x betas, in that order: the
    _first_refuting_cell for the grades a = mu(x), c = mu(z), w = mu(x z)
    alone, or None when no cell refutes the point implication."""
    cells, points = _grade_points(*sorted({a, c, w}))
    concludes = [set(_holding_cells(beta, points[w])) for beta in betas]
    out = []
    for alpha in alphas:
        ts, rs = _holding_cells(alpha, points[a]), _holding_cells(alpha, points[c])
        # on ascending cells, min(cells[i], cells[j]) is cells[min(i, j)]
        out += [
            next(((cells[i], cells[j])
                  for i in ts for j in rs if (i if i < j else j) not in holds), None)
            for holds in concludes
        ]
    return out



def _interval(rule: tuple, g: int, base: int) -> tuple[int, int]:
    """The (p, q) of the rule (i, j, flip) of _INTERVALS, for x of scaled grade g."""
    ends = (g, base - g, 0, base)
    return ends[rule[0]], ends[rule[1]]


def failing_cell_by_candidates(
    pair, base: int, gx: int, gz: int, gw: int
) -> tuple[int, int] | None:
    """First candidate (t, r) with x_t, z_r alpha mu but not w_min(t,r) beta mu.

    The library's cell search as it was before it went one pass over the
    breakpoints, kept to pin the rewrite: it walks the full candidate list
    of _thresholds, every midpoint and every breakpoint.

    gx, gz, gw are the scaled grades of x, z and the product w; None when
    the point implication holds for this product.  One ascending pass: t is
    the first premise value that some premise r <= t refutes, with r the
    first such, or that refutes by itself, with r the first premise r > t.
    """
    cands = _thresholds({gx, gz, gw, base - gx, base - gz, base - gw, base})
    px, qx = _interval(pair._premise, gx, base)
    pz, qz = _interval(pair._premise, gz, base)
    pw, qw = _interval(pair._conclusion, base - gw if pair._dual else gw, base)
    flip = pair._conclusion[2]
    t = r = None
    for m in cands:
        z_holds = m <= pz or m > qz
        if t is not None:
            if z_holds:
                return t, m
            continue
        refutes = (m <= pw or m > qw) == flip  # w_m not beta mu
        if r is None and z_holds and refutes:
            r = m
        if m <= px or m > qx:
            if r is not None:
                return m, r
            if refutes:
                t = m
    return None

def first_alpha_beta_failure(
    mu: FuzzySubset, alpha: PointRelation, beta: PointRelation, bi: bool
) -> tuple | None:
    """The first refuted (alpha, beta) implication with its witness t, r.

    The position is the first (x, y, gamma), then for bi the first
    (x, y, a, z, b), whose implication fails for some t, r swept over
    critical_thresholds(mu); (t, r) follow it, chosen as in
    _first_refuting_cell.  None when the predicate holds.
    """
    s = mu.structure
    premise = _premise(mu, alpha)

    @cache
    def mins(x: int, z: int) -> frozenset:
        # {min(t, r) : t in premise[x], r in premise[z]}
        px, pz = premise[x], premise[z]
        if not px or not pz:
            return frozenset()
        return frozenset([t for t in px if t <= pz[-1]] + [r for r in pz if r <= px[-1]])

    @cache
    def concludes(w: int, v) -> bool:
        return point_satisfies(FuzzyPoint(w, v), mu, beta)

    @cache
    def fails(x: int, z: int, w: int) -> bool:
        return not all(concludes(w, v) for v in mins(x, z))

    n, k = range(s.n), range(s.k)
    for x, y, c in product(n, n, k):
        w = s.cayley[x][c][y]
        if fails(x, y, w):
            return (x, y, c) + _first_refuting_cell(mu, alpha, beta, x, y, w)
    if bi:
        for x, y, z, a, b in product(n, n, n, k, k):
            w = s.cayley[s.cayley[x][a][y]][b][z]
            if fails(x, z, w):
                return (x, y, a, z, b) + _first_refuting_cell(mu, alpha, beta, x, z, w)
    return None


def sweep_alpha_beta(
    mu: FuzzySubset, alpha: PointRelation, beta: PointRelation, bi: bool
) -> bool:
    """(alpha, beta) subsemigroup, or bi-ideal when bi, by threshold sweep."""
    return first_alpha_beta_failure(mu, alpha, beta, bi) is None


def first_assoc_failure(cube) -> tuple | None:
    """First (x, b, y, g, z, left, right) with left = (x b y) g z differing
    from right = x b (y g z), in (x, b, y, g, z) order, or None."""
    n, k = len(cube), len(cube[0])

    def op(x, g, y):
        return cube[x][g][y]

    for x, b, y, g, z in product(range(n), range(k), range(n), range(k), range(n)):
        left, right = op(op(x, b, y), g, z), op(x, b, op(y, g, z))
        if left != right:
            return (x, b, y, g, z, left, right)
    return None


def first_hom_failure(source, target, mapping) -> tuple | None:
    """First (x, g, y, f(x g y), f(x) g f(y)) where the two differ, in
    (x, g, y) order, with the target operation picked by gamma name."""
    for x, g, y in product(range(source.n), range(source.k), range(source.n)):
        h = target.gammas.index(source.gammas[g])
        lhs = mapping[source.op(x, g, y)]
        rhs = target.op(mapping[x], h, mapping[y])
        if lhs != rhs:
            return (x, g, y, lhs, rhs)
    return None


def _gamma_set(s, a, b) -> set:
    """A Gamma B by scanning every operation symbol."""
    return {s.op(x, g, y) for x in a for g in range(s.k) for y in b}


def regular_by_definition(s) -> bool:
    """Every a lies in a Gamma S Gamma a."""
    carrier = range(s.n)
    return all(a in _gamma_set(s, _gamma_set(s, {a}, carrier), {a}) for a in carrier)


def intra_regular_by_definition(s) -> bool:
    """Every a lies in S Gamma a Gamma a Gamma S."""
    carrier = range(s.n)
    return all(
        a in _gamma_set(s, _gamma_set(s, _gamma_set(s, carrier, {a}), {a}), carrier)
        for a in carrier
    )


def regularity_flags_by_enumeration(s) -> tuple[tuple, tuple]:
    """The thm4.28 and thm4.29 flags with no samples, over every crisp
    bi-ideal A, B of the 2^n subset scan: regular iff A Gamma S Gamma A = A;
    regular and intra-regular iff A Gamma A = A iff A & B = A Gamma B & B Gamma A."""
    bis = enumerate_crisp(s, "bi_ideal")
    carrier = range(s.n)
    regular = regular_by_definition(s)
    return (
        (regular, all(_gamma_set(s, _gamma_set(s, a, carrier), a) == a for a in bis)),
        (
            regular and intra_regular_by_definition(s),
            all(_gamma_set(s, a, a) == a for a in bis),
            all(a & b == _gamma_set(s, a, b) & _gamma_set(s, b, a) for a in bis for b in bis),
        ),
    )


def duo_flags_by_definition(s) -> tuple[bool, bool, bool]:
    """(left_duo, right_duo, duo) over all 2^n - 1 non-empty subsets A: left
    duo when every left ideal (S Gamma A in A) is a right ideal (A Gamma S
    in A), right duo conversely, duo when both."""
    carrier = range(s.n)
    left, right = set(), set()
    for mask in range(1, 1 << s.n):
        a = frozenset(i for i in carrier if mask >> i & 1)
        if _gamma_set(s, carrier, a) <= a:
            left.add(a)
        if _gamma_set(s, a, carrier) <= a:
            right.add(a)
    return left <= right, right <= left, left == right


def bi_ideal_by_definition(s, a) -> bool:
    """A Gamma A and A Gamma S Gamma A are contained in A, by a full scan."""
    n, k = range(s.n), range(s.k)
    return all(s.op(x, g, y) in a for x in a for g in k for y in a) and all(
        s.op(s.op(x, g, m), h, y) in a for x in a for g in k for m in n for h in k for y in a
    )


def find_witness_by_definition(structures, want: str, grid: int) -> tuple:
    """find_witness re-derived with no memo: (found, structure, witness
    grades, structures scanned, candidates scanned).

    Grid subsets are rebuilt as Fraction grades from integer vectors in
    lexicographic order, and each atom's scan runs on fuzzy._scaled's grades
    and base for the subset, not on the hunt's 2 * grid.  A unary hunt
    decides every atom on each subset; a pair hunt scans every ordered pair,
    builds its union by pointwise max and re-decides a pair atom on both
    operands and a unary atom on the union, each time it is evaluated.
    """
    test, pair_mode, _ = parse_want(want)
    n_struct = n_sub = 0
    for s in structures:
        n_struct += 1
        pool = [
            FuzzySubset(s, tuple(Fraction(v, grid) for v in vec))
            for vec in product(range(grid + 1), repeat=s.n) if any(vec)
        ]
        if not pair_mode:
            for mu in pool:
                n_sub += 1
                if test(lambda scan, pair: scan(s, *_scaled(mu)) is None):
                    return True, s, (mu.grades,), n_struct, n_sub
            continue
        for m1, m2 in product(pool, repeat=2):
            n_sub += 1
            union = FuzzySubset(s, tuple(max(a, b) for a, b in zip(m1.grades, m2.grades)))

            def lookup(scan, pair) -> bool:
                if pair:
                    return scan(s, *_scaled(m1)) is None and scan(s, *_scaled(m2)) is None
                return scan(s, *_scaled(union)) is None

            if test(lookup):
                return True, s, (m1.grades, m2.grades, union.grades), n_struct, n_sub
    return False, None, (), n_struct, n_sub


def order_type_by_definition(grades) -> tuple:
    """The order type of Fraction grades: per grade, its side of 1/2 as
    -1, 0 or 1, then the rank of each folded grade min(g, 1 - g) among the
    folded grades and 0."""
    folded = [min(g, ONE - g) for g in grades]
    levels = sorted(set(folded) | {ZERO})
    return tuple((g > HALF) - (g < HALF) for g in grades), tuple(levels.index(f) for f in folded)


def thresholds_by_definition(mu: FuzzySubset) -> tuple:
    """The breakpoints mu(x), 1 - mu(x), 1/2 and 1 in (0, 1], half the
    smallest, and the midpoint of every consecutive pair, in Fractions."""
    return _cells(*mu.grades, HALF)


def cuts_are_at_criticals(mu: FuzzySubset, check, bracket: bool) -> bool:
    """check holds on every distinct non-empty level set U(mu; r) at critical
    r <= 1/2, or with bracket on every [mu]_t = U(mu; t) | Q(mu; t) at critical t.

    theorems._cuts_are as it was when every critical threshold, breakpoints
    and cell midpoints alike, named a cut."""
    g, base = _scaled(mu)
    cuts = {
        frozenset(i for i, v in enumerate(g) if v >= t or bracket and v + t > base)
        for t in _critical(g, base) if bracket or t <= base // 2
    }
    return all(check(mu.structure, cut) for cut in cuts if cut)


def _o05(lam: FuzzySubset, mu: FuzzySubset) -> FuzzySubset:
    """lam o05 mu: the naive product with every grade capped at 1/2."""
    prod = naive_o_product(lam, mu)
    return FuzzySubset(prod.structure, tuple(min(g, HALF) for g in prod.grades))


def _meet05(mu: FuzzySubset, nu: FuzzySubset) -> tuple:
    return tuple(min(a, b, HALF) for a, b in zip(mu.grades, nu.grades))


def _leq(lo: tuple, hi: tuple) -> bool:
    return all(a <= b for a, b in zip(lo, hi))


def subsemigroup_by_definition(s, a) -> bool:
    return all(s.op(x, g, y) in a for x in a for g in range(s.k) for y in a)


def _levels_hold(mu: FuzzySubset, check) -> bool:
    """check holds on every non-empty U(mu; r), r critical in (0, 1/2]."""
    levels = (
        frozenset(x for x, g in enumerate(mu.grades) if g >= r)
        for r in thresholds_by_definition(mu) if r <= HALF
    )
    return all(check(mu.structure, level) for level in levels if level)


def _brackets_hold(mu: FuzzySubset, check) -> bool:
    """check holds on every non-empty [mu]_t = U(mu; t) | Q(mu; t), t critical."""
    brackets = (
        frozenset(x for x, g in enumerate(mu.grades) if g >= t or g + t > ONE)
        for t in thresholds_by_definition(mu)
    )
    return all(check(mu.structure, b) for b in brackets if b)


def _one(s) -> FuzzySubset:
    return FuzzySubset(s, (ONE,) * s.n)


def _crisp_bi_ideals(s) -> list:
    """Characteristic functions of every non-empty crisp bi-ideal."""
    subsets = (
        frozenset(i for i in range(s.n) if mask >> i & 1) for mask in range(1, 1 << s.n)
    )
    return [
        FuzzySubset(s, tuple(ONE if i in a else ZERO for i in range(s.n)))
        for a in subsets if bi_ideal_by_definition(s, a)
    ]


def _closed(name: str, mu: FuzzySubset) -> bool:
    return first_closed_failure(name, mu) is None


def report_flags_by_definition(theorem_id: str, *args) -> tuple:
    """Every condition flag of the named theorem report, in literal Fraction
    arithmetic: products by naive_o_product (capped at 1/2 afterwards for
    o05), 1/2-caps by min, level sets and brackets at
    thresholds_by_definition, containment in-or-q by a threshold sweep,
    crisp and (alpha, beta) predicates by the scans above.

    args are the report's: mu for thm3.2 to thm4.26; the structure and the
    fuzzy bi-ideal samples for thm4.28 and thm4.29.
    """
    if theorem_id in ("thm4.28", "thm4.29"):
        s, samples = args
        samples = list(samples)
        chars = _crisp_bi_ideals(s)
        if theorem_id == "thm4.28":
            return (
                regular_by_definition(s),
                all(_o05(_o05(mu, _one(s)), mu).grades == _meet05(mu, mu)
                    for mu in samples + chars),
            )
        pairs = [(p, q) for p in chars for q in chars] + list(zip(samples, samples[1:]))
        return (
            regular_by_definition(s) and intra_regular_by_definition(s),
            all(_o05(mu, mu).grades == _meet05(mu, mu) for mu in samples + chars),
            all(_meet05(mu, nu) == _meet05(_o05(mu, nu), _o05(nu, mu)) for mu, nu in pairs),
        )
    (mu,) = args
    s = mu.structure
    if theorem_id == "thm3.2":
        square = naive_o_product(mu, mu)
        return (
            sweep_alpha_beta(mu, IN, IN_OR_Q, False),
            _closed("eq-subsemigroup", mu),
            sweep_subset_or_q(square, mu),
            _leq(_meet05(square, square), mu.grades),
            _levels_hold(mu, subsemigroup_by_definition),
        )
    if theorem_id == "thm3.5":
        hypothesis = _closed("eq-subsemigroup", mu)
        triple = naive_o_product(naive_o_product(mu, _one(s)), mu)
        return (
            sweep_alpha_beta(mu, IN, IN_OR_Q, True),
            _closed("eq-bi-ideal", mu),
            hypothesis and sweep_subset_or_q(triple, mu),
            hypothesis and _leq(_meet05(triple, triple), mu.grades),
            _levels_hold(mu, bi_ideal_by_definition),
        )
    if theorem_id == "thm4.23":
        return _closed("eq-subsemigroup", mu), _brackets_hold(mu, subsemigroup_by_definition)
    if theorem_id == "thm4.24":
        return _closed("eq-bi-ideal", mu), _brackets_hold(mu, bi_ideal_by_definition)
    square_ok = _leq(_o05(mu, mu).grades, mu.grades)
    if theorem_id == "thm4.25":
        return _closed("eq-subsemigroup", mu), square_ok
    if theorem_id == "thm4.26":
        sandwich_ok = _leq(_o05(_o05(mu, _one(s)), mu).grades, mu.grades)
        return _closed("eq-bi-ideal", mu), square_ok and sandwich_ok
    raise ValueError(f"unknown theorem {theorem_id!r}")
