"""Independent answer checks for the benchmark workloads.

Nothing here calls the deciders, products or enumerators under test.  The
closed forms, products and homomorphism counts are recomputed by direct
scans, and the (alpha, beta) predicates are swept over a threshold set
through point_satisfies.  Every check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from gsfuzz.fuzzy import FuzzyPoint, point_satisfies

ONE = Fraction(1)
HALF = Fraction(1, 2)
ZERO = Fraction(0)


# ------------------------------------------------------------ closed forms

def closed_sub(mu, cap) -> bool:
    """mu(x g y) >= min(mu(x), mu(y), cap) for every x, g, y."""
    s, g = mu.structure, mu.grades
    return all(
        g[s.cayley[x][c][y]] >= min(g[x], g[y], cap)
        for x in range(s.n) for c in range(s.k) for y in range(s.n)
    )


def closed_bi(mu, cap) -> bool:
    """closed_sub plus mu(x a y b z) >= min(mu(x), mu(z), cap)."""
    s, g = mu.structure, mu.grades
    return closed_sub(mu, cap) and all(
        g[s.cayley[s.cayley[x][a][y]][b][z]] >= min(g[x], g[z], cap)
        for x in range(s.n) for a in range(s.k) for y in range(s.n)
        for b in range(s.k) for z in range(s.n)
    )


def closed_witness_problem(name: str, mu, verdict) -> str | None:
    """A negative closed-form verdict must carry a refuting product."""
    if verdict.holds:
        return None
    s, g, w = mu.structure, mu.grades, verdict.witness
    cap = ONE if name.startswith("fuzzy") else HALF
    if w.z is None:
        if name == "eq-left-ideal":
            bound = min(g[w.y], cap)
        elif name == "eq-right-ideal":
            bound = min(g[w.x], cap)
        else:
            bound = min(g[w.x], g[w.y], cap)
        value = g[s.cayley[w.x][w.gamma][w.y]]
    else:
        bound = min(g[w.x], g[w.z], cap)
        value = g[s.cayley[s.cayley[w.x][w.gamma][w.y]][w.delta][w.z]]
    if value < bound:
        return None
    return f"{name}: witness {w} does not refute"


# --------------------------------------------------------- (alpha, beta)

def thresholds(grades) -> list:
    """Breakpoints {g, 1-g, 1} in (0,1] plus one value inside every cell.

    Every point relation compares a value with a grade, a complemented grade
    or 1, so each relation is constant on these cells.
    """
    points = sorted({v for g in grades for v in (g, ONE - g) if v > ZERO} | {ONE})
    cells = set(points)
    cells.add(points[0] / 2)
    cells.update((a + b) / 2 for a, b in zip(points, points[1:]))
    return sorted(cells)


def sweep_alpha_beta(mu, alpha, beta, bi: bool) -> bool:
    """(alpha, beta) subsemigroup, or bi-ideal when bi, by threshold sweep."""
    s = mu.structure
    ts = thresholds(mu.grades)
    premise = [
        [t for t in ts if point_satisfies(FuzzyPoint(x, t), mu, alpha)]
        for x in range(s.n)
    ]
    cache: dict = {}

    def concl(w, v):
        key = (w, v)
        if key not in cache:
            cache[key] = point_satisfies(FuzzyPoint(w, v), mu, beta)
        return cache[key]

    def mins(x, y):
        # {min(t, r) : t in premise[x], r in premise[y]}
        px, py = premise[x], premise[y]
        if not px or not py:
            return []
        return sorted({t for t in px if t <= py[-1]} | {r for r in py if r <= px[-1]})

    for x in range(s.n):
        for y in range(s.n):
            values = mins(x, y)
            for c in range(s.k):
                w = s.cayley[x][c][y]
                if not all(concl(w, v) for v in values):
                    return False
    if not bi:
        return True
    for x in range(s.n):
        for z in range(s.n):
            values = mins(x, z)
            if not values:
                continue
            for a in range(s.k):
                for y in range(s.n):
                    u = s.cayley[x][a][y]
                    for b in range(s.k):
                        w = s.cayley[u][b][z]
                        if not all(concl(w, v) for v in values):
                            return False
    return True


def alpha_beta_witness_problem(label: str, mu, pair, verdict) -> str | None:
    """A negative (alpha, beta) verdict must carry refuting points."""
    if verdict.holds:
        return None
    s, w = mu.structure, verdict.witness
    other = w.y if w.z is None else w.z
    if w.z is None:
        target = s.cayley[w.x][w.gamma][w.y]
    else:
        target = s.cayley[s.cayley[w.x][w.gamma][w.y]][w.delta][w.z]
    ok = (
        w.t is not None and w.r is not None
        and ZERO < w.t <= ONE and ZERO < w.r <= ONE
        and point_satisfies(FuzzyPoint(w.x, w.t), mu, pair.alpha)
        and point_satisfies(FuzzyPoint(other, w.r), mu, pair.alpha)
        and not point_satisfies(FuzzyPoint(target, min(w.t, w.r)), mu, pair.beta)
    )
    return None if ok else f"{label}: witness {w} does not refute"


# ---------------------------------------------------------------- products

def naive_product(lam, mu, cap=ONE) -> tuple:
    """Grades of lam o mu (cap 1) or lam o05 mu (cap 1/2) by a full scan."""
    s = lam.structure
    best = [ZERO] * s.n
    for y in range(s.n):
        for c in range(s.k):
            for z in range(s.n):
                a = s.cayley[y][c][z]
                best[a] = max(best[a], min(lam.grades[y], mu.grades[z], cap))
    return tuple(best)


# ------------------------------------------------------- crisp structure

def is_hom(src, dst, mapping) -> bool:
    tg = [dst.gammas.index(name) for name in src.gammas]
    return all(
        mapping[src.cayley[x][c][y]] == dst.cayley[mapping[x]][tg[c]][mapping[y]]
        for x in range(src.n) for c in range(src.k) for y in range(src.n)
    )


def surjective_homs(src, dst) -> list:
    """Every surjective homomorphism src -> dst, as mappings in lex order."""
    if set(src.gammas) != set(dst.gammas):
        return []
    return [
        m for m in product(range(dst.n), repeat=src.n)
        if len(set(m)) == dst.n and is_hom(src, dst, m)
    ]


def count_bi_ideals(s) -> int:
    """Non-empty crisp bi-ideals A: A g A and A g S h A lie inside A."""
    reach = [[0] * s.n for _ in range(s.n)]
    for x in range(s.n):
        for y in range(s.n):
            for c in range(s.k):
                reach[x][y] |= 1 << s.cayley[x][c][y]
                for m in range(s.n):
                    for d in range(s.k):
                        reach[x][y] |= 1 << s.cayley[s.cayley[x][c][m]][d][y]
    count = 0
    for mask in range(1, 1 << s.n):
        members = [i for i in range(s.n) if mask >> i & 1]
        hit = 0
        for x in members:
            for y in members:
                hit |= reach[x][y]
        if not hit & ~mask:
            count += 1
    return count
