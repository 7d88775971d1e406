"""Decision procedures for the fuzzy subsemigroup/ideal predicates.

Every predicate is one scan over all products, the sandwiches x a y b z
through the structure's cached sets x Gamma S Gamma z: on integer-scaled
grades, the product w of x and z passes when key[w] >= bounds[x][z].  A scan
only picks its key and bounds: the plain and (in, in-or-q) closed forms are
the (in, in) and (in, invq) bounds, the one-sided ideals a bound on one
factor, and the generic (alpha, beta) decider the bound of its pair, which
quantifies over all point values t, r in (0,1].  On a failure one pass over
the cells of (0,1] that the grades cut out chooses only the (t, r) of an
(alpha, beta) witness, see the note above _first_failure.

All verdicts carry a witness when they are negative, chosen as the
lexicographically first failure in element / gamma / candidate-value order so
golden tests are deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import EmptyFuzzySubset, InvalidAlpha, UnknownPredicateName
from .fuzzy import (
    IN,
    IN_OR_Q,
    FuzzySubset,
    PointRelation,
    RelKind,
    _scaled,
    _scaled_pair,
)

__all__ = [
    "AlphaBetaPair",
    "PredicateVerdict",
    "Witness",
    "is_fuzzy_subsemigroup",
    "is_fuzzy_bi_ideal",
    "is_eq_subsemigroup",
    "is_eq_bi_ideal",
    "is_eq_one_sided_ideal",
    "is_eq_ideal",
    "subset_or_q",
    "is_alpha_beta_subsemigroup",
    "is_alpha_beta_bi_ideal",
    "check_by_name",
]


# beta*: x_t not-beta mu iff x_t beta* 1-mu (see the note above _first_failure)
_DUAL = {RelKind.IN: RelKind.Q, RelKind.Q: RelKind.IN,
         RelKind.IN_OR_Q: RelKind.IN_AND_Q, RelKind.IN_AND_Q: RelKind.IN_OR_Q}
# (alpha, plain beta) -> how U combines a and c, and the divisor of B capping it
_BOUND_RULES = {
    (RelKind.IN, RelKind.IN): (min, 1), (RelKind.IN, RelKind.IN_OR_Q): (min, 2),
    (RelKind.Q, RelKind.Q): (max, 1), (RelKind.Q, RelKind.IN_OR_Q): (max, 2),
    (RelKind.IN_OR_Q, RelKind.IN_OR_Q): (max, 2),
}
# x_t kind mu iff (t <= ends[i] or t > ends[j]) != flip, where (i, j, flip) =
# _INTERVALS[kind] and ends = (g, B - g, 0, B) for x of scaled grade g: in is
# t <= g, q is t > B - g, invq either, and inandq neither t <= B - g nor t > g.
_INTERVALS = {RelKind.IN: (0, 3, False), RelKind.Q: (2, 1, False),
              RelKind.IN_OR_Q: (0, 1, False), RelKind.IN_AND_Q: (1, 0, True)}


@dataclass(frozen=True)
class AlphaBetaPair:
    """(alpha, beta) with alpha in {in, q, invq}; beta may be any relation.

    The conjunction in-and-q is excluded as a premise (and negated premises
    are not part of the theory); negated beta is accepted by the decider.
    """

    alpha: PointRelation
    beta: PointRelation

    def __post_init__(self):
        if self.alpha.kind is RelKind.IN_AND_Q or self.alpha.negated:
            raise InvalidAlpha(f"alpha {self.alpha.token!r} not allowed")
        # What the deciders look up, resolved once and kept beside the fields
        # (so ==, hash and repr stay those of alpha and beta): whether beta is
        # decided as its dual, the bound rule, and the premise and conclusion
        # intervals of _INTERVALS.  Also whether the closed form sees mu only
        # through min(mu, 1/2): a rule capped at H on key mu, or the bound B
        # on key B - mu, which a product of the support meets only at grade 0.
        beta = _DUAL[self.beta.kind] if self.beta.negated else self.beta.kind
        rule = _BOUND_RULES.get((self.alpha.kind, beta))
        object.__setattr__(self, "_dual", self.beta.negated)
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "_half_capped", rule is None if self.beta.negated
                           else rule is not None and rule[1] == 2)
        object.__setattr__(self, "_premise", _INTERVALS[self.alpha.kind])
        object.__setattr__(self, "_conclusion", _INTERVALS[beta])

    @classmethod
    def parse(cls, text: str) -> "AlphaBetaPair":
        alpha, _, beta = text.partition(",")
        if not beta:
            raise InvalidAlpha(f"expected 'ALPHA,BETA', got {text!r}")
        return cls(PointRelation.parse(alpha), PointRelation.parse(beta))

    # The scans of the pair's closed form (see the note above _first_failure)
    # in subsemigroup and bi-ideal form; as bound methods they cost a decider
    # call less than a closure built on each call.
    def _sub_scan(self, s, g: Sequence[int], base: int) -> tuple | None:
        key, bounds = _product_bounds(self, g, base)
        return _first_failure(s, key, bounds, False)

    def _bi_scan(self, s, g: Sequence[int], base: int) -> tuple | None:
        key, bounds = _product_bounds(self, g, base)
        return _first_failure(s, key, bounds, True)


# Every refutation builds both, so each fills its fields in one update of the
# instance dict, past the frozen __setattr__ as fuzzy._scaled does.
@dataclass(frozen=True, init=False)
class Witness:
    """Refuting data: elements x, y (and z), the operation(s), optional t, r."""

    x: int
    y: int
    gamma: int
    z: int | None = None
    delta: int | None = None
    t: Fraction | None = None
    r: Fraction | None = None

    def __init__(self, x, y, gamma, z=None, delta=None, t=None, r=None):
        self.__dict__.update(x=x, y=y, gamma=gamma, z=z, delta=delta, t=t, r=r)


@dataclass(frozen=True, init=False)
class PredicateVerdict:
    holds: bool
    witness: Witness | None = None

    def __init__(self, holds, witness=None):
        if holds is not True and holds is not False:  # 1 and 0 would pass the check below
            raise ValueError(f"non-bool holds {holds!r}; pass True or False")
        if holds is (witness is not None):
            raise ValueError("witness must be present exactly when holds is false")
        self.__dict__.update(holds=holds, witness=witness)


_TRUE = PredicateVerdict(True)
_IN_IN, _IN_INVQ = AlphaBetaPair(IN, IN), AlphaBetaPair(IN, IN_OR_Q)


# Every predicate is one scan.  On mu's grades g scaled to a common even base
# B (H = B // 2 is 1/2), the product w of x and z passes when
# key[w] >= bounds[x][z], where w = x gamma y (z = y) in the pair shape and
# w = x a y b z in the sandwich; a bound of 0 makes the product vacuous.  A
# scan only picks key and bounds: scan(s, g, B) is the first failure
# _first_failure returns, or None exactly when the predicate holds, and
# _decide builds the verdict from it.  Every bound is homogeneous in (g, B),
# so the witness hunts and the bi-ideal sampler scan a vector v of the
# d-grid as 2v over base 2d, with no FuzzySubset.  The key is the scaled
# grade, and the bound of a = mu(x), c = mu(z) is 0 unless a, c > 0, and
# then: min(a, c) for (in,in), the plain forms; min(a, c, H) for (in,invq),
# the (in, in-or-q) forms; max(a, c) for (q,q); min(max(a, c), H) for
# (q,invq) and (invq,invq); B for the seven other pairs.  The one-sided
# ideals bound by min(c, H) (left) or min(a, H) (right) alone.  Negated beta
# is the dual: x_t not-beta mu iff x_t beta* 1-mu, beta* swapping in/q and
# invq/inandq, so (alpha, not-beta) decides as (alpha, beta*) on
# key(w) = B - mu(w).
#
# Tests pin each (alpha, beta) bound to the cell sampler, _failing_cell,
# which also picks the (t, r) of the witness on the first failing product.
# Its conditions compare t, r with mu(x), mu(z), mu(w), their complements or
# 1, so the implication is constant on the cells those breakpoints cut out
# of (0,1]; min(t, r) of two representatives represents the min cell.  Each
# relation is an interval test on one value (_INTERVALS): the premise
# x_t alpha mu is t <= p or t > q, and w_m beta mu fails iff p < m <= q,
# inverted for in-and-q, with negated beta its dual on B - mu(w).  Every
# end p, q is 0, 1 or a breakpoint, so a cell's midpoint passes the same
# tests as its breakpoint and, being lower, is the value a witness names.
# So one ascending pass over the sorted breakpoints, testing each cell's
# midpoint, finds the first failing (t, r).  The pair resolves these rules
# once, when it is built.  The scan loops stay inline because the witness
# hunts run them on many tiny grade vectors.


def _first_failure(s, key: Sequence[int], bounds: list, bi: bool) -> tuple | None:
    """The first failing (x, y, gamma), then with bi the first failing
    (x, y, a, z, b), in the pinned order, with its right factor and product
    w; None when every product passes."""
    cayley = s.cayley
    n, k = range(s.n), range(s.k)
    for x in n:
        ux, row = bounds[x], cayley[x]
        for y in n:
            u = ux[y]
            if not u:
                continue
            for gm in k:
                if key[w := row[gm][y]] < u:
                    return (x, y, gm), y, w
    if bi:
        # x a y b z ranges over the set s.sandwiches[x][z]: find the first x
        # with a failing product there, then rerun the ordered scan on that x
        x = next((x for x, (ux, sx) in enumerate(zip(bounds, s.sandwiches))
                  for u, ws in zip(ux, sx) if u for w in ws if key[w] < u), None)
        if x is None:
            return None
        ux, row = bounds[x], cayley[x]
        for y in n:
            for z in n:
                u = ux[z]
                if not u:
                    continue
                for a in k:
                    v = cayley[row[a][y]]
                    for b in k:
                        if key[w := v[b][z]] < u:
                            return (x, y, a, z, b), z, w
    return None


def subset_or_q(nu: FuzzySubset, mu: FuzzySubset) -> bool:
    """nu is contained in-or-q in mu: every point x_r of nu is in-or-q mu.

    Closed form: for all x, mu(x) >= min(nu(x), 1 - mu(x)).  The point
    quantification fails iff some r in (0, nu(x)] has mu(x) < r and
    mu(x) + r <= 1, i.e. iff the interval (mu(x), min(nu(x), 1 - mu(x))]
    is non-empty.
    """
    return _within_or_q(*_scaled_pair(nu, mu))


def _within_or_q(nu: list[int], mu: list[int], base: int) -> bool:
    """subset_or_q on grades scaled to one base."""
    return all(m >= v or m + m >= base for v, m in zip(nu, mu))


def _failing_cell(
    pair: AlphaBetaPair, base: int, gx: int, gz: int, gw: int
) -> tuple[int, int] | None:
    """First cell (t, r) with x_t, z_r alpha mu but not w_min(t,r) beta mu.

    gx, gz, gw are the scaled grades of x, z and the product w; None when
    the point implication holds for this product.  One ascending pass over
    the cells, each named by its midpoint m: t is the first premise cell
    that some premise r <= t refutes, with r the first such, or that
    refutes by itself, with r the first premise r > t.
    """
    i, j, _ = pair._premise  # the ends (g, B - g, 0, B) of _INTERVALS
    ex, ez = (gx, base - gx, 0, base), (gz, base - gz, 0, base)
    px, qx, pz, qz = ex[i], ex[j], ez[i], ez[j]
    i, j, flip = pair._conclusion
    ew = (base - gw, gw, 0, base) if pair._dual else (gw, base - gw, 0, base)
    pw, qw = ew[i], ew[j]
    t = r = None
    low = 0
    for b in sorted({gx, gz, gw, base - gx, base - gz, base - gw, base}):
        if not b:
            continue
        m, low = (low + b) // 2, b
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


def _product_bounds(
    pair: AlphaBetaPair, g: Sequence[int], base: int
) -> tuple[Sequence[int], list]:
    """key and bounds of the pair's closed form (see the note above
    _first_failure), for the scaled grades g: the product w of x and z fails
    exactly when key[w] < bounds[x][z]."""
    key = [base - v for v in g] if pair._dual else g
    rule = pair._rule
    if rule is None:  # U = B on the support: rows shared, as the scan only reads
        row, zero = [base if v else 0 for v in g], [0] * len(g)
        return key, [row if v else zero for v in g]
    combine, cap = rule[0], base // rule[1]
    c = [v if v < cap else cap for v in g]
    if combine is max:  # compared inline: this runs on every decider call
        return key, [[(a if a > b else b) if a and b else 0 for b in c] for a in c]
    return key, [[a if a < b else b for b in c] for a in c]


def _one_sided_scan(left: bool) -> Callable:
    """The scan of the left or the right (in, in-or-q) ideal: x gamma y is
    bounded by min(mu(y), 1/2) or by min(mu(x), 1/2)."""

    def scan(s, g, base):
        half = base // 2
        c = [v if v < half else half for v in g]
        bounds = [c] * len(c) if left else [[v] * len(c) for v in c]
        return _first_failure(s, g, bounds, False)

    return scan


_LEFT, _RIGHT = _one_sided_scan(True), _one_sided_scan(False)

# name -> scan; the (alpha, beta) names resolve by pattern
_SCANS = {
    "fuzzy-subsemigroup": _IN_IN._sub_scan,
    "fuzzy-bi-ideal": _IN_IN._bi_scan,
    "eq-subsemigroup": _IN_INVQ._sub_scan,
    "eq-bi-ideal": _IN_INVQ._bi_scan,
    "eq-left-ideal": _LEFT,
    "eq-right-ideal": _RIGHT,
    "eq-ideal": lambda s, g, base: _LEFT(s, g, base) or _RIGHT(s, g, base),
}
_A, _B, _FORM = "(in|q|invq)", "((?:not-)?(?:in|q|invq|inandq))", "(subsemigroup|bi-ideal)"


def _decide(mu: FuzzySubset, scan: Callable, pair: AlphaBetaPair | None = None) -> PredicateVerdict:
    """The verdict of scan on mu's scaled grades, refusing the zero fuzzy
    subset; with an (alpha, beta) pair, the witness also carries the first
    failing cell (t, r) of the first failing product."""
    g, base = _scaled(mu)
    if not any(g):
        raise EmptyFuzzySubset("the zero fuzzy subset is excluded")
    failure = scan(mu.structure, g, base)
    if failure is None:
        return _TRUE
    where, z, w = failure
    if pair is None:
        return PredicateVerdict(False, Witness(*where))
    t, r = _failing_cell(pair, base, g[where[0]], g[z], g[w])
    ft = Fraction(t, base)
    fr = ft if r == t else Fraction(r, base)  # r == t in most refutations
    return PredicateVerdict(False, Witness(*where, t=ft, r=fr))


def is_fuzzy_subsemigroup(mu: FuzzySubset) -> PredicateVerdict:
    """mu(x g y) >= min(mu(x), mu(y)) for all x, y, g."""
    return _decide(mu, _SCANS["fuzzy-subsemigroup"])


def is_fuzzy_bi_ideal(mu: FuzzySubset) -> PredicateVerdict:
    """Fuzzy subsemigroup with mu(x a y b z) >= min(mu(x), mu(z))."""
    return _decide(mu, _SCANS["fuzzy-bi-ideal"])


def is_eq_subsemigroup(mu: FuzzySubset) -> PredicateVerdict:
    """mu(x g y) >= min(mu(x), mu(y), 1/2) for all x, y, g.

    Pairs outside the support are vacuous (the bound is 0 there), so this is
    the closed form of the (in, in-or-q) subsemigroup predicate.
    """
    return _decide(mu, _SCANS["eq-subsemigroup"])


def is_eq_bi_ideal(mu: FuzzySubset) -> PredicateVerdict:
    """is_eq_subsemigroup plus mu(x a y b z) >= min(mu(x), mu(z), 1/2)."""
    return _decide(mu, _SCANS["eq-bi-ideal"])


def is_eq_one_sided_ideal(mu: FuzzySubset, side: str) -> PredicateVerdict:
    """Left: mu(x g y) >= min(mu(y), 1/2).  Right: >= min(mu(x), 1/2)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _decide(mu, _LEFT if side == "left" else _RIGHT)


def is_eq_ideal(mu: FuzzySubset) -> PredicateVerdict:
    """Left and right (in, in-or-q) ideal; a failing left scan is the witness."""
    return _decide(mu, _SCANS["eq-ideal"])


def is_alpha_beta_subsemigroup(mu: FuzzySubset, pair: AlphaBetaPair) -> PredicateVerdict:
    """x_t, y_r alpha mu implies (x g y)_min(t,r) beta mu, for all t, r.

    Decided exactly by one closed-form bound per product (see the note
    above _first_failure); the witness carries the first failing cell (t, r)
    of the first failing product.
    """
    return _decide(mu, pair._sub_scan, pair)


def is_alpha_beta_bi_ideal(mu: FuzzySubset, pair: AlphaBetaPair) -> PredicateVerdict:
    """The subsemigroup predicate plus its triple form on x_t, z_r."""
    return _decide(mu, pair._bi_scan, pair)


def _resolve_predicate(name: str) -> tuple[Callable, AlphaBetaPair | None, bool]:
    """The scan a predicate name stands for, its (alpha, beta) pair, None
    for the seven named forms, and whether its verdict depends on mu only
    through min(mu, 1/2): check_by_name is _decide(mu, scan, pair).  '_' and
    '-' spell alike.

    Names, lower case only: fuzzy-subsemigroup, fuzzy-bi-ideal,
    eq-subsemigroup, eq-bi-ideal, eq-left-ideal, eq-right-ideal, eq-ideal,
    and the (alpha, beta) forms ab-subsemigroup:A,B and ab-bi-ideal:A,B, also
    written A-B-subsemigroup and A-B-bi-ideal, with A one of in, q, invq and
    B one of in, q, invq, inandq, optionally not- negated.
    """
    spelled = name.replace("_", "-")
    if spelled in _SCANS:
        # the five (in, in-or-q) forms bound every product by 1/2 at most
        return _SCANS[spelled], None, spelled.startswith("eq-")
    if m := re.fullmatch(f"ab-{_FORM}:{_A},{_B}", spelled):
        form, alpha, beta = m.groups()
    elif m := re.fullmatch(f"{_A}-{_B}-{_FORM}", spelled):
        alpha, beta, form = m.groups()
    else:
        raise UnknownPredicateName(f"unknown predicate name {name!r}")
    pair = AlphaBetaPair.parse(f"{alpha},{beta}")
    return (pair._bi_scan if form == "bi-ideal" else pair._sub_scan), pair, pair._half_capped


def check_by_name(name: str, mu: FuzzySubset) -> PredicateVerdict:
    """Decide the named predicate for mu (names as in _resolve_predicate)."""
    scan, pair, _ = _resolve_predicate(name)
    return _decide(mu, scan, pair)
