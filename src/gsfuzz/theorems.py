"""Machine verification of the equivalence and characterization theorems.

Each report evaluates the listed conditions of one named theorem and records
whether all condition flags agree; thm3.2's and thm3.5's forms (1) and (2)
share one closed-form scan.  A disagreement is either a build error or a
genuine counterexample, so reports carry the refuting data.  thm4.23 and
thm4.24 read the same level cuts as thm3.2(5) and thm3.5(5).

thm4.28 and thm4.29 quantify over all fuzzy bi-ideals and are decided exactly
on the crisp ones: functions capped at 1/2 are equal when their cuts at every
t <= 1/2 are, the cuts of o05 products and of cap05 are the Gamma products and
intersections of the cuts U(mu; t), and those of an (in, in-or-q) bi-ideal
are crisp bi-ideals (thm3.5(5)), whose characteristic functions are ones.
The bi-ideals <X> = X | X Gamma X | X Gamma S Gamma X, |X| <= 2, decide both:
<X> is the least bi-ideal holding X, so an element that breaks an identity on
some A, B breaks it on the <X> of the one or two elements involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyFuzzySubset, SampleNotBiIdeal, StructureMismatch
from .fuzzy import ZERO, FuzzySubset, _scaled, _sup_min_scaled
from .predicates import _within_or_q, is_eq_bi_ideal, is_eq_subsemigroup
from .structure import (
    GammaSemigroup,
    Homomorphism,
    _gamma_product,
    is_bi_ideal,
    is_intra_regular,
    is_regular,
    is_subsemigroup,
)


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    condition_flags: tuple[bool, ...]
    agree: bool
    discrepancy: tuple[tuple[int, ...], str] | None = None

    def __post_init__(self):
        consistent = all(self.condition_flags) or not any(self.condition_flags)
        if self.agree != consistent:
            raise ValueError("agree must match the condition flags")
        if self.agree != (self.discrepancy is None):
            raise ValueError("discrepancy must be present exactly when flags disagree")


def _report(theorem_id: str, flags: Sequence[bool], detail: str | FuzzySubset) -> TheoremReport:
    """detail is the text, or a fuzzy subset to format only on a disagreement."""
    flags = tuple(flags)
    if all(flags) or not any(flags):
        return TheoremReport(theorem_id, flags, True)
    minority = sum(flags) * 2 <= len(flags)
    indices = tuple(i for i, f in enumerate(flags) if f is minority)
    detail = _grades_detail(detail) if isinstance(detail, FuzzySubset) else detail
    return TheoremReport(theorem_id, flags, False, (indices, detail))


def _grades_detail(mu: FuzzySubset) -> str:
    return " ".join(str(g) for g in mu.grades)


def _cuts_are(mu: FuzzySubset, check) -> bool:
    """check holds on every distinct non-empty U(mu; r), 0 < r <= 1/2, each the
    cut at the least min(g, 1/2) >= r.  These are also the non-empty sets
    [mu]_t = U(mu; t) | Q(mu; t), 0 < t <= 1: for t <= 1/2, Q(mu; t) lies in
    U(mu; t); for t > 1/2, [mu]_t = {mu > 1 - t}, the cut at the least
    min(g, 1/2) above 1 - t."""
    g, base = _scaled(mu)
    ts = {min(v, base // 2) for v in g} - {0}
    cuts = {frozenset([i for i, v in enumerate(g) if v >= t]) for t in ts}
    return all(check(mu.structure, cut) for cut in cuts if cut)


def _sandwich_sup(s: GammaSemigroup, g: list[int], cap: int) -> list[int]:
    """w -> max of min(g[x], g[z], cap) over the (x, z) with w in x Gamma S
    Gamma z, 0 when there is none: g o 1 o g capped at cap, since sup-min
    distributes over the middle factor's max."""
    out = [0] * s.n
    for x, sx in enumerate(s.sandwiches):
        top = g[x] if g[x] < cap else cap
        for z, ws in enumerate(sx):
            v = g[z] if g[z] < top else top
            for w in ws:
                if v > out[w]:
                    out[w] = v
    return out


def report_subsemigroup_equivalences(mu: FuzzySubset) -> TheoremReport:
    """thm3.2: five equivalent forms of the (in, in-or-q) subsemigroup predicate.

    (1) the point-implication form and (2) the 1/2-capped inequality, one
        closed-form scan that decides both;
    (3) mu o mu is contained in-or-q in mu;
    (4) mu o mu capped at 1/2 <= mu pointwise;
    (5) every non-empty level set U(mu; r), r <= 1/2, is a subsemigroup.
    """
    s = mu.structure
    closed_form = is_eq_subsemigroup(mu).holds
    g, base = _scaled(mu)
    square = _sup_min_scaled(s, g, g, base)
    flags = (
        closed_form,
        closed_form,
        _within_or_q(square, g, base),
        # The cap is the constant 1/2, not 1/2 on the support of mu: a product
        # can land outside the support, where a support cap zeroes the
        # condition out (take the characteristic function of the identity in
        # the 2-element group), and the five-way equivalence would fail.
        all(min(v, base // 2) <= m for v, m in zip(square, g)),
        _cuts_are(mu, is_subsemigroup),
    )
    return _report("thm3.2", flags, mu)


def report_bi_ideal_equivalences(mu: FuzzySubset) -> TheoremReport:
    """thm3.5: the bi-ideal analogue, middle factor the characteristic of S.

    (1) and (2) are one closed-form scan, as in thm3.2.  The theorem is
    scoped to (in, in-or-q) subsemigroups, so the product conditions (3) and
    (4) are taken in conjunction with that hypothesis; (1), (2) and (5) carry
    it already.
    """
    s = mu.structure
    verdict = is_eq_bi_ideal(mu)
    # the scan tries every pair product first: a sandwich witness means they all passed
    hypothesis = verdict.holds or verdict.witness.z is not None
    g, base = _scaled(mu)
    triple = _sandwich_sup(s, g, base)
    flags = (
        verdict.holds,
        verdict.holds,
        hypothesis and _within_or_q(triple, g, base),
        # constant 1/2 cap, as in thm3.2
        hypothesis and all(min(v, base // 2) <= m for v, m in zip(triple, g)),
        _cuts_are(mu, is_bi_ideal),
    )
    return _report("thm3.5", flags, mu)


def report_level_characterization(mu: FuzzySubset, kind: str = "subsemigroup") -> TheoremReport:
    """thm4.23 / thm4.24: the predicate holds iff every non-empty [mu]_t does.

    [mu]_t = U(mu;t) union Q(mu;t), t in (0,1]: the cuts U(mu; r), r <= 1/2,
    of thm3.2(5) and thm3.5(5) (see _cuts_are).
    """
    if kind == "subsemigroup":
        theorem_id, pred, crisp = "thm4.23", is_eq_subsemigroup, is_subsemigroup
    elif kind == "bi_ideal":
        theorem_id, pred, crisp = "thm4.24", is_eq_bi_ideal, is_bi_ideal
    else:
        raise ValueError("kind must be 'subsemigroup' or 'bi_ideal'")
    flags = (pred(mu).holds, _cuts_are(mu, crisp))
    return _report(theorem_id, flags, mu)


def report_product_characterization(mu: FuzzySubset, kind: str = "subsemigroup") -> TheoremReport:
    """thm4.25: eq-subsemigroup iff mu o05 mu <= mu.

    thm4.26: eq-bi-ideal iff mu o05 mu <= mu and mu o05 1 o05 mu <= mu.
    """
    if kind not in ("subsemigroup", "bi_ideal"):
        raise ValueError("kind must be 'subsemigroup' or 'bi_ideal'")
    s = mu.structure
    g, base = _scaled(mu)
    square_ok = all(v <= m for v, m in zip(_sup_min_scaled(s, g, g, base // 2), g))
    if kind == "subsemigroup":
        return _report("thm4.25", (is_eq_subsemigroup(mu).holds, square_ok), mu)
    sandwich_ok = all(v <= m for v, m in zip(_sandwich_sup(s, g, base // 2), g))
    return _report("thm4.26", (is_eq_bi_ideal(mu).holds, square_ok and sandwich_ok), mu)


def image(f: Homomorphism, mu: FuzzySubset) -> FuzzySubset:
    """f(mu)(x') = max of mu over the fiber of x'; empty fibers get 0."""
    if mu.structure != f.source:
        raise StructureMismatch("fuzzy subset does not live over the source")
    grades = [ZERO] * f.target.n
    for x, g in enumerate(mu.grades):
        xi = f.mapping[x]
        if g > grades[xi]:
            grades[xi] = g
    return FuzzySubset(f.target, tuple(grades))


def preimage(f: Homomorphism, mu_prime: FuzzySubset) -> FuzzySubset:
    """f^{-1}(mu')(x) = mu'(f(x))."""
    if mu_prime.structure != f.target:
        raise StructureMismatch("fuzzy subset does not live over the target")
    return FuzzySubset(f.source, tuple(mu_prime.grades[f.mapping[x]] for x in range(f.source.n)))


def is_f_invariant(mu: FuzzySubset, f: Homomorphism) -> bool:
    """mu is constant on every fiber of f."""
    if mu.structure != f.source:
        raise StructureMismatch("fuzzy subset does not live over the source")
    seen: dict = {}
    for x, g in enumerate(mu.grades):
        prev = seen.setdefault(f.mapping[x], g)
        if prev != g:
            return False
    return True


def _bi_ideals(s: GammaSemigroup, samples: Iterable[FuzzySubset]) -> list[frozenset]:
    """The bi-ideals <X>, 1 <= |X| <= 2, in first-seen order, once each sample
    is vetted: over s, non-zero, every non-empty cut at r <= 1/2 a bi-ideal."""
    gens = (frozenset((x, y)) for x in range(s.n) for y in range(x, s.n))
    known = dict.fromkeys(
        g.union(_gamma_product(s, g, g), *(s.sandwiches[u][v] for u in g for v in g)) for g in gens
    )
    for mu in samples:
        if mu.structure != s:
            raise StructureMismatch("sample does not live over the structure")
        if mu.is_zero:
            raise EmptyFuzzySubset("the zero fuzzy subset is excluded")
        if not _cuts_are(mu, lambda _, cut: cut in known or is_bi_ideal(s, cut)):
            raise SampleNotBiIdeal(f"sample with grades {_grades_detail(mu)}")
    return list(known)


def report_regularity_characterization(
    s: GammaSemigroup, fuzzy_samples: Iterable[FuzzySubset] = ()
) -> TheoremReport:
    """thm4.28: regular iff mu o05 1 o05 mu = mu meet 0.5_S for bi-ideals mu,
    decided as A Gamma S Gamma A = A on the crisp bi-ideals A = <X>, |X| <= 2.
    The samples are only vetted: they cannot change a flag."""
    equal = all(
        {w for x in a for z in a for w in s.sandwiches[x][z]} == a
        for a in _bi_ideals(s, fuzzy_samples)
    )
    return _report("thm4.28", (is_regular(s), equal), f"n={s.n} k={s.k}")


def report_regular_intra_characterization(
    s: GammaSemigroup, fuzzy_samples: Iterable[FuzzySubset] = ()
) -> TheoremReport:
    """thm4.29: regular and intra-regular iff (2) iff (3), on the <X>, |X| <= 2.

    (2) mu o05 mu = mu meet 0.5_S for every bi-ideal mu: A Gamma A = A;
    (3) mu cap05 nu = (mu o05 nu) cap05 (nu o05 mu) for every pair of them:
        A & B = A Gamma B & B Gamma A for crisp A <= B, A = B included.
    The samples are only vetted: they cannot change a flag.
    """
    bis = _bi_ideals(s, fuzzy_samples)
    squares_ok = all(_gamma_product(s, a, a) == a for a in bis)
    pairs_ok = all(
        a & b == _gamma_product(s, a, b) & _gamma_product(s, b, a)
        for i, a in enumerate(bis) for b in bis[i:]
    )
    flags = (is_regular(s) and is_intra_regular(s), squares_ok, pairs_ok)
    return _report("thm4.29", flags, f"n={s.n} k={s.k}")
