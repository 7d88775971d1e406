"""Level cuts: the checks that read a fuzzy subset through its cuts U(mu; t).

Every verdict depends on mu only through its order type (see
test_order_types.py), so a grid 2n + 2 vector of each type stands for every
real-valued mu on the structures scanned.  Checked here on those types:
- `theorems._cuts_are` visits each distinct non-empty cut once, and the
  same cuts, with the same verdicts, as the critical-threshold oracle reading
  either the cuts U(mu; r), r <= 1/2, or the sets [mu]_t = U(mu; t) | Q(mu; t),
  0 < t <= 1: the two families are equal;
- the sample vetting of thm4.28 and thm4.29 rejects exactly the samples
  `is_eq_bi_ideal` rejects;
- for an (in, in-or-q) bi-ideal mu, mu o05 1 o05 mu = mu meet 1/2 holds
  exactly when every non-empty cut U(mu; t), t <= 1/2, satisfies
  A Gamma S Gamma A = A, and mu o05 mu = mu meet 1/2 exactly when every
  such cut satisfies A Gamma A = A.  So the thm4.28 and thm4.29(2)
  identities hold for every fuzzy bi-ideal exactly when they hold for every
  crisp one.
"""

from fractions import Fraction as F

import pytest

from gsfuzz import (
    FuzzySubset,
    constant,
    is_eq_bi_ideal,
    report_regular_intra_characterization,
    report_regularity_characterization,
)
from gsfuzz.errors import EmptyFuzzySubset, SampleNotBiIdeal, StructureMismatch
from gsfuzz.search import _order_types
from gsfuzz.structure import is_bi_ideal, is_subsemigroup
from gsfuzz.theorems import _cuts_are

from corpus import exhaustive, modular
from oracles import _gamma_set, cuts_are_at_criticals

K1_CORPUS = exhaustive(1, 1) + exhaustive(2, 1) + exhaustive(3, 1)


def _typed(s) -> list:
    """A fuzzy subset of every order type, grades v / (2n + 2)."""
    grid = 2 * s.n + 2
    steps = [F(v, grid) for v in range(grid + 1)]
    return [FuzzySubset(s, tuple(steps[v] for v in vec)) for vec in _order_types(s.n, grid)]


def _visited(cuts_are, mu, *bracket: bool) -> list:
    cuts = []
    cuts_are(mu, lambda s, cut: cuts.append(cut) is None, *bracket)
    return cuts


def test_cuts_are_visits_each_distinct_cut_once():
    # the cuts depend on the grades only, so one structure per n will do
    for n in (1, 2, 3, 4):
        for mu in _typed(modular(n, (1,))):
            new = _visited(_cuts_are, mu)
            assert len(new) == len(set(new)), mu.grades
            for bracket in (False, True):
                assert set(new) == set(_visited(cuts_are_at_criticals, mu, bracket)), (
                    mu.grades, bracket)


def test_cuts_are_verdicts_match_critical_thresholds():
    structures = exhaustive(2, 1) + exhaustive(2, 2) + exhaustive(3, 1)[::8]
    seen = set()
    for s in structures:
        for mu in _typed(s):
            for check in (is_subsemigroup, is_bi_ideal):
                got = _cuts_are(mu, check)
                for bracket in (False, True):
                    assert got == cuts_are_at_criticals(mu, check, bracket), (
                        s.cayley, mu.grades, check.__name__, bracket)
                seen.add((check, got))
    assert len(seen) == 4


def _grades(mu) -> str:
    return " ".join(map(str, mu.grades))


def test_sample_vetting_rejects_exactly_the_non_bi_ideals():
    rejected = 0
    for s in K1_CORPUS:
        typed = [(mu, is_eq_bi_ideal(mu).holds) for mu in _typed(s)]
        accepted = [mu for mu, holds in typed if holds]
        for report in (report_regularity_characterization, report_regular_intra_characterization):
            assert report(s, accepted).agree
        for mu in (mu for mu, holds in typed if not holds):
            rejected += 1
            with pytest.raises(SampleNotBiIdeal) as exc:
                report_regularity_characterization(s, [mu])
            assert str(exc.value) == f"sample with grades {_grades(mu)}"
    assert rejected > 10_000


def test_sample_vetting_order_and_messages(ex34, ex427):
    s, other = ex427.structure, ex34.fuzzy["mu"]
    zero = constant(s, 0)
    bad = FuzzySubset.from_mapping(ex34.structure, {"e": "0.1", "a": "0.9", "b": "0.9"})
    good = ex427.fuzzy["mu"]
    for report in (report_regularity_characterization, report_regular_intra_characterization):
        # each sample is vetted in turn: structure, then zero, then its cuts
        with pytest.raises(StructureMismatch, match="^sample does not live over the structure$"):
            report(s, [good, other, zero])
        with pytest.raises(EmptyFuzzySubset, match="^the zero fuzzy subset is excluded$"):
            report(s, [good, zero, other])
        with pytest.raises(SampleNotBiIdeal, match=f"^sample with grades {_grades(bad)}$"):
            report(ex34.structure, [ex34.fuzzy["mu"], bad, constant(ex34.structure, 0)])


def _o05_by_scan(s, a: list, b: list, cap: int) -> list:
    """a o05 b on integer grades with 1/2 = cap, over every (x, gamma, y)."""
    out = [0] * s.n
    for x in range(s.n):
        for g in range(s.k):
            for y in range(s.n):
                w = s.op(x, g, y)
                out[w] = max(out[w], min(a[x], b[y], cap))
    return out


def test_product_identities_reduce_to_crisp_cuts():
    seen = set()
    for s in K1_CORPUS:
        carrier, grid = range(s.n), 2 * s.n + 2
        half = grid // 2
        crisp = {}  # cut -> (A Gamma S Gamma A == A, A Gamma A == A)
        for mu in _typed(s):
            if not is_eq_bi_ideal(mu).holds:
                continue
            v = [int(g * grid) for g in mu.grades]
            meet = [min(x, half) for x in v]
            sandwich = _o05_by_scan(s, _o05_by_scan(s, v, [grid] * s.n, half), v, half)
            square = _o05_by_scan(s, v, v, half)
            cuts = {frozenset(i for i in carrier if v[i] >= t) for t in range(1, half + 1)}
            flags = []
            for a in cuts - {frozenset()}:
                if a not in crisp:
                    crisp[a] = (
                        _gamma_set(s, _gamma_set(s, a, carrier), a) == a,
                        _gamma_set(s, a, a) == a,
                    )
                flags.append(crisp[a])
            got = (sandwich == meet, square == meet)
            assert got == (all(f for f, _ in flags), all(f for _, f in flags)), (
                s.cayley, mu.grades)
            seen.add(got)
    # each identity was seen both holding and failing
    assert {a for a, _ in seen} == {b for _, b in seen} == {True, False}
