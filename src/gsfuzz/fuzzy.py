"""Exact-rational fuzzy subsets over a finite Gamma-semigroup.

Membership grades are fractions.Fraction values in [0,1].  Exactness matters:
the point relations mix a non-strict comparison (membership, mu(x) >= t) with
a strict one (quasi-coincidence, mu(x) + t > 1), and floating point would
corrupt verdicts right at the 0.5 boundaries the theory revolves around.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    EmptyFamily,
    InvalidGrade,
    InvalidThreshold,
    StructureMismatch,
    UnknownElement,
)
from .structure import CrispSubset, GammaSemigroup

Grade = Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

GradeLike = Union[Fraction, int, str]


def as_grade(value: GradeLike) -> Fraction:
    """Coerce to an exact Fraction in [0,1]; decimals parse exactly."""
    try:
        g = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidGrade(f"not an exact rational: {value!r}") from exc
    if not ZERO <= g <= ONE:
        raise InvalidGrade(f"grade {g} outside [0,1]")
    return g


class RelKind(enum.Enum):
    IN = "in"
    Q = "q"
    IN_OR_Q = "invq"
    IN_AND_Q = "inandq"


@dataclass(frozen=True)
class PointRelation:
    """One of the four point/set relations, optionally negated (overlined)."""

    kind: RelKind
    negated: bool = False

    @classmethod
    def parse(cls, token: str) -> "PointRelation":
        token = token.strip().lower()
        negated = token.startswith("not-")
        if negated:
            token = token[4:]
        try:
            return cls(RelKind(token), negated)
        except ValueError:
            raise ValueError(f"unknown relation token {token!r}") from None

    @property
    def token(self) -> str:
        return ("not-" if self.negated else "") + self.kind.value


IN = PointRelation(RelKind.IN)
Q = PointRelation(RelKind.Q)
IN_OR_Q = PointRelation(RelKind.IN_OR_Q)
IN_AND_Q = PointRelation(RelKind.IN_AND_Q)


@dataclass(frozen=True)
class FuzzyPoint:
    """x_t: the fuzzy subset with value t > 0 at x and 0 elsewhere."""

    support: int
    value: Fraction

    def __post_init__(self):
        if not ZERO < self.value <= ONE:
            raise InvalidGrade(f"point value {self.value} outside (0,1]")


@dataclass(frozen=True)
class FuzzySubset:
    """Total grade assignment over a structure's carrier."""

    structure: GammaSemigroup
    grades: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.grades) != self.structure.n:
            raise InvalidGrade("one grade per carrier element required")
        for g in self.grades:
            # a Fraction's denominator is positive, so this is 0 <= g <= 1
            if not isinstance(g, Fraction) or not 0 <= g.numerator <= g.denominator:
                raise InvalidGrade(f"grade {g!r} outside [0,1]")

    @classmethod
    def from_mapping(
        cls, structure: GammaSemigroup, grades: Mapping[str, GradeLike]
    ) -> "FuzzySubset":
        """Build from element-name -> grade; unlisted elements get 0."""
        vec = [ZERO] * structure.n
        for name, value in grades.items():
            if name not in structure.element_index:
                raise UnknownElement(f"unknown element {name!r}")
            vec[structure.element_index[name]] = as_grade(value)
        return cls(structure, tuple(vec))

    def __getitem__(self, x: int) -> Fraction:
        return self.grades[x]

    def grade_of(self, name: str) -> Fraction:
        idx = self.structure.element_index.get(name)
        if idx is None:
            raise UnknownElement(f"unknown element {name!r}")
        return self.grades[idx]

    @property
    def is_zero(self) -> bool:
        return all(g == ZERO for g in self.grades)


def _same_structure(*subsets: FuzzySubset) -> GammaSemigroup:
    s = subsets[0].structure
    for other in subsets[1:]:
        if other.structure != s:
            raise StructureMismatch("operands live over different structures")
    return s


def point_satisfies(point: FuzzyPoint, mu: FuzzySubset, rel: PointRelation) -> bool:
    """x_t in mu iff mu(x) >= t; x_t q mu iff mu(x) + t > 1; or/and combine."""
    if not 0 <= point.support < mu.structure.n:
        raise UnknownElement(f"element index {point.support} out of range")
    g, t = mu.grades[point.support], point.value
    belongs = g >= t
    quasi = g + t > ONE
    if rel.kind is RelKind.IN:
        result = belongs
    elif rel.kind is RelKind.Q:
        result = quasi
    elif rel.kind is RelKind.IN_OR_Q:
        result = belongs or quasi
    else:
        result = belongs and quasi
    return not result if rel.negated else result


def support(mu: FuzzySubset) -> CrispSubset:
    return frozenset(i for i, g in enumerate(mu.grades) if g > ZERO)


@dataclass(frozen=True)
class LevelSets:
    u: CrispSubset        # {x : mu(x) >= t}
    q: CrispSubset        # {x : mu(x) + t > 1}
    bracket: CrispSubset  # union of the two


def level_sets(mu: FuzzySubset, t: GradeLike) -> LevelSets:
    t = Fraction(t)
    if not ZERO < t <= ONE:
        raise InvalidThreshold(f"threshold {t} outside (0,1]")
    u = frozenset(i for i, g in enumerate(mu.grades) if g >= t)
    q = frozenset(i for i, g in enumerate(mu.grades) if g + t > ONE)
    return LevelSets(u, q, u | q)


def _sup_min(lam: FuzzySubset, mu: FuzzySubset, cap: Fraction) -> FuzzySubset:
    """a -> max over factorizations a = y g z of min(lam(y), mu(z), cap).

    The sup is over a finite carrier, hence a max; elements with no
    factorization get 0.
    """
    s = _same_structure(lam, mu)
    left = [min(g, cap) for g in lam.grades]
    right = [min(g, cap) for g in mu.grades]
    return FuzzySubset(s, tuple(
        max((min(left[y], right[z]) for y, z in pairs), default=ZERO)
        for pairs in s.factor_pairs
    ))


def o_product(lam: FuzzySubset, mu: FuzzySubset) -> FuzzySubset:
    """(lam o mu)(a) = max over factorizations a = y g z of min(lam(y), mu(z))."""
    return _sup_min(lam, mu, ONE)


def o05_product(mu1: FuzzySubset, mu2: FuzzySubset) -> FuzzySubset:
    """0.5-product: every factorization min additionally capped at 1/2."""
    return _sup_min(mu1, mu2, HALF)


def cap05(mu1: FuzzySubset, mu2: FuzzySubset) -> FuzzySubset:
    """Pointwise min(mu1(x), mu2(x), 1/2)."""
    s = _same_structure(mu1, mu2)
    return FuzzySubset(s, tuple(min(a, b, HALF) for a, b in zip(mu1.grades, mu2.grades)))


def pointwise_family(op: str, family: Sequence[FuzzySubset]) -> FuzzySubset:
    """Pointwise min (intersection) or max (union) of a non-empty family."""
    if op not in ("min", "max"):
        raise ValueError("op must be 'min' or 'max'")
    family = list(family)
    if not family:
        raise EmptyFamily("family must be non-empty")
    s = _same_structure(*family)
    combine = min if op == "min" else max
    grades = tuple(combine(m.grades[i] for m in family) for i in range(s.n))
    return FuzzySubset(s, grades)


def characteristic(structure: GammaSemigroup, members: Iterable[int]) -> FuzzySubset:
    members = frozenset(members)
    return FuzzySubset(
        structure, tuple(ONE if i in members else ZERO for i in range(structure.n))
    )


def constant(
    structure: GammaSemigroup, value: GradeLike, on: Iterable[int] | None = None
) -> FuzzySubset:
    """Grade c on the given subset (default: the whole carrier), 0 elsewhere."""
    c = as_grade(value)
    if on is None:
        return FuzzySubset(structure, (c,) * structure.n)
    on = frozenset(on)
    return FuzzySubset(
        structure, tuple(c if i in on else ZERO for i in range(structure.n))
    )


def pointwise_leq(lo: FuzzySubset, hi: FuzzySubset) -> bool:
    _same_structure(lo, hi)
    return all(a <= b for a, b in zip(lo.grades, hi.grades))


def critical_thresholds(mu: FuzzySubset) -> tuple[Fraction, ...]:
    """Finite threshold set on which every t-indexed predicate is decided.

    Every comparison a threshold t meets has the shape t <= c or t > c with c
    a grade, a complemented grade, 1/2 or 1; so such predicates are constant
    on the cells these breakpoints cut out of (0,1].  The returned values are
    the breakpoints themselves plus a representative of every open cell (the
    midpoint of each consecutive pair and of the gap below the smallest).
    """
    points = {g for g in mu.grades} | {ONE - g for g in mu.grades} | {HALF, ONE}
    breaks = sorted(v for v in points if ZERO < v <= ONE)
    cells = set(breaks)
    cells.add(breaks[0] / 2)
    cells.update((a + b) / 2 for a, b in zip(breaks, breaks[1:]))
    return tuple(sorted(cells))
