"""Exact-rational fuzzy subsets over a finite Gamma-semigroup.

Membership grades are fractions.Fraction values in [0,1]; deciders, products
and theorem reports compare them as integers on one common even base
(_scaled), where 1/2 and every threshold midpoint are exact.  Floats would
corrupt verdicts at the 0.5 boundaries the theory revolves around, where the
point relations mix mu(x) >= t with the strict mu(x) + t > 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    EmptyFamily,
    InvalidGrade,
    InvalidThreshold,
    StructureMismatch,
    UnknownElement,
)
from .structure import CrispSubset, GammaSemigroup, _check_subset

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

GradeLike = Union[Fraction, int, str]


def _exact(value, noun: str, error: type, accepted: str = "a str, int or Fraction") -> Fraction:
    """value as an exact Fraction, refused with error when it is a float, a
    bool or no rational; noun names it in the messages."""
    if isinstance(value, float):  # 0.1 is 3602879701896397/2**55, not 1/10
        raise error(f"float {noun} {value!r} is inexact; pass {accepted}")
    if isinstance(value, bool):  # bool is an int: True would read as 1
        raise error(f"bool {noun} {value!r}; pass {accepted}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise error(f"not an exact rational: {value!r}") from exc


def as_grade(value: GradeLike) -> Fraction:
    """Coerce to an exact Fraction in [0,1]; decimals parse exactly."""
    g = _exact(value, "grade", InvalidGrade)
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
        kind = token.strip().lower()
        negated = kind.startswith("not-")
        if negated:
            kind = kind[4:]
        try:
            return cls(RelKind(kind), negated)
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
        value = _exact(self.value, "point value", InvalidGrade, "a Fraction")
        if not ZERO < value <= ONE:
            raise InvalidGrade(f"point value {value} outside (0,1]")
        object.__setattr__(self, "value", value)  # past the frozen __setattr__


@dataclass(frozen=True)
class FuzzySubset:
    """Total grade assignment over a structure's carrier."""

    structure: GammaSemigroup
    grades: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.grades) is not tuple:  # a caller's list must not alias the grades
            object.__setattr__(self, "grades", tuple(self.grades))
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

    def grade_of(self, name: str) -> Fraction:
        idx = self.structure.element_index.get(name)
        if idx is None:
            raise UnknownElement(f"unknown element {name!r}")
        return self.grades[idx]

    @property
    def is_zero(self) -> bool:
        return not any(self.grades)  # a Fraction is falsy exactly when it is 0


def _same_structure(*subsets: FuzzySubset) -> GammaSemigroup:
    s = subsets[0].structure
    for other in subsets[1:]:
        if other.structure != s:
            raise StructureMismatch("operands live over different structures")
    return s


def point_satisfies(point: FuzzyPoint, mu: FuzzySubset, rel: PointRelation) -> bool:
    """x_t in mu iff mu(x) >= t; x_t q mu iff mu(x) + t > 1; or/and combine."""
    x = point.support
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < mu.structure.n:
        raise UnknownElement(f"element index {x!r} out of range")
    g, t = mu.grades[x], point.value
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
    t = _exact(t, "threshold", InvalidThreshold)
    if not ZERO < t <= ONE:
        raise InvalidThreshold(f"threshold {t} outside (0,1]")
    u = frozenset(i for i, g in enumerate(mu.grades) if g >= t)
    q = frozenset(i for i, g in enumerate(mu.grades) if g + t > ONE)
    return LevelSets(u, q, u | q)


def _scaled(mu: FuzzySubset) -> tuple[tuple[int, ...], int]:
    """mu's grades times B = 2 * lcm(2, denominators), and B: every scaled
    grade is even and B % 4 == 0, so 1/2 is B // 2 and midpoints are exact.

    Computed on first use and kept as an instance attribute, in mu's
    __dict__ as GammaSemigroup's cached properties are: the fields, hence ==,
    hash and repr, stay untouched, and a racing second write stores the
    same value.
    """
    form = getattr(mu, "_scaled", None)
    if form is None:
        ratios = [g.as_integer_ratio() for g in mu.grades]
        base = 2 * lcm(2, *[d for _, d in ratios])
        form = tuple([n * (base // d) for n, d in ratios]), base
        object.__setattr__(mu, "_scaled", form)  # past the frozen __setattr__
    return form


def _scaled_pair(lam: FuzzySubset, mu: FuzzySubset) -> tuple[list[int], list[int], int]:
    """The grades of both operands on their common base, and that base."""
    _same_structure(lam, mu)
    (a, p), (b, q) = _scaled(lam), _scaled(mu)
    base = lcm(p, q)
    return [v * (base // p) for v in a], [v * (base // q) for v in b], base


def _sup_min_scaled(s: GammaSemigroup, left: list[int], right: list[int], cap: int) -> list[int]:
    """a -> max over factorizations a = y g z of min(left[y], right[z], cap);
    the sup is over a finite carrier, hence a max, and 0 with no factorization."""
    out = [0] * s.n
    for y, planes in enumerate(s.cayley):
        top = left[y] if left[y] < cap else cap
        cut = [v if v < top else top for v in right]
        for row in planes:
            for z, w in enumerate(row):
                if cut[z] > out[w]:
                    out[w] = cut[z]
    return out


def _sup_min(lam: FuzzySubset, mu: FuzzySubset, half: bool) -> FuzzySubset:
    """The sup-min product of lam and mu, capped at 1/2 when half."""
    a, b, base = _scaled_pair(lam, mu)
    out = _sup_min_scaled(lam.structure, a, b, base // 2 if half else base)
    return FuzzySubset(lam.structure, tuple(Fraction(v, base) for v in out))


def o_product(lam: FuzzySubset, mu: FuzzySubset) -> FuzzySubset:
    """(lam o mu)(a) = max over factorizations a = y g z of min(lam(y), mu(z))."""
    return _sup_min(lam, mu, False)


def o05_product(mu1: FuzzySubset, mu2: FuzzySubset) -> FuzzySubset:
    """0.5-product: every factorization min additionally capped at 1/2."""
    return _sup_min(mu1, mu2, True)


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
    return constant(structure, ONE, members)


def constant(
    structure: GammaSemigroup, value: GradeLike, on: Iterable[int] | None = None
) -> FuzzySubset:
    """Grade c on the given subset (default: the whole carrier), 0 elsewhere."""
    c = as_grade(value)
    on = range(structure.n) if on is None else _check_subset(structure, on)
    return FuzzySubset(structure, tuple(c if i in on else ZERO for i in range(structure.n)))


def _thresholds(breaks: set[int]) -> list[int]:
    """Ascending: each scaled breakpoint but 0, preceded by its cell's midpoint."""
    cells, low = [], 0
    for b in sorted(breaks - {0}):
        cells += (low + b) // 2, b
        low = b
    return cells


def _critical(g: list[int], base: int) -> list[int]:
    """critical_thresholds of the grades g scaled to base, scaled the same."""
    return _thresholds({*g, *(base - v for v in g), base // 2, base})


def critical_thresholds(mu: FuzzySubset) -> tuple[Fraction, ...]:
    """Finite threshold set on which every t-indexed predicate is decided.

    Every comparison a threshold t meets has the shape t <= c or t > c with c
    a grade, a complemented grade, 1/2 or 1; so such predicates are constant
    on the cells these breakpoints cut out of (0,1].  The returned values are
    the breakpoints themselves plus a representative of every open cell (the
    midpoint of each consecutive pair and of the gap below the smallest).
    """
    g, base = _scaled(mu)
    return tuple(Fraction(t, base) for t in _critical(g, base))
