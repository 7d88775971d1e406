"""Exception hierarchy shared by all gsfuzz modules."""

from __future__ import annotations


class GsfError(Exception):
    """Base class for every error raised by gsfuzz."""


# ---------------------------------------------------------------- structures

class EmptyCarrier(GsfError):
    pass


class EmptyGammaSet(GsfError):
    pass


class OutOfRangeEntry(GsfError):
    """A Cayley-cube cell does not name a carrier element."""

    def __init__(self, x: str, gamma: str, y: str, value: object):
        self.cell = (x, gamma, y)
        self.value = value
        super().__init__(f"cube entry ({x} {gamma} {y}) = {value!r} is not an element")


class AssociativityViolation(GsfError):
    """Witness quintuple (x, beta, y, gamma, z) with both evaluations."""

    def __init__(self, x, beta, y, gamma, z, left, right):
        self.witness = (x, beta, y, gamma, z)
        self.left = left
        self.right = right
        super().__init__(
            f"({x} {beta} {y}) {gamma} {z} = {left} but {x} {beta} ({y} {gamma} {z}) = {right}"
        )


class IndexOutOfRange(GsfError):
    pass


class CarrierTooLarge(GsfError):
    """A 2^n subset scan, or the structure corpus of a shape, exceeds its cap."""


class GammaMismatch(GsfError):
    pass


class HomomorphismViolation(GsfError):
    """Witness (x, gamma, y) where f(x gamma y) != f(x) gamma f(y)."""

    def __init__(self, x, gamma, y, image_of_product, product_of_images):
        self.witness = (x, gamma, y)
        self.image_of_product = image_of_product
        self.product_of_images = product_of_images
        super().__init__(
            f"f({x} {gamma} {y}) = {image_of_product} but f({x}) {gamma} f({y}) = {product_of_images}"
        )


# --------------------------------------------------------------------- fuzzy

class InvalidGrade(GsfError):
    """Membership grade outside [0,1] or not an exact rational."""


class UnknownElement(GsfError):
    pass


class InvalidThreshold(GsfError):
    """Level-set threshold outside (0,1] or not an exact rational."""


class StructureMismatch(GsfError):
    """Operands live over different Gamma-semigroups."""


class EmptyFamily(GsfError):
    pass


# ---------------------------------------------------------------- predicates

class EmptyFuzzySubset(GsfError):
    """The zero fuzzy subset is excluded from the decision procedures."""


class InvalidAlpha(GsfError):
    """alpha must be one of in / q / invq, without negation."""


# ------------------------------------------------------------------ theorems

class SampleNotBiIdeal(GsfError):
    pass


# -------------------------------------------------------------------- search

class UnknownPredicateName(GsfError, ValueError):
    """A predicate name or --want expression outside the vocabulary."""


# --------------------------------------------------------------- cli / files

class DocumentError(GsfError):
    """Base for structure-file problems; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DocumentSyntaxError(DocumentError):
    pass


class DuplicateName(DocumentError):
    pass


class MissingTable(DocumentError):
    pass


class BadRational(DocumentError):
    pass
