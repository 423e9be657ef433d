"""Exception types shared across the library."""


class PmkitError(Exception):
    """Base class for all pmkit errors."""


class StructureError(PmkitError):
    """Malformed input: bad indices, sizes, or constructor parameters."""


class IndexOutOfRange(StructureError):
    pass


class BadParams(StructureError):
    pass


class BadLabel(StructureError):
    pass


def check_natural(value, name: str) -> None:
    """Raise :class:`BadParams` unless ``value`` is a non-bool int >= 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BadParams(f"{name} must be a natural number, got {value!r}")


class ValidationError(PmkitError):
    """A structural law failed; ``witness`` names the offending elements."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ReflexivityBroken(ValidationError):
    pass


class AntisymmetryBroken(ValidationError):
    pass


class TransitivityBroken(ValidationError):
    pass


class InvolutionBroken(ValidationError):
    pass


class OrderReversalBroken(ValidationError):
    pass


class NotRegular(PmkitError):
    """The operation requires a space of height at most 1."""


class NotAnElement(PmkitError):
    """The given set is not an element of the algebra at hand."""


class SizeLimitExceeded(PmkitError):
    """A listing of sets (downsets, subalgebra members, congruence sets)
    passed its limit."""


class SearchBudgetExceeded(PmkitError):
    """A backtracking search exceeded its node budget."""


class NotQ6Shaped(PmkitError):
    """The space does not have the two-level bipartite shape required here."""


class NotBooleanSubalgebra(PmkitError):
    pass


class PairedSingletonViolation(PmkitError):
    pass


class Overflow(PmkitError):
    """A bound is too large to be worth materialising."""


class ParseError(PmkitError):
    pass
