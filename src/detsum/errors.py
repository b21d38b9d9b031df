"""Exception types shared across the package."""


class DetsumError(Exception):
    """Base class for every error raised by this library."""


class RingMismatch(DetsumError):
    """Operands live in different rings."""


class ShapeMismatch(DetsumError):
    """Matrix or family dimensions are incompatible."""


class ArityMismatch(DetsumError):
    """A point or vector has the wrong number of coordinates."""


class MaskOutOfRange(DetsumError):
    """A subset mask does not match the index family it is applied to."""


class UnsupportedRing(DetsumError):
    """The operation is only defined over a restricted class of rings."""


class SizeLimit(DetsumError):
    """Input exceeds the exact-arithmetic size caps."""


class TooManyMatrices(DetsumError):
    """Matrix family larger than the 64-element mask limit (or op cap)."""


class TooManyElements(DetsumError):
    """Element family larger than the 64-element mask limit."""


class HypothesisViolation(DetsumError):
    """The family-size hypothesis (more summands than the degree) fails."""


class NotHomogeneous(DetsumError):
    """A polynomial required to be homogeneous is not."""


class InvalidParameters(DetsumError):
    """Construction parameters violate a stated precondition."""


class MixedComponentFields(DetsumError):
    """Product components must all be the same prime field."""


class SearchSpaceTooLarge(DetsumError):
    """Exhaustive enumeration would exceed the configured budget."""


class ContractViolation(DetsumError):
    """A guaranteed identity failed to hold; this signals a library bug."""
