"""Exception types shared across the package."""


class BisochanError(Exception):
    """Base class for all library-specific errors."""


class NotBisoError(BisochanError):
    """The channel admits no symmetric pairing of its output columns."""


class DimensionMismatchError(BisochanError):
    """Matrix shapes are incompatible for the requested operation."""


class ParameterOutOfRangeError(BisochanError):
    """A scalar argument lies outside its valid range."""


class InvalidChannelError(BisochanError):
    """Rows are not probability vectors within the working tolerance."""


class ChannelFormatError(BisochanError):
    """A channel file or text block could not be parsed."""


class DegenerateParameterError(BisochanError):
    """A criterion was evaluated at a degenerate parameter value."""


class ClassMismatchError(BisochanError):
    """Two channels do not share the class constant required by a construction."""


class DimensionTooLargeError(BisochanError):
    """A dimension-limited construction received a channel that is too large."""


class InfiniteDivergenceError(BisochanError):
    """An f-divergence evaluates to +infinity."""


class LeakageOutOfRangeError(BisochanError):
    """A leakage value lies outside the range required by a bound."""


class NumericalInstabilityError(BisochanError):
    """A computed witness fails its own re-composition check."""
