"""Exception types shared across the package."""


class FocklabError(Exception):
    """Base class for all focklab errors."""


class InvalidInputError(FocklabError, ValueError):
    """Malformed or out-of-contract argument."""


class DimensionMismatchError(InvalidInputError):
    """Point or parameter dimension does not match the function's ambient dimension."""


class NoEnvelopeError(FocklabError):
    """The weighted density has no decaying envelope; the norm integral diverges."""


class MethodUnavailableError(FocklabError):
    """The requested integration backend cannot handle these parameters."""


class UnsupportedFunctionalError(FocklabError):
    """Convex functional outside the supported class (needs G(0) = 0, nondecreasing)."""


class OptimizationFailureError(FocklabError):
    """The density has no maximum (it vanishes or grows without bound), or no search start finds f nonzero."""


class FunctionSpecError(InvalidInputError):
    """Function-spec string failed to parse; message carries the offending position."""
