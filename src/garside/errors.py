"""Exception types shared across the package."""


class GarsideError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(GarsideError):
    """An atom or simple element was used with a context it does not belong to."""


class InternalInvariantError(GarsideError):
    """A mathematically guaranteed property failed to hold at runtime.

    This always indicates a bug (or a malformed context), never bad user
    input: the algorithms only raise it when a proven statement about the
    computation is violated, e.g. a transport of a positive divisor of
    Δ^k is not one, or an iteration exceeds its certified bound.
    """


class OracleSizeError(GarsideError):
    """A brute-force oracle was asked to enumerate an oversized context."""
