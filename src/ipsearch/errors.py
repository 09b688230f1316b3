"""Exception types shared across the package.

TimeoutError is deliberately not redefined: the remote backend raises the
builtin on request timeouts.
"""


class DecodingError(Exception):
    """Base class for every error raised by this package."""


class RangeError(DecodingError, ValueError):
    """A configuration value is outside its legal range.

    The message always starts with the offending field name, also exposed
    as ``field``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ArgumentError(DecodingError, ValueError):
    """An operation was called with arguments violating its precondition."""


class DimensionError(DecodingError, ValueError):
    """Vectors of mismatched lengths were combined."""


class DegenerateVectorError(DecodingError, ValueError):
    """A vector with a near-zero or non-finite norm reached a cosine computation."""


class VocabError(DecodingError, ValueError):
    """A token id lies outside the backend's vocabulary."""


class MissingEntryError(DecodingError, LookupError):
    """A scripted backend has no table entry for the requested prefix."""


class ValidationError(DecodingError, ValueError):
    """A constructed object violates its structural invariants."""


class ProtocolError(DecodingError):
    """The remote backend returned a malformed or invalid response."""
