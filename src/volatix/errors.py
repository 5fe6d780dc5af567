"""Exception hierarchy for volatix.

Everything raised on purpose derives from VolatixError, which itself is a
ValueError so that callers treating bad inputs generically keep working.
"""


class VolatixError(ValueError):
    """Base class for all volatix errors."""


class InvalidSizeError(VolatixError):
    """A citation average was requested for zero citable items."""


class UndefinedRelativeError(VolatixError):
    """Relative volatility is undefined because the initial average is zero."""


class SingletonJournalError(VolatixError):
    """Top-paper decomposition needs at least two citable papers."""


class EmptyJournalError(VolatixError):
    """A journal report was requested for an empty paper list."""


class InvalidAggregateError(VolatixError):
    """A journal aggregate violates its count invariants."""


class MalformedRowError(VolatixError):
    """A CSV row is structurally unreadable (bad arity or unparseable field)."""

    def __init__(self, message: str, line: int, column: str | None = None):
        loc = f"line {line}" + (f", column {column!r}" if column else "")
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


class InvalidNumberError(VolatixError):
    """Text given as a number is not a finite rational."""


class InvalidThresholdsError(VolatixError):
    """Threshold cuts must be strictly increasing."""


class ConfigError(VolatixError):
    """A synthetic-corpus configuration is invalid."""
