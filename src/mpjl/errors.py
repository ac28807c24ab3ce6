"""Exception types shared across the library.

Every domain error derives from :class:`MpjlError` so callers (and the CLI)
can distinguish library failures from programming errors.
"""


class MpjlError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(MpjlError):
    """Operands have incompatible shapes."""


class BadSpectrum(MpjlError):
    """A requested singular spectrum is not strictly decreasing and positive."""


class DegenerateSpectrum(MpjlError):
    """Retained singular values are too close to treat as distinct."""


class RankMismatch(MpjlError):
    """The numerical rank of the input differs from the rank the caller asserted."""


class IllConditionedPivot(MpjlError):
    """No pivoting choice yields an acceptably conditioned leading block."""


class NotFullRank(MpjlError):
    """The operation requires rank equal to min(n, m)."""


class NotFullColumnRank(MpjlError):
    """The operation requires full column rank (rank == number of columns)."""


class SingularInput(MpjlError):
    """A matrix that must be invertible is numerically singular."""


class ConfigError(MpjlError):
    """Invalid run configuration (CLI exit code 2)."""


class ParseError(MpjlError):
    """A report file could not be parsed; the message names the path."""


class DegeneracyBudgetExceeded(MpjlError):
    """Numerical degeneracy persisted past the retry budget (CLI exit code 3)."""
