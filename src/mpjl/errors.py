"""Exception types shared across the library.

Every domain error derives from :class:`MpjlError` so callers (and the CLI)
can distinguish library failures from programming errors.
"""


class MpjlError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(MpjlError):
    """Operands have incompatible shapes."""


class BadSpectrum(MpjlError):
    """A requested singular spectrum is not strictly decreasing and positive, or does not
    hold q values."""


class DegenerateSpectrum(MpjlError):
    """Sampled singular values are too close to treat as distinct; ``slices`` holds the
    stack indices of the tied spectra ([0] for one spectrum)."""

    def __init__(self, message: str, slices=(0,)):
        super().__init__(message)
        self.slices = list(slices)


class RankMismatch(MpjlError):
    """The numerical rank of the input differs from the rank the caller asserted."""


class IllConditionedPivot(MpjlError):
    """No pivoting choice yields an acceptably conditioned leading block."""


class ConfigError(MpjlError):
    """Invalid run configuration (CLI exit code 2)."""


class ParseError(MpjlError):
    """A report file could not be parsed; the message names the path."""


class DegeneracyBudgetExceeded(MpjlError):
    """Numerical degeneracy persisted past the retry budget (CLI exit code 3)."""
