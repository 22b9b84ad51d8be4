"""Exception hierarchy shared across the package."""


class CdgError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CdgError):
    """Malformed numeric input: wrong shape, non-finite values, bad range."""


class PromptTooLongError(CdgError):
    """Prompt does not fit in the fixed sequence length."""


class DegenerateGraphError(CdgError):
    """Attention graph has an all-zero row and cannot be row-normalized."""


class AllHeadsFilteredError(CdgError):
    """Variance filter rejected every attention head."""


class InvalidRatioError(CdgError):
    """Degradation ratio outside [0, 2]."""


class RankDeficientError(CdgError):
    """Requested subspace dimension exceeds the numerical rank."""


class UndefinedMetricError(CdgError):
    """Geometry metric requested for a zero guidance delta."""


class NumericalError(CdgError):
    """A computation produced a non-finite value."""


class ConfigError(CdgError):
    """Unreadable or invalid run configuration."""
