"""Exception hierarchy shared by all pairtrader modules.

Three families map onto the CLI exit codes: configuration problems (exit 1),
data problems (exit 2), and numeric degeneracies (exit 3).
"""


class PairTraderError(Exception):
    """Base class for all package-specific failures."""

    exit_code = 1


class ConfigError(PairTraderError):
    """Invalid configuration or usage (CLI exit 1)."""

    exit_code = 1


class DataError(PairTraderError):
    """Malformed, missing, or insufficient input data (CLI exit 2)."""

    exit_code = 2


class NumericError(PairTraderError):
    """Degenerate numerics: singular fits, zero variance, etc. (CLI exit 3)."""

    exit_code = 3


# --- market data ------------------------------------------------------------

class UnreadableFile(DataError):
    """Input file cannot be opened, decoded as UTF-8, or split into CSV fields."""


class MissingColumn(DataError):
    """Required CSV column absent."""


class DuplicateDate(DataError):
    """Same calendar day appears twice in one series."""


class NonPositivePrice(DataError):
    """A parsed close is zero, negative, or non-finite."""


class EmptySeries(DataError):
    """No valid observations remain after parsing."""


class EmptyIntersection(DataError):
    """Series share no common dates."""


class DuplicateTicker(DataError):
    """Two input series carry the same ticker."""


class SeriesTooShort(DataError):
    """Series has too few observations for the requested operation."""


class EmptyWindow(DataError):
    """Date window contains no observations."""


# --- econometrics / unit-root tests ----------------------------------------

class LengthMismatch(DataError):
    """Paired series differ in length or calendar."""


class ZeroVariance(NumericError):
    """Sample variance is zero where a nonzero one is required."""


class DegenerateRegressor(NumericError):
    """Regressor carries no information (sum of squares is zero)."""


class AllZeroResiduals(NumericError):
    """Residual diagnostics undefined because every residual is zero."""


class SampleTooSmall(DataError):
    """Sample below the minimum size for a stable test transform."""


class SumOverflow(NumericError):
    """A sum of squares or products exceeds the largest double."""


class UnknownSurface(NumericError):
    """No tabulated coefficients for the requested response surface."""


class ConstantSeries(NumericError):
    """A unit-root regression leaves no residual to test.

    Raised as such when the ADF regression is singular or fits exactly,
    and as ``ExactlyConstant`` when the series itself does not move.
    """


class ExactlyConstant(ConstantSeries):
    """Series is exactly constant: its range is 0."""


# --- backtest ---------------------------------------------------------------

class PriceExceedsCapital(NumericError):
    """Per-leg capital cannot buy a single share at the first close."""


class EmptyFrame(DataError):
    """Trading frame has no rows."""


class EmptyList(DataError):
    """Aggregate operation received an empty collection."""


class InvariantViolation(NumericError):
    """Internal columns of a structure are mutually inconsistent."""
