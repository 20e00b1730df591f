"""Price-ratio z-scores, band signals, positions, and trade triggers.

The ratio is read straight from a two-ticker pair panel, asset1's closes
first: ``closes[0] / closes[1]``.  It is standardized with statistics fit on
a reference window of the same pair (normally the training period, so the
test period sees no look-ahead).
Signals are ternary per leg: short asset1 while the z-score sits strictly
above the upper band, long asset1 strictly below the lower band, flat
inside; asset2 always takes the opposite stance.  Positions are the first
difference of signals, and each nonzero position is a trigger.  A
``TradingFrame`` stores only the pair panel, its z-scores and the bands; its
signal and position columns are derived from them on construction.  The
module only computes: ``cli`` writes the frame and its triggers.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import EmptySeries, InvariantViolation, ZeroVariance
from .marketdata import AlignedPanel, check_pair, readonly_copy

UPPER_LIMIT = 1.0
LOWER_LIMIT = -1.0

#: Trigger actions, keyed by (previous signal, position delta).  A frame's
#: signals stay in -1..1, so these are all its nonzero transitions.
_ACTIONS = {
    (0, 1): "open_long",
    (0, -1): "open_short",
    (1, -1): "close",
    (-1, 1): "close",
    (-1, 2): "flip_to_long",
    (1, -2): "flip_to_short",
}


@dataclass(frozen=True)
class RatioStats:
    """Standardization statistics of the ratio over its fit window.

    The standard deviation uses the population (divide-by-n) convention.
    """

    mean: float
    std: float


def _ratio(pair: AlignedPanel) -> np.ndarray:
    """Daily ratio ``close1 / close2`` of a two-ticker panel."""
    check_pair(pair)
    return pair.closes[0] / pair.closes[1]


def fit_ratio_stats(pair: AlignedPanel) -> RatioStats:
    """Mean and population standard deviation of the pair's close ratio.

    Pass the pair panel over the fit window only (normally the training
    window).
    """
    ratio = _ratio(pair)
    if not ratio.size:
        raise EmptySeries("no ratio observations")
    mean = float(ratio.mean())
    std = float(ratio.std())  # population convention
    if std == 0.0:
        raise ZeroVariance("ratio is constant over the fit window")
    return RatioStats(mean=mean, std=std)


def gen_signals(
    z, upper: float = UPPER_LIMIT, lower: float = LOWER_LIMIT
) -> tuple[np.ndarray, np.ndarray]:
    """Ternary band signals for both legs, as int arrays.

    asset1 goes short (-1) when z strictly exceeds the upper limit, long (+1)
    when z falls strictly below the lower limit, flat (0) otherwise; a z-score
    exactly on a limit generates no signal.  asset2 mirrors asset1 with the
    opposite sign.
    """
    values = np.asarray(z, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("z-scores must be finite")
    signals1 = np.zeros(values.size, dtype=np.int64)
    signals1[values > upper] = -1
    signals1[values < lower] = 1
    return signals1, -signals1


def gen_positions(signals) -> np.ndarray:
    """First difference of a signal column, with the pre-window state flat.

    ``positions[0] = signals[0]`` (an opening trade may fire on day one) and
    ``positions[t] = signals[t] - signals[t-1]`` afterwards.
    """
    sig = np.asarray(signals, dtype=np.int64)
    if np.any(np.abs(sig) > 1):
        raise ValueError("signals must be -1, 0, or +1")
    return np.diff(sig, prepend=0)


@dataclass(frozen=True, eq=False)
class TradingFrame:
    """The per-day trading table for one pair over one window.

    A frame stores the two-ticker pair panel (asset1's closes first), the
    z-score of each day and the band limits.  Everything else is read from
    the panel (``ticker1``, ``ticker2``, ``dates``, ``close1``, ``close2``)
    or derived once on construction with ``gen_signals``/``gen_positions``
    (``signals1``, ``signals2``, ``positions1``, ``positions2``, read-only
    int arrays), so the columns agree by construction.  Frames compare by
    identity.
    """

    pair: AlignedPanel
    zscore: np.ndarray
    upper_limit: float
    lower_limit: float

    def __post_init__(self) -> None:
        check_pair(self.pair)
        zscore = readonly_copy(self.zscore)
        if zscore.shape != (len(self.pair),):
            raise InvariantViolation("column zscore has wrong length")
        object.__setattr__(self, "zscore", zscore)
        object.__setattr__(self, "upper_limit", float(self.upper_limit))
        object.__setattr__(self, "lower_limit", float(self.lower_limit))

        signals1, signals2 = gen_signals(zscore, upper=self.upper_limit, lower=self.lower_limit)
        positions1 = gen_positions(signals1)
        for name, column in (("signals1", signals1), ("signals2", signals2),
                             ("positions1", positions1), ("positions2", -positions1)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.pair)

    @property
    def ticker1(self) -> str:
        return self.pair.tickers[0]

    @property
    def ticker2(self) -> str:
        return self.pair.tickers[1]

    @property
    def dates(self) -> tuple[date, ...]:
        return self.pair.dates

    @property
    def close1(self) -> np.ndarray:
        return self.pair.closes[0]

    @property
    def close2(self) -> np.ndarray:
        return self.pair.closes[1]


def build_trading_frame(
    pair: AlignedPanel,
    stats: RatioStats,
    upper: float = UPPER_LIMIT,
    lower: float = LOWER_LIMIT,
) -> TradingFrame:
    """Assemble the full trading table for a two-ticker pair panel.

    ``pair`` holds asset1's closes in row 0 and asset2's in row 1 over
    the trading window; ``stats`` come from the fit window.
    """
    z = (_ratio(pair) - stats.mean) / stats.std
    return TradingFrame(pair=pair, zscore=z, upper_limit=upper, lower_limit=lower)


@dataclass(frozen=True)
class Trigger:
    """One executed change of stance for one leg."""

    date: date
    leg: str  # "asset1" or "asset2"
    action: str
    lots: int


def extract_triggers(frame: TradingFrame) -> list[Trigger]:
    """One Trigger per nonzero position entry per leg, in date order."""
    legs = [
        ("asset1", frame.signals1.tolist(), frame.positions1.tolist()),
        ("asset2", frame.signals2.tolist(), frame.positions2.tolist()),
    ]
    triggers: list[Trigger] = []
    # positions2 mirrors positions1, so both legs trade on the same days.
    for t in np.flatnonzero(frame.positions1).tolist():
        for leg, signals, positions in legs:
            delta = positions[t]
            action = _ACTIONS[(signals[t] - delta, delta)]
            triggers.append(
                Trigger(date=frame.dates[t], leg=leg, action=action, lots=abs(delta))
            )
    return triggers
