"""Price-ratio z-scores, band signals, positions, and trade triggers.

The ratio of asset1's close to asset2's is standardized with statistics fit
on a reference window (normally the training period, so the test period sees
no look-ahead).  Signals are ternary per leg: short asset1 while the z-score
sits strictly above the upper band, long asset1 strictly below the lower
band, flat inside; asset2 always takes the opposite stance.  Positions are
the first difference of signals, and each nonzero position is a trigger.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import (
    EmptySeries,
    EmptyWindow,
    InvariantViolation,
    LengthMismatch,
    ZeroVariance,
)
from .marketdata import PriceSeries

UPPER_LIMIT = 1.0
LOWER_LIMIT = -1.0

#: Trigger actions, keyed by (previous signal, position delta).
_ACTIONS = {
    (0, 1): "open_long",
    (0, -1): "open_short",
    (1, -1): "close",
    (-1, 1): "close",
    (-1, 2): "flip_to_long",
    (1, -2): "flip_to_short",
}


@dataclass(frozen=True)
class RatioSeries:
    """Daily asset1/asset2 close ratio."""

    dates: tuple[date, ...]
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.dates)

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class RatioStats:
    """Standardization statistics of the ratio over its fit window.

    The standard deviation uses the population (divide-by-n) convention.
    """

    mean: float
    std: float


def ratio_series(asset1: PriceSeries, asset2: PriceSeries) -> RatioSeries:
    """Daily ratio ``close1 / close2`` on the pair's common calendar."""
    if asset1.dates != asset2.dates:
        raise LengthMismatch(
            f"{asset1.ticker} and {asset2.ticker} are not on the same calendar"
        )
    values = asset1.closes_array() / asset2.closes_array()
    return RatioSeries(dates=asset1.dates, values=tuple(float(v) for v in values))


def fit_ratio_stats(ratio: RatioSeries) -> RatioStats:
    """Mean and population standard deviation of the ratio.

    Pass the ratio over the fit window only (normally the training window).
    """
    if not ratio.values:
        raise EmptySeries("no ratio observations")
    values = ratio.values_array()
    mean = float(values.mean())
    std = float(values.std())  # population convention
    if std == 0.0:
        raise ZeroVariance("ratio is constant over the fit window")
    return RatioStats(mean=mean, std=std)


def zscore_series(ratio: RatioSeries, stats: RatioStats) -> tuple[float, ...]:
    """Standardized ratio values ``(r - mean) / std``."""
    z = (ratio.values_array() - stats.mean) / stats.std
    return tuple(float(v) for v in z)


def gen_signals(
    z, upper: float = UPPER_LIMIT, lower: float = LOWER_LIMIT
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ternary band signals for both legs.

    asset1 goes short (-1) when z strictly exceeds the upper limit, long (+1)
    when z falls strictly below the lower limit, flat (0) otherwise; a z-score
    exactly on a limit generates no signal.  asset2 mirrors asset1 with the
    opposite sign.
    """
    values = np.asarray(z, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("z-scores must be finite")
    signals1 = np.zeros(values.size, dtype=int)
    signals1[values > upper] = -1
    signals1[values < lower] = 1
    return tuple(int(s) for s in signals1), tuple(int(-s) for s in signals1)


def gen_positions(signals) -> tuple[int, ...]:
    """First difference of a signal column, with the pre-window state flat.

    ``positions[0] = signals[0]`` (an opening trade may fire on day one) and
    ``positions[t] = signals[t] - signals[t-1]`` afterwards.
    """
    sig = [int(s) for s in signals]
    if any(s not in (-1, 0, 1) for s in sig):
        raise ValueError("signals must be -1, 0, or +1")
    prev = 0
    positions = []
    for s in sig:
        positions.append(s - prev)
        prev = s
    return tuple(positions)


@dataclass(frozen=True)
class TradingFrame:
    """The per-day trading table for one pair over one window.

    Column semantics match the signal construction above: signals2 and
    positions2 mirror the asset1 columns with opposite sign, and signals1 is
    the running sum of positions1 starting from flat.
    """

    ticker1: str
    ticker2: str
    dates: tuple[date, ...]
    close1: tuple[float, ...]
    close2: tuple[float, ...]
    zscore: tuple[float, ...]
    upper_limit: float
    lower_limit: float
    signals1: tuple[int, ...]
    signals2: tuple[int, ...]
    positions1: tuple[int, ...]
    positions2: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.dates)

    def validate(self) -> None:
        """Raise InvariantViolation when the columns are mutually inconsistent."""
        n = len(self.dates)
        for name in ("close1", "close2", "zscore", "signals1", "signals2",
                     "positions1", "positions2"):
            if len(getattr(self, name)) != n:
                raise InvariantViolation(f"column {name} has wrong length")
        running = 0
        for t in range(n):
            if self.signals2[t] != -self.signals1[t]:
                raise InvariantViolation(f"signals2 != -signals1 on {self.dates[t]}")
            if self.positions2[t] != -self.positions1[t]:
                raise InvariantViolation(f"positions2 != -positions1 on {self.dates[t]}")
            running += self.positions1[t]
            if running != self.signals1[t]:
                raise InvariantViolation(
                    f"positions1 do not reconstruct signals1 on {self.dates[t]}"
                )
            if self.signals1[t] not in (-1, 0, 1):
                raise InvariantViolation(f"signals1 out of range on {self.dates[t]}")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([
                "date", "asset1", "asset2", "z_score", "upper_limit",
                "lower_limit", "signals1", "signals2", "positions1", "positions2",
            ])
            for t in range(len(self.dates)):
                writer.writerow([
                    self.dates[t].isoformat(),
                    repr(self.close1[t]),
                    repr(self.close2[t]),
                    repr(self.zscore[t]),
                    repr(self.upper_limit),
                    repr(self.lower_limit),
                    self.signals1[t],
                    self.signals2[t],
                    self.positions1[t],
                    self.positions2[t],
                ])

    @classmethod
    def from_csv(cls, path, ticker1: str = "asset1", ticker2: str = "asset2") -> "TradingFrame":
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        if not rows:
            raise EmptyWindow(f"{path}: no rows")
        uppers = {row["upper_limit"] for row in rows}
        lowers = {row["lower_limit"] for row in rows}
        if len(uppers) != 1 or len(lowers) != 1:
            raise InvariantViolation(f"{path}: band limit columns are not constant")
        frame = cls(
            ticker1=ticker1,
            ticker2=ticker2,
            dates=tuple(date.fromisoformat(r["date"]) for r in rows),
            close1=tuple(float(r["asset1"]) for r in rows),
            close2=tuple(float(r["asset2"]) for r in rows),
            zscore=tuple(float(r["z_score"]) for r in rows),
            upper_limit=float(uppers.pop()),
            lower_limit=float(lowers.pop()),
            signals1=tuple(int(r["signals1"]) for r in rows),
            signals2=tuple(int(r["signals2"]) for r in rows),
            positions1=tuple(int(r["positions1"]) for r in rows),
            positions2=tuple(int(r["positions2"]) for r in rows),
        )
        frame.validate()
        return frame


def build_trading_frame(
    asset1: PriceSeries,
    asset2: PriceSeries,
    stats: RatioStats,
    upper: float = UPPER_LIMIT,
    lower: float = LOWER_LIMIT,
) -> TradingFrame:
    """Assemble the full trading table for a pair on its common calendar."""
    ratio = ratio_series(asset1, asset2)
    z = zscore_series(ratio, stats)
    signals1, signals2 = gen_signals(z, upper=upper, lower=lower)
    positions1 = gen_positions(signals1)
    positions2 = tuple(-p for p in positions1)
    frame = TradingFrame(
        ticker1=asset1.ticker,
        ticker2=asset2.ticker,
        dates=asset1.dates,
        close1=asset1.closes,
        close2=asset2.closes,
        zscore=z,
        upper_limit=upper,
        lower_limit=lower,
        signals1=signals1,
        signals2=signals2,
        positions1=positions1,
        positions2=positions2,
    )
    frame.validate()
    return frame


@dataclass(frozen=True)
class Trigger:
    """One executed change of stance for one leg."""

    date: date
    leg: str  # "asset1" or "asset2"
    action: str
    lots: int

    def to_json_dict(self) -> dict:
        return {
            "date": self.date.isoformat(),
            "leg": self.leg,
            "action": self.action,
            "lots": self.lots,
        }


def extract_triggers(frame: TradingFrame) -> list[Trigger]:
    """One Trigger per nonzero position entry per leg, in date order."""
    frame.validate()
    triggers: list[Trigger] = []
    for t in range(len(frame)):
        for leg, signals, positions in (
            ("asset1", frame.signals1, frame.positions1),
            ("asset2", frame.signals2, frame.positions2),
        ):
            delta = positions[t]
            if delta == 0:
                continue
            prev = signals[t] - delta
            action = _ACTIONS.get((prev, delta))
            if action is None:
                raise InvariantViolation(
                    f"impossible transition {prev} -> {signals[t]} on {frame.dates[t]}"
                )
            triggers.append(
                Trigger(date=frame.dates[t], leg=leg, action=action, lots=abs(delta))
            )
    return triggers
