"""Price-ratio z-scores, band signals, positions, and trade triggers.

The ratio is read straight from a two-ticker pair panel, asset1's column
first: ``closes[:, 0] / closes[:, 1]``.  It is standardized with statistics
fit on a reference window of the same pair (normally the training period, so
the test period sees no look-ahead).
Signals are ternary per leg: short asset1 while the z-score sits strictly
above the upper band, long asset1 strictly below the lower band, flat
inside; asset2 always takes the opposite stance.  Positions are the first
difference of signals, and each nonzero position is a trigger.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import EmptySeries, EmptyWindow, InvariantViolation, ZeroVariance
from .marketdata import AlignedPanel

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
    if len(pair.tickers) != 2:
        raise ValueError(f"a pair panel holds 2 tickers, not {len(pair.tickers)}")
    return pair.closes[:, 0] / pair.closes[:, 1]


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

    Column semantics match the signal construction above: signals2 and
    positions2 mirror the asset1 columns with opposite sign, and signals1 is
    the running sum of positions1 starting from flat.  The columns are
    read-only arrays (closes and z-scores float, signals and positions int),
    checked once on construction; frames compare by identity.
    """

    ticker1: str
    ticker2: str
    dates: tuple[date, ...]
    close1: np.ndarray
    close2: np.ndarray
    zscore: np.ndarray
    upper_limit: float
    lower_limit: float
    signals1: np.ndarray
    signals2: np.ndarray
    positions1: np.ndarray
    positions2: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.dates)
        for name, dtype in (("close1", float), ("close2", float), ("zscore", float),
                            ("signals1", np.int64), ("signals2", np.int64),
                            ("positions1", np.int64), ("positions2", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != (n,):
                raise InvariantViolation(f"column {name} has wrong length")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "upper_limit", float(self.upper_limit))
        object.__setattr__(self, "lower_limit", float(self.lower_limit))

        for bad, what in (
            (self.signals2 != -self.signals1, "signals2 != -signals1"),
            (self.positions2 != -self.positions1, "positions2 != -positions1"),
            (np.cumsum(self.positions1) != self.signals1,
             "positions1 do not reconstruct signals1"),
            (np.abs(self.signals1) > 1, "signals1 out of range"),
        ):
            if bad.any():
                raise InvariantViolation(f"{what} on {self.dates[int(np.argmax(bad))]}")

    def __len__(self) -> int:
        return len(self.dates)

    def to_csv(self, path) -> None:
        upper, lower = repr(self.upper_limit), repr(self.lower_limit)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([
                "date", "asset1", "asset2", "z_score", "upper_limit",
                "lower_limit", "signals1", "signals2", "positions1", "positions2",
            ])
            for day, c1, c2, z, s1, s2, p1, p2 in zip(
                self.dates, self.close1.tolist(), self.close2.tolist(),
                self.zscore.tolist(), self.signals1.tolist(), self.signals2.tolist(),
                self.positions1.tolist(), self.positions2.tolist(),
            ):
                writer.writerow([day.isoformat(), repr(c1), repr(c2), repr(z),
                                 upper, lower, s1, s2, p1, p2])

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
        return cls(
            ticker1=ticker1,
            ticker2=ticker2,
            dates=tuple(date.fromisoformat(r["date"]) for r in rows),
            close1=[float(r["asset1"]) for r in rows],
            close2=[float(r["asset2"]) for r in rows],
            zscore=[float(r["z_score"]) for r in rows],
            upper_limit=float(uppers.pop()),
            lower_limit=float(lowers.pop()),
            signals1=[int(r["signals1"]) for r in rows],
            signals2=[int(r["signals2"]) for r in rows],
            positions1=[int(r["positions1"]) for r in rows],
            positions2=[int(r["positions2"]) for r in rows],
        )


def build_trading_frame(
    pair: AlignedPanel,
    stats: RatioStats,
    upper: float = UPPER_LIMIT,
    lower: float = LOWER_LIMIT,
) -> TradingFrame:
    """Assemble the full trading table for a two-ticker pair panel.

    ``pair`` holds asset1's closes in column 0 and asset2's in column 1 over
    the trading window; ``stats`` come from the fit window.
    """
    z = (_ratio(pair) - stats.mean) / stats.std
    signals1, signals2 = gen_signals(z, upper=upper, lower=lower)
    positions1 = gen_positions(signals1)
    return TradingFrame(
        ticker1=pair.tickers[0],
        ticker2=pair.tickers[1],
        dates=pair.dates,
        close1=pair.closes[:, 0],
        close2=pair.closes[:, 1],
        zscore=z,
        upper_limit=upper,
        lower_limit=lower,
        signals1=signals1,
        signals2=signals2,
        positions1=positions1,
        positions2=-positions1,
    )


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
