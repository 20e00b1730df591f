"""Backtest artifacts against a frozen copy of the tuple-based backtest path.

The module keeps a verbatim copy of the backtest path as it stood when each
price column travelled as a tuple of Python floats: ``ratio_series`` ->
``zscore_series`` -> ``gen_signals``/``gen_positions`` -> ``TradingFrame`` ->
``run_ledger``, along with the writers it serialised through (the
``default=str`` JSON text, ``PairSummary.to_json_dict`` and the CSV bodies).
``cmd_backtest --svg`` must return exactly the bytes that path writes, for
every pair of the demo sector in both spellings.  Numpy scalars
leaking into a writer (``repr`` gives ``np.float64(...)``, ``json`` writes a
numpy integer as a string) or into the Decimal ledger would show here.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, replace
from datetime import date
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import pytest

from pairtrader.backtest import PairSummary, annual_return_pct
from pairtrader.cli import RunConfig, _find_pair, cmd_backtest
from pairtrader.errors import (
    EmptyFrame,
    EmptySeries,
    InvariantViolation,
    LengthMismatch,
    PriceExceedsCapital,
    ZeroVariance,
)
from pairtrader.marketdata import slice_window
from pairtrader.svgchart import line_chart


@dataclass(frozen=True)
class PriceSeries:
    """Stand-in for the removed one-ticker series type: the fields the copy reads."""

    ticker: str
    dates: tuple[date, ...]
    closes: tuple[float, ...]


# --- frozen copy: the JSON writer ----------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"


def summary_to_json_dict(summary: PairSummary) -> dict:
    return {
        "ticker1": summary.ticker1,
        "ticker2": summary.ticker2,
        "initial_investment": str(summary.initial_investment),
        "profit": str(summary.profit),
        "annual_return": str(summary.annual_return),
    }


# --- frozen copy: signalgen -----------------------------------------------------


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
    dates: tuple[date, ...]
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.dates)

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class RatioStats:
    mean: float
    std: float


def column(panel, ticker: str) -> PriceSeries:
    j = panel.tickers.index(ticker)
    return PriceSeries(ticker, panel.dates, tuple(float(c) for c in panel.closes[j]))


def closes_array(series: PriceSeries) -> np.ndarray:
    return np.asarray(series.closes, dtype=float)


def ratio_series(asset1: PriceSeries, asset2: PriceSeries) -> RatioSeries:
    if asset1.dates != asset2.dates:
        raise LengthMismatch(
            f"{asset1.ticker} and {asset2.ticker} are not on the same calendar"
        )
    values = closes_array(asset1) / closes_array(asset2)
    return RatioSeries(dates=asset1.dates, values=tuple(float(v) for v in values))


def fit_ratio_stats(ratio: RatioSeries) -> RatioStats:
    if not ratio.values:
        raise EmptySeries("no ratio observations")
    values = ratio.values_array()
    mean = float(values.mean())
    std = float(values.std())  # population convention
    if std == 0.0:
        raise ZeroVariance("ratio is constant over the fit window")
    return RatioStats(mean=mean, std=std)


def zscore_series(ratio: RatioSeries, stats: RatioStats) -> tuple[float, ...]:
    z = (ratio.values_array() - stats.mean) / stats.std
    return tuple(float(v) for v in z)


def gen_signals(z, upper: float = 1.0, lower: float = -1.0):
    values = np.asarray(z, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("z-scores must be finite")
    signals1 = np.zeros(values.size, dtype=int)
    signals1[values > upper] = -1
    signals1[values < lower] = 1
    return tuple(int(s) for s in signals1), tuple(int(-s) for s in signals1)


def gen_positions(signals) -> tuple[int, ...]:
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


def build_trading_frame(asset1, asset2, stats, upper=1.0, lower=-1.0) -> TradingFrame:
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
    date: date
    leg: str
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


# --- frozen copy: backtest ------------------------------------------------------


def _money(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(repr(value))
    return Decimal(value)


@dataclass(frozen=True)
class LedgerRow:
    date: date
    cash1: Decimal
    cash2: Decimal
    holdings1: Decimal
    holdings2: Decimal
    total: Decimal


@dataclass(frozen=True)
class BacktestLedger:
    ticker1: str
    ticker2: str
    shares1: int
    shares2: int
    rows: tuple[LedgerRow, ...]
    triggers: tuple[Trigger, ...]

    @property
    def final_total(self) -> Decimal:
        return self.rows[-1].total

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["date", "cash1", "cash2", "holdings1", "holdings2", "total"])
            for row in self.rows:
                writer.writerow([
                    row.date.isoformat(),
                    str(row.cash1), str(row.cash2),
                    str(row.holdings1), str(row.holdings2),
                    str(row.total),
                ])


@dataclass(frozen=True)
class BacktestConfig:
    """Stand-in for the removed one-field capital wrapper, as it stood."""

    capital_per_leg: Decimal

    def __post_init__(self) -> None:
        object.__setattr__(self, "capital_per_leg", _money(self.capital_per_leg))
        if self.capital_per_leg <= 0:
            raise ValueError("capital_per_leg must be positive")


def summarize_pair(ledger: BacktestLedger, config: BacktestConfig) -> PairSummary:
    """Stand-in for the old two-argument summary, which read the capital from ``config``."""
    if not ledger.rows:
        raise EmptyFrame("ledger has no rows")
    initial = 2 * config.capital_per_leg
    profit = ledger.final_total - initial
    return PairSummary(
        ticker1=ledger.ticker1,
        ticker2=ledger.ticker2,
        initial_investment=initial,
        profit=profit,
        annual_return=annual_return_pct(profit, initial),
    )


def size_shares(capital_per_leg, first_close) -> int:
    price = _money(first_close)
    if price <= 0:
        raise ValueError("first close must be positive")
    shares = int((_money(capital_per_leg) / price).to_integral_value(rounding=ROUND_FLOOR))
    if shares == 0:
        raise PriceExceedsCapital(
            f"first close {price} exceeds per-leg capital {capital_per_leg}"
        )
    return shares


def run_ledger(frame: TradingFrame, config: BacktestConfig) -> BacktestLedger:
    if len(frame) == 0:
        raise EmptyFrame("trading frame has no rows")
    frame.validate()

    capital = config.capital_per_leg
    shares1 = size_shares(capital, frame.close1[0])
    shares2 = size_shares(capital, frame.close2[0])

    cash1 = capital
    cash2 = capital
    rows: list[LedgerRow] = []
    for t in range(len(frame)):
        price1 = _money(frame.close1[t])
        price2 = _money(frame.close2[t])
        if frame.positions1[t]:
            cash1 -= frame.positions1[t] * shares1 * price1
        if frame.positions2[t]:
            cash2 -= frame.positions2[t] * shares2 * price2
        holdings1 = frame.signals1[t] * shares1 * price1
        holdings2 = frame.signals2[t] * shares2 * price2
        rows.append(
            LedgerRow(
                date=frame.dates[t],
                cash1=cash1,
                cash2=cash2,
                holdings1=holdings1,
                holdings2=holdings2,
                total=cash1 + cash2 + holdings1 + holdings2,
            )
        )

    return BacktestLedger(
        ticker1=frame.ticker1,
        ticker2=frame.ticker2,
        shares1=shares1,
        shares2=shares2,
        rows=tuple(rows),
        triggers=tuple(extract_triggers(frame)),
    )


# --- the reference writer and the comparison --------------------------------------


BACKTEST_FILES = ("trading_frame.csv", "triggers.json", "ledger.csv", "summary.json",
                  "z_band.svg", "portfolio_value.svg")


def write_reference(config: RunConfig, pair: str, out) -> None:
    """What ``cmd_backtest --svg`` wrote through the tuple path, into ``out``."""
    _, pair_panel = _find_pair(config, pair, None)
    asset1, asset2 = pair_panel.tickers
    train = slice_window(pair_panel, *config.train_window)
    stats = fit_ratio_stats(ratio_series(column(train, asset1), column(train, asset2)))
    test = slice_window(pair_panel, *config.test_window)
    frame = build_trading_frame(column(test, asset1), column(test, asset2), stats,
                                upper=config.z_upper, lower=config.z_lower)
    backtest_config = BacktestConfig(capital_per_leg=config.capital_per_leg)
    ledger = run_ledger(frame, backtest_config)
    summary = summarize_pair(ledger, backtest_config)

    out.mkdir(parents=True)
    frame.to_csv(out / "trading_frame.csv")
    (out / "triggers.json").write_text(
        _json_text([t.to_json_dict() for t in ledger.triggers]), encoding="utf-8"
    )
    ledger.to_csv(out / "ledger.csv")
    (out / "summary.json").write_text(_json_text(summary_to_json_dict(summary)), encoding="utf-8")
    (out / "z_band.svg").write_text(
        line_chart(
            frame.dates,
            [
                ("z-score", "steelblue", list(frame.zscore)),
                ("upper", "firebrick", [frame.upper_limit] * len(frame)),
                ("lower", "seagreen", [frame.lower_limit] * len(frame)),
            ],
            f"{asset1}/{asset2} ratio z-score",
        ),
        encoding="utf-8",
    )
    (out / "portfolio_value.svg").write_text(
        line_chart(
            frame.dates,
            [("total value", "steelblue", [float(r.total) for r in ledger.rows])],
            f"{asset1}-{asset2} portfolio value",
        ),
        encoding="utf-8",
    )


@pytest.mark.parametrize("reverse", [False, True], ids=["A,B", "B,A"])
def test_backtest_bytes_match_frozen_tuple_path(synth_dir, tmp_path, reverse):
    config = replace(RunConfig.from_json(synth_dir / "config.json"), out_dir=tmp_path / "run")
    tickers = [t for t, _ in config.sectors["metals"]]
    directories = set()
    for a, b in itertools.combinations(tickers, 2):
        pair = f"{b},{a}" if reverse else f"{a},{b}"
        directory, files = cmd_backtest(config, pair, svg=True)
        expected = tmp_path / "reference" / directory.parent.name
        write_reference(config, pair, expected)
        assert tuple(files) == BACKTEST_FILES, pair
        for name in BACKTEST_FILES:
            assert files[name] == (expected / name).read_bytes(), (pair, name)
        directories.add(directory.as_posix())
    assert len(directories) == 45
    assert all(d.startswith("metals/pairs/") and d.endswith("/backtest") for d in directories)
