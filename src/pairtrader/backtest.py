"""Two-leg backtest accounting: cash, holdings, daily totals, and returns.

Each leg starts with a fixed capital amount; share counts are sized once
from the first close of the window (floor of capital / price) and reused for
every later trade of that leg.  Trades execute at the trigger day's close
with no transaction costs, shorts credit cash immediately, and nothing is
force-liquidated at the end: the final total is mark-to-market.

Currency amounts are carried as exact decimals so the accounting identity
``total = cash1 + cash2 + holdings1 + holdings2`` holds to the last digit.
The module only computes; ``cli`` writes the ledger, summaries and reports,
decimal amounts as their exact ``str``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal, Inexact, localcontext

from .errors import EmptyFrame, EmptyList, NumericError, PriceExceedsCapital
from .signalgen import TradingFrame, Trigger, extract_triggers

DEFAULT_CAPITAL = Decimal("100000")

_CENT = Decimal("0.01")


def _money(value) -> Decimal:
    """Exact decimal for a price or capital amount given as float/int/str."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        # repr() of a Python float is the shortest round-tripping form, so a
        # price parsed from "123.45" comes back as Decimal("123.45") exactly.
        # float() first: a numpy float's repr is "np.float64(123.45)".
        return Decimal(repr(float(value)))
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
    """Daily cash and holdings per leg, plus the executed triggers."""

    ticker1: str
    ticker2: str
    capital_per_leg: Decimal
    shares1: int
    shares2: int
    rows: tuple[LedgerRow, ...]
    triggers: tuple[Trigger, ...]


def size_shares(capital_per_leg, first_close) -> int:
    """Whole shares affordable at the first close: ``floor(capital / price)``."""
    price = _money(first_close)
    if price <= 0:
        raise ValueError("first close must be positive")
    shares = int((_money(capital_per_leg) / price).to_integral_value(rounding=ROUND_FLOOR))
    if shares == 0:
        raise PriceExceedsCapital(
            f"first close {price} exceeds per-leg capital {capital_per_leg}"
        )
    return shares


def run_ledger(frame: TradingFrame, capital_per_leg) -> BacktestLedger:
    """Replay a trading frame into a daily mark-to-market ledger.

    Each leg starts with ``capital_per_leg`` in cash (a Decimal, or a float,
    int or str taken exactly; it must be positive), which the ledger records.
    Every nonzero position delta trades ``delta * shares`` at that day's
    close; holdings are marked to market daily from the signal state.  A
    leg whose first close exceeds the capital raises ``PriceExceedsCapital``
    naming the leg's ticker, and an amount that would not be exact in the
    decimal context's precision (28 digits by default) ``NumericError``.
    """
    capital = _money(capital_per_leg)
    if capital <= 0:
        raise ValueError("capital_per_leg must be positive")
    if len(frame) == 0:
        raise EmptyFrame("trading frame has no rows")

    close1, close2 = frame.close1.tolist(), frame.close2.tolist()
    shares = []
    for ticker, closes in zip(frame.pair.tickers, (close1, close2)):
        try:
            shares.append(size_shares(capital, closes[0]))
        except PriceExceedsCapital as exc:
            raise PriceExceedsCapital(f"{ticker}'s {exc}") from exc
    shares1, shares2 = shares

    cash1 = capital
    cash2 = capital
    rows: list[LedgerRow] = []
    try:
        with localcontext() as context:
            context.traps[Inexact] = True  # a rounded amount would break the identity
            for day, c1, c2, s1, s2, p1, p2 in zip(
                frame.dates.tolist(), close1, close2, frame.signals1.tolist(),
                frame.signals2.tolist(), frame.positions1.tolist(), frame.positions2.tolist(),
            ):
                price1 = _money(c1)
                price2 = _money(c2)
                if p1:
                    cash1 -= p1 * shares1 * price1
                if p2:
                    cash2 -= p2 * shares2 * price2
                holdings1 = s1 * shares1 * price1
                holdings2 = s2 * shares2 * price2
                rows.append(LedgerRow(day, cash1, cash2, holdings1, holdings2,
                                      total=cash1 + cash2 + holdings1 + holdings2))
    except Inexact:
        raise NumericError(f"capital {capital} per leg: ledger amounts exceed "
                           f"{context.prec} significant digits") from None

    return BacktestLedger(
        ticker1=frame.ticker1,
        ticker2=frame.ticker2,
        capital_per_leg=capital,
        shares1=shares1,
        shares2=shares2,
        rows=tuple(rows),
        triggers=tuple(extract_triggers(frame)),
    )


def annual_return_pct(profit, initial_investment) -> Decimal:
    """``profit / initial * 100`` rounded half-away-from-zero to 2 decimals."""
    ratio = _money(profit) / _money(initial_investment) * 100
    return ratio.quantize(_CENT, rounding=ROUND_HALF_UP)


@dataclass(frozen=True)
class PairSummary:
    """Headline result of one pair's backtest."""

    ticker1: str
    ticker2: str
    initial_investment: Decimal
    profit: Decimal
    annual_return: Decimal


def summarize_pair(ledger: BacktestLedger) -> PairSummary:
    """Profit over the window and the percent return on total capital."""
    if not ledger.rows:
        raise EmptyFrame("ledger has no rows")
    initial = 2 * ledger.capital_per_leg
    profit = ledger.rows[-1].total - initial
    return PairSummary(
        ticker1=ledger.ticker1,
        ticker2=ledger.ticker2,
        initial_investment=initial,
        profit=profit,
        annual_return=annual_return_pct(profit, initial),
    )


@dataclass(frozen=True)
class SectorReport:
    """Per-sector roll-up: pair rows sorted by return, best first."""

    sector: str
    rows: tuple[PairSummary, ...]
    n_pairs: int
    n_positive: int
    max_return: Decimal


def sector_report(summaries: list[PairSummary], sector: str) -> SectorReport:
    """Aggregate pair summaries for one sector."""
    if not summaries:
        raise EmptyList(f"sector {sector!r} has no pair summaries")
    rows = tuple(
        sorted(summaries, key=lambda s: (-s.annual_return, s.ticker1, s.ticker2))
    )
    return SectorReport(
        sector=sector,
        rows=rows,
        n_pairs=len(rows),
        n_positive=sum(1 for s in rows if s.profit > 0),
        max_return=rows[0].annual_return,
    )
