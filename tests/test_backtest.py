import csv
import io
from dataclasses import fields
from datetime import date
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from pairtrader.backtest import (
    DEFAULT_CAPITAL,
    LedgerRow,
    PairSummary,
    annual_return_pct,
    run_ledger,
    sector_report,
    size_shares,
    summarize_pair,
)
from pairtrader.cli import RunConfig, _csv, _json, cmd_report
from pairtrader.errors import EmptyFrame, EmptyList, NumericError, PriceExceedsCapital
from pairtrader.signalgen import TradingFrame

from conftest import make_pair


def mk_frame(signals1, close1, close2, start=date(2021, 1, 1)):
    """A frame whose z-scores (-2 per unit of signal) derive ``signals1``."""
    return TradingFrame(
        pair=make_pair(close1, close2, start),
        zscore=[-2.0 * s for s in signals1],
        upper_limit=1.0, lower_limit=-1.0,
    )


FIXTURE = mk_frame(
    signals1=[0, -1, -1, 0, 0],
    close1=[10, 10, 12, 11, 10],
    close2=[10, 10, 9, 10, 10],
)


def replay_triggers_oracle(ledger, frame, capital):
    """Independent cash replay from the trigger list via a stance machine.

    Never looks at the ledger loop's positions arithmetic: the signed trade
    size is reconstructed from the trigger actions alone.
    """
    price = {"asset1": frame.close1.tolist(), "asset2": frame.close2.tolist()}
    shares = {"asset1": ledger.shares1, "asset2": ledger.shares2}
    day_index = {d: i for i, d in enumerate(frame.dates.tolist())}
    cash = {"asset1": capital, "asset2": capital}
    stance = {"asset1": 0, "asset2": 0}
    deltas = {"open_long": 1, "open_short": -1, "flip_to_long": 2, "flip_to_short": -2}
    cash_paths = {"asset1": [], "asset2": []}
    triggers_by_day = {}
    for trig in ledger.triggers:
        triggers_by_day.setdefault((trig.date, trig.leg), []).append(trig)
    for day in frame.dates.tolist():
        for leg in ("asset1", "asset2"):
            for trig in triggers_by_day.get((day, leg), []):
                delta = deltas[trig.action] if trig.action != "close" else -stance[leg]
                assert abs(delta) == trig.lots
                px = Decimal(repr(price[leg][day_index[day]]))
                cash[leg] -= delta * shares[leg] * px
                stance[leg] += delta
            cash_paths[leg].append(cash[leg])
    return cash_paths


class TestSizeShares:
    def test_forced_arithmetic(self):
        assert size_shares(100000, 10) == 10000

    def test_floor(self):
        assert size_shares(100000, 30000) == 3

    def test_zero_share_guard(self):
        with pytest.raises(PriceExceedsCapital):
            size_shares(100000, 150000)

    def test_exact_division(self):
        assert size_shares(Decimal("100000"), Decimal("12.50")) == 8000

    def test_numpy_float_price_is_exact(self):
        # repr() of a numpy float is "np.float64(101.25)", not a decimal literal.
        assert size_shares(100000, np.float64(101.25)) == 987
        assert size_shares(Decimal("101.25"), np.float64(101.25)) == 1


class TestRunLedger:
    def test_five_day_fixture_exact(self):
        # Replayed by hand: short A / long B opens on day 2 at 10/10 and
        # closes on day 4 at 11/10, losing 10000 on the A leg.
        ledger = run_ledger(FIXTURE, DEFAULT_CAPITAL)
        assert ledger.shares1 == 10000 and ledger.shares2 == 10000
        totals = [row.total for row in ledger.rows]
        assert totals == [Decimal(v) for v in (200000, 200000, 170000, 190000, 190000)]
        summary = summarize_pair(ledger)
        assert summary.profit == Decimal("-10000")
        assert summary.annual_return == Decimal("-5.00")

    def test_all_flat_stays_at_capital(self):
        frame = mk_frame([0, 0, 0], [10, 11, 12], [5, 6, 7])
        ledger = run_ledger(frame, DEFAULT_CAPITAL)
        assert all(row.total == Decimal("200000") for row in ledger.rows)
        assert ledger.triggers == ()

    def test_accounting_identity_every_row(self):
        ledger = run_ledger(FIXTURE, DEFAULT_CAPITAL)
        for row in ledger.rows:
            assert row.total == row.cash1 + row.cash2 + row.holdings1 + row.holdings2

    def test_open_position_marks_to_market(self):
        # No forced liquidation: the window ends with a live position and
        # nonzero holdings.
        frame = mk_frame([0, 1, 1], [10, 10, 14], [5, 5, 4])
        ledger = run_ledger(frame, DEFAULT_CAPITAL)
        last = ledger.rows[-1]
        assert last.holdings1 != 0 and last.holdings2 != 0
        assert last.total == last.cash1 + last.cash2 + last.holdings1 + last.holdings2

    def test_amounts_beyond_the_decimal_precision_are_refused(self):
        # At 1e26 a leg, cash in cents needs 29 digits or more: the default
        # 28-digit context would round it and break the identity.  At 1e24
        # every amount fits, and is what 2,000 digits give.
        frame = mk_frame([0, -1, -1, 0], [10.01, 10.37, 12.53, 11.11], [9.99, 10.07, 9.13, 10.01])
        with pytest.raises(NumericError, match=r"^capital 1E\+26 per leg: ledger amounts exceed "
                                               r"28 significant digits$"):
            run_ledger(frame, Decimal("1E+26"))
        ledger = run_ledger(frame, Decimal("1E+24"))
        with localcontext(Context(prec=2000)):
            assert run_ledger(frame, Decimal("1E+24")) == ledger

    def test_monotone_neutrality(self):
        frame = mk_frame([0, 1, 1, 1], [10, 10, 13, 13], [5, 5, 6, 6])
        ledger = run_ledger(frame, DEFAULT_CAPITAL)
        assert ledger.rows[3].total == ledger.rows[2].total

    def test_empty_frame(self):
        with pytest.raises(EmptyFrame):
            run_ledger(
                TradingFrame(make_pair([], []), (), 1.0, -1.0),
                DEFAULT_CAPITAL,
            )

    @pytest.mark.parametrize("capital", [0, "0", Decimal("-1"), -5.0],
                             ids=["int_zero", "str_zero", "decimal_negative", "float_negative"])
    def test_non_positive_capital_rejected(self, capital):
        with pytest.raises(ValueError, match="capital_per_leg must be positive"):
            run_ledger(FIXTURE, capital)

    @pytest.mark.parametrize("capital", [Decimal("50000.10"), "50000.10", 50000.1, 50000],
                             ids=["decimal", "str", "float", "int"])
    def test_capital_taken_exactly_and_recorded(self, capital):
        ledger = run_ledger(FIXTURE, capital)
        assert ledger.capital_per_leg == Decimal(str(capital))
        assert isinstance(ledger.capital_per_leg, Decimal)
        assert ledger.rows[0].cash1 == ledger.capital_per_leg
        assert summarize_pair(ledger).initial_investment == 2 * Decimal(str(capital))

    def test_randomized_fixtures_identity_and_replay_oracle(self):
        rng = np.random.default_rng(101)
        capital = Decimal("100000")
        for case in range(100):
            n = int(rng.integers(2, 40))
            signals = [0]
            for _ in range(n - 1):
                signals.append(int(rng.integers(-1, 2)))
            close1 = np.round(rng.uniform(5, 500, size=n), 2)
            close2 = np.round(rng.uniform(5, 500, size=n), 2)
            frame = mk_frame(signals, close1, close2)
            ledger = run_ledger(frame, capital)

            for row in ledger.rows:
                assert row.total == row.cash1 + row.cash2 + row.holdings1 + row.holdings2

            cash_paths = replay_triggers_oracle(ledger, frame, capital)
            for t, row in enumerate(ledger.rows):
                assert row.cash1 == cash_paths["asset1"][t], f"case {case} day {t}"
                assert row.cash2 == cash_paths["asset2"][t], f"case {case} day {t}"

    def test_flat_at_end_round_trip(self):
        # Signals return to flat, so holdings vanish and the cash delta is
        # exactly the episode-by-episode realized trading result.
        rng = np.random.default_rng(103)
        capital = Decimal("100000")
        for _ in range(30):
            n = int(rng.integers(4, 30))
            signals = [int(rng.integers(-1, 2)) for _ in range(n - 1)] + [0]
            close1 = np.round(rng.uniform(10, 200, size=n), 2)
            close2 = np.round(rng.uniform(10, 200, size=n), 2)
            frame = mk_frame(signals, close1, close2)
            ledger = run_ledger(frame, capital)
            last = ledger.rows[-1]
            assert last.holdings1 == 0 and last.holdings2 == 0

            # Episode oracle for leg 1: sum stance * price change day by day.
            pnl = Decimal("0")
            stance = 0
            for t in range(n):
                if t > 0 and stance != 0:
                    move = Decimal(repr(float(close1[t]))) - Decimal(repr(float(close1[t - 1])))
                    pnl += stance * ledger.shares1 * move
                stance = frame.signals1[t]
            assert last.cash1 - capital == pnl


class TestSummaries:
    def test_published_return_arithmetic(self):
        assert annual_return_pct(35269, 200000) == Decimal("17.63")
        assert annual_return_pct(27773, 200000) == Decimal("13.89")
        assert annual_return_pct(0, 200000) == Decimal("0.00")
        assert annual_return_pct(-17575, 200000) == Decimal("-8.79")

    def test_rounding_is_half_away_from_zero(self):
        assert annual_return_pct(Decimal("12345"), 200000) == Decimal("6.17")
        assert annual_return_pct(Decimal("12350"), 200000) == Decimal("6.18")
        assert annual_return_pct(Decimal("-12350"), 200000) == Decimal("-6.18")

    def test_summary_invariant(self):
        ledger = run_ledger(FIXTURE, DEFAULT_CAPITAL)
        summary = summarize_pair(ledger)
        recomputed = summary.profit / summary.initial_investment * 100
        assert abs(recomputed - summary.annual_return) <= Decimal("0.005")
        assert summary.initial_investment == Decimal("200000")


AUTO_ROWS = [
    ("BF", "AL", 35269), ("EM", "AL", 27773), ("MS", "EM", 23968),
    ("MS", "AL", 22503), ("EM", "BF", 21608), ("MS", "BF", 20300),
]
BANKING_ROWS = [
    ("SB", "IF", 19926), ("FB", "IF", 19300), ("HD", "KM", 11056),
    ("IC", "KM", 3638), ("AX", "SB", -17575),
]


def summaries_from_rows(rows):
    return [
        PairSummary(
            ticker1=a, ticker2=b,
            initial_investment=Decimal("200000"),
            profit=Decimal(profit),
            annual_return=annual_return_pct(profit, 200000),
        )
        for a, b, profit in rows
    ]


class TestSectorReport:
    def test_auto_sector_roll_up(self):
        report = sector_report(summaries_from_rows(AUTO_ROWS), "auto")
        assert report.n_pairs == 6
        assert report.n_positive == 6
        assert report.max_return == Decimal("17.63")
        assert [str(r.annual_return) for r in report.rows] == [
            "17.63", "13.89", "11.98", "11.25", "10.80", "10.15",
        ]

    def test_banking_sector_counts_negatives(self):
        report = sector_report(summaries_from_rows(BANKING_ROWS), "banking")
        assert report.n_pairs == 5
        assert report.n_positive == 4
        assert report.rows[-1].annual_return == Decimal("-8.79")

    def test_single_losing_pair(self):
        report = sector_report(summaries_from_rows([("X", "Y", -5000)]), "solo")
        assert report.n_positive == 0
        assert report.max_return == Decimal("-2.50")

    def test_empty_list(self):
        with pytest.raises(EmptyList):
            sector_report([], "none")

    def test_csv_layout(self, tmp_path):
        # The report command tabulates the pair summaries it finds on disk.
        config = RunConfig(sectors={"auto": []}, out_dir=tmp_path,
                           train_window=(date(2020, 1, 1), date(2020, 12, 31)),
                           test_window=(date(2021, 1, 1), date(2021, 12, 31)))
        for summary in summaries_from_rows(AUTO_ROWS):
            pair_dir = tmp_path / "auto" / "pairs" / f"{summary.ticker1}-{summary.ticker2}"
            (pair_dir / "backtest").mkdir(parents=True)
            (pair_dir / "backtest" / "summary.json").write_bytes(_json(summary))
        lines = cmd_report(config)[1]["sector_auto.csv"].decode("utf-8").splitlines()
        assert lines[0] == "Stock Pair,Init Investment,Profit,Annual Return"
        assert lines[1] == "BF - AL,200000,35269,17.63"


class TestLedgerSerialization:
    def test_csv_round_trip_exact(self):
        ledger = run_ledger(FIXTURE, DEFAULT_CAPITAL)
        header = [f.name for f in fields(LedgerRow)]
        data = _csv(header, ([getattr(row, name) for name in header] for row in ledger.rows))
        back = tuple(
            LedgerRow(date.fromisoformat(r["date"]), *(Decimal(r[k]) for k in header[1:]))
            for r in csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
        )
        assert back == ledger.rows
