"""Acceptance suite: one test per release criterion, with a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte-Carlo criteria use fixed seeds and stated tolerances; nothing
here is calibrated after the fact.
"""

import json
import math
import time
from decimal import Decimal

import numpy as np
import pytest

from pairtrader.backtest import (
    DEFAULT_CAPITAL,
    PairSummary,
    annual_return_pct,
    run_ledger,
    sector_report,
    summarize_pair,
)
from pairtrader.cli import main
from pairtrader.econometrics import ols_through_origin
from pairtrader.signalgen import TradingFrame, gen_positions, gen_signals
from pairtrader.synthetic import PAIR_TICKERS
from pairtrader.unitroot import CRIT, adf_test, engle_granger, mackinnon_crit, mackinnon_pvalue

from conftest import make_pair


def announce(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# --- 1: MacKinnon surface fidelity -------------------------------------------


def test_criterion_01_mackinnon_surface_fidelity():
    value = mackinnon_crit(1, "constant", "1%", 739)
    assert value == pytest.approx(-3.4392, abs=0.0001)
    announce(1, "MacKinnon surface fidelity (-3.4392 at T=739)")


# --- 2: table arithmetic golden test ------------------------------------------

# (ticker pair, profit, printed annual return); the BF-AL profit follows the
# running text (35269), and the HC-LI row is excluded for its printed-sign
# anomaly.
TABLE_ROWS = [
    # auto
    ("BF-AL", 35269, "17.63"), ("EM-AL", 27773, "13.89"), ("MS-EM", 23968, "11.98"),
    ("MS-AL", 22503, "11.25"), ("EM-BF", 21608, "10.80"), ("MS-BF", 20300, "10.15"),
    # banking
    ("SB-IF", 19926, "9.96"), ("FB-IF", 19300, "9.65"), ("HD-KM", 11056, "5.53"),
    ("IC-KM", 3638, "1.82"), ("AX-SB", -17575, "-8.79"),
    # IT (HC-LI excluded)
    ("TC-CF", 17460, "8.73"), ("IF-HC", 10940, "5.47"), ("TM-LS", 6720, "3.36"),
    ("WP-LS", 3740, "1.87"), ("TC-WP", -8660, "-4.33"),
    # pharma
    ("LP-AK", 34986, "17.49"), ("LP-BI", 26993, "13.50"), ("DR-DV", 10942, "5.47"),
    ("CI-BI", 7614, "3.81"), ("LP-LR", -15812, "-7.91"),
    # realty
    ("OR-PE", 32488, "16.24"), ("DL-OR", 27337, "13.67"), ("PM-PE", 27184, "13.59"),
    ("OR-ST", 24481, "12.24"), ("OR-SB", 11711, "5.86"), ("BE-GP", 8339, "4.17"),
    ("PM-BE", 4457, "2.23"),
]


def test_criterion_02_table_arithmetic_golden():
    assert len(TABLE_ROWS) == 28  # 29 published rows minus the excluded one
    for pair, profit, printed in TABLE_ROWS:
        got = annual_return_pct(profit, 200000)
        assert abs(got - Decimal(printed)) <= Decimal("0.01"), (pair, got, printed)
    announce(2, f"table arithmetic golden test ({len(TABLE_ROWS)} rows)")


# --- 3: sector summary golden test --------------------------------------------

SECTOR_FIXTURES = {
    "auto": [("BF", "AL", 35269), ("EM", "AL", 27773), ("MS", "EM", 23968),
             ("MS", "AL", 22503), ("EM", "BF", 21608), ("MS", "BF", 20300)],
    "banking": [("SB", "IF", 19926), ("FB", "IF", 19300), ("HD", "KM", 11056),
                ("IC", "KM", 3638), ("AX", "SB", -17575)],
    # HC-LI enters with the sign-corrected profit so the sector counts match.
    "it": [("TC", "CF", 17460), ("IF", "HC", 10940), ("TM", "LS", 6720),
           ("WP", "LS", 3740), ("TC", "WP", -8660), ("HC", "LI", -13580)],
    "pharma": [("LP", "AK", 34986), ("LP", "BI", 26993), ("DR", "DV", 10942),
               ("CI", "BI", 7614), ("LP", "LR", -15812)],
    "realty": [("OR", "PE", 32488), ("DL", "OR", 27337), ("PM", "PE", 27184),
               ("OR", "ST", 24481), ("OR", "SB", 11711), ("BE", "GP", 8339),
               ("PM", "BE", 4457)],
}

EXPECTED_SUMMARY = {
    "auto": (6, 6, "17.63"),
    "pharma": (5, 4, "17.49"),
    "realty": (7, 7, "16.24"),
    "banking": (5, 4, "9.96"),
    "it": (6, 4, "8.73"),
}


def test_criterion_03_sector_summary_golden():
    for sector, rows in SECTOR_FIXTURES.items():
        summaries = [
            PairSummary(
                ticker1=a, ticker2=b,
                initial_investment=Decimal("200000"),
                profit=Decimal(profit),
                annual_return=annual_return_pct(profit, 200000),
            )
            for a, b, profit in rows
        ]
        report = sector_report(summaries, sector)
        n_pairs, n_positive, max_ret = EXPECTED_SUMMARY[sector]
        assert report.n_pairs == n_pairs, sector
        assert report.n_positive == n_positive, sector
        assert report.max_return == Decimal(max_ret), sector
    announce(3, "sector summary golden test (5 sectors)")


# --- 4: OLS oracle equivalence --------------------------------------------------


def oracle_fit(xs, ys):
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    sxx = math.fsum(x * x for x in xs)
    beta = sxy / sxx
    resid = [y - beta * x for x, y in zip(xs, ys)]
    ssr = math.fsum(e * e for e in resid)
    syy = math.fsum(y * y for y in ys)
    n = len(xs)
    se = math.sqrt((ssr / (n - 1)) / sxx)
    t = beta / se
    mean = math.fsum(resid) / n
    m2 = math.fsum((e - mean) ** 2 for e in resid) / n
    m3 = math.fsum((e - mean) ** 3 for e in resid) / n
    m4 = math.fsum((e - mean) ** 4 for e in resid) / n
    skew = m3 / m2**1.5
    kurt = m4 / m2**2
    return {
        "beta": beta, "se": se, "t": t, "f": t * t,
        "r2": 1.0 - ssr / syy,
        "dw": math.fsum((a - b) ** 2 for a, b in zip(resid[1:], resid[:-1])) / ssr,
        "jb": n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0),
    }


def test_criterion_04_ols_oracle_equivalence():
    rng = np.random.default_rng(2001)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 51))
        x = rng.normal(20.0, 8.0, size=n)
        y = rng.uniform(0.2, 3.0) * x + rng.normal(0.0, rng.uniform(0.5, 4.0), size=n)
        if float(x @ x) == 0.0:
            continue
        report = ols_through_origin(x, y)
        if not math.isfinite(report.durbin_watson):
            continue
        want = oracle_fit(list(map(float, x)), list(map(float, y)))
        assert report.hedge_ratio == pytest.approx(want["beta"], rel=1e-10)
        assert report.se_beta == pytest.approx(want["se"], rel=1e-10)
        assert report.t_stat == pytest.approx(want["t"], rel=1e-10)
        assert report.f_stat == pytest.approx(want["f"], rel=1e-10)
        assert report.r2_uncentered == pytest.approx(want["r2"], rel=1e-10)
        assert report.durbin_watson == pytest.approx(want["dw"], rel=1e-10)
        if n >= 4:
            assert report.jarque_bera == pytest.approx(want["jb"], rel=1e-10)
        assert report.f_stat == pytest.approx(report.t_stat**2, rel=1e-12)
        checked += 1
    announce(4, "OLS oracle equivalence (50 randomized fits, 1e-10 relative)")


# --- 5: ADF statistical size and power -------------------------------------------


def test_criterion_05_adf_size_and_power():
    reps, n = 200, 500
    null_rejections = 0
    for seed in range(reps):
        rng = np.random.default_rng(30_000 + seed)
        walk = np.cumsum(rng.normal(size=n))
        null_rejections += adf_test(walk, "constant").p_value < 0.05
    size = null_rejections / reps
    assert abs(size - 0.05) <= 0.03, f"empirical size {size}"

    power_rejections = 0
    for seed in range(reps):
        rng = np.random.default_rng(40_000 + seed)
        series = np.empty(n)
        innov = rng.normal(size=n)
        series[0] = innov[0]
        for t in range(1, n):
            series[t] = 0.5 * series[t - 1] + innov[t]
        power_rejections += adf_test(series, "constant").p_value < 0.05
    power = power_rejections / reps
    assert power >= 0.95, f"empirical power {power}"
    announce(5, f"ADF size/power (size {size:.3f}, power {power:.3f})")


# --- 6: Engle-Granger size and power ---------------------------------------------


def test_criterion_06_engle_granger_size_and_power():
    n = 750
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(50_000 + seed)
        x = np.cumsum(rng.normal(size=n))
        noise = np.empty(n)
        innov = rng.normal(size=n)
        noise[0] = innov[0]
        for t in range(1, n):
            noise[t] = 0.5 * noise[t - 1] + innov[t]
        y = 2.0 * x + noise
        hits += engle_granger(y, x).p_value < 0.05
    power = hits / 200
    assert power >= 0.90, f"cointegration power {power}"

    rejections = 0
    for seed in range(400):
        rng = np.random.default_rng(60_000 + seed)
        y = np.cumsum(rng.normal(size=n))
        x = np.cumsum(rng.normal(size=n))
        rejections += engle_granger(y, x).p_value < 0.05
    size = rejections / 400
    assert abs(size - 0.05) <= 0.04, f"empirical size {size}"
    announce(6, f"Engle-Granger size/power (power {power:.3f}, size {size:.3f})")


# --- 7: p-value / critical-value self-consistency --------------------------------


def test_criterion_07_pvalue_critical_value_self_consistency():
    checked = 0
    for (n_series, deterministic, level), coeffs in CRIT.items():
        p = mackinnon_pvalue(coeffs[0], n_series, deterministic)
        nominal = float(level.rstrip("%")) / 100.0
        assert abs(p - nominal) <= 0.005, (n_series, deterministic, level, p)
        checked += 1
    assert checked == 9
    announce(7, f"p-value/critical-value self-consistency ({checked} surfaces)")


# --- 8: ledger oracle --------------------------------------------------------------


def fixture_frame(signals1, close1, close2):
    """A frame whose z-scores (-2 per unit of signal) derive ``signals1``."""
    return TradingFrame(
        pair=make_pair(close1, close2),
        zscore=[-2.0 * s for s in signals1],
        upper_limit=1.0, lower_limit=-1.0,
    )


def replay_cash(ledger, frame, capital):
    price = {"asset1": frame.close1.tolist(), "asset2": frame.close2.tolist()}
    shares = {"asset1": ledger.shares1, "asset2": ledger.shares2}
    index = {d: i for i, d in enumerate(frame.dates.tolist())}
    deltas = {"open_long": 1, "open_short": -1, "flip_to_long": 2, "flip_to_short": -2}
    cash = {"asset1": capital, "asset2": capital}
    stance = {"asset1": 0, "asset2": 0}
    by_day = {}
    for trig in ledger.triggers:
        by_day.setdefault((trig.date, trig.leg), []).append(trig)
    paths = {"asset1": [], "asset2": []}
    for day in frame.dates.tolist():
        for leg in ("asset1", "asset2"):
            for trig in by_day.get((day, leg), []):
                delta = deltas[trig.action] if trig.action != "close" else -stance[leg]
                cash[leg] -= delta * shares[leg] * Decimal(repr(price[leg][index[day]]))
                stance[leg] += delta
            paths[leg].append(cash[leg])
    return paths


def test_criterion_08_ledger_oracle():
    frame = fixture_frame([0, -1, -1, 0, 0], [10, 10, 12, 11, 10], [10, 10, 9, 10, 10])
    ledger = run_ledger(frame, DEFAULT_CAPITAL)
    assert [r.total for r in ledger.rows] == [
        Decimal(v) for v in (200000, 200000, 170000, 190000, 190000)
    ]
    assert summarize_pair(ledger).profit == Decimal("-10000")

    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        signals = [0] + [int(rng.integers(-1, 2)) for _ in range(n - 1)]
        close1 = np.round(rng.uniform(1, 900, size=n), 2)
        close2 = np.round(rng.uniform(1, 900, size=n), 2)
        frame = fixture_frame(signals, close1, close2)
        ledger = run_ledger(frame, DEFAULT_CAPITAL)
        for row in ledger.rows:
            assert row.total == row.cash1 + row.cash2 + row.holdings1 + row.holdings2
        paths = replay_cash(ledger, frame, DEFAULT_CAPITAL)
        for t, row in enumerate(ledger.rows):
            assert row.cash1 == paths["asset1"][t]
            assert row.cash2 == paths["asset2"][t]
    announce(8, "ledger oracle (5-day fixture exact, 100 randomized replays)")


# --- 9: signal invariants ------------------------------------------------------------


def test_criterion_09_signal_invariants():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        z = rng.uniform(-3.0, 3.0, size=n)
        # Salt in exact boundary values.
        boundary = rng.integers(0, n)
        z[boundary] = 1.0 if rng.integers(0, 2) else -1.0
        signals1, signals2 = gen_signals(z)
        assert signals2.tolist() == [-s for s in signals1.tolist()]
        positions = gen_positions(signals1)
        running = 0
        for sig, pos in zip(signals1.tolist(), positions.tolist()):
            running += pos
            assert running == sig
        assert signals1[boundary] == 0  # exact +-1 stays flat
    announce(9, "signal invariants (1000 randomized z-series)")


# --- 10: end-to-end pipeline ----------------------------------------------------------


def test_criterion_10_end_to_end_pipeline(synth_dir, tmp_path):
    config = synth_dir / "config.json"
    out1, out2 = tmp_path / "first", tmp_path / "second"

    started = time.perf_counter()
    assert main(["scan", "--config", str(config), "--sector", "metals",
                 "--out", str(out1)]) == 0
    assert main(["backtest", "--config", str(config),
                 "--pair", ",".join(PAIR_TICKERS), "--out", str(out1)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"

    selected = json.loads(
        (out1 / "metals" / "scan" / "selected_pairs.json").read_text()
    )["pairs"]
    assert len(selected) == 1
    assert {selected[0]["predictor_ticker"], selected[0]["target_ticker"]} == set(PAIR_TICKERS)

    pair_dir = next((out1 / "metals" / "pairs").iterdir())
    triggers = json.loads((pair_dir / "backtest" / "triggers.json").read_text())
    for leg in ("asset1", "asset2"):
        actions = {t["action"] for t in triggers if t["leg"] == leg}
        assert actions & {"open_long", "flip_to_long"}, leg
        assert actions & {"open_short", "flip_to_short"}, leg

    assert main(["scan", "--config", str(config), "--sector", "metals",
                 "--out", str(out2)]) == 0
    assert main(["backtest", "--config", str(config),
                 "--pair", ",".join(PAIR_TICKERS), "--out", str(out2)]) == 0
    first_files = sorted(p for p in out1.rglob("*") if p.is_file())
    for path in first_files:
        twin = out2 / path.relative_to(out1)
        assert twin.read_bytes() == path.read_bytes(), path
    announce(10, f"end-to-end pipeline ({elapsed:.2f}s, byte-identical rerun)")
