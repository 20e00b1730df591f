import csv
import dataclasses
import errno
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from collections.abc import Mapping
from contextlib import redirect_stderr
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrader import backtest, cli, econometrics, pairscan, signalgen, unitroot
from pairtrader.backtest import PairSummary
from pairtrader.cli import (RunConfig, _csv, _find_pair, _json, _matrix_csv, _scan_input,
                            cmd_analyze, cmd_backtest, cmd_scan, main, staged_dir)
from pairtrader.marketdata import slice_window
from pairtrader.pairscan import fit_pair
from pairtrader.synthetic import PAIR_TICKERS, weekday_calendar

import golden
from conftest import BLAS_VARS, SRC_DIR, blas_env, read_frame_csv, tree_bytes


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_ledger(path):
    """Rows of a ``ledger.csv`` artifact, every amount an exact decimal."""
    with open(path, newline="", encoding="utf-8") as handle:
        return [{key: value if key == "date" else Decimal(value) for key, value in row.items()}
                for row in csv.DictReader(handle)]


def demo_with(synth_dir, tmp_path, ticker, close, source=None):
    """A copy of the demo config in ``tmp_path`` whose ``ticker`` has its closes from ``close``.

    ``close(day, text)`` gives the close of each row of ``source``'s CSV
    (``ticker``'s own by default), both as text.  A new ticker joins the
    sector last.
    """
    config = json.loads((synth_dir / "config.json").read_text())
    lines = (synth_dir / "data" / f"{source or ticker}.csv").read_text().splitlines()
    path = tmp_path / f"{ticker}.csv"
    path.write_text("\n".join([lines[0]] + [f"{d},{close(d, c)}" for d, c in
                                             (line.split(",") for line in lines[1:])]) + "\n")
    member = {"ticker": ticker, "csv": str(path)}
    members = [member if m["ticker"] == ticker else dict(m, csv=str(synth_dir / m["csv"]))
               for m in config["sectors"]["metals"]]
    config["sectors"]["metals"] = members + ([] if member in members else [member])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def assert_scan_like_the_demo(out, pipeline):
    """Check the scan under ``out``, of the demo with some closes rescaled, against the demo's.

    No pair gets p = 0, and each pair whose roles the rescaling leaves gets
    the demo's p-value but for the rounding of the rescaled closes.
    """
    cells = read_json(out / "metals" / "scan" / "pvalue_matrix.json")["pairs"]
    demo = {(cell["predictor"], cell["target"]): cell["p_value"] for cell in
            read_json(pipeline / "metals" / "scan" / "pvalue_matrix.json")["pairs"]}
    assert len(cells) == 45 and all(cell["p_value"] > 0.0 for cell in cells)
    kept = [(cell["p_value"], demo[cell["predictor"], cell["target"]]) for cell in cells
            if (cell["predictor"], cell["target"]) in demo]
    assert len(kept) >= 36
    assert all(p == pytest.approx(demo_p, rel=1e-9, abs=1e-12) for p, demo_p in kept)


@pytest.fixture(scope="module")
def pipeline(synth_dir, tmp_path_factory):
    """One full scan+analyze+backtest+report run over the synthetic sector."""
    out = tmp_path_factory.mktemp("run")
    config = synth_dir / "config.json"
    assert run("scan", "--config", config, "--sector", "metals", "--out", out) == 0
    assert run("analyze", "--config", config, "--pair", "COBALT,IRON", "--out", out) == 0
    assert run("backtest", "--config", config, "--pair", "COBALT,IRON",
               "--svg", "--out", out) == 0
    assert run("report", "--config", config, "--out", out) == 0
    return out


class TestScan:
    def test_selects_exactly_engineered_pair(self, pipeline):
        payload = read_json(pipeline / "metals" / "scan" / "selected_pairs.json")
        assert len(payload["pairs"]) == 1
        selected = payload["pairs"][0]
        assert {selected["predictor_ticker"], selected["target_ticker"]} == set(PAIR_TICKERS)
        assert selected["coint_p"] < 0.05
        assert selected["near_threshold"] is False

    def test_pvalue_matrix_has_45_cells(self, pipeline):
        payload = read_json(pipeline / "metals" / "scan" / "pvalue_matrix.json")
        assert len(payload["pairs"]) == 45
        with open(pipeline / "metals" / "scan" / "pvalue_matrix.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert len(header) == len(rows) + 1 == 11
        cells = [float(cell) for row in rows for cell in row[1:] if cell]
        assert len(cells) == 45 and all(math.isfinite(p) for p in cells)

    def test_correlation_matrix_shape(self, pipeline):
        lines = (pipeline / "metals" / "scan" / "correlation_matrix.csv").read_text().splitlines()
        assert len(lines) == 11
        header = lines[0].split(",")
        assert len(header) == 11

    def test_single_ticker_sector_is_config_error(self, synth_dir, tmp_path):
        config = json.loads((synth_dir / "config.json").read_text())
        config["sectors"]["tiny"] = config["sectors"]["metals"][:1]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        # Paths in the rewritten config stay relative to synth_dir's layout,
        # so point them back at the real CSVs.
        config["sectors"]["tiny"][0]["csv"] = str(synth_dir / "data" / "AMBER.csv")
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "tiny", "--out", tmp_path / "o") == 1

    def test_unknown_sector_is_config_error(self, synth_dir, tmp_path):
        assert run("scan", "--config", synth_dir / "config.json",
                   "--sector", "nope", "--out", tmp_path) == 1

    def test_unreadable_csv_is_data_error(self, synth_dir, tmp_path, capsys):
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        members[0]["csv"] = str(tmp_path / "gone.csv")
        config["sectors"]["metals"] = members
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--out", tmp_path) == 2
        assert "gone.csv" in capsys.readouterr().err


class TestAnalyze:
    @pytest.mark.parametrize("pair, scan_p, analyze_p", [("GRANITE,DUNE", 0.160, 0.033),
                                                          ("FLINT,AMBER", 0.175, 0.033)])
    def test_scan_and_analyze_verdicts_run_different_tests(self, synth_dir, pair, scan_p,
                                                           analyze_p):
        # The scan's p-value is Engle-Granger's: a regression with an
        # intercept, its residuals read on MacKinnon's two-series surface.
        # analyze fits through the origin, then reads an ADF test with a
        # constant on the one-series surface.  The pair's training dates are
        # the sector's, yet the two verdicts fall on opposite sides of 5%.
        config = RunConfig.from_json(synth_dir / "config.json")
        train = slice_window(_find_pair(config, pair, None)[1], *config.train_window)
        assert train.tickers == tuple(pair.split(","))
        assert train.dates.tolist() == _scan_input(config, "metals")[0].dates.tolist()
        scan = json.loads(cmd_scan(config, "metals")[1]["pvalue_matrix.json"])
        (record,) = [r for r in scan["pairs"] if (r["predictor"], r["target"]) == train.tickers]
        adf = json.loads(cmd_analyze(config, pair)[1]["residual_adf.json"])["adf"]
        predictor, target = train.closes
        assert record["p_value"] == unitroot.engle_granger(target, predictor).p_value
        assert adf["deterministic"] == "constant"
        assert adf["p_value"] == unitroot.mackinnon_pvalue(adf["tau"], 1, "constant")
        assert (round(record["p_value"], 3), round(adf["p_value"], 3)) == (scan_p, analyze_p)

    def test_artifacts_exist_and_parse(self, pipeline):
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "analysis"
        report = read_json(base / "ols_report.json")
        assert report["predictor"] == "COBALT"
        assert report["target"] == "IRON"
        assert report["ols"]["cond_no"] == 1.0
        assert 0.0 < report["ols"]["hedge_ratio"] < 1.0
        text = (base / "ols_summary.txt").read_text()
        assert "R-squared (uncentered):" in text
        assert "IRON (asset2)" in text
        adf = read_json(base / "residual_adf.json")
        assert adf["adf"]["deterministic"] == "constant"
        assert adf["verdict"] in ("stationary at 1%", "stationary at 5%",
                                  "stationary at 10%", "not stationary")

    def test_residuals_csv_matches_training_length(self, pipeline):
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "analysis"
        rows = (base / "residuals.csv").read_text().splitlines()
        report = read_json(base / "ols_report.json")
        assert len(rows) - 1 == report["ols"]["n_obs"] == 740

    def test_missing_ticker_diagnostic(self, synth_dir, tmp_path, capsys):
        code = run("analyze", "--config", synth_dir / "config.json",
                   "--pair", "COBALT,UNOBTANIUM", "--out", tmp_path)
        assert code == 1
        assert "UNOBTANIUM" in capsys.readouterr().err

    def test_pair_outside_named_sector_names_that_sector(self, synth_dir, tmp_path, capsys):
        # Both tickers share a sector, just not the one --sector names.
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        config["sectors"] = {"metals": members[:2], "alloys": members[2:]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("analyze", "--config", path, "--pair", "AMBER,BASALT", "--sector", "alloys",
                   "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "tickers 'AMBER' and 'BASALT' are not both in sector 'alloys'" in err
        assert run("analyze", "--config", path, "--pair", "AMBER,BASALT", "--sector", "metals",
                   "--out", tmp_path / "o") == 0

    def test_runs_no_engle_granger_test(self, synth_dir, tmp_path, monkeypatch):
        import pairtrader.pairscan as pairscan

        calls = []
        for name in ("engle_granger", "engle_granger_block"):
            real = getattr(pairscan, name)
            monkeypatch.setattr(pairscan, name,
                                lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        assert run("analyze", "--config", synth_dir / "config.json", "--pair", "COBALT,IRON",
                   "--out", tmp_path) == 0
        assert calls == []

    @pytest.mark.parametrize("command", ["analyze", "backtest"])
    def test_same_ticker_twice_is_usage_error(self, synth_dir, tmp_path, capsys, command):
        code = run(command, "--config", synth_dir / "config.json",
                   "--pair", "IRON,IRON", "--out", tmp_path)
        assert code == 1
        assert "'IRON'" in capsys.readouterr().err
        assert not (tmp_path / "metals").exists()

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--sector", "metals"], None),
        (["analyze", "--pair", "AMBER,BASALT"],
         "AMBER,BASALT: sums of squares overflow: values too large"),
        (["backtest", "--pair", "AMBER,BASALT"],
         "AMBER,BASALT: sums of squares overflow: values too large"),
    ], ids=["scan", "analyze", "backtest"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_are_one_line_naming_the_pair(self, synth_dir, tmp_path, capsys,
                                                           pipeline, argv, message):
        # AMBER's closes near 1e302: the hedge regression's sums of squares,
        # and the ratio's, overflow.  analyze once ended in a
        # ZeroDivisionError traceback, and backtest warned of an overflow
        # before its error line.  No warning may come before that line.  The
        # scan, which takes each ticker at unit scale, once ended with the
        # same error and now runs as on the demo.
        config = demo_with(synth_dir, tmp_path, "AMBER", lambda day, close: close + "e300")
        code = run(*argv, "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
            assert_scan_like_the_demo(tmp_path / "o", pipeline)
            return
        assert code == 3
        assert err.splitlines() == [f"pairtrader: error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--sector", "metals"], None),
        (["analyze", "--pair", "AMBER,BASALT"],
         "AMBER,BASALT: standard error underflows: values too small"),
    ], ids=["scan", "analyze"])
    @pytest.mark.filterwarnings("error")
    def test_underflowing_sums_are_one_line_naming_the_pair(self, synth_dir, tmp_path, capsys,
                                                            pipeline, argv, message):
        # AMBER's closes near 1e-300 against BASALT's near 100: the hedge
        # ratio's residuals move, but their squares underflow to 0.  analyze
        # once called the pair "degenerate (constant residuals)" with hedge
        # ratio 0, and then gave it t = inf: only exact constancy earns those.
        # The scan once scored all nine AMBER pairs p = 0, and then ended
        # with "unit-root regression is singular"; at unit scale it runs as
        # on the demo.
        config = demo_with(synth_dir, tmp_path, "AMBER", lambda day, close: close + "e-300")
        code = run(*argv, "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
            assert_scan_like_the_demo(tmp_path / "o", pipeline)
            return
        assert code == 3
        assert err.splitlines() == [f"pairtrader: error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_tiny_iron_and_cobalt_scan_as_the_demo(self, synth_dir, tmp_path, capsys, pipeline):
        # IRON's and COBALT's closes near 1e-162, whose residuals' squares
        # are subnormal: the scan once ended with "fits exactly".
        config = iron_and_cobalt_tiny(synth_dir, tmp_path, "e-162")
        assert run("scan", "--sector", "metals", "--config", config, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""
        assert_scan_like_the_demo(tmp_path / "o", pipeline)

    def test_pair_order_does_not_matter(self, synth_dir, tmp_path):
        out = tmp_path / "o"
        assert run("analyze", "--config", synth_dir / "config.json",
                   "--pair", "IRON,COBALT", "--out", out) == 0
        assert (out / "metals" / "pairs" / "COBALT-IRON" / "analysis").is_dir()


class TestExactDependence:
    def test_second_share_class_is_marked_and_selected(self, synth_dir, pipeline, tmp_path):
        # HOLLY2 closes are exactly twice HOLLY's, so the pair's Engle-Granger
        # residuals are exactly zero.
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        lines = (synth_dir / "data" / "HOLLY.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        twin = tmp_path / "HOLLY2.csv"
        twin.write_text("\n".join([lines[0]] + [f"{d},{Decimal(c) * 2}" for d, c in rows]) + "\n")
        config["sectors"]["metals"] = members + [{"ticker": "HOLLY2", "csv": str(twin)}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"

        assert run("scan", "--config", path, "--sector", "metals", "--out", out) == 0

        cells = read_json(out / "metals" / "scan" / "pvalue_matrix.json")["pairs"]
        assert [c for c in cells if "reason" in c] == [{
            "ticker_a": "HOLLY", "ticker_b": "HOLLY2", "p_value": 0.0,
            "predictor": "HOLLY2", "target": "HOLLY", "reason": "exact linear dependence",
        }]
        untouched = [c for c in cells if "HOLLY2" not in (c["ticker_a"], c["ticker_b"])]
        assert untouched == read_json(pipeline / "metals" / "scan" / "pvalue_matrix.json")["pairs"]
        selected = read_json(out / "metals" / "scan" / "selected_pairs.json")["pairs"]
        assert selected[0] == {"predictor_ticker": "HOLLY2", "target_ticker": "HOLLY",
                               "coint_p": 0.0, "near_threshold": False}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), column=st.integers(0, 3),
           kind=st.sampled_from(["scaled", "duplicated", "doubled"]),
           exponent=st.integers(-300, 6))
    @example(seed=0, column=0, kind="scaled", exponent=-300)
    @example(seed=25, column=1, kind="scaled", exponent=-162)
    def test_p_zero_only_for_exactly_constant_residuals(self, seed, column, kind, exponent):
        # Four random walks over 80 weekdays, one of them scaled by
        # 10**exponent, or joined by its copy or its double.  The scan either
        # ends in one error line naming a pair or a ticker, or scores p = 0
        # only where a pair's stage-1 residuals, at ``unit_rows``' scale,
        # have range 0.  A scaled ticker is scanned like any other.  Closes
        # near 1e-300 once scored every pair of the scaled ticker p = 0, and
        # near 1e-162, whose residuals' squares are subnormal, one pair
        # tau = -inf; then both ended the scan with a fault.
        rng = np.random.default_rng(seed)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (4, 80)), axis=1))
        tickers = ["ALPHA", "BRAVO", "CHARLIE", "DELTA"]
        if kind == "scaled":
            closes[column] *= 10.0**exponent
        else:
            tickers.append("XRAY")
            closes = np.vstack([closes, closes[column] * (1.0 if kind == "duplicated" else 2.0)])
        days = [date(2020, 1, 6) + timedelta(days=7 * (k // 5) + k % 5) for k in range(80)]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for ticker, row in zip(tickers, closes):
                (root / f"{ticker}.csv").write_text("Date,Close\n" + "".join(
                    f"{day.isoformat()},{close!r}\n" for day, close in zip(days, row.tolist())))
            (root / "config.json").write_text(json.dumps({
                "sectors": {"s": [{"ticker": t, "csv": f"{t}.csv"} for t in tickers]},
                "train_window": [days[0].isoformat(), days[59].isoformat()],
                "test_window": [days[60].isoformat(), days[-1].isoformat()],
            }))
            err = io.StringIO()
            with redirect_stderr(err):
                code = run("scan", "--config", root / "config.json", "--sector", "s",
                           "--out", root / "o")
            assert not (code and kind == "scaled"), err.getvalue()
            if code:
                (line,) = [line for line in err.getvalue().splitlines()
                           if line.startswith("pairtrader: error: ")]
                assert code in (2, 3) and "Traceback" not in err.getvalue()
                assert line.startswith("pairtrader: error: s: ")
                assert "pair (" in line or any(ticker in line for ticker in tickers)
                return
            cells = read_json(root / "o" / "s" / "scan" / "pvalue_matrix.json")["pairs"]
            config = RunConfig.from_json(root / "config.json")
            train, _ = cli._scan_input(config, "s")
        terms = unitroot.stage1_terms(unitroot.unit_rows(train.closes))
        for cell in cells:
            if cell["p_value"] == 0.0:
                targ, pred = (train.tickers.index(cell[key]) for key in ("target", "predictor"))
                slope, intercept = unitroot.stage1_fit(terms, np.array([targ]), np.array([pred]))
                resid = terms.rows[targ] - intercept[0] - slope[0] * terms.rows[pred]
                assert np.ptp(resid) == 0.0, cell


def write_sector_csvs(root, days, closes, missing, train_days):
    """CSVs and a config for sector "s" of ``closes`` (ticker -> closes on ``days``).

    Ticker t lacks the dates at the indices ``missing[t]``; training covers
    the first ``train_days`` days and testing the rest.
    """
    for ticker, row in closes.items():
        skip = missing.get(ticker, ())
        (root / f"{ticker}.csv").write_text("Date,Close\n" + "".join(
            f"{day.isoformat()},{close!r}\n" for i, (day, close) in enumerate(zip(days, row))
            if i not in skip))
    path = root / "config.json"
    path.write_text(json.dumps({
        "sectors": {"s": [{"ticker": t, "csv": f"{t}.csv"} for t in closes]},
        "train_window": [days[0].isoformat(), days[train_days - 1].isoformat()],
        "test_window": [days[train_days].isoformat(), days[-1].isoformat()],
    }))
    return path


class TestPairRoles:
    """The scan and the pair commands give every pair the same predictor."""

    def test_scan_and_analyze_name_the_same_predictor(self, tmp_path):
        # C lacks the last 20 training dates, where B sits 5 below A.  On the
        # sector-wide join B is 0.3 above A; over each one's own training rows
        # B is 0.05 below.  Keyed on the join, the scan once made B the
        # predictor, while analyze, keyed on the pair's own join, made it A.
        rng = np.random.default_rng(5)
        days = weekday_calendar(date(2020, 1, 6), 400)
        a = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 400)))
        b = a + 0.3 + rng.normal(0.0, 0.01, 400)
        b[280:300] = a[280:300] - 5.0
        c = 80.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 400)))
        config = write_sector_csvs(tmp_path, days, {"A": a.tolist(), "B": b.tolist(),
                                                    "C": c.tolist()},
                                   {"C": set(range(280, 300))}, train_days=300)
        out = tmp_path / "out"
        assert run("scan", "--config", config, "--sector", "s", "--out", out) == 0
        cells = read_json(out / "s" / "scan" / "pvalue_matrix.json")["pairs"]
        (cell,) = [c for c in cells if {c["ticker_a"], c["ticker_b"]} == {"A", "B"}]
        selected = read_json(out / "s" / "scan" / "selected_pairs.json")["pairs"]
        assert [(p["predictor_ticker"], p["target_ticker"]) for p in selected][:1] == [("A", "B")]
        for pair in ("A,B", "B,A"):
            assert run("analyze", "--config", config, "--pair", pair, "--out", out) == 0
        assert [p.name for p in (out / "s" / "pairs").iterdir()] == ["A-B"]
        report = read_json(out / "s" / "pairs" / "A-B" / "analysis" / "ols_report.json")
        assert (cell["predictor"], cell["target"]) == (report["predictor"], report["target"])
        assert (cell["predictor"], cell["target"]) == ("A", "B")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_tickers=st.integers(3, 5), data=st.data())
    def test_scan_roles_are_the_pair_commands_roles(self, seed, n_tickers, data):
        # Tickers a few tenths apart on a shared walk, each lacking up to six
        # of 90 weekdays: the dates a ticker lacks can decide its pairs' roles.
        # At most 30 dates are lost, so at least 30 of the 60 training dates
        # are common to all.
        rng = np.random.default_rng(seed)
        days = weekday_calendar(date(2020, 1, 6), 90)
        walk = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 90)))
        tickers = [f"T{k}" for k in range(n_tickers)]
        closes = {t: (walk + rng.uniform(-0.5, 0.5) + rng.normal(0.0, 0.2, 90)).tolist()
                  for t in tickers}
        missing = {t: data.draw(st.sets(st.integers(0, 89), max_size=6), label=t)
                   for t in tickers}
        with tempfile.TemporaryDirectory() as tmp:
            config = RunConfig.from_json(
                write_sector_csvs(Path(tmp), days, closes, missing, train_days=60))
            cells = json.loads(cmd_scan(config, "s")[1]["pvalue_matrix.json"])["pairs"]
            assert len(cells) == n_tickers * (n_tickers - 1) // 2
            for cell in cells:
                _, panel = _find_pair(config, f"{cell['ticker_a']},{cell['ticker_b']}", None)
                assert panel.tickers == (cell["predictor"], cell["target"]), cell


class TestBacktest:
    def test_both_directions_triggered_per_leg(self, pipeline):
        triggers = read_json(
            pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest" / "triggers.json"
        )
        for leg in ("asset1", "asset2"):
            actions = {t["action"] for t in triggers if t["leg"] == leg}
            assert actions & {"open_long", "flip_to_long"}
            assert actions & {"open_short", "flip_to_short"}

    def test_frame_csv_round_trips(self, pipeline):
        # Every cell is determined by the frame the file describes: floats in
        # their shortest round-tripping form, signals and positions derived.
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest"
        frame, rows = read_frame_csv((base / "trading_frame.csv").read_bytes(), "COBALT", "IRON")
        assert len(frame) == 250
        for name in ("signals1", "signals2", "positions1", "positions2"):
            assert [int(row[name]) for row in rows] == getattr(frame, name).tolist()
        for row in rows:
            for name in ("asset1", "asset2", "z_score", "upper_limit", "lower_limit"):
                assert repr(float(row[name])) == row[name]

    def test_ledger_identity_from_csv(self, pipeline):
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest"
        rows = read_ledger(base / "ledger.csv")
        assert len(rows) == 250
        for row in rows:
            parts = (row[name] for name in ("cash1", "cash2", "holdings1", "holdings2"))
            assert row["total"] == sum(parts)

    def test_summary_consistent_with_ledger(self, pipeline):
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest"
        summary = read_json(base / "summary.json")
        rows = read_ledger(base / "ledger.csv")
        assert Decimal(summary["profit"]) == rows[-1]["total"] - Decimal("200000")

    def test_svg_text_is_escaped(self, synth_dir, tmp_path):
        # A real ticker such as M&M must not break the charts' XML.
        config = json.loads((synth_dir / "config.json").read_text())
        config["sectors"] = {"auto": [
            {"ticker": "IRON", "csv": str(synth_dir / "data" / "IRON.csv")},
            {"ticker": "M&M", "csv": str(synth_dir / "data" / "COBALT.csv")},
        ]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run("backtest", "--config", path, "--pair", "IRON,M&M", "--svg",
                   "--out", out) == 0
        base = out / "auto" / "pairs" / "M&M-IRON" / "backtest"
        titles = {name: ET.parse(base / name).getroot().find("{http://www.w3.org/2000/svg}text")
                  for name in ("z_band.svg", "portfolio_value.svg")}
        assert titles["z_band.svg"].text == "M&M/IRON ratio z-score"
        assert titles["portfolio_value.svg"].text == "M&M-IRON portfolio value"

    def test_svg_artifacts_written(self, pipeline):
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest"
        for name in ("z_band.svg", "portfolio_value.svg"):
            text = (base / name).read_text()
            assert text.startswith("<svg ") and "<polyline" in text

    def test_engineered_pair_is_profitable(self, pipeline):
        base = pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest"
        summary = read_json(base / "summary.json")
        assert Decimal(summary["profit"]) > 0
        assert Decimal(summary["annual_return"]) > 0

    def test_band_never_crossed_means_no_trades(self, synth_dir, tmp_path):
        # Ratio wiggles during training (so the fit has variance) but sits
        # exactly on the training mean throughout the test window: z stays
        # at 0, no triggers fire, and the return is 0.00%.
        base_config = json.loads((synth_dir / "config.json").read_text())
        train_days = 740
        iron = [line.split(",") for line in
                (synth_dir / "data" / "IRON.csv").read_text().splitlines()[1:]]
        data = tmp_path / "data"
        data.mkdir()
        a_rows, b_rows = ["Date,Close"], ["Date,Close"]
        for i, (day, px) in enumerate(iron):
            a = float(px) + 100.0
            k = 2.0 + (0.01 if i % 2 else -0.01) if i < train_days else 2.0
            a_rows.append(f"{day},{a:.4f}")
            b_rows.append(f"{day},{a / k:.10f}")
        (data / "AAA.csv").write_text("\n".join(a_rows) + "\n")
        (data / "BBB.csv").write_text("\n".join(b_rows) + "\n")
        config = {
            "sectors": {"quiet": [
                {"ticker": "AAA", "csv": "data/AAA.csv"},
                {"ticker": "BBB", "csv": "data/BBB.csv"},
            ]},
            "train_window": base_config["train_window"],
            "test_window": base_config["test_window"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run("backtest", "--config", path, "--pair", "AAA,BBB", "--out", out) == 0
        backtest_dir = out / "quiet" / "pairs" / "AAA-BBB" / "backtest"
        assert read_json(backtest_dir / "triggers.json") == []
        summary = read_json(backtest_dir / "summary.json")
        assert Decimal(summary["profit"]) == 0
        assert summary["annual_return"] == "0.00"


def iron_tiny_from_the_test_window(synth_dir, tmp_path):
    """The demo with IRON's closes 1e-308 from the first test-window date on."""
    start = json.loads((synth_dir / "config.json").read_text())["test_window"][0]
    return demo_with(synth_dir, tmp_path, "IRON",
                     lambda day, close: "1e-308" if day >= start else close)


def iron_and_cobalt_tiny(synth_dir, tmp_path, exponent="e-300"):
    """The demo with IRON's and COBALT's closes times ``1{exponent}``, 1e-300 by default."""
    demo_with(synth_dir, tmp_path, "IRON", lambda day, close: close + exponent)
    path = demo_with(synth_dir, tmp_path, "COBALT", lambda day, close: close + exponent)
    config = json.loads(path.read_text())
    for member in config["sectors"]["metals"]:
        if member["ticker"] == "IRON":
            member["csv"] = str(tmp_path / "IRON.csv")
    path.write_text(json.dumps(config))
    return path


def with_twin(synth_dir, tmp_path):
    """The demo plus TWIN, whose every close is twice AMBER's."""
    return demo_with(synth_dir, tmp_path, "TWIN", lambda day, close: f"{2 * float(close):.2f}",
                     source="AMBER")


class TestPairFaults:
    @pytest.mark.parametrize("config, argv, code, message", [
        # COBALT's closes over IRON's tiny ones: the test window's ratio
        # overflows.  This ended in a numpy warning and a ValueError traceback.
        pytest.param(iron_tiny_from_the_test_window, ["backtest", "--pair", "IRON,COBALT"], 3,
                     "IRON,COBALT: ratio z-scores overflow: values too large", id="ratio-overflow"),
        pytest.param(with_twin, ["backtest", "--pair", "TWIN,AMBER"], 3,
                     "TWIN,AMBER: ratio is constant over the fit window", id="constant-ratio"),
        pytest.param(None, ["backtest", "--pair", "IRON,COBALT", "--capital", "1"], 3,
                     "IRON,COBALT: COBALT's first close 295.44 exceeds per-leg capital 1",
                     id="capital"),
        # 1e26 a leg needs cash of more than 28 digits.  The ledger once
        # rounded it and broke its identity on 111 of 250 rows.
        pytest.param(None, ["backtest", "--pair", "IRON,COBALT", "--capital", "1e26"], 3,
                     "IRON,COBALT: capital 100000000000000000000000000 per leg: ledger amounts "
                     "exceed 28 significant digits", id="capital-beyond-precision"),
        pytest.param(None, ["backtest", "--pair", "IRON,COBALT", "--test-start", "2030-01-01",
                            "--test-end", "2030-12-31"], 2,
                     "IRON,COBALT: no observations in [2030-01-01, 2030-12-31]",
                     id="empty-test-window"),
        # Both legs near 1e-300: the hedge regression's sum of squares
        # underflows to 0.  This line once named no pair.
        pytest.param(iron_and_cobalt_tiny, ["analyze", "--pair", "IRON,COBALT"], 3,
                     "IRON,COBALT: regressor's sum of squares is zero", id="regressor-underflow"),
        # Both legs near 1e-162: the sums of squares are subnormal but not 0,
        # and the hedge ratio's standard error underflows to 0.  t = beta / se
        # once ended in a ZeroDivisionError traceback.
        pytest.param(lambda synth_dir, tmp_path: iron_and_cobalt_tiny(synth_dir, tmp_path, "e-162"),
                     ["analyze", "--pair", "COBALT,IRON"], 3,
                     "COBALT,IRON: standard error underflows: values too small",
                     id="standard-error-underflow"),
        pytest.param(None, ["analyze", "--pair", "IRON,COBALT", "--train-end", "2018-01-20"], 2,
                     "IRON,COBALT: need >= 30 common training dates, have 15",
                     id="short-training-window"),
        # backtest once fitted its bands on any 2 training dates, and took 1
        # for a constant ratio; it needs the 30 that analyze needs.
        pytest.param(None, ["backtest", "--pair", "IRON,COBALT", "--train-end", "2018-01-02"], 2,
                     "IRON,COBALT: need >= 30 common training dates, have 2",
                     id="backtest-window-of-2"),
        pytest.param(None, ["backtest", "--pair", "IRON,COBALT", "--train-end", "2018-01-01"], 2,
                     "IRON,COBALT: need >= 30 common training dates, have 1",
                     id="backtest-window-of-1"),
        # An empty training window once named IRON alone in analyze, and
        # every ticker of the sector in scan.
        pytest.param(None, ["analyze", "--pair", "IRON,COBALT", "--train-start", "2010-01-01",
                            "--train-end", "2010-12-31"], 2,
                     "IRON,COBALT: no observations in [2010-01-01, 2010-12-31]",
                     id="empty-training-window"),
        pytest.param(None, ["scan", "--sector", "metals", "--train-start", "2010-01-01",
                            "--train-end", "2010-12-31"], 2,
                     "metals: no observations in [2010-01-01, 2010-12-31]",
                     id="empty-scan-window"),
        # A sector's window too short to scan names the sector, whichever
        # rule would have bound first (the correlations need 4 dates).
        pytest.param(None, ["scan", "--sector", "metals", "--train-end", "2018-01-20"], 2,
                     "metals: need >= 30 common training dates, have 15", id="short-scan-window"),
        pytest.param(None, ["scan", "--sector", "metals", "--train-end", "2018-01-02"], 2,
                     "metals: need >= 30 common training dates, have 2", id="scan-window-of-2"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_a_faulty_pair_is_one_line_naming_it(self, synth_dir, tmp_path, capsys,
                                                 config, argv, code, message):
        path = config(synth_dir, tmp_path) if config else synth_dir / "config.json"
        assert run(*argv, "--config", path, "--out", tmp_path / "o") == code
        assert capsys.readouterr().err.splitlines() == [f"pairtrader: error: {message}"]
        assert not (tmp_path / "o").exists()


class TestReport:
    def test_sector_table_and_summary(self, pipeline):
        table = (pipeline / "report" / "sector_metals.csv").read_text().splitlines()
        assert table[0] == "Stock Pair,Init Investment,Profit,Annual Return"
        assert table[1].startswith("COBALT - IRON,200000,")
        summary = (pipeline / "report" / "summary.csv").read_text().splitlines()
        assert summary[0] == "Sector,No of Pairs,Positive Return Pairs,Max Ret"
        assert summary[1].startswith("metals,1,")

    def test_totals_agree_with_pair_summaries(self, pipeline):
        pair_summary = read_json(
            pipeline / "metals" / "pairs" / "COBALT-IRON" / "backtest" / "summary.json"
        )
        sector = read_json(pipeline / "report" / "sector_metals.json")
        assert sector["rows"] == [pair_summary]
        assert sector["max_return"] == pair_summary["annual_return"]
        cross = read_json(pipeline / "report" / "summary.json")
        assert cross[0]["max_return"] == pair_summary["annual_return"]

    def test_empty_artifacts_is_data_error(self, synth_dir, tmp_path):
        assert run("report", "--config", synth_dir / "config.json",
                   "--out", tmp_path / "empty") == 2

    @pytest.mark.parametrize("text", [
        '{"ticker1": "X"}',
        '{"ticker1": "X", "ticker2": "Y", "initial_investment": "200000",'
        ' "profit": "lots", "annual_return": "1.5"}',
        "{not json",
        '["ticker1", "X"]',
        '{"ticker1": 5, "ticker2": "Y", "initial_investment": "200000",'
        ' "profit": "1", "annual_return": "1.5"}',
    ], ids=["missing_key", "non_decimal_amount", "not_json", "not_an_object",
            "non_string_ticker"])
    def test_malformed_summary_is_data_error(self, synth_dir, tmp_path, capsys, text):
        summary = tmp_path / "metals" / "pairs" / "X-Y" / "backtest" / "summary.json"
        summary.parent.mkdir(parents=True)
        summary.write_text(text, encoding="utf-8")
        assert run("report", "--config", synth_dir / "config.json", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("pairtrader: error: ") and str(summary) in err
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, synth_dir, pipeline, tmp_path):
        config = synth_dir / "config.json"
        second = tmp_path / "second"
        assert run("scan", "--config", config, "--sector", "metals", "--out", second) == 0
        assert run("backtest", "--config", config, "--pair", "COBALT,IRON",
                   "--svg", "--out", second) == 0
        assert run("report", "--config", config, "--out", second) == 0

        for rel in (
            Path("metals/scan/correlation_matrix.csv"),
            Path("metals/scan/pvalue_matrix.csv"),
            Path("metals/scan/pvalue_matrix.json"),
            Path("metals/scan/selected_pairs.json"),
            Path("metals/pairs/COBALT-IRON/backtest/trading_frame.csv"),
            Path("metals/pairs/COBALT-IRON/backtest/triggers.json"),
            Path("metals/pairs/COBALT-IRON/backtest/ledger.csv"),
            Path("metals/pairs/COBALT-IRON/backtest/summary.json"),
            Path("metals/pairs/COBALT-IRON/backtest/z_band.svg"),
            Path("metals/pairs/COBALT-IRON/backtest/portfolio_value.svg"),
            Path("report/sector_metals.csv"),
            Path("report/summary.csv"),
            Path("report/summary.json"),
        ):
            assert (pipeline / rel).read_bytes() == (second / rel).read_bytes(), rel

    def test_doubled_closes_give_identical_scan_tree(self, synth_dir, pipeline, tmp_path):
        # Doubling a close is exact in binary floating point, and every scan
        # statistic is scale-free, so not one byte of the scan may change.
        (tmp_path / "data").mkdir()
        for src in (synth_dir / "data").glob("*.csv"):
            header, *rows = src.read_text(encoding="utf-8").splitlines()
            doubled = [f"{day},{2 * float(close)!r}"
                       for day, close in (row.split(",") for row in rows)]
            (tmp_path / "data" / src.name).write_text("\n".join([header, *doubled]) + "\n",
                                                      encoding="utf-8")
        (tmp_path / "config.json").write_bytes((synth_dir / "config.json").read_bytes())
        out = tmp_path / "out"
        assert run("scan", "--config", tmp_path / "config.json", "--sector", "metals",
                   "--out", out) == 0
        scan = sorted(p.name for p in (pipeline / "metals" / "scan").iterdir())
        assert sorted(p.name for p in (out / "metals" / "scan").iterdir()) == scan
        for name in scan:
            assert ((out / "metals" / "scan" / name).read_bytes()
                    == (pipeline / "metals" / "scan" / name).read_bytes()), name


class TestConfigSurface:
    def test_usage_error_without_config(self):
        assert run("scan", "--sector", "metals") == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_missing_config_file(self, tmp_path):
        assert run("scan", "--config", tmp_path / "nope.json", "--sector", "s") == 1

    def test_defaults_are_the_library_defaults(self, synth_dir):
        config = RunConfig.from_json(synth_dir / "config.json")
        assert config.coint_threshold == pairscan.DEFAULT_THRESHOLD
        assert config.near_eps == pairscan.DEFAULT_NEAR_EPS
        assert config.z_upper == signalgen.UPPER_LIMIT
        assert config.z_lower == signalgen.LOWER_LIMIT
        assert config.capital_per_leg == backtest.DEFAULT_CAPITAL

    def test_env_var_sets_out_dir(self, synth_dir, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("PAIRTRADER_OUT", str(target))
        assert run("scan", "--config", synth_dir / "config.json", "--sector", "metals") == 0
        assert (target / "metals" / "scan" / "selected_pairs.json").exists()

    def test_flag_overrides_threshold(self, synth_dir, tmp_path):
        out = tmp_path / "strict"
        assert run("scan", "--config", synth_dir / "config.json", "--sector", "metals",
                   "--threshold", "1e-40", "--near-eps", "0", "--out", out) == 0
        payload = read_json(out / "metals" / "scan" / "selected_pairs.json")
        assert payload["pairs"] == []

    def test_capital_override_scales_summary(self, synth_dir, tmp_path):
        out = tmp_path / "cap"
        assert run("backtest", "--config", synth_dir / "config.json",
                   "--pair", "IRON,COBALT", "--capital", "200000", "--out", out) == 0
        summary = read_json(out / "metals" / "pairs" / "COBALT-IRON"
                            / "backtest" / "summary.json")
        assert summary["initial_investment"] == "400000"

    @pytest.mark.parametrize("exponent_form, plain", [("1e5", "100000"), ("1.5e3", "1500")])
    def test_capital_in_exponent_form_writes_the_plain_bytes(self, synth_dir, tmp_path,
                                                             exponent_form, plain):
        # "1e5" used to write "2E+5" and "1E+5" where "100000" writes 200000 and 100000.
        trees = {}
        for capital in (exponent_form, plain):
            out = tmp_path / capital
            assert run("backtest", "--config", synth_dir / "config.json", "--pair",
                       "IRON,COBALT", "--capital", capital, "--out", out) == 0
            trees[capital] = tree_bytes(out)
        assert trees[exponent_form] == trees[plain]
        summary = read_json(tmp_path / plain / "metals" / "pairs" / "COBALT-IRON"
                            / "backtest" / "summary.json")
        assert summary["initial_investment"] == str(2 * int(plain))

    @pytest.mark.parametrize("raw, written", [
        ("1e5", "100000"), ("1.5e3", "1500"), ("1E+2", "100"), (100000, "100000"),
        ("100000", "100000"), ("2500.50", "2500.50"), ("1.25e1", "12.5"),
        (100000.0, "100000.0"), ("0.5", "0.5"),
    ])
    def test_capital_keeps_plain_and_fractional_forms(self, raw, written):
        assert str(cli._capital(raw)) == written

    def test_invalid_window_ordering_rejected(self, synth_dir, tmp_path):
        assert run("scan", "--config", synth_dir / "config.json", "--sector", "metals",
                   "--train-end", "2021-12-31", "--out", tmp_path) == 1

    @pytest.mark.parametrize("command, edit, flags, named, code", [
        ("scan", lambda c: c.update(capital_per_leg="abc"), [], "capital_per_leg", 1),
        ("scan", lambda c: c.update(z_upper="x"), [], "z_upper", 1),
        ("scan", lambda c: c["sectors"]["metals"][0].pop("ticker") and None, [],
         "ticker", 1),
        ("scan", lambda c: c.update(sectors=["metals"]), [], "sectors", 1),
        ("scan", lambda c: c.update(capital_per_leg="NaN"), [], "capital_per_leg", 1),
        ("scan", lambda c: c.update(near_eps=math.nan), [], "near_eps", 1),
        ("scan", lambda c: c.update(near_eps=math.inf), [], "near_eps", 1),
        ("scan", lambda c: None, ["--near-eps", "inf"], "near_eps", 1),
        ("scan", lambda c: c.update(z_upper=math.inf), [], "z_upper", 1),
        ("scan", lambda c: c.update(z_lower=-math.inf), [], "z_lower", 1),
        ("scan", lambda c: c.update(train_window="2018"), [], "train_window", 1),
        ("scan", lambda c: c.update(out_dir=5), [], "out_dir", 1),
        ("scan", lambda c: c.update(close_column=3), [], "close_column", 1),
        ("scan", lambda c: [c], [], "JSON object", 1),
        ("backtest", lambda c: None, ["--pair", "COBALT,IRON", "--capital", "abc"],
         "--capital", 1),
        ("scan", lambda c: c["sectors"]["metals"][0].update(ticker=None), [],
         "'ticker': None} of sector 'metals' needs a string 'ticker'", 1),
        ("scan", lambda c: c["sectors"]["metals"][0].update(csv=5), [],
         "{'csv': 5, 'ticker': 'AMBER'} of sector 'metals' needs a string", 1),
        ("scan", lambda c: c["sectors"]["metals"].insert(0, "AB"), [],
         "member 'AB' of sector 'metals'", 1),
        ("scan", lambda c: c.update(z_upper=True), [], "z_upper", 1),
        ("scan", lambda c: c.update(near_eps=False), [], "near_eps", 1),
        ("scan", lambda c: None, ["--threshold", "abc"], "--threshold: bad value 'abc'", 1),
        ("scan", lambda c: None, ["--train-start", "2018-13-01"],
         "--train-start: bad value '2018-13-01'", 1),
        ("scan", lambda c: c.update(train_window=c["train_window"][::-1]), [],
         "train window start is after its end", 1),
        ("scan", lambda c: c.update(test_window=c["test_window"][::-1]), [],
         "test window start is after its end", 1),
        ("scan", lambda c: c.update(z_upper=-1.0), [],
         "band limits must satisfy z_lower < 0 < z_upper", 1),
        ("scan", lambda c: c.update(z_lower=0.5), [],
         "band limits must satisfy z_lower < 0 < z_upper", 1),
        ("scan", lambda c: c.update(capital_per_leg=0), [], "capital_per_leg must be positive", 1),
        ("scan", lambda c: "{", [], "is not valid JSON", 1),
        ("scan", lambda c: c.pop("test_window") and None, [],
         "config is missing required key 'test_window'", 1),
        ("analyze", lambda c: None, ["--pair", "IRON"], "--pair must be 'A,B', got 'IRON'", 1),
        ("analyze", lambda c: None, ["--pair", "IRON,COBALT,AMBER"],
         "--pair must be 'A,B', got 'IRON,COBALT,AMBER'", 1),
        ("analyze", lambda c: None, ["--pair", "COBALT,IRON", "--sector", "nosuch"],
         "sector 'nosuch' not present in config", 1),
        ("analyze", lambda c: c.update(sectors={"a": c["sectors"]["metals"][:5],
                                                "b": c["sectors"]["metals"][5:]}),
         ["--pair", "AMBER,IRON"], "tickers 'AMBER' and 'IRON' are not in the same sector", 1),
        ("scan", lambda c: c.update(close_column="Adj Close"), [], "no 'Adj Close' column", 2),
    ], ids=["capital_per_leg", "z_upper", "member_without_ticker", "sectors_list",
            "capital_nan", "near_eps_nan", "near_eps_inf", "near_eps_flag_inf",
            "z_upper_inf", "z_lower_neg_inf",
            "window_not_a_pair", "out_dir_number",
            "close_column_number",
            "top_level_list",
            "capital_flag",
            "ticker_null", "csv_number", "member_string", "z_upper_bool", "near_eps_bool",
            "threshold_flag", "train_start_flag",
            "train_window_reversed", "test_window_reversed", "z_upper_negative",
            "z_lower_positive", "capital_zero", "invalid_json", "missing_required_key",
            "pair_of_one", "pair_of_three", "analyze_unknown_sector", "pair_across_sectors",
            "close_column_absent"])
    def test_malformed_value_is_config_error(self, synth_dir, tmp_path, capsys,
                                             command, edit, flags, named, code):
        # Every case but the absent close column (a data error, exit 2) is a
        # config error, exit 1.
        config = json.loads((synth_dir / "config.json").read_text())
        for member in config["sectors"]["metals"]:
            member["csv"] = str(synth_dir / member["csv"])
        config = edit(config) or config
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        if command == "scan":
            flags = ["--sector", "metals", *flags]
        assert run(command, "--config", path, *flags, "--out", tmp_path / "o") == code
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("pairtrader: error: ") and named in line
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw", ["20180101", "2018-W01-1"])
    def test_window_dates_must_be_yyyy_mm_dd(self, synth_dir, tmp_path, capsys, raw):
        # Both read as 2018-01-01, the demo's first date, through
        # date.fromisoformat on Python 3.11 and later, but not on 3.10.
        config = json.loads((synth_dir / "config.json").read_text())
        for member in config["sectors"]["metals"]:
            member["csv"] = str(synth_dir / member["csv"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--train-start", raw,
                   "--out", tmp_path / "o") == 1
        config["train_window"][0] = raw
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"pairtrader: error: --train-start: bad value {raw!r}",
            f"pairtrader: error: config key 'train_window': bad value {raw!r}",
        ]
        assert not (tmp_path / "o").exists()

    def test_unknown_key_is_config_error(self, synth_dir, tmp_path, capsys):
        # A misspelled knob used to be ignored: the run went on with the default.
        config = json.loads((synth_dir / "config.json").read_text())
        config["coint_treshold"] = 1e-40
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--out", tmp_path / "o") == 1
        assert "'coint_treshold'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, name", [
        ("sector", ""), ("sector", "."), ("sector", ".."), ("sector", "a/b"),
        ("sector", "a\\b"), ("sector", "report"),
        ("ticker", ""), ("ticker", "."), ("ticker", ".."), ("ticker", "X/Y"),
        ("ticker", "X\\Y"), ("ticker", "A,B"), ("ticker", "IRON "),
    ], ids=["sector_empty", "sector_dot", "sector_dotdot", "sector_slash",
            "sector_backslash", "sector_report", "ticker_empty", "ticker_dot",
            "ticker_dotdot", "ticker_slash", "ticker_backslash", "ticker_comma",
            "ticker_space"])
    def test_unsafe_name_is_config_error(self, synth_dir, tmp_path, capsys, kind, name):
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        if kind == "ticker":
            members[0]["ticker"] = name
        config["sectors"] = {"metals" if kind == "ticker" else name: members}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("report", "--config", path, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("pairtrader: error: ") and f"{kind} name {name!r}" in err

    @pytest.mark.parametrize("key", ["tickr", "close_column"])
    def test_unknown_member_key_is_config_error(self, synth_dir, tmp_path, capsys, key):
        # A member's extra keys used to be dropped: the scan ran as if they were absent.
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        members[0][key] = "X"
        config["sectors"] = {"metals": members}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert (f"member {members[0]['ticker']!r} of sector 'metals' has unknown key(s) "
                f"{key!r}") in err
        assert not (tmp_path / "o").exists()

    def test_ticker_listed_twice_is_config_error(self, synth_dir, tmp_path, capsys):
        # The pair commands used to keep the later entry's CSV and trade it
        # under the earlier entry's name.
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        members[-1]["ticker"] = members[0]["ticker"]
        config["sectors"] = {"metals": members}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        pair = f"{members[0]['ticker']},{members[1]['ticker']}"
        assert run("analyze", "--config", path, "--pair", pair, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert f"sector 'metals' lists ticker {members[0]['ticker']!r} twice" in err
        assert not (tmp_path / "o").exists()

    def test_pairs_sharing_a_directory_is_config_error(self, synth_dir, tmp_path, capsys):
        # Pairs (X-Y, Z) and (X, Y-Z) would both write pairs/X-Y-Z.
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        for member, ticker in zip(members, ("X-Y", "Z", "X", "Y-Z")):
            member["ticker"] = ticker
        config["sectors"] = {"metals": members}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "pairs X-Y,Z and X,Y-Z would both write pairs/X-Y-Z" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, edit", [
        ("--threshold", "0.3", lambda c: c.update(coint_threshold=0.3)),
        ("--near-eps", "0.01", lambda c: c.update(near_eps=0.01)),
        ("--capital", "250000", lambda c: c.update(capital_per_leg=250000)),
        ("--train-start", "2018-03-01",
         lambda c: c.update(train_window=["2018-03-01", c["train_window"][1]])),
        ("--train-end", "2020-09-30",
         lambda c: c.update(train_window=[c["train_window"][0], "2020-09-30"])),
        ("--test-start", "2020-12-01",
         lambda c: c.update(test_window=["2020-12-01", c["test_window"][1]])),
        ("--test-end", "2021-09-30",
         lambda c: c.update(test_window=[c["test_window"][0], "2021-09-30"])),
    ], ids=["threshold", "near_eps", "capital", "train_start", "train_end", "test_start",
            "test_end"])
    def test_flag_writes_the_same_bytes_as_a_document_edit(self, synth_dir, tmp_path,
                                                           flag, value, edit):
        def scan_and_backtest(out, config, *flags):
            path = out.with_suffix(".json")
            path.write_text(json.dumps(config))
            assert run("scan", "--config", path, "--sector", "metals", *flags, "--out", out) == 0
            assert run("backtest", "--config", path, "--pair", "COBALT,IRON", "--svg", *flags,
                       "--out", out) == 0
            return tree_bytes(out)

        config = json.loads((synth_dir / "config.json").read_text())
        for member in config["sectors"]["metals"]:
            member["csv"] = str(synth_dir / member["csv"])
        plain = scan_and_backtest(tmp_path / "plain", config)
        flagged = scan_and_backtest(tmp_path / "flagged", config, flag, value)
        edit(config)
        edited = scan_and_backtest(tmp_path / "edited", config)
        assert flagged == edited
        assert flagged != plain

    @pytest.mark.parametrize("command, extra", [
        ("scan", ["--sector", "metals"]),
        ("analyze", ["--pair", "COBALT,IRON"]),
        ("backtest", ["--pair", "COBALT,IRON", "--svg"]),
        ("report", []),
    ])
    def test_one_config_per_command(self, synth_dir, tmp_path, monkeypatch, command, extra):
        checks = []
        real_check = RunConfig.__post_init__
        monkeypatch.setattr(RunConfig, "__post_init__",
                            lambda self: checks.append(self) or real_check(self))
        out = tmp_path / "o"
        if command == "report":
            assert run("backtest", "--config", synth_dir / "config.json",
                       "--pair", "COBALT,IRON", "--out", out) == 0
            checks.clear()
        assert run(command, "--config", synth_dir / "config.json", *extra,
                   "--threshold", "0.1", "--capital", "1000", "--train-start", "2018-02-01",
                   "--out", out) == 0
        assert len(checks) == 1

    @pytest.mark.parametrize("edit, flags", [
        (lambda c: c.update(coint_threshold=2.0), ["--threshold", "0.05"]),
        (lambda c: c.update(capital_per_leg="abc"), ["--capital", "100000"]),
        (lambda c: c.update(train_window=["2018-13-01", c["train_window"][1]]),
         ["--train-start", "2018-01-01"]),
    ], ids=["threshold", "capital", "train_start"])
    def test_file_value_a_flag_replaces_is_not_read(self, synth_dir, tmp_path, edit, flags):
        config = json.loads((synth_dir / "config.json").read_text())
        for member in config["sectors"]["metals"]:
            member["csv"] = str(synth_dir / member["csv"])
        edit(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("scan", "--config", path, "--sector", "metals", "--out", tmp_path / "o") == 1
        assert run("scan", "--config", path, "--sector", "metals", *flags,
                   "--out", tmp_path / "o") == 0

    def test_config_invariants(self, synth_dir):
        config = RunConfig.from_json(synth_dir / "config.json")
        assert config.train_window[1] < config.test_window[0]
        assert config.z_lower < 0 < config.z_upper
        assert config.coint_threshold == 0.05


def frozen_json(obj) -> bytes:
    """The JSON renderer as it stood before the one-pass writer: ``_jsonable``
    then ``json.dumps``, kept verbatim so ``_json`` can be held to its bytes."""
    def jsonable(value):
        if value is None or isinstance(value, (str, int)):
            return value
        if isinstance(value, float):
            return float(value) if math.isfinite(value) else None
        if isinstance(value, Decimal):
            return str(value)
        if isinstance(value, date):
            return value.isoformat()
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        if isinstance(value, Mapping):
            return {key: jsonable(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [jsonable(item) for item in value]
        raise TypeError(f"cannot write a {type(value).__name__} to JSON")

    text = json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")


@dataclasses.dataclass(frozen=True)
class Record:
    name: object
    value: object


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.text(), st.decimals(), st.dates(),
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(), children, max_size=4),
    st.dictionaries(st.text(), children, max_size=4).map(MappingProxyType),
    st.builds(Record, children, children),
), max_leaves=24)


class TestArtifactWriters:
    def test_json_rules(self):
        summary = PairSummary("A", "B", Decimal("200000"), Decimal("-1.50"), Decimal("0.00"))
        text = _json({
            "summary": summary, "day": date(2021, 3, 4), "bad": [math.nan, math.inf, -math.inf],
            "crit": MappingProxyType({"5%": -2.86}), "pair": ("A", "B"), "flag": False,
            "none": None, "numpy_float": np.float64(0.1), "lots": 2,
        }).decode("utf-8")
        assert text.endswith("}\n") and text.startswith('{\n  "bad": [\n    null,')
        assert json.loads(text) == {
            "summary": {"ticker1": "A", "ticker2": "B", "initial_investment": "200000",
                        "profit": "-1.50", "annual_return": "0.00"},
            "day": "2021-03-04", "bad": [None, None, None], "crit": {"5%": -2.86},
            "pair": ["A", "B"], "flag": False, "none": None, "numpy_float": 0.1, "lots": 2,
        }

    @pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}, object()],
                             ids=["numpy_int", "numpy_bool", "set", "object"])
    def test_json_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            _json({"value": value})

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_json_bytes_are_json_dumps_bytes(self, value):
        # Nested dataclasses, mappings, tuples, empty containers, bools,
        # Decimals, dates, non-finite and numpy floats, non-ASCII strings.
        assert _json(value) == frozen_json(value)

    def test_json_keys_must_be_strings(self):
        with pytest.raises(TypeError, match="cannot write a int key to JSON"):
            _json({"a": {1: "one"}})

    def test_json_of_an_iterator_is_json_of_its_list(self):
        items = [{"a": 1, "b": [0.5, None]}, (), {}, "x", date(2021, 3, 4)]
        assert _json(item for item in items) == _json(items)
        assert (_json({"pairs": (item for item in items), "n": iter([1, 2])})
                == _json({"pairs": items, "n": [1, 2]}))

    @pytest.mark.parametrize("empty, text", [
        ((item for item in ()), "[]"), ([], "[]"), ((), "[]"), ({}, "{}"),
        (MappingProxyType({}), "{}"),
    ], ids=["generator", "list", "tuple", "dict", "mapping"])
    def test_json_empty_containers(self, empty, text):
        assert _json(empty) == f"{text}\n".encode()
        assert _json({"a": empty}) == f'{{\n  "a": {text}\n}}\n'.encode()

    def test_json_peak_memory_is_its_output(self):
        # The renderer holds the text it writes (its buffer, the buffer's
        # value and the encoded bytes), not a list of its pieces.
        tickers = [f"T{i:03d}" for i in range(200)]
        records = [{"ticker_a": tickers[i % 200], "ticker_b": tickers[i % 199],
                    "predictor": tickers[i % 200], "target": tickers[i % 199],
                    "p_value": 1.0 / (i + 3)} for i in range(20_000)]
        tracemalloc.start()
        try:
            text = _json({"tickers": tickers, "pairs": records})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text)

    def test_csv_cells(self):
        # Each cell is its ``str``; a float's is its shortest round-trip repr.
        assert _csv(["a", "b"], [
            [0.1, 1e-05], [1e+16, -0.0], [5e-324, Decimal("1.10")], [date(2021, 3, 4), -3],
            ["x,y", 1.7976931348623157e+308],
        ]) == (b"a,b\r\n0.1,1e-05\r\n1e+16,-0.0\r\n5e-324,1.10\r\n2021-03-04,-3\r\n"
               b"\"x,y\",1.7976931348623157e+308\r\n")

    def test_matrix_csv_cells(self):
        # NaN, the p-value grid's lower triangle and diagonal, is an empty cell.
        values = np.array([[math.nan, 0.1, 1e-05], [-0.0, math.nan, 5e-324],
                           [1e+16, -2.5, math.nan]])
        assert _matrix_csv(["A", "B", "C"], values) == (
            b",A,B,C\r\nA,,0.1,1e-05\r\nB,-0.0,,5e-324\r\nC,1e+16,-2.5,\r\n")


class TestStagedDir:
    def test_nested_contexts_on_one_final(self, tmp_path):
        final = tmp_path / "out"
        with staged_dir(final) as outer:
            (outer / "a.txt").write_text("outer")
            with staged_dir(final) as inner:
                (inner / "a.txt").write_text("inner")
            (outer / "b.txt").write_text("outer")
        assert sorted(p.name for p in final.iterdir()) == ["a.txt", "b.txt"]
        assert (final / "a.txt").read_text() == "outer"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failed_write_keeps_previous_tree(self, tmp_path):
        final = tmp_path / "out"
        with staged_dir(final) as staging:
            (staging / "a.txt").write_text("first")
        with pytest.raises(RuntimeError):
            with staged_dir(final) as staging:
                (staging / "a.txt").write_text("second")
                raise RuntimeError("interrupted")
        assert (final / "a.txt").read_text() == "first"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestCommit:
    @pytest.mark.parametrize("argv, compute", [
        (["scan", "--sector", "metals"], lambda config: cmd_scan(config, "metals")),
        (["analyze", "--pair", "COBALT,IRON"], lambda config: cmd_analyze(config, "COBALT,IRON")),
        (["backtest", "--pair", "COBALT,IRON", "--svg"],
         lambda config: cmd_backtest(config, "COBALT,IRON", svg=True)),
    ], ids=["scan", "analyze", "backtest"])
    def test_commands_write_nothing_and_main_commits_their_bytes(self, synth_dir, tmp_path,
                                                                 argv, compute):
        out = tmp_path / "out"
        config = dataclasses.replace(RunConfig.from_json(synth_dir / "config.json"), out_dir=out)
        inputs = tree_bytes(synth_dir)
        directory, files = compute(config)
        assert not out.exists() and list(tmp_path.iterdir()) == []
        assert tree_bytes(synth_dir) == inputs
        assert run(argv[0], "--config", synth_dir / "config.json", *argv[1:], "--out", out) == 0
        assert tree_bytes(out) == {(directory / name).as_posix(): data
                                   for name, data in files.items()}

    def test_output_under_a_regular_file_is_a_config_error(self, synth_dir, tmp_path):
        (tmp_path / "afile").write_bytes(b"not a directory\n")
        before = tree_bytes(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "pairtrader.cli", "scan", "--config",
             str(synth_dir / "config.json"), "--sector", "metals", "--out", "afile/x"],
            cwd=tmp_path, env=blas_env(PYTHONWARNINGS="error"), capture_output=True, text=True)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [error] = [line for line in done.stderr.splitlines() if "error" in line]
        assert error.startswith("pairtrader: error: cannot write output directory "
                                "afile/x/metals/scan: ")
        assert "[Errno" in error
        assert tree_bytes(tmp_path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_failed_write_keeps_the_previous_tree(self, synth_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        argv = ["scan", "--config", synth_dir / "config.json", "--sector", "metals", "--out", out]
        assert run(*argv) == 0
        before = tree_bytes(tmp_path)
        written = []
        real_write_bytes = Path.write_bytes

        def disk_fills_after_one_file(path, data):
            if written:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            written.append(path)
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_fills_after_one_file)
        assert run(*argv, "--threshold", "0.5") == 1
        monkeypatch.undo()
        assert len(written) == 1
        assert tree_bytes(tmp_path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        err = capsys.readouterr().err
        final = out / "metals" / "scan"
        assert f"pairtrader: error: cannot write output directory {final}: " in err
        assert "Traceback" not in err


#: A scan whose every artifact write first says so on stdout and then sleeps,
#: so that a signal can reach the command in the middle of ``_commit``.
SLOW_COMMIT = """
import sys, time
from pathlib import Path
from pairtrader import cli

real_write_bytes = Path.write_bytes

def slow_write_bytes(path, data):
    print("writing", flush=True)
    time.sleep(20)
    return real_write_bytes(path, data)

Path.write_bytes = slow_write_bytes
sys.exit(cli.main(sys.argv[1:]))
"""

#: A scan that raises ``signum`` at its second ``os.replace``: after the old
#: tree was renamed aside, before the new one is renamed in.  It takes SIGINT
#: as Ctrl-C in a terminal does, even when started with SIGINT ignored (as a
#: background job of a non-interactive shell is), which the CLI respects.
SIGNAL_BETWEEN_RENAMES = """
import os, signal, sys
from pairtrader import cli

signal.signal(signal.SIGINT, signal.default_int_handler)
real_replace = os.replace
calls = []

def replace(src, dst):
    calls.append(dst)
    if len(calls) == 2:
        signal.raise_signal({signum})
    return real_replace(src, dst)

os.replace = replace
sys.exit(cli.main(sys.argv[1:]))
"""


class TestInterruptedCommit:
    """A command stopped while committing keeps the previous tree and no staging directory."""

    def scanned(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        argv = ["scan", "--config", synth_dir / "config.json", "--sector", "metals", "--out", out]
        assert run(*argv) == 0
        # A different threshold, so the interrupted scan's files differ.
        return [str(a) for a in argv] + ["--threshold", "0.5"], tree_bytes(tmp_path)

    def test_sigterm_during_commit_exits_143_and_keeps_the_previous_tree(self, synth_dir,
                                                                          tmp_path):
        argv, before = self.scanned(synth_dir, tmp_path)
        scan = subprocess.Popen([sys.executable, "-c", SLOW_COMMIT, *argv], env=blas_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert scan.stdout.readline() == "writing\n"
            scan.send_signal(signal.SIGTERM)
            _, err = scan.communicate(timeout=10)
        finally:
            scan.kill()
            scan.communicate()
        assert scan.returncode == 143
        assert "Traceback" not in err, err
        assert tree_bytes(tmp_path) == before
        assert list((tmp_path / "out" / "metals").glob("*.staging-*")) == []

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
    def test_signal_between_the_renames_keeps_the_previous_tree(self, synth_dir, tmp_path,
                                                                signum):
        argv, before = self.scanned(synth_dir, tmp_path)
        done = subprocess.run([sys.executable, "-c", SIGNAL_BETWEEN_RENAMES.format(signum=signum),
                               *argv], env=blas_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        if signum == signal.SIGINT:
            # Ctrl-C is one line and exit 130, as SIGTERM is exit 143.
            assert done.returncode == 130
            assert "Traceback" not in done.stderr, done.stderr
            assert done.stderr.splitlines()[-1] == "pairtrader: error: interrupted"
        assert tree_bytes(tmp_path) == before
        assert list((tmp_path / "out" / "metals").glob("*.staging-*")) == []


def scipy_modules_after(code):
    """Names of the scipy modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        assert scipy_modules_after("import pairtrader.cli") == []

    def test_scan_backtest_report_load_no_scipy(self, synth_dir, tmp_path):
        config, out = synth_dir / "config.json", tmp_path / "run"
        loaded = scipy_modules_after(
            "from pairtrader.cli import main\n"
            f"common = ['--config', {str(config)!r}, '--out', {str(out)!r}]\n"
            "assert main(['scan', '--sector', 'metals', *common]) == 0\n"
            "assert main(['backtest', '--pair', 'COBALT,IRON', '--svg', *common]) == 0\n"
            "assert main(['report', *common]) == 0\n"
        )
        assert loaded == []

    def test_analyze_loads_no_scipy(self, synth_dir, tmp_path):
        config, out = synth_dir / "config.json", tmp_path / "run"
        loaded = scipy_modules_after(
            "from pairtrader.cli import main\n"
            f"assert main(['analyze', '--pair', 'COBALT,IRON', '--config', {str(config)!r},"
            f" '--out', {str(out)!r}]) == 0\n"
        )
        assert loaded == []


# Runs every command on the demo sector and prints each exit code.  With
# ``block`` set, a meta-path finder first makes every scipy import fail.
PIPELINE_SCRIPT = """
import sys
if {block}:
    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{{name}} is blocked")
            return None
    sys.meta_path.insert(0, BlockScipy())
    try:
        import scipy
    except ImportError:
        pass
    else:
        raise SystemExit("the scipy import was not blocked")
from pairtrader.cli import main
common = ["--config", {config!r}, "--out", {out!r}]
codes = [main(["scan", "--sector", "metals", *common])]
for pair in ("COBALT,IRON", "AMBER,BASALT"):
    codes.append(main(["analyze", "--pair", pair, *common]))
    codes.append(main(["backtest", "--pair", pair, "--svg", *common]))
codes.append(main(["report", *common]))
print(codes)
"""


def test_pipeline_runs_with_scipy_blocked(synth_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    trees = {}
    for block in (False, True):
        out = tmp_path / f"block_{block}"
        script = PIPELINE_SCRIPT.format(block=block, config=str(synth_dir / "config.json"),
                                        out=str(out))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"
        trees[block] = tree_bytes(out)
    assert trees[True] == trees[False]
    assert len(trees[True]) > 20


# Runs the module entry as ``python -m`` does and prints its exit code,
# whether the collector is on and the imports frozen when it exits, and
# whether any collection ran after numpy's import began and before the
# freeze.
ENTRY_PROBE = """
import gc, runpy, sys
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(
    (gc.get_freeze_count() > 0, "numpy" in sys.modules)))
sys.argv = ["pairtrader", "--help"]
try:
    runpy.run_module("pairtrader.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0, (False, True) in collections)
"""

def console_script_entry():
    """The function ``pyproject.toml`` names as the ``pairtrader`` console script."""
    text = (SRC_DIR.parent / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^pairtrader = "pairtrader\.cli:(\w+)"$', text, re.MULTILINE)[1]


class TestProgramEntry:
    def test_module_entry_collects_nothing_while_importing_and_freezes_the_imports(self):
        done = subprocess.run([sys.executable, "-c", ENTRY_PROBE], env=blas_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 True True False"

    def test_console_script_is_the_entry(self):
        assert getattr(cli, console_script_entry()) is cli.entry

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_in_process_leaves_the_collector_alone(self, synth_dir, tmp_path, enabled):
        was, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv in golden.DEMO_COMMANDS:
                assert run(*argv, "--config", synth_dir / "config.json", "--out", tmp_path) == 0
            state = gc.isenabled(), gc.get_freeze_count()
        finally:
            (gc.enable if was else gc.disable)()
        assert state == (enabled, frozen)

class TestBlasThreads:
    @pytest.mark.parametrize("preset, expected", [
        ({}, ["1", None]),
        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None]),
        ({"OMP_NUM_THREADS": "2"}, [None, "2"]),
    ])
    def test_cli_import_sets_one_thread_unless_the_user_chose(self, preset, expected):
        probe = ("import json, os, pairtrader.cli\n"
                 f"print(json.dumps([os.environ.get(key) for key in {BLAS_VARS!r}]))\n")
        done = subprocess.run([sys.executable, "-c", probe], env=blas_env(**preset),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == expected



def openblas_has_dynamic_arch():
    """Whether numpy's OpenBLAS picks its kernel at run time (``OPENBLAS_CORETYPE``)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 prints its configuration only
        return False
    return "DYNAMIC_ARCH" in str(config.get("Build Dependencies", {}).get("blas", {}))


def openblas_cores():
    """OpenBLAS kernels this CPU can run: each past Prescott needs its instructions."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            flags = set(handle.read().split())
    except OSError:
        flags = set()
    return ["Prescott", *(core for flag, core in (("avx", "Sandybridge"), ("avx2", "Haswell"),
                                                  ("avx512f", "SkylakeX")) if flag in flags)]


# Runs the demo commands through ``cli.main`` in this one process and prints
# their exit codes on one line, then ``fallback_cases.py``'s output.
DEMO_IN_ONE_PROCESS = """
import sys
from pairtrader.cli import main
common = ["--config", {config!r}, "--out", {out!r}]
print([main([*argv, *common]) for argv in {commands!r}])
sys.path.insert(0, {tests!r})
import fallback_cases
fallback_cases.main()
"""

#: Each way of running the demo commands, with what it adds to the
#: environment: the program's two entries, as cold processes, and
#: ``cli.main`` on two BLAS threads (the CLI defaults to one) and under each
#: OpenBLAS kernel this CPU can run.
DEMO_WAYS = {
    "module": {},
    "script": {},
    "threads2": {"OPENBLAS_NUM_THREADS": "2"},
    **{f"core-{core}": {"OPENBLAS_CORETYPE": core} for core in openblas_cores()},
}


# A kernel case skips, saying why, where numpy's OpenBLAS has one kernel only.
@pytest.mark.parametrize("way", [pytest.param(way, marks=pytest.mark.skipif(
    way.startswith("core-") and not openblas_has_dynamic_arch(),
    reason="numpy's OpenBLAS is not a DYNAMIC_ARCH build: OPENBLAS_CORETYPE picks no kernel"))
    for way in DEMO_WAYS])
def test_every_way_of_running_writes_the_golden_bytes(synth_dir, tmp_path, way):
    # The console script and the module entry share one entry function,
    # which sets the collector's policy for the process.  BLAS and LAPACK
    # only prove lag orders that a Householder search in numpy's own
    # arithmetic would choose, and that search decides the rest; every
    # reported number is summed in numpy's own fixed order.  So every way
    # writes the pinned demo bytes, with every warning an error, and gives
    # the pinned lag, tau or fault to each test that the proof leaves to the
    # Householder search (``fallback_cases.py``: near ties and degenerate
    # designs).
    pinned = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    out = tmp_path / "out"
    common = ["--config", str(synth_dir / "config.json"), "--out", str(out)]
    env = blas_env(PYTHONWARNINGS="error", **DEMO_WAYS[way])
    if way in ("module", "script"):
        # A console script imports the function it names, then calls it.
        name = console_script_entry()
        entry = (["-m", "pairtrader.cli"] if way == "module" else
                 ["-c", f"import sys\nfrom pairtrader.cli import {name}\nsys.exit({name}())\n"])
        for argv in golden.DEMO_COMMANDS:
            subprocess.run([sys.executable, *entry, *argv, *common], env=env,
                           capture_output=True, check=True)
    else:
        script = DEMO_IN_ONE_PROCESS.format(config=common[1], out=common[3],
                                            commands=golden.DEMO_COMMANDS, tests=str(golden.HERE))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        codes, fallback = done.stdout.split("\n", 1)
        assert codes == "[0, 0, 0, 0]"
        lines = fallback.splitlines()
        assert len(lines) > 100
        assert {line.split(": ")[1] for line in lines} >= {
            "unit-root regression is singular", "unit-root regression fits exactly"}
        assert golden.sha256(fallback.encode("utf-8")) == pinned["fallback_cases"]
    assert golden.changed_files(pinned["demo"]["outputs"], golden.file_digests(out)) == []
    assert list(out.rglob("*.staging-*")) == []


def test_summary_text_matches_scipy_special_tails(synth_dir, tmp_path, monkeypatch):
    """Every demo pair's ols_summary.txt is the text the scipy.special tails render."""
    special = pytest.importorskip("scipy.special")
    config = RunConfig.from_json(synth_dir / "config.json")
    tickers = [ticker for ticker, _ in config.sectors["metals"]]
    pairs = [f"{a},{b}" for i, a in enumerate(tickers) for b in tickers[i + 1:]]
    assert len(pairs) == 45
    for pair in pairs:
        assert run("analyze", "--config", synth_dir / "config.json", "--pair", pair,
                   "--out", tmp_path) == 0

    monkeypatch.setattr(econometrics, "_t_ppf", lambda q, df: float(special.stdtrit(df, q)))
    for pair in pairs:
        sector, panel = _find_pair(config, pair, None)
        report = fit_pair(slice_window(panel, *config.train_window)).report
        df = report.n_obs - 1
        scipy_report = dataclasses.replace(
            report,
            p_t=2.0 * float(special.stdtr(df, -abs(report.t_stat))),
            p_f=float(special.fdtrc(1, df, report.f_stat)),
            p_jb=float(special.chdtrc(2, report.jarque_bera)),
            p_omnibus=float(special.chdtrc(2, report.omnibus_k2)),
        )
        pred, targ = panel.tickers
        text = scipy_report.to_text(dep_name=f"{targ} (asset2)", regressor_name=f"{pred} (asset1)")
        path = tmp_path / sector / "pairs" / f"{pred}-{targ}" / "analysis" / "ols_summary.txt"
        assert path.read_bytes() == text.encode("utf-8"), pair
