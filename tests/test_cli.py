import csv
import dataclasses
import errno
import json
import math
import os
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections.abc import Mapping
from datetime import date
from decimal import Decimal
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader import backtest, cli, econometrics, pairscan, signalgen
from pairtrader.backtest import PairSummary
from pairtrader.cli import (RunConfig, _csv, _find_pair, _json, cmd_analyze, cmd_backtest,
                            cmd_scan, main, staged_dir)
from pairtrader.marketdata import slice_window
from pairtrader.pairscan import fit_pair
from pairtrader.synthetic import PAIR_TICKERS

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
        (["scan", "--sector", "metals"],
         "pair (AMBER, BASALT): sums of squares overflow: values too large"),
        (["analyze", "--pair", "AMBER,BASALT"],
         "AMBER/BASALT: sums of squares overflow: values too large"),
    ], ids=["scan", "analyze"])
    def test_overflowing_sums_are_one_line_naming_the_pair(self, synth_dir, tmp_path, capsys,
                                                           argv, message):
        # AMBER's closes near 1e302: its sums of squares overflow.  The scan
        # once scored AMBER's pairs with a slope of 0, and analyze ended in a
        # ZeroDivisionError traceback.
        config = json.loads((synth_dir / "config.json").read_text())
        members = [dict(m, csv=str(synth_dir / m["csv"])) for m in config["sectors"]["metals"]]
        lines = (synth_dir / "data" / "AMBER.csv").read_text().splitlines()
        huge = tmp_path / "AMBER.csv"
        huge.write_text("\n".join([lines[0]] + [f"{d},{c}e300" for d, c in
                                                (line.split(",") for line in lines[1:])]) + "\n")
        members[0]["csv"] = str(huge)
        config["sectors"]["metals"] = members
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run(*argv, "--config", path, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [f"pairtrader: error: {message}"]
        assert not (tmp_path / "o").exists()

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

    def test_degenerate_ratio_is_numeric_error(self, synth_dir, tmp_path):
        # A pair proportional to itself has a constant ratio: exit code 3.
        data = tmp_path / "data"
        data.mkdir()
        src = (synth_dir / "data" / "IRON.csv").read_text().splitlines()
        (data / "P.csv").write_text("\n".join(src) + "\n")
        doubled = [src[0]]
        for line in src[1:]:
            day, px = line.split(",")
            doubled.append(f"{day},{float(px) * 2:.2f}")
        (data / "Q.csv").write_text("\n".join(doubled) + "\n")
        base_config = json.loads((synth_dir / "config.json").read_text())
        config = {
            "sectors": {"clone": [
                {"ticker": "P", "csv": "data/P.csv"},
                {"ticker": "Q", "csv": "data/Q.csv"},
            ]},
            "train_window": base_config["train_window"],
            "test_window": base_config["test_window"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("backtest", "--config", path, "--pair", "P,Q",
                   "--out", tmp_path / "o") == 3


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
    ], ids=["missing_key", "non_decimal_amount", "not_json", "not_an_object"])
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

    @pytest.mark.parametrize("command, edit, flags, named", [
        ("scan", lambda c: c.update(capital_per_leg="abc"), [], "capital_per_leg"),
        ("scan", lambda c: c.update(z_upper="x"), [], "z_upper"),
        ("scan", lambda c: c["sectors"]["metals"][0].pop("ticker") and None, [],
         "ticker"),
        ("scan", lambda c: c.update(sectors=["metals"]), [], "sectors"),
        ("scan", lambda c: c.update(capital_per_leg="NaN"), [], "capital_per_leg"),
        ("scan", lambda c: c.update(near_eps=math.nan), [], "near_eps"),
        ("scan", lambda c: c.update(near_eps=math.inf), [], "near_eps"),
        ("scan", lambda c: None, ["--near-eps", "inf"], "near_eps"),
        ("scan", lambda c: c.update(z_upper=math.inf), [], "z_upper"),
        ("scan", lambda c: c.update(z_lower=-math.inf), [], "z_lower"),
        ("scan", lambda c: c.update(train_window="2018"), [], "train_window"),
        ("scan", lambda c: c.update(out_dir=5), [], "out_dir"),
        ("scan", lambda c: c.update(close_column=3), [], "close_column"),
        ("scan", lambda c: [c], [], "JSON object"),
        ("backtest", lambda c: None, ["--pair", "COBALT,IRON", "--capital", "abc"],
         "--capital"),
        ("scan", lambda c: c["sectors"]["metals"][0].update(ticker=None), [],
         "'ticker': None} of sector 'metals' needs a string 'ticker'"),
        ("scan", lambda c: c["sectors"]["metals"][0].update(csv=5), [],
         "{'csv': 5, 'ticker': 'AMBER'} of sector 'metals' needs a string"),
        ("scan", lambda c: c["sectors"]["metals"].insert(0, "AB"), [],
         "member 'AB' of sector 'metals'"),
        ("scan", lambda c: c.update(z_upper=True), [], "z_upper"),
        ("scan", lambda c: c.update(near_eps=False), [], "near_eps"),
        ("scan", lambda c: None, ["--threshold", "abc"], "--threshold: bad value 'abc'"),
        ("scan", lambda c: None, ["--train-start", "2018-13-01"],
         "--train-start: bad value '2018-13-01'"),
    ], ids=["capital_per_leg", "z_upper", "member_without_ticker", "sectors_list",
            "capital_nan", "near_eps_nan", "near_eps_inf", "near_eps_flag_inf",
            "z_upper_inf", "z_lower_neg_inf",
            "window_not_a_pair", "out_dir_number",
            "close_column_number",
            "top_level_list",
            "capital_flag",
            "ticker_null", "csv_number", "member_string", "z_upper_bool", "near_eps_bool",
            "threshold_flag", "train_start_flag"])
    def test_malformed_value_is_config_error(self, synth_dir, tmp_path, capsys,
                                             command, edit, flags, named):
        config = json.loads((synth_dir / "config.json").read_text())
        for member in config["sectors"]["metals"]:
            member["csv"] = str(synth_dir / member["csv"])
        config = edit(config) or config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if command == "scan":
            flags = ["--sector", "metals", *flags]
        assert run(command, "--config", path, *flags, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("pairtrader: error: ") and named in err
        assert "Traceback" not in err

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
        ("ticker", "X\\Y"), ("ticker", "A,B"),
    ], ids=["sector_empty", "sector_dot", "sector_dotdot", "sector_slash",
            "sector_backslash", "sector_report", "ticker_empty", "ticker_dot",
            "ticker_dotdot", "ticker_slash", "ticker_backslash", "ticker_comma"])
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

    def test_csv_cells(self):
        assert _csv(["a", "b"], [
            [0.1, math.nan], [Decimal("1.10"), date(2021, 3, 4)], [-3, "x,y"],
        ]) == b"a,b\r\n0.1,\r\n1.10,2021-03-04\r\n-3,\"x,y\"\r\n"


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
            cwd=tmp_path, env=blas_env(), capture_output=True, text=True)
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
#: tree was renamed aside, before the new one is renamed in.
SIGNAL_BETWEEN_RENAMES = """
import os, signal, sys
from pairtrader import cli

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

    def test_artifact_bytes_do_not_depend_on_thread_count(self, synth_dir, tmp_path):
        trees = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            script = (
                "from pairtrader.cli import main\n"
                f"common = ['--config', {str(synth_dir / 'config.json')!r}, '--out', {str(out)!r}]\n"
                "print([main(['scan', '--sector', 'metals', *common]),\n"
                "       main(['analyze', '--pair', 'COBALT,IRON', *common]),\n"
                "       main(['backtest', '--pair', 'COBALT,IRON', '--svg', *common])])\n"
            )
            done = subprocess.run([sys.executable, "-c", script],
                                  env=blas_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, check=True)
            assert done.stdout.splitlines()[-1] == "[0, 0, 0]"
            trees[threads] = tree_bytes(out)
        assert trees["1"] == trees["2"]
        assert len(trees["1"]) > 10


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


@pytest.mark.skipif(not openblas_has_dynamic_arch(),
                    reason="numpy's OpenBLAS is not a DYNAMIC_ARCH build")
def test_artifact_bytes_do_not_depend_on_blas_kernel(synth_dir, tmp_path):
    # BLAS and LAPACK only choose lag orders; every reported number is summed
    # in numpy's own fixed order, so each kernel writes the same bytes.
    trees = {}
    for core in ["default", *openblas_cores()]:
        out = tmp_path / core
        script = (
            "from pairtrader.cli import main\n"
            f"common = ['--config', {str(synth_dir / 'config.json')!r}, '--out', {str(out)!r}]\n"
            "print([main(['scan', '--sector', 'metals', *common]),\n"
            "       main(['analyze', '--pair', 'COBALT,IRON', *common]),\n"
            "       main(['backtest', '--pair', 'COBALT,IRON', '--svg', *common])])\n"
        )
        env = blas_env() if core == "default" else blas_env(OPENBLAS_CORETYPE=core)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0, 0]", core
        trees[core] = tree_bytes(out)
    assert len(trees["default"]) > 10
    for core, tree in trees.items():
        assert tree == trees["default"], core


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
