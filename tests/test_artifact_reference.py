"""Scan, analyze and report artifacts against frozen copies of the old writers.

Each result type once serialised itself: ``PValueMatrix.to_csv``,
``SelectedPair.to_json_dict``, ``OlsOriginReport.to_json_dict``,
``AdfResult.to_json_dict``, ``SectorReport.to_csv`` and so on, with the
command bodies of ``cmd_scan``, ``cmd_analyze`` and ``cmd_report`` writing the
rest.  This module keeps verbatim copies of those writer bodies, applied to
the package's computed results, and asserts that the commands return exactly
the same bytes on the demo sector: the scan, every one of the 45 pairs
analysed in both spellings, and the report over all 45 backtests plus a
second sector of four demo tickers.  The scan's matrices reach the frozen
writers through ``OldPValueMatrix`` and a ``tickers``/``values`` namespace,
shims of the old matrix interfaces built from the package's results.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from pairtrader.backtest import PairSummary, sector_report
from pairtrader.cli import (
    RunConfig,
    _commit,
    _find_pair,
    _scan_input,
    cmd_analyze,
    cmd_backtest,
    cmd_report,
    cmd_scan,
)
from pairtrader.econometrics import correlation_matrix
from pairtrader.marketdata import slice_window
from pairtrader.pairscan import coint_matrix, fit_pair, select_pairs

# --- frozen copies of the old writer bodies ----------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"


def write_correlation_csv(matrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["", *matrix.tickers])
        for i, ticker in enumerate(matrix.tickers):
            writer.writerow([ticker, *(repr(float(v)) for v in matrix.values[i])])


def pvalue_matrix_to_csv(matrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["", *matrix.tickers])
        for i, ticker in enumerate(matrix.tickers):
            row = [ticker]
            for j in range(len(matrix.tickers)):
                v = matrix.values[i, j]
                row.append(repr(float(v)) if not math.isnan(v) else "")
            writer.writerow(row)


def pvalue_matrix_to_json_dict(matrix) -> dict:
    pairs = []
    for a, b, p, pred, targ in matrix.cells():
        cell = {"ticker_a": a, "ticker_b": b, "p_value": p,
                "predictor": pred, "target": targ}
        if (a, b) in matrix.reasons:
            cell["reason"] = matrix.reasons[(a, b)]
        pairs.append(cell)
    return {"tickers": list(matrix.tickers), "pairs": pairs}


def selected_pair_to_json_dict(pair) -> dict:
    return {
        "predictor_ticker": pair.predictor_ticker,
        "target_ticker": pair.target_ticker,
        "coint_p": pair.coint_p,
        "near_threshold": pair.near_threshold,
    }


def adf_to_json_dict(result) -> dict:
    return {
        "tau": result.tau,
        "used_lags": result.used_lags,
        "n_eff": result.n_eff,
        "crit": dict(result.crit),
        "p_value": result.p_value,
        "deterministic": result.deterministic,
    }


def ols_to_json_dict(report) -> dict:
    out = {
        "hedge_ratio": report.hedge_ratio,
        "se_beta": report.se_beta,
        "t_stat": report.t_stat,
        "p_t": report.p_t,
        "f_stat": report.f_stat,
        "p_f": report.p_f,
        "r2_uncentered": report.r2_uncentered,
        "adj_r2_uncentered": report.adj_r2_uncentered,
        "log_likelihood": report.log_likelihood,
        "aic": report.aic,
        "bic": report.bic,
        "durbin_watson": report.durbin_watson,
        "jarque_bera": report.jarque_bera,
        "p_jb": report.p_jb,
        "skew": report.skew,
        "kurtosis": report.kurtosis,
        "omnibus_k2": report.omnibus_k2,
        "p_omnibus": report.p_omnibus,
        "cond_no": report.cond_no,
        "n_obs": report.n_obs,
    }
    # JSON has no NaN/inf literal; encode as None.
    return {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
            for k, v in out.items()}


def pair_summary_to_json_dict(summary) -> dict:
    return {
        "ticker1": summary.ticker1,
        "ticker2": summary.ticker2,
        "initial_investment": str(summary.initial_investment),
        "profit": str(summary.profit),
        "annual_return": str(summary.annual_return),
    }


def pair_summary_from_json_dict(data: dict) -> PairSummary:
    return PairSummary(
        ticker1=data["ticker1"],
        ticker2=data["ticker2"],
        initial_investment=Decimal(data["initial_investment"]),
        profit=Decimal(data["profit"]),
        annual_return=Decimal(data["annual_return"]),
    )


def sector_report_to_json_dict(report) -> dict:
    return {
        "sector": report.sector,
        "rows": [pair_summary_to_json_dict(row) for row in report.rows],
        "n_pairs": report.n_pairs,
        "n_positive": report.n_positive,
        "max_return": str(report.max_return),
    }


def sector_report_to_csv(report, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Stock Pair", "Init Investment", "Profit", "Annual Return"])
        for row in report.rows:
            writer.writerow([
                f"{row.ticker1} - {row.ticker2}",
                str(row.initial_investment),
                str(row.profit),
                str(row.annual_return),
            ])


class OldPValueMatrix:
    """The old matrix interface, built from the scan's columns, for the frozen writers."""

    def __init__(self, matrix):
        n = len(matrix.tickers)
        self.tickers = names = matrix.tickers
        self.values = np.full((n, n), math.nan)
        upper = np.triu_indices(n, 1)
        self.values[upper] = matrix.p_values
        # Entry k of each column is the k-th pair of numpy.triu_indices.
        self._cells = [(names[i], names[j], p, names[pred], names[targ])
                       for i, j, pred, targ, p in zip(*upper, matrix.predictors, matrix.targets,
                                                      matrix.p_values.tolist())]
        self.reasons = {(names[i], names[j]): "exact linear dependence"
                        for i, j in zip(upper[0][matrix.exact], upper[1][matrix.exact])}

    def cells(self):
        yield from self._cells


# --- frozen copies of the old command bodies ----------------------------------------


def write_scan_reference(config: RunConfig, sector: str, out) -> None:
    panel_train, means = _scan_input(config, sector)
    corr = SimpleNamespace(tickers=panel_train.tickers, values=correlation_matrix(panel_train))
    scan = coint_matrix(panel_train, means)
    pvals = OldPValueMatrix(scan)
    pairs = select_pairs(scan, threshold=config.coint_threshold, near_eps=config.near_eps)

    out.mkdir(parents=True)
    write_correlation_csv(corr, out / "correlation_matrix.csv")
    pvalue_matrix_to_csv(pvals, out / "pvalue_matrix.csv")
    (out / "pvalue_matrix.json").write_text(
        _json_text(pvalue_matrix_to_json_dict(pvals)), encoding="utf-8"
    )
    (out / "selected_pairs.json").write_text(
        _json_text({
            "sector": sector,
            "threshold": config.coint_threshold,
            "near_eps": config.near_eps,
            "pairs": [selected_pair_to_json_dict(p) for p in pairs],
        }),
        encoding="utf-8",
    )


def write_analyze_reference(config: RunConfig, pair: str, out) -> None:
    _, pair_panel = _find_pair(config, pair, None)
    pred, targ = pair_panel.tickers
    train = slice_window(pair_panel, *config.train_window)
    model = fit_pair(train)

    out.mkdir(parents=True)
    (out / "ols_summary.txt").write_text(
        model.report.to_text(dep_name=f"{targ} (asset2)", regressor_name=f"{pred} (asset1)"),
        encoding="utf-8",
    )
    (out / "ols_report.json").write_text(
        _json_text({
            "predictor": pred,
            "target": targ,
            "train_window": [config.train_window[0].isoformat(),
                             config.train_window[1].isoformat()],
            "ols": ols_to_json_dict(model.report),
            "verdict": model.verdict,
        }),
        encoding="utf-8",
    )
    with open(out / "residuals.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "residual"])
        for day, resid in zip(train.dates.tolist(), model.report.residuals.tolist()):
            writer.writerow([day.isoformat(), repr(resid)])
    adf_payload = {
        "verdict": model.verdict,
        "adf": adf_to_json_dict(model.residual_adf) if model.residual_adf else None,
    }
    (out / "residual_adf.json").write_text(_json_text(adf_payload), encoding="utf-8")


def write_report_reference(config: RunConfig, out) -> None:
    per_sector = {}
    for sector in sorted(config.sectors):
        sector_dir = config.out_dir / sector / "pairs"
        if not sector_dir.is_dir():
            continue
        summaries = []
        for summary_path in sorted(sector_dir.glob("*/backtest/summary.json")):
            data = json.loads(summary_path.read_text(encoding="utf-8"))
            summaries.append(pair_summary_from_json_dict(data))
        if summaries:
            per_sector[sector] = summaries

    out.mkdir(parents=True)
    cross_rows = []
    for sector, summaries in per_sector.items():
        report = sector_report(summaries, sector)
        sector_report_to_csv(report, out / f"sector_{sector}.csv")
        (out / f"sector_{sector}.json").write_text(
            _json_text(sector_report_to_json_dict(report)), encoding="utf-8"
        )
        cross_rows.append(report)
    cross_rows.sort(key=lambda r: (-r.max_return, r.sector))
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Sector", "No of Pairs", "Positive Return Pairs", "Max Ret"])
        for report in cross_rows:
            writer.writerow([
                report.sector, report.n_pairs, report.n_positive, str(report.max_return),
            ])
    (out / "summary.json").write_text(
        _json_text([
            {
                "sector": r.sector,
                "n_pairs": r.n_pairs,
                "n_positive": r.n_positive,
                "max_return": str(r.max_return),
            }
            for r in cross_rows
        ]),
        encoding="utf-8",
    )


# --- the comparisons ------------------------------------------------------------------


def assert_same_tree(files, expected, label) -> None:
    """A command's ``{name: bytes}`` mapping holds exactly the files of ``expected``."""
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(files) == names, label
    for name in names:
        assert files[name] == (expected / name).read_bytes(), (label, name)


@pytest.fixture
def config(synth_dir, tmp_path):
    return replace(RunConfig.from_json(synth_dir / "config.json"), out_dir=tmp_path / "run")


def demo_pairs(config, reverse=False):
    tickers = [t for t, _ in config.sectors["metals"]]
    for a, b in itertools.combinations(tickers, 2):
        yield f"{b},{a}" if reverse else f"{a},{b}"


def test_scan_bytes_match_frozen_writers(config, tmp_path):
    directory, files = cmd_scan(config, "metals")
    expected = tmp_path / "reference"
    write_scan_reference(config, "metals", expected)
    assert_same_tree(files, expected, "scan")
    assert directory.as_posix() == "metals/scan" and len(files) == 4


@pytest.mark.parametrize("reverse", [False, True], ids=["A,B", "B,A"])
def test_analyze_bytes_match_frozen_writers(config, tmp_path, reverse):
    directories = set()
    for pair in demo_pairs(config, reverse):
        directory, files = cmd_analyze(config, pair)
        expected = tmp_path / "reference" / directory.parent.name
        write_analyze_reference(config, pair, expected)
        assert_same_tree(files, expected, pair)
        directories.add(directory.as_posix())
    assert len(directories) == 45
    assert all(d.startswith("metals/pairs/") and d.endswith("/analysis") for d in directories)


def test_report_bytes_match_frozen_writers(config, tmp_path):
    # A second sector of four demo tickers gives the overview two rows to sort.
    config = replace(config, sectors={**config.sectors,
                                      "alloys": config.sectors["metals"][:4]})
    # The report reads the backtests' summaries from disk, so commit them first.
    for pair in demo_pairs(config):
        directory, files = cmd_backtest(config, pair, "metals")
        _commit(config.out_dir / directory, files)
    for pair in itertools.combinations([t for t, _ in config.sectors["alloys"]], 2):
        directory, files = cmd_backtest(config, ",".join(pair), "alloys")
        _commit(config.out_dir / directory, files)
    directory, files = cmd_report(config)
    expected = tmp_path / "reference"
    write_report_reference(config, expected)
    assert_same_tree(files, expected, "report")
    assert directory.as_posix() == "report" and len(files) == 6
