"""Command-line pipeline: scan, analyze, backtest, and report.

The pipeline is a pure function of the config document and the input CSV
bytes; no timestamps or randomness reach the artifacts, so identical inputs
produce byte-identical outputs.  Each command stages its files in a temporary
directory and renames it into place.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numeric or degeneracy error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import date
from decimal import Decimal
from pathlib import Path

from .backtest import (
    DEFAULT_CAPITAL,
    PairSummary,
    run_ledger,
    sector_report,
    summarize_pair,
)
from .econometrics import CorrelationMatrix, correlation_matrix
from .errors import ConfigError, DataError, PairTraderError
from .marketdata import AlignedPanel, align_panel, load_csv, slice_window
from .pairscan import (DEFAULT_NEAR_EPS, DEFAULT_THRESHOLD, coint_matrix, fit_pair,
                       order_pair, select_pairs)
from .signalgen import LOWER_LIMIT, UPPER_LIMIT, build_trading_frame, fit_ratio_stats
from .svgchart import line_chart

logger = logging.getLogger(__name__)

OUT_DIR_ENV = "PAIRTRADER_OUT"


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration: sector universe, windows, and knobs."""

    sectors: dict[str, list[tuple[str, Path]]]
    train_window: tuple[date, date]
    test_window: tuple[date, date]
    coint_threshold: float = DEFAULT_THRESHOLD
    near_eps: float = DEFAULT_NEAR_EPS
    z_upper: float = UPPER_LIMIT
    z_lower: float = LOWER_LIMIT
    capital_per_leg: Decimal = DEFAULT_CAPITAL
    out_dir: Path = Path("runs")
    close_column: str | None = None
    svg: bool = False

    def __post_init__(self) -> None:
        if self.train_window[0] > self.train_window[1]:
            raise ConfigError("train window start is after its end")
        if self.test_window[0] > self.test_window[1]:
            raise ConfigError("test window start is after its end")
        if self.train_window[1] >= self.test_window[0]:
            raise ConfigError("train window must end before the test window begins")
        if not self.z_lower < 0.0 < self.z_upper:
            raise ConfigError("band limits must satisfy z_lower < 0 < z_upper")
        if not 0.0 < self.coint_threshold < 1.0:
            raise ConfigError("coint_threshold must lie in (0, 1)")
        if not self.near_eps >= 0.0:
            raise ConfigError("near_eps must be >= 0")
        if Decimal(self.capital_per_leg) <= 0:
            raise ConfigError("capital_per_leg must be positive")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")

        try:
            raw_sectors = data["sectors"]
            train = data["train_window"]
            test = data["test_window"]
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from None

        base = path.parent
        if not isinstance(raw_sectors, dict) or not all(
            isinstance(members, list) for members in raw_sectors.values()
        ):
            raise ConfigError("config key 'sectors' must map sector names to member lists")
        sectors = {
            name: [_sector_member(base, name, member) for member in members]
            for name, members in raw_sectors.items()
        }

        kwargs: dict = {}
        for key in ("coint_threshold", "near_eps", "z_upper", "z_lower"):
            if key in data:
                kwargs[key] = _parse_value(f"config key {key!r}", float, data[key])
        if "capital_per_leg" in data:
            kwargs["capital_per_leg"] = _parse_value(
                "config key 'capital_per_leg'", _decimal, data["capital_per_leg"]
            )
        if "close_column" in data:
            if not isinstance(data["close_column"], str):
                raise ConfigError(f"config key 'close_column': bad value {data['close_column']!r}")
            kwargs["close_column"] = data["close_column"]
        out_dir = _parse_value("config key 'out_dir'", Path, data.get("out_dir", "runs"))
        if not out_dir.is_absolute():
            out_dir = base / out_dir

        return cls(
            sectors=sectors,
            train_window=_parse_value("config key 'train_window'", _window, train),
            test_window=_parse_value("config key 'test_window'", _window, test),
            out_dir=out_dir,
            **kwargs,
        )


def _parse_value(name: str, parse, raw):
    """``parse(raw)``, with any failure reported as a ConfigError naming ``name``."""
    try:
        return parse(raw)
    except (ArithmeticError, TypeError, ValueError):
        raise ConfigError(f"{name}: bad value {raw!r}") from None


def _decimal(raw) -> Decimal:
    """A finite decimal amount (``InvalidOperation`` is an ArithmeticError)."""
    value = Decimal(str(raw))
    if not value.is_finite():
        raise ValueError("not finite")
    return value


def _window(raw) -> tuple[date, date]:
    start, end = raw
    return date.fromisoformat(start), date.fromisoformat(end)


def _sector_member(base: Path, sector: str, member) -> tuple[str, Path]:
    """One ``{"ticker": T, "csv": PATH}`` or ``[T, PATH]`` sector entry."""
    try:
        if isinstance(member, dict):
            ticker, csv_path = member["ticker"], member["csv"]
        else:
            ticker, csv_path = member
        return str(ticker), (base / csv_path).resolve()
    except (KeyError, TypeError, ValueError):
        raise ConfigError(
            f"config key 'sectors': member {member!r} of sector {sector!r} "
            "needs a 'ticker' and a 'csv'"
        ) from None


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict = {}
    window_flags = {
        "train_start": ("train_window", 0),
        "train_end": ("train_window", 1),
        "test_start": ("test_window", 0),
        "test_end": ("test_window", 1),
    }
    windows = {"train_window": config.train_window, "test_window": config.test_window}
    for flag, (window, idx) in window_flags.items():
        value = getattr(args, flag, None)
        if value is not None:
            try:
                parsed = date.fromisoformat(value)
            except ValueError:
                raise ConfigError(f"--{flag.replace('_', '-')}: bad date {value!r}") from None
            pair = list(windows[window])
            pair[idx] = parsed
            windows[window] = (pair[0], pair[1])
    updates["train_window"] = windows["train_window"]
    updates["test_window"] = windows["test_window"]

    if getattr(args, "threshold", None) is not None:
        updates["coint_threshold"] = args.threshold
    if getattr(args, "near_eps", None) is not None:
        updates["near_eps"] = args.near_eps
    if getattr(args, "capital", None) is not None:
        updates["capital_per_leg"] = _parse_value("--capital", _decimal, args.capital)
    if getattr(args, "svg", False):
        updates["svg"] = True

    out_override = getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV)
    if out_override:
        updates["out_dir"] = Path(out_override)

    return replace(config, **updates)


# --- deterministic artifact writing ------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"


@contextmanager
def staged_dir(final: Path):
    """Write into a staging directory, then rename it into place.

    Staging happens inside a unique sibling of ``final``, so concurrent or
    nested runs never share a staging directory.  An existing ``final`` is
    renamed aside into that sibling before the new tree is renamed in, and
    removed with it afterwards, so ``final`` is never deleted in place.
    """
    final = Path(final)
    final.parent.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=final.name + ".staging-", dir=final.parent))
    try:
        staging = workdir / "new"
        staging.mkdir()
        yield staging
        if final.exists():
            os.replace(final, workdir / "old")
        os.replace(staging, final)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_correlation_csv(matrix: CorrelationMatrix, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["", *matrix.tickers])
        for i, ticker in enumerate(matrix.tickers):
            writer.writerow([ticker, *(repr(float(v)) for v in matrix.values[i])])


# --- sector/pair resolution ---------------------------------------------------


def _sector_panel(config: RunConfig, sector: str) -> AlignedPanel:
    if sector not in config.sectors:
        raise ConfigError(f"sector {sector!r} not present in config")
    members = config.sectors[sector]
    if len(members) < 2:
        raise ConfigError(f"sector {sector!r} must list at least 2 tickers")
    return align_panel([
        load_csv(csv_path, ticker, close_column=config.close_column)
        for ticker, csv_path in members
    ])


def _find_pair(config: RunConfig, pair: str, sector: str | None) -> tuple[str, AlignedPanel]:
    """The pair's sector and its two-ticker panel, predictor column first.

    The panel is the scan's inner join of the two tickers, ordered by the
    scan's rule on the training window; pair commands only window it.
    """
    names = [p.strip() for p in pair.split(",")]
    if len(names) != 2 or not all(names):
        raise ConfigError(f"--pair must be 'A,B', got {pair!r}")
    if names[0] == names[1]:
        raise ConfigError(f"--pair names {names[0]!r} twice; a pair needs two tickers")
    candidates = [sector] if sector else list(config.sectors)
    for name in candidates:
        if name not in config.sectors:
            raise ConfigError(f"sector {name!r} not present in config")
        members = dict(config.sectors[name])
        if names[0] in members and names[1] in members:
            a = load_csv(members[names[0]], names[0], close_column=config.close_column)
            b = load_csv(members[names[1]], names[1], close_column=config.close_column)
            return name, order_pair(align_panel([a, b]), config.train_window)
    known = {t for members in config.sectors.values() for t, _ in members}
    for ticker in names:
        if ticker not in known:
            raise ConfigError(f"ticker {ticker!r} not found in any configured sector")
    raise ConfigError(f"tickers {names[0]!r} and {names[1]!r} are not in the same sector")


# --- commands -----------------------------------------------------------------


def cmd_scan(config: RunConfig, sector: str) -> Path:
    """Correlation matrix, cointegration p-values, and pair selection."""
    panel_train = slice_window(_sector_panel(config, sector), *config.train_window)

    corr = correlation_matrix(panel_train)
    pvals = coint_matrix(panel_train)
    pairs = select_pairs(pvals, threshold=config.coint_threshold, near_eps=config.near_eps)

    out = config.out_dir / sector / "scan"
    with staged_dir(out) as staging:
        _write_correlation_csv(corr, staging / "correlation_matrix.csv")
        pvals.to_csv(staging / "pvalue_matrix.csv")
        (staging / "pvalue_matrix.json").write_text(
            _json_text(pvals.to_json_dict()), encoding="utf-8"
        )
        (staging / "selected_pairs.json").write_text(
            _json_text({
                "sector": sector,
                "threshold": config.coint_threshold,
                "near_eps": config.near_eps,
                "pairs": [p.to_json_dict() for p in pairs],
            }),
            encoding="utf-8",
        )
    logger.info("scan %s: %d pairs selected", sector, len(pairs))
    return out


def cmd_analyze(config: RunConfig, pair: str, sector: str | None = None) -> Path:
    """Hedge-ratio regression report and residual stationarity check."""
    sector_name, pair_panel = _find_pair(config, pair, sector)
    pred, targ = pair_panel.tickers
    train = slice_window(pair_panel, *config.train_window)
    model = fit_pair(train)

    out = config.out_dir / sector_name / "pairs" / f"{pred}-{targ}" / "analysis"
    with staged_dir(out) as staging:
        (staging / "ols_summary.txt").write_text(
            model.report.to_text(dep_name=f"{targ} (asset2)", regressor_name=f"{pred} (asset1)"),
            encoding="utf-8",
        )
        (staging / "ols_report.json").write_text(
            _json_text({
                "predictor": pred,
                "target": targ,
                "train_window": [config.train_window[0].isoformat(),
                                 config.train_window[1].isoformat()],
                "ols": model.report.to_json_dict(),
                "verdict": model.verdict,
            }),
            encoding="utf-8",
        )
        with open(staging / "residuals.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["date", "residual"])
            for day, resid in zip(train.dates, model.report.residuals.tolist()):
                writer.writerow([day.isoformat(), repr(resid)])
        adf_payload = {
            "verdict": model.verdict,
            "adf": model.residual_adf.to_json_dict() if model.residual_adf else None,
        }
        (staging / "residual_adf.json").write_text(_json_text(adf_payload), encoding="utf-8")
    logger.info("analyze %s-%s: hedge ratio %.4f (%s)",
                pred, targ, model.report.hedge_ratio, model.verdict)
    return out


def cmd_backtest(config: RunConfig, pair: str, sector: str | None = None) -> Path:
    """Signals, triggers, daily ledger, and the pair summary."""
    sector_name, pair_panel = _find_pair(config, pair, sector)
    asset1, asset2 = pair_panel.tickers

    stats = fit_ratio_stats(slice_window(pair_panel, *config.train_window))
    frame = build_trading_frame(
        slice_window(pair_panel, *config.test_window),
        stats,
        upper=config.z_upper,
        lower=config.z_lower,
    )
    ledger = run_ledger(frame, config.capital_per_leg)
    summary = summarize_pair(ledger)

    out = (config.out_dir / sector_name / "pairs"
           / f"{asset1}-{asset2}" / "backtest")
    with staged_dir(out) as staging:
        frame.to_csv(staging / "trading_frame.csv")
        (staging / "triggers.json").write_text(
            _json_text([t.to_json_dict() for t in ledger.triggers]), encoding="utf-8"
        )
        ledger.to_csv(staging / "ledger.csv")
        (staging / "summary.json").write_text(
            _json_text(summary.to_json_dict()), encoding="utf-8"
        )
        if config.svg:
            (staging / "z_band.svg").write_text(
                line_chart(
                    frame.dates,
                    [
                        ("z-score", "steelblue", frame.zscore.tolist()),
                        ("upper", "firebrick", [frame.upper_limit] * len(frame)),
                        ("lower", "seagreen", [frame.lower_limit] * len(frame)),
                    ],
                    f"{asset1}/{asset2} ratio z-score",
                ),
                encoding="utf-8",
            )
            (staging / "portfolio_value.svg").write_text(
                line_chart(
                    frame.dates,
                    [("total value", "steelblue", [float(r.total) for r in ledger.rows])],
                    f"{asset1}-{asset2} portfolio value",
                ),
                encoding="utf-8",
            )
    logger.info("backtest %s-%s: profit %s, return %s%%",
                asset1, asset2, summary.profit, summary.annual_return)
    return out


def cmd_report(config: RunConfig) -> Path:
    """Aggregate per-pair summaries into sector tables and a cross-sector view."""
    per_sector: dict[str, list[PairSummary]] = {}
    for sector in sorted(config.sectors):
        sector_dir = config.out_dir / sector / "pairs"
        if not sector_dir.is_dir():
            continue
        summaries = []
        for summary_path in sorted(sector_dir.glob("*/backtest/summary.json")):
            data = json.loads(summary_path.read_text(encoding="utf-8"))
            summaries.append(PairSummary.from_json_dict(data))
        if summaries:
            per_sector[sector] = summaries
    if not per_sector:
        raise DataError(f"no backtest summaries found under {config.out_dir}")

    out = config.out_dir / "report"
    with staged_dir(out) as staging:
        cross_rows = []
        for sector, summaries in per_sector.items():
            report = sector_report(summaries, sector)
            report.to_csv(staging / f"sector_{sector}.csv")
            (staging / f"sector_{sector}.json").write_text(
                _json_text(report.to_json_dict()), encoding="utf-8"
            )
            cross_rows.append(report)
        cross_rows.sort(key=lambda r: (-r.max_return, r.sector))
        with open(staging / "summary.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Sector", "No of Pairs", "Positive Return Pairs", "Max Ret"])
            for report in cross_rows:
                writer.writerow([
                    report.sector, report.n_pairs, report.n_positive, str(report.max_return),
                ])
        (staging / "summary.json").write_text(
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
    logger.info("report: %d sectors aggregated", len(per_sector))
    return out


# --- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through ConfigError
    # so usage problems map to exit code 1 like every other config fault.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pairtrader", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--train-start", dest="train_start", metavar="DATE")
        p.add_argument("--train-end", dest="train_end", metavar="DATE")
        p.add_argument("--test-start", dest="test_start", metavar="DATE")
        p.add_argument("--test-end", dest="test_end", metavar="DATE")
        p.add_argument("--threshold", type=float, help="cointegration p-value threshold")
        p.add_argument("--near-eps", dest="near_eps", type=float,
                       help="near-threshold inclusion margin")
        p.add_argument("--capital", help="capital per leg")

    p_scan = sub.add_parser("scan", help="scan one sector for cointegrated pairs")
    add_common(p_scan)
    p_scan.add_argument("--sector", required=True)

    p_analyze = sub.add_parser("analyze", help="fit and report the pair model")
    add_common(p_analyze)
    p_analyze.add_argument("--pair", required=True, metavar="A,B")
    p_analyze.add_argument("--sector")

    p_backtest = sub.add_parser("backtest", help="run the pair's trading backtest")
    add_common(p_backtest)
    p_backtest.add_argument("--pair", required=True, metavar="A,B")
    p_backtest.add_argument("--sector")
    p_backtest.add_argument("--svg", action="store_true", help="emit SVG line charts")

    p_report = sub.add_parser("report", help="aggregate backtests into sector tables")
    add_common(p_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        config = _apply_overrides(RunConfig.from_json(args.config), args)
        if args.command == "scan":
            cmd_scan(config, args.sector)
        elif args.command == "analyze":
            cmd_analyze(config, args.pair, args.sector)
        elif args.command == "backtest":
            cmd_backtest(config, args.pair, args.sector)
        elif args.command == "report":
            cmd_report(config)
        return 0
    except PairTraderError as exc:
        print(f"pairtrader: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
