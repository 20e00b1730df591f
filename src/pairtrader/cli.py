"""Command-line pipeline: scan, analyze, backtest, and report.

The pipeline is a pure function of the config document and the input CSV
bytes; no timestamps or randomness reach the artifacts, so identical inputs
produce byte-identical outputs.  Each command returns its directory under
``out_dir`` and its files as bytes by name, rendered by one CSV and one JSON
renderer.  ``_commit`` alone writes: it stages a command's files in a
temporary directory and renames it into place.  The pipeline modules only compute.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numeric or degeneracy error, 130 (128 + SIGINT) interrupted, 143 (128 +
SIGTERM) terminated.  SIGTERM raises ``SystemExit`` for the whole command,
so a terminated command still removes its staging directory and stops its
scan pool, as an interrupted one does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import shutil
import signal
import sys
import tempfile
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from decimal import Decimal
from itertools import permutations, repeat
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

# Every BLAS and LAPACK call in this package works on a tall matrix of at
# most about 40 columns, where waking OpenBLAS's thread pool costs more than
# the work.  OpenBLAS reads its thread count once, when numpy first loads it,
# so this must run before that import; a count the user set wins.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .backtest import (
    DEFAULT_CAPITAL,
    LedgerRow,
    PairSummary,
    run_ledger,
    sector_report,
    summarize_pair,
)
from .econometrics import correlation_matrix
from .errors import ConfigError, DataError, PairTraderError
from .marketdata import AlignedPanel, align_panel, load_csv, slice_window
from .pairscan import (DEFAULT_NEAR_EPS, DEFAULT_THRESHOLD, coint_matrix, fit_pair,
                       order_pair, select_pairs)
from .signalgen import LOWER_LIMIT, UPPER_LIMIT, build_trading_frame, fit_ratio_stats
from .svgchart import line_chart

logger = logging.getLogger(__name__)

OUT_DIR_ENV = "PAIRTRADER_OUT"

#: The config key each value flag writes into the config document; a date
#: flag writes one end (0 or 1) of its window.
_FLAG_KEYS = {
    "--threshold": ("coint_threshold", None),
    "--near-eps": ("near_eps", None),
    "--capital": ("capital_per_leg", None),
    "--train-start": ("train_window", 0),
    "--train-end": ("train_window", 1),
    "--test-start": ("test_window", 0),
    "--test-end": ("test_window", 1),
}

_WINDOWS = ("train_window", "test_window")

#: The report command writes ``<out_dir>/report``, so no sector may take that name.
_REPORT_DIR = "report"


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration: sector universe, windows, and knobs.

    Each field is one config key, and no other key is allowed.
    """

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

    def __post_init__(self) -> None:
        if self.train_window[0] > self.train_window[1]:
            raise ConfigError("train window start is after its end")
        if self.test_window[0] > self.test_window[1]:
            raise ConfigError("test window start is after its end")
        if self.train_window[1] >= self.test_window[0]:
            raise ConfigError("train window must end before the test window begins")
        for key in ("z_upper", "z_lower"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if not self.z_lower < 0.0 < self.z_upper:
            raise ConfigError("band limits must satisfy z_lower < 0 < z_upper")
        if not 0.0 < self.coint_threshold < 1.0:
            raise ConfigError("coint_threshold must lie in (0, 1)")
        if not 0.0 <= self.near_eps < math.inf:
            raise ConfigError("near_eps must be finite and >= 0")
        if Decimal(self.capital_per_leg) <= 0:
            raise ConfigError("capital_per_leg must be positive")
        for sector, members in self.sectors.items():
            _check_name("sector", sector)
            if sector == _REPORT_DIR:
                raise ConfigError(f"sector name {sector!r} is reserved for the report output")
            seen: set[str] = set()
            for ticker, _ in members:
                _check_name("ticker", ticker)
                if "," in ticker:
                    raise ConfigError(f"ticker name {ticker!r} contains ',', which --pair "
                                      "uses to separate the two tickers")
                if ticker in seen:
                    raise ConfigError(f"sector {sector!r} lists ticker {ticker!r} twice")
                seen.add(ticker)
            _check_pair_dirs(sector, [ticker for ticker, _ in members])

    @classmethod
    def from_json(cls, path, flags: Mapping[str, str] | None = None,
                  out: str | None = None) -> "RunConfig":
        """The config document at ``path``, with ``flags`` written into it.

        ``flags`` maps flags of ``_FLAG_KEYS`` to raw strings.  Each one
        replaces its key's raw value (a date flag, one end of its window)
        before any value is parsed, so a file value a flag replaces is never
        read.  A parse error names the flag or config key the value came
        from.  The file's ``out_dir`` is relative to the config's directory.
        ``out`` (``--out`` or ``PAIRTRADER_OUT``) is relative to the current
        one; it replaces the file's ``out_dir`` once that has been checked.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"config file {path}: unknown key(s) "
                              + ", ".join(repr(key) for key in unknown))
        for key in ("sectors", *_WINDOWS):
            if key not in data:
                raise ConfigError(f"config is missing required key {key!r}")

        # Where each raw value came from; a window's two ends each have their own.
        names = {key: f"config key {key!r}" for key in data}
        for key in _WINDOWS:
            data[key] = _parse_value(names[key], _ends, data[key])
            names[key] = [names[key]] * 2
        for flag, raw in (flags or {}).items():
            key, end = _FLAG_KEYS[flag]
            if end is None:
                data[key], names[key] = raw, flag
            else:
                data[key][end], names[key][end] = raw, flag

        base = path.parent
        parsers = {"sectors": lambda raw: _sectors(base, raw), "capital_per_leg": _capital,
                   "close_column": _string, "out_dir": Path}
        values = {}
        for key, raw in data.items():
            if key in _WINDOWS:
                values[key] = tuple(_parse_value(name, date.fromisoformat, end)
                                    for name, end in zip(names[key], raw))
            else:
                values[key] = _parse_value(names[key], parsers.get(key, _number), raw)
        values["out_dir"] = Path(out) if out else base / values.get("out_dir", "runs")
        return cls(**values)


#: Every top-level key a config document may hold; any other key is a ConfigError.
_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


def _check_name(kind: str, name: str) -> None:
    """A sector or ticker name must be usable as one output path component."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{kind} name {name!r} is not usable as a directory name")


def _check_pair_dirs(sector: str, tickers: list[str]) -> None:
    """No two pairs of a sector may share a ``pairs/<predictor>-<target>`` directory.

    Either ticker of a pair may turn out to be its predictor, so both orders
    of every pair are spelled.  Names can only collide when some ticker
    contains ``-``.
    """
    if not any("-" in ticker for ticker in tickers):
        return
    owners: dict[str, tuple[str, str]] = {}
    for a, b in permutations(tickers, 2):
        owner = owners.setdefault(f"{a}-{b}", (a, b))
        if {a, b} != set(owner):
            raise ConfigError(f"sector {sector!r}: pairs {owner[0]},{owner[1]} and {a},{b} "
                              f"would both write pairs/{a}-{b}")


def _parse_value(name: str, parse, raw):
    """``parse(raw)``, with any failure reported as a ConfigError naming ``name``."""
    try:
        return parse(raw)
    except (ArithmeticError, TypeError, ValueError):
        raise ConfigError(f"{name}: bad value {raw!r}") from None


def _number(raw) -> float:
    """A float from a number or a string; a JSON boolean is not a number."""
    if isinstance(raw, bool):
        raise TypeError("a boolean is not a number")
    return float(raw)


def _decimal(raw) -> Decimal:
    """A finite decimal amount (``InvalidOperation`` is an ArithmeticError)."""
    value = Decimal(str(raw))
    if not value.is_finite():
        raise ValueError("not finite")
    return value


def _capital(raw) -> Decimal:
    """A decimal amount whose exponent form does not reach the artifacts.

    A positive exponent marks a whole amount (``1e5``, ``1.5e3``); it is
    rewritten with exponent 0, so ``1e5`` writes the bytes ``100000`` does.
    """
    value = _decimal(raw)
    return Decimal(int(value)) if value.as_tuple().exponent > 0 else value


def _string(raw) -> str:
    """``raw`` itself, which must be a string."""
    if not isinstance(raw, str):
        raise TypeError("not a string")
    return raw


def _ends(raw) -> list:
    """A window's two raw ends, start first."""
    start, end = raw
    return [start, end]


#: The keys of a sector member object.
_MEMBER_KEYS = frozenset(("ticker", "csv"))


def _sectors(base: Path, raw) -> dict[str, list[tuple[str, Path]]]:
    """Sector names to ``(ticker, CSV path)`` lists.

    Each member is an object ``{"ticker": T, "csv": PATH}`` of two strings,
    with PATH relative to ``base``; any other member key is a ConfigError.
    """
    if not isinstance(raw, dict) or not all(isinstance(members, list)
                                            for members in raw.values()):
        raise ConfigError("config key 'sectors' must map sector names to member lists")
    for sector, members in raw.items():
        for member in members:
            if not (isinstance(member, dict) and isinstance(member.get("ticker"), str)
                    and isinstance(member.get("csv"), str)):
                raise ConfigError(f"config key 'sectors': member {member!r} of sector "
                                  f"{sector!r} needs a string 'ticker' and a string 'csv'")
            unknown = sorted(set(member) - _MEMBER_KEYS)
            if unknown:
                raise ConfigError(f"config key 'sectors': member {member['ticker']!r} of sector "
                                  f"{sector!r} has unknown key(s) "
                                  + ", ".join(repr(key) for key in unknown))
    return {sector: [(m["ticker"], (base / m["csv"]).resolve()) for m in members]
            for sector, members in raw.items()}


# --- deterministic artifact rendering and writing -----------------------------


def _fields(obj, *omit: str) -> dict:
    """A dataclass instance's fields by name, less those named in ``omit``."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in omit}


def _json(obj) -> bytes:
    """Canonical JSON of ``obj``, by the one rule every JSON artifact follows.

    A dataclass becomes an object of its own fields, a mapping (with string
    keys) an object and a tuple or list an array.  A ``Decimal`` is written
    as its ``str``, a date as its ISO string and a non-finite float as null;
    strings, integers, booleans, None and finite floats are written as
    themselves.  Any other type (a numpy integer, say) raises ``TypeError``.
    Keys are sorted, nesting is indented by two spaces and the text ends in
    a newline: the ASCII text of ``json.dumps(..., indent=2,
    sort_keys=True)``, which with an indent falls back to its pure-Python
    encoder and takes twice as long.
    """
    parts: list[str] = []
    _json_into(parts, obj, "\n")
    parts.append("\n")
    return "".join(parts).encode("ascii")


def _json_into(parts: list[str], value, newline: str) -> None:
    """Append ``value``'s JSON text to ``parts``; ``newline`` ends with its indent."""
    if isinstance(value, str):
        parts.append(_json_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(float.__repr__(value) if math.isfinite(value) else "null")
    elif isinstance(value, Decimal):
        parts.append(_json_string(str(value)))
    elif isinstance(value, date):
        parts.append(_json_string(value.isoformat()))
    else:
        if is_dataclass(value) and not isinstance(value, type):
            value = _fields(value)
        if isinstance(value, Mapping):
            if not value:
                parts.append("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"cannot write a {type(key).__name__} key to JSON")
                parts.append(separator + _json_string(key) + ": ")
                _json_into(parts, value[key], inner)
                separator = "," + inner
            parts.append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                parts.append("[]")
                return
            inner = newline + "  "
            separator = "[" + inner
            for item in value:
                parts.append(separator)
                _json_into(parts, item, inner)
                separator = "," + inner
            parts.append(newline + "]")
        else:
            raise TypeError(f"cannot write a {type(value).__name__} to JSON")


def _cell(value):
    """A CSV cell: ``repr`` of a float (empty for NaN), ``str`` of a Decimal, ISO date."""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    return value


def _csv(header, rows) -> bytes:
    """One header row, then ``rows`` with every cell written by ``_cell``; rows end in CRLF."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return text.getvalue().encode("utf-8")


def _matrix_csv(tickers, values) -> bytes:
    """A ticker-by-ticker ``values`` array with a ticker header row and column."""
    return _csv(["", *tickers], ([ticker, *row] for ticker, row in zip(tickers, values.tolist())))


@contextmanager
def staged_dir(final: Path):
    """Write into a staging directory, then rename it into place.

    Staging happens inside a unique sibling of ``final``, so concurrent or
    nested runs never share a staging directory.  An existing ``final`` is
    renamed aside into that sibling before the new tree is renamed in, and
    removed with it afterwards, so ``final`` is never deleted in place.  An
    exception between the two renames puts the old tree back.
    """
    final = Path(final)
    final.parent.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=final.name + ".staging-", dir=final.parent))
    old = workdir / "old"
    try:
        staging = workdir / "new"
        staging.mkdir()
        yield staging
        if final.exists():
            os.replace(final, old)
        os.replace(staging, final)
    finally:
        if old.exists() and not final.exists():
            os.replace(old, final)
        shutil.rmtree(workdir, ignore_errors=True)


def _commit(final: Path, files: Mapping[str, bytes]) -> None:
    """Write ``files`` as the whole of directory ``final``: the one place artifacts are written.

    An OS error (an output path under a regular file, a full disk) is a ConfigError naming it.
    """
    try:
        with staged_dir(final) as staging:
            for name, data in files.items():
                (staging / name).write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {final}: {exc}") from None


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
    if sector:
        raise ConfigError(f"tickers {names[0]!r} and {names[1]!r} are not both "
                          f"in sector {sector!r}")
    raise ConfigError(f"tickers {names[0]!r} and {names[1]!r} are not in the same sector")


# --- commands -----------------------------------------------------------------


def cmd_scan(config: RunConfig, sector: str) -> tuple[Path, dict[str, bytes]]:
    """Correlation matrix, cointegration p-values, and pair selection."""
    panel_train = slice_window(_sector_panel(config, sector), *config.train_window)

    corr = correlation_matrix(panel_train)
    pvals = coint_matrix(panel_train)
    pairs = select_pairs(pvals, threshold=config.coint_threshold, near_eps=config.near_eps)

    records = []
    for cell in pvals.cells:
        record = {**_fields(cell, "adf", "reason"), "p_value": cell.p_value}
        if cell.reason is not None:
            record["reason"] = cell.reason
        records.append(record)
    n = len(pvals.tickers)
    grid = np.full((n, n), math.nan)
    grid[np.triu_indices(n, 1)] = [cell.p_value for cell in pvals.cells]

    files = {
        "correlation_matrix.csv": _matrix_csv(panel_train.tickers, corr),
        "pvalue_matrix.csv": _matrix_csv(pvals.tickers, grid),
        "pvalue_matrix.json": _json({"tickers": pvals.tickers, "pairs": records}),
        "selected_pairs.json": _json({
            "sector": sector,
            "threshold": config.coint_threshold,
            "near_eps": config.near_eps,
            "pairs": pairs,
        }),
    }
    logger.info("scan %s: %d pairs selected", sector, len(pairs))
    return Path(sector, "scan"), files


def cmd_analyze(config: RunConfig, pair: str,
                sector: str | None = None) -> tuple[Path, dict[str, bytes]]:
    """Hedge-ratio regression report and residual stationarity check."""
    sector_name, pair_panel = _find_pair(config, pair, sector)
    pred, targ = pair_panel.tickers
    train = slice_window(pair_panel, *config.train_window)
    model = fit_pair(train)
    adf = model.residual_adf

    files = {
        "ols_summary.txt": model.report.to_text(
            dep_name=f"{targ} (asset2)", regressor_name=f"{pred} (asset1)").encode("utf-8"),
        "ols_report.json": _json({
            "predictor": pred,
            "target": targ,
            "train_window": config.train_window,
            "ols": _fields(model.report, "residuals"),
            "verdict": model.verdict,
        }),
        "residuals.csv": _csv(["date", "residual"],
                              zip(train.dates, model.report.residuals.tolist())),
        "residual_adf.json": _json({
            "verdict": model.verdict,
            "adf": None if adf is None else {
                **_fields(adf, "n_series"), "crit": adf.crit, "p_value": adf.p_value,
            },
        }),
    }
    logger.info("analyze %s-%s: hedge ratio %.4f (%s)",
                pred, targ, model.report.hedge_ratio, model.verdict)
    return Path(sector_name, "pairs", f"{pred}-{targ}", "analysis"), files


def cmd_backtest(config: RunConfig, pair: str, sector: str | None = None,
                 svg: bool = False) -> tuple[Path, dict[str, bytes]]:
    """Signals, triggers, daily ledger, the pair summary and, with ``svg``, two charts."""
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

    ledger_header = [f.name for f in fields(LedgerRow)]
    files = {
        "trading_frame.csv": _csv(
            ["date", "asset1", "asset2", "z_score", "upper_limit", "lower_limit",
             "signals1", "signals2", "positions1", "positions2"],
            zip(frame.dates, frame.close1.tolist(), frame.close2.tolist(),
                frame.zscore.tolist(), repeat(frame.upper_limit), repeat(frame.lower_limit),
                frame.signals1.tolist(), frame.signals2.tolist(),
                frame.positions1.tolist(), frame.positions2.tolist()),
        ),
        "triggers.json": _json(ledger.triggers),
        "ledger.csv": _csv(ledger_header, ([getattr(row, name) for name in ledger_header]
                                           for row in ledger.rows)),
        "summary.json": _json(summary),
    }
    if svg:
        files["z_band.svg"] = line_chart(
            frame.dates,
            [("z-score", "steelblue", frame.zscore.tolist()),
             ("upper", "firebrick", [frame.upper_limit] * len(frame)),
             ("lower", "seagreen", [frame.lower_limit] * len(frame))],
            f"{asset1}/{asset2} ratio z-score",
        ).encode("utf-8")
        files["portfolio_value.svg"] = line_chart(
            frame.dates,
            [("total value", "steelblue", [float(r.total) for r in ledger.rows])],
            f"{asset1}-{asset2} portfolio value",
        ).encode("utf-8")
    logger.info("backtest %s-%s: profit %s, return %s%%",
                asset1, asset2, summary.profit, summary.annual_return)
    return Path(sector_name, "pairs", f"{asset1}-{asset2}", "backtest"), files


def _read_summary(path: Path) -> PairSummary:
    """A backtest's ``summary.json``; malformed content is a DataError naming the file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return PairSummary(
            ticker1=data["ticker1"],
            ticker2=data["ticker2"],
            initial_investment=_decimal(data["initial_investment"]),
            profit=_decimal(data["profit"]),
            annual_return=_decimal(data["annual_return"]),
        )
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed backtest summary "
                        f"({type(exc).__name__}: {exc})") from None


def cmd_report(config: RunConfig) -> tuple[Path, dict[str, bytes]]:
    """Aggregate per-pair summaries into sector tables and a cross-sector view."""
    per_sector: dict[str, list[PairSummary]] = {}
    for sector in sorted(config.sectors):
        sector_dir = config.out_dir / sector / "pairs"
        if not sector_dir.is_dir():
            continue
        summaries = [_read_summary(path)
                     for path in sorted(sector_dir.glob("*/backtest/summary.json"))]
        if summaries:
            per_sector[sector] = summaries
    if not per_sector:
        raise DataError(f"no backtest summaries found under {config.out_dir}")

    reports = [sector_report(summaries, sector) for sector, summaries in per_sector.items()]
    files = {}
    for report in reports:
        files[f"sector_{report.sector}.csv"] = _csv(
            ["Stock Pair", "Init Investment", "Profit", "Annual Return"],
            ([f"{r.ticker1} - {r.ticker2}", r.initial_investment, r.profit,
              r.annual_return] for r in report.rows),
        )
        files[f"sector_{report.sector}.json"] = _json(report)
    cross_rows = sorted(reports, key=lambda r: (-r.max_return, r.sector))
    files["summary.csv"] = _csv(["Sector", "No of Pairs", "Positive Return Pairs", "Max Ret"],
                                ([r.sector, r.n_pairs, r.n_positive, r.max_return]
                                 for r in cross_rows))
    files["summary.json"] = _json([_fields(r, "rows") for r in cross_rows])
    logger.info("report: %d sectors aggregated", len(per_sector))
    return Path(_REPORT_DIR), files


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
        for flag, (key, end) in _FLAG_KEYS.items():
            where = "" if end is None else f"{('start', 'end')[end]} of "
            p.add_argument(flag, help=f"sets the {where}config key {key}")

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


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    # SIGTERM exits through SystemExit, so that every finally block and the
    # scan pool's with block run.  Only where SIGTERM has its default action
    # and this is the main thread, the only one that may set a handler:
    # elsewhere the program that owns SIGTERM decides.
    installed = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    if installed:
        try:
            signal.signal(signal.SIGTERM, _exit_on_sigterm)
        except ValueError:  # not the main thread
            installed = False
    try:
        args = build_parser().parse_args(argv)
        flags = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in _FLAG_KEYS}
        config = RunConfig.from_json(
            args.config, {flag: raw for flag, raw in flags.items() if raw is not None},
            args.out or os.environ.get(OUT_DIR_ENV))
        if args.command == "scan":
            directory, files = cmd_scan(config, args.sector)
        elif args.command == "analyze":
            directory, files = cmd_analyze(config, args.pair, args.sector)
        elif args.command == "backtest":
            directory, files = cmd_backtest(config, args.pair, args.sector, svg=args.svg)
        else:
            directory, files = cmd_report(config)
        _commit(config.out_dir / directory, files)
        return 0
    except PairTraderError as exc:
        print(f"pairtrader: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        # Ctrl-C: every finally block, the scan pool's and ``staged_dir``'s
        # among them, has run on the way here.
        print("pairtrader: error: interrupted", file=sys.stderr)
        return 130
    finally:
        if installed:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


if __name__ == "__main__":
    raise SystemExit(main())
