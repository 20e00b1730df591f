"""Traced launcher for one pairtrader command, plus the parent-side aggregation.

    python -X importtime perfbench/tracelaunch.py SPANS.jsonl -- scan --config ...

The launcher imports ``pairtrader.cli``, replaces the public functions as
``pairtrader.cli``, ``pairtrader.pairscan`` and ``pairtrader.unitroot``
reference them with wrappers that record a span per call, and then calls
``pairtrader.cli.main``.  Spans stay in memory and are written as JSON lines
when the command ends.  A name that no longer exists is recorded as absent
instead of failing the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin(self, name: str) -> int:
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    def tally(self, name: str, fn, *args) -> None:
        """Run a counting hook; a hook broken by a refactor marks the counter absent."""
        try:
            fn(self, *args)
        except Exception as exc:  # a renamed field must not fail the traced command
            self.absent.append(f"{name} counter ({type(exc).__name__}: {exc})")

    def wrap(self, module_name: str, attr: str, name: str, hook=None) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            self.count(name + "_calls")
            if hook is not None:
                self.tally(name, hook, args, result)
            return result

        setattr(module, attr, traced)

    def wrap_writer(self, module_name: str, attr: str) -> None:
        """Trace the artifact-writing context manager and count what it wrote."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return

        @contextmanager
        def traced(final, *args, **kwargs):
            index = self.begin("cli.write")
            try:
                with original(final, *args, **kwargs) as staging:
                    yield staging
            finally:
                self.end(index)
            self.tally("cli.write", _count_written, final)

        setattr(module, attr, traced)


def _count_loaded(tracer: Tracer, args, series) -> None:
    with open(args[0], encoding="utf-8-sig") as handle:
        data_rows = sum(1 for line in handle if line.strip()) - 1
    tracer.count("marketdata.rows_parsed", len(series))
    tracer.count("marketdata.rows_dropped", data_rows - len(series))


def _count_tested(tracer: Tracer, args, matrix) -> None:
    n = len(matrix.tickers)
    tracer.count("pairscan.pairs_tested", n * (n - 1) // 2)


def _count_written(tracer: Tracer, final) -> None:
    files = [p for p in Path(final).rglob("*") if p.is_file()]
    tracer.count("cli.write_files", len(files))
    tracer.count("cli.write_bytes", sum(p.stat().st_size for p in files))


#: (module, attribute, span name, counting hook) for every traced call site.
TARGETS = (
    ("pairtrader.cli", "load_csv", "marketdata.load_csv", _count_loaded),
    ("pairtrader.cli", "align_panel", "marketdata.align_panel", None),
    ("pairtrader.cli", "slice_window", "marketdata.slice_window", None),
    ("pairtrader.pairscan", "slice_window", "marketdata.slice_window", None),
    ("pairtrader.cli", "correlation_matrix", "econometrics.correlation_matrix", None),
    ("pairtrader.pairscan", "ols_through_origin", "econometrics.ols_through_origin", None),
    ("pairtrader.pairscan", "engle_granger", "unitroot.engle_granger", None),
    ("pairtrader.pairscan", "adf_test", "unitroot.adf_test", None),
    ("pairtrader.unitroot", "adf_test", "unitroot.adf_test", None),
    ("pairtrader.cli", "coint_matrix", "pairscan.coint_matrix", _count_tested),
    ("pairtrader.cli", "select_pairs", "pairscan.select_pairs",
     lambda t, args, pairs: t.count("pairscan.pairs_selected", len(pairs))),
    ("pairtrader.cli", "fit_pair", "pairscan.fit_pair", None),
    ("pairtrader.cli", "fit_ratio_stats", "signalgen.fit_ratio_stats", None),
    ("pairtrader.cli", "build_trading_frame", "signalgen.build_trading_frame",
     lambda t, args, frame: t.count("signalgen.frame_rows", len(frame))),
    ("pairtrader.cli", "run_ledger", "backtest.run_ledger",
     lambda t, args, ledger: t.count("backtest.ledger_rows", len(ledger.rows))),
    ("pairtrader.cli", "summarize_pair", "backtest.summarize_pair", None),
    ("pairtrader.cli", "sector_report", "backtest.sector_report", None),
    ("pairtrader.cli", "line_chart", "svgchart.line_chart",
     lambda t, args, svg: t.count("svgchart.points", sum(len(s[2]) for s in args[1]))),
)


def main(argv: list[str]) -> int:
    spans_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: tracelaunch.py SPANS.jsonl -- <pairtrader arguments>")
    start = clock()
    import pairtrader.cli as cli
    import_s = clock() - start

    tracer = Tracer()
    for module_name, attr, name, hook in TARGETS:
        tracer.wrap(module_name, attr, name, hook)
    tracer.wrap_writer("pairtrader.cli", "staged_dir")

    code = 1
    root = tracer.begin("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end(root)
        with open(spans_path, "w", encoding="utf-8") as handle:
            for name, t0, t1, parent in tracer.spans:
                handle.write(json.dumps({"name": name, "start": t0, "end": t1,
                                         "parent": parent}) + "\n")
            handle.write(json.dumps({"summary": {
                "import_s": import_s, "exit": code,
                "counts": tracer.counts, "absent": tracer.absent,
            }}) + "\n")
    return code


# --- aggregation in the benchmark process -------------------------------------------


def scipy_import_s(stderr_text: str) -> float:
    """Self time of every scipy module in a ``-X importtime`` log, in seconds."""
    total_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        module = parts[-1].strip()
        if module == "scipy" or module.startswith("scipy."):
            total_us += int(parts[0])
    return total_us / 1e6


def pass_layers(commands: list[tuple[Path, str]]) -> tuple[dict[str, float], list[str]]:
    """Per-layer totals of one traced pass from its (spans file, stderr text) pairs.

    Span times are self times: a span's duration minus its children's.
    """
    totals: dict[str, float] = {}  # counts stay integers
    absent: set[str] = set()
    scan_eg_s = 0.0
    scan_eg_calls = 0

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for spans_path, stderr_text in commands:
        lines = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
        summary = lines[-1]["summary"]
        spans = lines[:-1]
        child_s = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(spans):
            duration = span["end"] - span["start"]
            add(span["name"] + "_s", duration - child_s[i])
            if (span["name"] == "unitroot.engle_granger" and span["parent"] is not None
                    and spans[span["parent"]]["name"] == "pairscan.coint_matrix"):
                scan_eg_s += duration
                scan_eg_calls += 1
        for key, value in summary["counts"].items():
            add(key, value)
        add("cli.processes", 1)
        add("cli.import_s", summary["import_s"])
        add("cli.import_scipy_s", scipy_import_s(stderr_text))
        add("cli.errors", 1 if summary["exit"] != 0 else 0)
        absent.update(summary["absent"])

    totals["unitroot.ms_per_pair"] = 1000.0 * scan_eg_s / scan_eg_calls if scan_eg_calls else 0.0
    tested = totals.get("pairscan.pairs_tested", 0)
    totals["pairscan.selected_ratio"] = (
        totals.get("pairscan.pairs_selected", 0) / tested if tested else 0.0)
    return totals, sorted(absent)


def median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for p in passes for k in p})
    return {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
