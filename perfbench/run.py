"""pairtrader benchmark: sequential cold CLI passes over seeded sector data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every command of a pass is a fresh
``python -m pairtrader.cli`` process with ``PYTHONPATH=src``, started only
after the previous one exits (a closed loop with one client).  Passes repeat
until ``--seconds`` is used up, at least two per run, and every pass's
outputs are checked.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` alternates plain and traced passes and
reports the per-layer metrics.  The last line of standard output is one
JSON object; the full record, with the machine description, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from importlib import metadata
from pathlib import Path

import checks
import gen
import tracelaunch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_LAUNCHER = HERE / "tracelaunch.py"

#: Cold ``import pairtrader.cli`` samples taken before each plain pass.
SETUP_SAMPLES = 2
#: Every child must end within this many seconds of the benchmark's start.
DEADLINE_S = 170.0
MIN_PASSES = 2
PAIR_KINDS = ("analyze", "backtest")


class TimeUp(Exception):
    pass


@dataclass
class Proc:
    kind: str
    wall_s: float
    code: int
    rss_mb: float
    stderr: str


@dataclass
class PassRecord:
    traced: bool
    wall_s: float = 0.0
    procs: list[Proc] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    pairs_tested: int = 0
    tree_sha256: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)


class Runner:
    """Starts child processes one at a time and measures each one."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.serial = 0

    def run(self, kind: str, argv: list[str]) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeUp(kind)
        self.serial += 1
        err_path = self.work / f"stderr-{self.serial}.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], timeout)
                finally:
                    os.close(pidfd)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        err_path.unlink()
        if not ready:
            raise TimeUp(kind)
        return Proc(kind, wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, fn, *args) -> None:
        """Run one output check; a missing or malformed artifact fails it."""
        try:
            problems = fn(*args)
        except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
            problems = [f"{fn.__name__}{args}: {type(exc).__name__}: {exc}"]
        self.record(problems)


def cli_argv(kind: str, args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return ["-m", "pairtrader.cli", kind, *args]
    return ["-X", "importtime", str(TRACE_LAUNCHER), str(spans), "--", kind, *args]


def run_pass(runner: Runner, inputs: gen.Inputs, shape: gen.WorkloadShape, tally: Tally,
             traced: bool, setup_samples: int) -> PassRecord:
    """One full pass: scan every sector, pair commands, report; then the checks."""
    record = PassRecord(traced=traced)
    for _ in range(setup_samples):
        record.setup_s.append(runner.run("setup", ["-c", "import pairtrader.cli"]).wall_s)

    out = inputs.out_dir
    shutil.rmtree(out, ignore_errors=True)
    spans_dir = runner.work / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    config = str(inputs.config)
    span_files: list[tuple[Path, Proc]] = []

    def cli(kind: str, *args: str) -> Proc:
        spans = spans_dir / f"{len(record.procs)}.jsonl" if traced else None
        proc = runner.run(kind, cli_argv(kind, ["--config", config, *args], spans))
        record.procs.append(proc)
        tally.record([] if proc.code == 0 else
                     [f"{kind} {' '.join(args)} exited {proc.code}: {proc.stderr[-300:]}"])
        if spans is not None and spans.exists():
            span_files.append((spans, proc))
        return proc

    start = time.perf_counter()
    for sector in inputs.sectors:
        cli("scan", "--sector", sector)
    backtests: dict[str, int] = {}
    for sector in inputs.sectors:
        scan_dir = out / sector / "scan"
        chosen = checks.selected_pairs(scan_dir) if scan_dir.is_dir() else []
        if shape.pair_limit is not None:
            chosen = chosen[:shape.pair_limit]
        for pair in chosen:
            names = f"{pair['predictor_ticker']},{pair['target_ticker']}"
            cli("analyze", "--pair", names, "--sector", sector)
            cli("backtest", "--pair", names, "--sector", sector, "--svg")
            backtests[sector] = backtests.get(sector, 0) + 1
    if shape.report:
        cli("report")
    record.wall_s = time.perf_counter() - start

    capital = Decimal(gen.CAPITAL_PER_LEG)
    for sector in inputs.sectors:
        scan_dir = out / sector / "scan"
        if not scan_dir.is_dir():
            continue
        record.pairs_tested += checks.pairs_tested(scan_dir)
        tally.check(checks.engineered_selected, scan_dir, inputs.engineered[sector],
                    shape.threshold)
        for backtest_dir in sorted((out / sector / "pairs").glob("*/backtest")):
            tally.check(checks.ledger_identity, backtest_dir)
            tally.check(checks.profit_matches, backtest_dir, capital)
    if shape.report:
        tally.check(checks.report_counts, out / "report", backtests)
    record.tree_sha256 = checks.tree_sha256(out)
    if traced:
        record.layers, record.absent = tracelaunch.pass_layers(
            [(path, proc.stderr) for path, proc in span_files])
    return record


def probe(runner: Runner, inputs: gen.Inputs) -> dict:
    """Scan the sector holding an exact second share class, once, untimed."""
    proc = runner.run("probe", cli_argv("scan", ["--config", str(inputs.probe_config),
                                                 "--sector", inputs.probe_sector], None))
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return {"ok": proc.code == 0, "exit": proc.code, "stderr_last_line": last[0]}


def blas_record() -> dict:
    """OpenBLAS version and the thread count in effect in this process."""
    import numpy

    record: dict = {"numpy": numpy.__version__}
    try:
        record["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        record["scipy"] = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        record["blas"] = None
    record["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for lib in sorted(libs):
        loaded = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(loaded, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                break
    record["blas_env"] = {k: os.environ[k] for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return record


def steal_s() -> float:
    """CPU time the hypervisor took from this machine so far (from /proc/stat)."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def machine_record() -> dict:
    def proc_field(path: str, key: str) -> str | None:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        **blas_record(),
    }


def end_to_end(passes: list[PassRecord], tally: Tally) -> dict[str, float]:
    plain = [p for p in passes if not p.traced]
    pair_walls = [proc.wall_s for p in plain for proc in p.procs if proc.kind in PAIR_KINDS]
    return {
        "setup_s": statistics.median(s for p in plain for s in p.setup_s),
        "wall_s": statistics.median(p.wall_s for p in plain),
        "scan_pairs_per_s": statistics.median(
            p.pairs_tested / sum(proc.wall_s for proc in p.procs if proc.kind == "scan")
            for p in plain),
        "pair_cmd_p50_s": statistics.median(pair_walls),
        "peak_rss_mb": statistics.median(max(proc.rss_mb for proc in p.procs) for p in plain),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(passes: list[PassRecord]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = tracelaunch.median_layers([p.layers for p in traced])
    layers["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s for p in plain))
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    steal_at_start = steal_s()
    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}")
    if not (SRC / "pairtrader" / "cli.py").is_file():
        print(f"benchmark: no pairtrader sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    shape = gen.WORKLOADS[args.workload]

    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = gen.write_inputs(args.workload, args.seed, work)
        runner = Runner(work, started + DEADLINE_S)
        tally = Tally()
        warm = runner.run("setup", ["-c", "import pairtrader.cli"])
        if warm.code != 0:
            print(f"benchmark: pairtrader does not import:\n{warm.stderr}", file=sys.stderr)
            return 2
        probe_result = None
        if shape.probe:
            probe_result = probe(runner, inputs)
            tally.record([] if probe_result["ok"] else
                         [f"fault probe: scan exited {probe_result['exit']}: "
                          f"{probe_result['stderr_last_line']}"])

        passes: list[PassRecord] = []
        measure_start = time.monotonic()
        while True:
            elapsed = time.monotonic() - measure_start
            if len(passes) >= MIN_PASSES:
                per_pass = elapsed / len(passes)
                if elapsed + per_pass > args.seconds:
                    break
            traced = bool(args.trace) and len(passes) % 2 == 1
            setup = 0 if args.trace else SETUP_SAMPLES
            passes.append(run_pass(runner, inputs, shape, tally, traced, setup))
    except TimeUp as exc:
        print(f"benchmark: out of time while running {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = sorted({p.tree_sha256 for p in passes})
    tally.record([] if len(digests) == 1 else [f"artifact trees differ across passes: {digests}"])
    measured = per_layer(passes) if args.trace else end_to_end(passes, tally)
    # A layer the pass never reached (no report on a scan-only workload, or a
    # traced name that is absent) reads 0; the record lists absent names.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    # The fault probe is a known program defect: it counts as a failed
    # operation, while `correct` covers the commands and outputs of the passes.
    probe_failed = probe_result is not None and not probe_result["ok"]
    correct = tally.failed == int(probe_failed)

    sizes = {s.name: s.n_tickers for s in shape.sectors}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "input": {"tickers": sizes, "train_days": shape.train_days,
                                           "test_days": shape.test_days},
        "machine": machine_record(), "cpu_steal_s": steal_s() - steal_at_start,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": [s for p in passes for s in p.setup_s],
        "pair_cmd_samples": sum(1 for p in passes for proc in p.procs
                                if not p.traced and proc.kind in PAIR_KINDS),
        "command_wall_s": [[proc.kind, proc.wall_s] for p in passes if not p.traced
                           for proc in p.procs],
        "artifact_tree_sha256": digests[0] if len(digests) == 1 else digests,
        "fault_probe": probe_result, "problems": tally.problems,
        "trace_absent": sorted({a for p in passes for a in p.absent}),
        "metrics": metrics,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: sectors {sizes}, T={shape.train_days} training days, "
          f"{len(passes)} passes")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print("detail " + json.dumps({k: record[k] for k in (
        "artifact_tree_sha256", "fault_probe", "pair_cmd_samples", "problems",
        "trace_absent", "machine")}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
