"""Golden SHA-256 digests of what the pipeline reads and writes.

``golden_digests.json``, next to this file, pins the bytes that the north
star's promise (artifacts are a pure function of the config and the CSV
bytes) and every "same bytes" claim rest on:

- ``demo``: each file the demo generator (``pairtrader.synthetic``, seed 0)
  writes, and each file the four demo commands of ``.github/smoke.sh``
  write under its ``runs/`` directory;
- ``fallback_cases``: ``tests/fallback_cases.py``'s printed output;
- ``perfbench``: for seed 1 of each benchmark workload, one ``tree_sha256``
  of the inputs ``perfbench/gen.py`` writes, each file of the output tree of
  one benchmark pass (``perfbench/run.py``'s command sequence), and that
  tree's ``tree_sha256``, which the benchmark reports as
  ``artifact_tree_sha256``.

``written_with`` records the Python and numpy that wrote the file, for
reference only.  ``regenerate`` rebuilds the digests in-process through
``pairtrader.cli.main``; ``problems`` says how two digest documents differ:
changed inputs as "generator drift", changed outputs by file name.  Run as
a script (with ``src`` importable)::

    python tests/golden.py --write     # rewrite golden_digests.json
    python tests/golden.py --demo DIR  # check a smoke.sh demo tree and
                                       # fallback_cases.py's output
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import fallback_cases
from pairtrader.cli import OUT_DIR_ENV, main as cli_main
from pairtrader.synthetic import write_sector

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
PERFBENCH = HERE.parent / "perfbench"
PERFBENCH_SEED = 1
FALLBACK_CHANGED = "tests/fallback_cases.py printed other lag orders, taus or faults"

#: ``.github/smoke.sh``'s four demo commands, less ``--config``.
DEMO_COMMANDS = (
    ("scan", "--sector", "metals"),
    ("analyze", "--pair", "IRON,COBALT"),
    ("backtest", "--pair", "IRON,COBALT", "--svg"),
    ("report",),
)


@functools.cache
def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file once.

    It is registered in ``sys.modules`` before it runs, as its dataclasses need.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(root: Path, skip: str | None = None) -> dict[str, str]:
    """The digest of each file under ``root`` by relative POSIX path, less the ``skip`` subtree."""
    return {path.relative_to(root).as_posix(): sha256(path.read_bytes())
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.relative_to(root).parts[0] != skip}


def cli(*argv) -> None:
    """One CLI command in this process; a non-zero exit is an error."""
    code = cli_main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"pairtrader {' '.join(map(str, argv))} exited {code}")


def demo_digests(demo: Path) -> dict:
    """The digests of a demo directory: its inputs, and its ``runs/`` tree as outputs."""
    return {"inputs": file_digests(demo, skip="runs"), "outputs": file_digests(demo / "runs")}


def run_demo(demo: Path) -> dict:
    config = write_sector(demo)
    for command, *args in DEMO_COMMANDS:
        cli(command, "--config", config, *args)
    return demo_digests(demo)


def fallback_digest() -> str:
    text = io.StringIO()
    with redirect_stdout(text):
        fallback_cases.main()
    return sha256(text.getvalue().encode("utf-8"))


def run_workload(name: str, root: Path) -> dict:
    """One benchmark pass over seed 1 of workload ``name``, as ``perfbench/run.py`` runs it.

    The fault probe is left out: its scan writes outside the pass's tree.
    """
    gen, checks = load_perfbench("gen"), load_perfbench("checks")
    shape = gen.WORKLOADS[name]
    inputs = gen.write_inputs(name, PERFBENCH_SEED, root)
    digests = {"inputs": checks.tree_sha256(root)}
    for sector in inputs.sectors:
        cli("scan", "--config", inputs.config, "--sector", sector)
    for sector in inputs.sectors:
        chosen = checks.selected_pairs(inputs.out_dir / sector / "scan")
        if shape.pair_limit is not None:
            chosen = chosen[:shape.pair_limit]
        for pair in chosen:
            names = f"{pair['predictor_ticker']},{pair['target_ticker']}"
            cli("analyze", "--config", inputs.config, "--pair", names, "--sector", sector)
            cli("backtest", "--config", inputs.config, "--pair", names, "--sector", sector,
                "--svg")
    if shape.report:
        cli("report", "--config", inputs.config)
    digests["outputs"] = file_digests(inputs.out_dir)
    digests["artifact_tree_sha256"] = checks.tree_sha256(inputs.out_dir)
    return digests


def regenerate(root: Path) -> dict:
    """The whole digest document, rebuilt under the empty directory ``root``.

    ``PAIRTRADER_OUT`` must be unset, so that each config's ``out_dir`` holds.
    """
    if os.environ.get(OUT_DIR_ENV):
        raise RuntimeError(f"{OUT_DIR_ENV} is set; the configs' out_dir must hold")
    return {
        "written_with": {"python": platform.python_version(), "numpy": np.__version__},
        "demo": run_demo(root / "demo"),
        "fallback_cases": fallback_digest(),
        "perfbench": {name: run_workload(name, root / name)
                      for name in sorted(load_perfbench("gen").WORKLOADS)},
    }


def changed_files(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Files whose digests differ, are missing, or are new, each so marked."""
    found = []
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual:
            found.append(f"{name} (missing)")
        elif name not in expected:
            found.append(f"{name} (new)")
        elif expected[name] != actual[name]:
            found.append(f"{name} (changed)")
    return found


def demo_problems(expected: dict, actual: dict) -> list[str]:
    found = []
    inputs = changed_files(expected["inputs"], actual["inputs"])
    if inputs:
        found.append("generator drift: pairtrader.synthetic wrote other demo inputs: "
                     + ", ".join(inputs))
    outputs = changed_files(expected["outputs"], actual["outputs"])
    if outputs:
        found.append("demo outputs differ: " + ", ".join(outputs))
    return found


def problems(expected: dict, actual: dict) -> list[str]:
    """How ``actual`` differs from ``expected``, one line per finding; ``written_with`` aside."""
    found = demo_problems(expected["demo"], actual["demo"])
    if expected["fallback_cases"] != actual["fallback_cases"]:
        found.append(FALLBACK_CHANGED)
    for name in sorted(expected["perfbench"].keys() | actual["perfbench"].keys()):
        want, got = expected["perfbench"].get(name), actual["perfbench"].get(name)
        if want is None or got is None:
            found.append(f"perfbench workload {name}: "
                         + ("no golden digests" if want is None else "not run"))
            continue
        if want["inputs"] != got["inputs"]:
            found.append(f"generator drift: perfbench/gen.py wrote other inputs for {name} "
                         f"seed {PERFBENCH_SEED}")
        outputs = changed_files(want["outputs"], got["outputs"])
        if outputs or want["artifact_tree_sha256"] != got["artifact_tree_sha256"]:
            found.append(f"perfbench {name} seed {PERFBENCH_SEED} outputs differ "
                         f"(artifact_tree_sha256 {got['artifact_tree_sha256'][:12]}..., golden "
                         f"{want['artifact_tree_sha256'][:12]}...): " + ", ".join(outputs))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    mode.add_argument("--demo", type=Path, metavar="DIR",
                      help="check a demo directory (inputs plus runs/) and the fallback output")
    args = parser.parse_args(argv)
    if args.write:
        os.environ.pop(OUT_DIR_ENV, None)
        with tempfile.TemporaryDirectory() as root:
            document = regenerate(Path(root))
        GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = demo_problems(expected["demo"], demo_digests(args.demo))
    if expected["fallback_cases"] != fallback_digest():
        found.append(FALLBACK_CHANGED)
    for line in found:
        print(f"golden digests: {line}", file=sys.stderr)
    if found:
        return 1
    print(f"{args.demo} and the fallback cases match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
