#!/usr/bin/env bash
# Smoke run of the CLI on the synthetic demo sector, in the current directory.
#
#   bash smoke.sh [COMMAND...]
#
# COMMAND starts the CLI and defaults to the console script `pairtrader`; a
# source checkout runs it as `PYTHONPATH=<checkout>/src bash smoke.sh python
# -m pairtrader.cli`.  The script writes `demo/`, `module/`, `threads2/`,
# `core-*/`, `fallback-*.txt`, `tiny/`, `wide/` and `afile*` into an empty
# working directory.
# The demo inputs, the demo tree and the output of `tests/fallback_cases.py`
# must have the SHA-256 digests pinned in `tests/golden_digests.json`
# (checked by `tests/golden.py`), whatever this runner's CPU and numpy.
# A rerun through `python -m pairtrader.cli` must write the bytes that
# COMMAND wrote: the console script and the module entry share one entry
# function, which sets the garbage collector's policy for the process.
# Every JSON artifact must parse without NaN or Infinity literals and every
# SVG chart as XML, a rerun on two BLAS threads (the CLI defaults to one)
# must write the same bytes, and so must a rerun under each OpenBLAS kernel
# this CPU can run (`OPENBLAS_CORETYPE`, where numpy's OpenBLAS is a
# DYNAMIC_ARCH build).  Under each kernel, the ADF tests of
# `tests/fallback_cases.py`, whose lag orders the Gram search leaves to the
# Householder search, must also give the default kernel's lags, taus and
# faults.  No staging directory may be left behind.  An output path under
# a regular file must exit 1 with a one-line error, not a traceback.  A
# copy of the demo in `tiny/` with AMBER's closes scaled by 1e-300, whose
# sums underflow so that the residual ADF regressions of AMBER's pairs are
# singular, must scan to exit 3 with one error line naming the sector and a
# pair, and write nothing: only exactly constant residuals may score p = 0.  A
# 40-ticker x 750-day random-walk sector, large enough to scan on forked
# workers on 2 or more CPUs, must scan to the same bytes pooled and pinned
# to one CPU, and with its pairs tested one to a block (in-process,
# through `python -c`, which needs the package importable) rather than in
# blocks of the default size.
# Every Python warning is an error, so a numpy RuntimeWarning or a
# DeprecationWarning in any command fails the run.
set -euo pipefail
export PYTHONWARNINGS=error
tests_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/../tests" && pwd)"
fallback_cases="$tests_dir/fallback_cases.py"
if [ "$#" -eq 0 ]; then
  set -- pairtrader
fi

demo_commands() {
  "$@" scan     --config demo/config.json --sector metals
  "$@" analyze  --config demo/config.json --pair IRON,COBALT
  "$@" backtest --config demo/config.json --pair IRON,COBALT --svg
  "$@" report   --config demo/config.json
}

python -m pairtrader.synthetic --out demo
demo_commands "$@"
python "$tests_dir/golden.py" --demo demo

(
  export PAIRTRADER_OUT="$PWD/module"
  demo_commands python -m pairtrader.cli
)
diff -r demo/runs module
echo "python -m pairtrader.cli wrote the bytes of $*"

python - demo/runs <<'PY'
import json, pathlib, sys
import xml.etree.ElementTree as ET

def reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")

run = pathlib.Path(sys.argv[1])
jsons, svgs = sorted(run.rglob("*.json")), sorted(run.rglob("*.svg"))
if not jsons or not svgs:
    sys.exit(f"no JSON or SVG artifacts under {run}")
for path in jsons:
    json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
for path in svgs:
    ET.parse(path)
print(f"{len(jsons)} JSON and {len(svgs)} SVG artifacts parse")
PY

(
  export OPENBLAS_NUM_THREADS=2 PAIRTRADER_OUT="$PWD/threads2"
  demo_commands "$@"
)
diff -r demo/runs threads2
trees=(demo/runs module threads2)
echo "two BLAS threads wrote the same bytes"

if python -c 'import numpy, sys; sys.exit("DYNAMIC_ARCH" not in str(numpy.show_config(mode="dicts")))' 2> /dev/null; then
  # Each kernel only where the CPU has the instructions it uses.
  cores="Prescott"
  for need in avx:Sandybridge avx2:Haswell avx512f:SkylakeX; do
    if grep -qw "${need%%:*}" /proc/cpuinfo 2> /dev/null; then
      cores="$cores ${need#*:}"
    fi
  done
  python "$fallback_cases" > fallback-default.txt
  for core in $cores; do
    (
      export OPENBLAS_CORETYPE="$core" PAIRTRADER_OUT="$PWD/core-$core"
      demo_commands "$@"
      python "$fallback_cases" > "fallback-$core.txt"
    )
    diff -r demo/runs "core-$core"
    diff fallback-default.txt "fallback-$core.txt"
    trees+=("core-$core")
  done
  echo "OpenBLAS kernels $cores wrote the bytes of the default kernel"
  echo "and gave its lag orders, taus and faults to $(wc -l < fallback-default.txt) fallback ADF tests"
else
  echo "numpy's OpenBLAS is not a DYNAMIC_ARCH build: the kernel check is skipped"
fi

staging=$(find "${trees[@]}" -name '*.staging-*')
if [ -n "$staging" ]; then
  echo "staging directories left behind: $staging" >&2
  exit 1
fi
echo "no staging directory left behind"

echo "a regular file" > afile
cp afile afile.orig
status=0
"$@" scan --config demo/config.json --sector metals --out afile/x 2> afile.err || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback afile.err || ! cmp -s afile afile.orig; then
  cat afile.err >&2
  echo "an output path under a regular file must exit 1, without a traceback or a write" >&2
  exit 1
fi
echo "an output path under a regular file is a clean error: $(grep 'error:' afile.err)"

mkdir tiny
cp -r demo/config.json demo/data tiny/
sed -E -i '2,$ s/^([^,]*,[^,\r]*)/\1e-300/' tiny/data/AMBER.csv
status=0
"$@" scan --config tiny/config.json --sector metals --out tiny/runs 2> tiny/scan.err || status=$?
if [ "$status" -ne 3 ] || grep -q Traceback tiny/scan.err \
    || [ "$(grep -c '^pairtrader: error: ' tiny/scan.err)" -ne 1 ] \
    || ! grep -q '^pairtrader: error: metals: pair (' tiny/scan.err || [ -e tiny/runs ]; then
  cat tiny/scan.err >&2
  echo "a scan whose residual regressions are singular must exit 3 with one line naming the sector and a pair" >&2
  exit 1
fi
echo "closes scaled by 1e-300 are a clean error: $(grep 'error:' tiny/scan.err)"

python - wide <<'PY'
import csv, json, pathlib, sys
from datetime import date, timedelta
import numpy as np

out = pathlib.Path(sys.argv[1])
out.mkdir()
rng = np.random.default_rng(11)
days = [date(2015, 1, 1) + timedelta(days=k) for k in range(1100)]
days = [day for day in days if day.weekday() < 5][:780]
closes = rng.uniform(20.0, 500.0, 40) * np.exp(np.cumsum(rng.normal(0.0, 0.02, (780, 40)), axis=0))
members = []
for k in range(40):
    ticker = f"T{k:02d}"
    with open(out / f"{ticker}.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Date", "Close"])
        writer.writerows((day.isoformat(), f"{close:.2f}") for day, close in zip(days, closes[:, k]))
    members.append({"ticker": ticker, "csv": f"{ticker}.csv"})
(out / "config.json").write_text(json.dumps({
    "sectors": {"wide": members},
    "train_window": [days[0].isoformat(), days[749].isoformat()],
    "test_window": [days[750].isoformat(), days[-1].isoformat()],
}))
PY
"$@" scan --config wide/config.json --sector wide --out wide/pooled
taskset -c 0 "$@" scan --config wide/config.json --sector wide --out wide/pinned
diff -r wide/pooled wide/pinned
echo "a pooled scan on $(nproc) CPUs and a scan pinned to one wrote the same bytes"
python -c 'import sys
from pairtrader import cli, pairscan
pairscan.block_rows = lambda n: 1
sys.exit(cli.main(sys.argv[1:]))' scan --config wide/config.json --sector wide --out wide/unblocked
diff -r wide/pooled wide/unblocked
echo "a scan of one pair to a block wrote the bytes of a scan in blocks of the default size"
