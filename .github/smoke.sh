#!/usr/bin/env bash
# Smoke run of the installed package on the synthetic demo sector, in the
# current directory.
#
#   bash smoke.sh [COMMAND...]
#
# COMMAND starts the CLI and defaults to the console script `pairtrader`; a
# source checkout runs it as `PYTHONPATH=<checkout>/src bash smoke.sh python
# -m pairtrader.cli`.  The script writes `demo/` into an empty working
# directory.
# It checks only what a regular install, run outside the checkout, can
# show; pytest makes every other check (README, "Tests").  The demo inputs,
# the demo tree that COMMAND writes and the output of
# `tests/fallback_cases.py` must have the SHA-256 digests pinned in
# `tests/golden_digests.json` (checked by `tests/golden.py`).  Every JSON
# artifact must parse without NaN or Infinity literals and every SVG chart
# as XML, and no staging directory may be left behind.
# Every Python warning is an error, so a numpy RuntimeWarning or a
# DeprecationWarning in any command fails the run.
set -euo pipefail
export PYTHONWARNINGS=error
tests_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/../tests" && pwd)"
if [ "$#" -eq 0 ]; then
  set -- pairtrader
fi

python -m pairtrader.synthetic --out demo
"$@" scan     --config demo/config.json --sector metals
"$@" analyze  --config demo/config.json --pair IRON,COBALT
"$@" backtest --config demo/config.json --pair IRON,COBALT --svg
"$@" report   --config demo/config.json
python "$tests_dir/golden.py" --demo demo

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

staging=$(find demo/runs -name '*.staging-*')
if [ -n "$staging" ]; then
  echo "staging directories left behind: $staging" >&2
  exit 1
fi
echo "no staging directory left behind"
