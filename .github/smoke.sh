#!/usr/bin/env bash
# Smoke run of the CLI on the synthetic demo sector, in the current directory.
#
#   bash smoke.sh [COMMAND...]
#
# COMMAND starts the CLI and defaults to the console script `pairtrader`; a
# source checkout runs it as `PYTHONPATH=<checkout>/src bash smoke.sh python
# -m pairtrader.cli`.  The script writes `demo/` and `threads2/` into an empty
# working directory.  Every JSON artifact must parse without NaN or Infinity
# literals and every SVG chart as XML, and a rerun on two BLAS threads (the
# CLI defaults to one) must write the same bytes.
set -euo pipefail
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
echo "two BLAS threads wrote the same bytes"
