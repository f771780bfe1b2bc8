#!/usr/bin/env bash
# Print every registered experiment's output, one file per id.
#
#   tools/outputs.sh OUTDIR [--jobs N]
#
# Runs each `runner --list` id (except fleet_scaling, whose table prints
# host wall-clock columns) of the checkout this script lives in at
# `--scale smoke --seed 1 --no-cache` and writes stdout to OUTDIR/<id>.txt.
# Two OUTDIRs are compared with `diff -r`: twice in one tree (determinism),
# serial vs `--jobs 2`, or a parent checkout vs the working tree (refactor
# probe).  ~17 min per serial pass on one core.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 OUTDIR [--jobs N]" >&2
  exit 2
fi
outdir=$1
jobs=1
if [ "${2:-}" = --jobs ]; then
  jobs=${3:?--jobs needs a number}
fi

root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p "$outdir"
for id in $(python -m repro.harness.runner --list | awk '{print $1}'); do
  [ "$id" = fleet_scaling ] && continue
  python -m repro.harness.runner "$id" --scale smoke --seed 1 --no-cache \
    --jobs "$jobs" > "$outdir/$id.txt"
done
