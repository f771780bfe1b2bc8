#!/usr/bin/env bash
# Alternating parent/change timing pairs of one benchmarks/perf workload.
#
#   tools/perf_pairs.sh PARENT WORKLOAD SEED [PAIRS] [METRIC]
#
# Exports the committed files of PARENT (any git revision) with `git
# archive` to a temporary directory, then runs
#   python3 benchmarks/perf/run.py --workload WORKLOAD --seed SEED \
#       --seconds 10 --trace 0
# PAIRS times (default 10) there and in the working tree of the checkout
# this script lives in, alternating which side goes first.  Prints every
# pair's METRIC (default msgs_per_s; any end-to-end metric of
# BENCHMARK.json), then for METRIC and every other end-to-end metric the
# median and quartiles per side and the change/parent ratio of the medians,
# how many pairs the change won on METRIC, and whether every run reported
# the same model.digest.  Use a seed that was not used while developing the
# change.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT WORKLOAD SEED [PAIRS] [METRIC]" >&2
  exit 2
fi
parent=$1
workload=$2
seed=$3
pairs=${4:-10}
metric=${5:-msgs_per_s}
if [ "$pairs" -lt 2 ]; then
  echo "$0: PAIRS must be at least 2 (quartiles need two runs a side)" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
mkdir -p "$workdir/parent" "$workdir/runs"
git -C "$root" archive "$parent" | tar -x -C "$workdir/parent"

run() {  # run SIDE PAIR
  local tree=$root
  [ "$1" = parent ] && tree=$workdir/parent
  (cd "$tree" && python3 benchmarks/perf/run.py --workload "$workload" \
    --seed "$seed" --seconds 10 --trace 0 \
    --out "$workdir/runs/$1-$2.json" > /dev/null)
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then
    run parent "$i"; run change "$i"
  else
    run change "$i"; run parent "$i"
  fi
done

python3 - "$workdir/runs" "$pairs" "$metric" "$root/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs, pairs, metric, benchmark = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
better = {m["name"]: m["better"] for m in json.load(open(benchmark))["end_to_end"]}


def load(side, i):
    result = json.load(open(f"{runs}/{side}-{i}.json"))
    (workload,) = result["workloads"].values()
    return workload


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


sides = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
digests = {w["digest"] for ws in sides.values() for w in ws}
wins = 0
print(f"pair  parent {metric}  change {metric}")
for i, (p, c) in enumerate(zip(sides["parent"], sides["change"]), 1):
    pv, cv = p["end_to_end"][metric], c["end_to_end"][metric]
    won = cv > pv if better[metric] == "higher" else cv < pv
    wins += won
    print(f"{i:4d}  {pv:14.6g}  {cv:14.6g}{'  *' if won else ''}")
for name in dict.fromkeys((metric, *better)):
    stats = {
        side: quartiles([w["end_to_end"][name] for w in ws])
        for side, ws in sides.items()
    }
    for side, (q1, q2, q3) in stats.items():
        print(f"{name} {side}: median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    print(f"{name} change/parent: {stats['change'][1] / stats['parent'][1]:.4f}")
print(f"change better in {wins}/{pairs} pairs ({better[metric]} {metric} is better)")
correct = all(w["correct"] for ws in sides.values() for w in ws)
print(f"model.digest identical in every run: {len(digests) == 1}; all correct: {correct}")
EOF
