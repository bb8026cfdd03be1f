#!/usr/bin/env bash
# Runs every workload for the given seeds and repetitions, one process
# per run, each through perfbench/run.py (which builds the benchmark into
# .bench_build/ on first use):
#
#   perfbench/run.sh <label> [seeds] [reps] [seconds]
#   perfbench/run.sh parent "1 2" 5 15
#
# Each run keeps its full result in bench-out/<label>/<workload>-<seed>-<rep>.json
# and its output in a .log beside it. Repetitions are the outer loop, so
# a slow spell on the machine spreads over every workload. TRACE=1 makes
# the runs traced: per-layer metrics plus a Chrome trace per run. Then:
#
#   python3 perfbench/compare.py bench-out/parent bench-out/change
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
label=${1:?usage: perfbench/run.sh <label> [seeds] [reps] [seconds]}
seeds=${2:-"1 2"}
reps=${3:-5}
seconds=${4:-15}

out=$root/bench-out/$label
mkdir -p "$out"
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")

for rep in $(seq 1 "$reps"); do
  for seed in $seeds; do
    for w in $workloads; do
      run=$out/$w-$seed-$rep
      if ! python3 "$root/perfbench/run.py" --workload "$w" --seed "$seed" \
          --seconds "$seconds" --trace "${TRACE:-0}" --keep "$run.json" \
          >"$run.log" 2>&1; then
        echo "run $w seed $seed rep $rep failed; see $run.log" >&2
      fi
    done
  done
done
echo "results in $out"
