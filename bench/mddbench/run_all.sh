#!/usr/bin/env bash
# Runs every mddbench workload twice, each in its own process, the second
# set in reverse order, and prints one row per workload with both sets'
# end-to-end medians.  Exits non-zero when any run fails an operation or
# when the two sets disagree on a metric by more than its BENCHMARK.json
# bound.
#
#   bench/mddbench/run_all.sh [SEED] [SECONDS]
#
# SEED defaults to 1, SECONDS to BENCHMARK.json's run_seconds.  Raw
# outputs go to .bench_build/run_all/.
set -euo pipefail
cd "$(dirname "$0")/../.."

seed=${1:-1}
secs=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
read -r -a workloads <<<"$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
out=.bench_build/run_all
mkdir -p "$out"

for set in 1 2; do
  order=("${workloads[@]}")
  if [ "$set" -eq 2 ]; then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    echo "[run_all] set $set: $w" >&2
    python3 bench/mddbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$secs" --trace 0 >"$out/$set.$w.txt"
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json
import sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]
ok = True
print("| workload | ops (failed) | " +
      " | ".join("%s set1 / set2" % m["name"] for m in metrics) + " |")
print("|---|---|" + "---|" * len(metrics))
for w in workloads:
    sets = [json.loads(open("%s/%d.%s.txt" % (out, s, w)).read().strip()
                       .split("\n")[-1]) for s in (1, 2)]
    failed = sum(r["failed"] for r in sets)
    cells = []
    for m in metrics:
        a, b = (r["metrics"][m["name"]]["value"] for r in sets)
        gap = abs(b - a) / a
        flag = ""
        if gap > m["bound"]:
            ok, flag = False, " **>bound**"
        cells.append("%.4g / %.4g (%+.1f%%)%s" % (a, b, 100 * (b - a) / a, flag))
    if failed or not all(r["correct"] for r in sets):
        ok = False
    print("| %s | %d (%d) | %s |" % (w, sum(r["attempted"] for r in sets),
                                     failed, " | ".join(cells)))
sys.exit(0 if ok else 1)
EOF
