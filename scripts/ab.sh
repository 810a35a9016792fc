#!/usr/bin/env bash
# Interleaved A/B speed comparison of two checkouts with perfbench, the
# procedure perfbench/README.md ("Noise") describes.
#
# Usage: scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]
#                      [SEED_BASE] [METRIC]
#
# Builds perfbench in each checkout (its own .bench_build), then runs
# PAIRS pairs (default 10) of `perfbench/run.py --trace 0` at SECONDS
# (default 35). Pair i uses seed SEED_BASE + i (default 500) on both
# sides, and the side that runs first alternates. METRIC (default
# run_s) names an end-to-end metric of the change's BENCHMARK.json,
# which gives its unit and its better direction. Prints each pair's
# METRIC, then the pairs the change won (better METRIC), the median
# change/parent pair ratio, each side's median and the parent's
# interquartile range. A gain holds when the change wins at least nine
# pairs in ten and the medians differ by more than the parent IQR; the
# script exits 0 either way and says which. Every run must report
# correct=true (perfbench fails a run whose digest differs from an
# earlier run of the same binary, workload and seed). Each pair's line
# shows both sides' model.digest, and the last line says whether the
# two checkouts simulated identically, so a named modelling change can
# be measured too.
set -eu

if [ $# -lt 3 ]; then
    sed -n '5,23p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-35}"
seed_base="${6:-500}"
metric="${7:-run_s}"
bench_json="$change/BENCHMARK.json"

# Reject a metric with no declared direction before the runs, not after.
python3 - "$bench_json" "$metric" <<'EOF'
import json
import sys

names = [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]]
if sys.argv[2] not in names:
    sys.exit("ab.sh: %s is not an end-to-end metric (%s)"
             % (sys.argv[2], ", ".join(names)))
EOF

results="$(mktemp)"
trap 'rm -f "$results"' EXIT

for side in "$parent" "$change"; do
    echo "ab.sh: building perfbench in $side" >&2
    (cd "$side" && python3 perfbench/run.py --workload "$workload" \
        --seed 1 --seconds 1 --scale tiny --trace 0 > /dev/null)
done

for i in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((i % 2)) = 0 ] && order="change parent"
    for side in $order; do
        dir="$parent"
        [ "$side" = change ] && dir="$change"
        out="$(cd "$dir" && python3 perfbench/run.py --workload "$workload" \
            --seed $((seed_base + i)) --seconds "$seconds" --trace 0 \
            2> /dev/null)" || true
        digest="$(echo "$out" | grep -o 'model.digest [0-9a-f]*' | head -1)"
        echo "$i $side ${digest#model.digest } $(echo "$out" | tail -1)" \
            >> "$results"
    done
done

python3 - "$results" "$workload" "$seconds" "$bench_json" "$metric" \
    <<'EOF'
import json
import statistics
import sys

path, workload, seconds, bench_json, metric = sys.argv[1:6]
spec = next(m for m in json.load(open(bench_json))["end_to_end"]
            if m["name"] == metric)
unit, lower = spec["unit"], spec["better"] == "lower"
runs, digests = {}, {}
for row in open(path):
    pair, side, digest, payload = row.split(" ", 3)
    try:
        result = json.loads(payload)
    except ValueError:
        sys.exit("ab.sh: pair %s %s printed no result" % (pair, side))
    if not result["correct"]:
        sys.exit("ab.sh: pair %s %s run failed its correctness gate"
                 % (pair, side))
    runs.setdefault(int(pair), {})[side] = result["metrics"][metric]["value"]
    digests.setdefault(int(pair), {})[side] = digest

ratios, parent_v, change_v = [], [], []
identical = True
for pair in sorted(runs):
    p, c = runs[pair]["parent"], runs[pair]["change"]
    pd, cd = digests[pair]["parent"], digests[pair]["change"]
    identical &= pd == cd
    parent_v.append(p)
    change_v.append(c)
    ratios.append(c / p)
    print("pair %2d  parent %.4g %s  change %.4g %s  ratio %.3f  "
          "digests %s %s" % (pair, p, unit, c, unit, c / p, pd, cd))

won = sum((r < 1) if lower else (r > 1) for r in ratios)
q1, _, q3 = statistics.quantiles(parent_v, n=4, method="inclusive")
p_med, c_med = statistics.median(parent_v), statistics.median(change_v)
gap = p_med - c_med if lower else c_med - p_med
holds = won * 10 >= 9 * len(ratios) and gap > q3 - q1
print("%s %s (%s is better), --seconds %s, %d pairs"
      % (workload, metric, spec["better"], seconds, len(ratios)))
print("pairs won by the change: %d/%d" % (won, len(ratios)))
print("median pair ratio (change/parent): %.3f (range %.3f-%.3f)"
      % (statistics.median(ratios), min(ratios), max(ratios)))
print("parent median %.4g %s (IQR %.4g-%.4g), change median %.4g %s"
      % (p_med, unit, q1, q3, c_med, unit))
print("gain holds (>= 9 in 10 won, median gap > parent IQR): %s"
      % ("yes" if holds else "no"))
print("simulated results: %s" % ("identical" if identical else "differ"))
EOF
