#!/usr/bin/env bash
# Interleaved A/B speed comparison of two checkouts with perfbench, the
# procedure perfbench/README.md ("Noise") describes.
#
# Usage: scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS] [SEED_BASE]
#
# Builds perfbench in each checkout (its own .bench_build), then runs
# PAIRS pairs (default 10) of `perfbench/run.py --trace 0` at SECONDS
# (default 35). Pair i uses seed SEED_BASE + i (default 500) on both
# sides, and the side that runs first alternates. Prints each pair's
# run_s, then the pairs the change won (lower run_s), the median
# change/parent pair ratio, each side's median and the parent's
# interquartile range. A gain holds when the change wins at least nine
# pairs in ten and the medians differ by more than the parent IQR; the
# script exits 0 either way and says which. Every run must also report
# correct=true with the same model.digest on both sides of a pair.
set -eu

if [ $# -lt 3 ]; then
    sed -n '5,16p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-35}"
seed_base="${6:-500}"

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

python3 - "$results" "$workload" "$seconds" <<'EOF'
import json
import statistics
import sys

path, workload, seconds = sys.argv[1], sys.argv[2], sys.argv[3]
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
    runs.setdefault(int(pair), {})[side] = result["metrics"]["run_s"]["value"]
    digests.setdefault(int(pair), set()).add(digest)

ratios, parent_s, change_s = [], [], []
for pair in sorted(runs):
    if len(digests[pair]) != 1:
        sys.exit("ab.sh: pair %d: the two sides simulate differently "
                 "(model.digest %s)" % (pair, " vs ".join(digests[pair])))
    p, c = runs[pair]["parent"], runs[pair]["change"]
    parent_s.append(p)
    change_s.append(c)
    ratios.append(c / p)
    print("pair %2d  parent %.3f s  change %.3f s  ratio %.3f"
          % (pair, p, c, c / p))

won = sum(r < 1 for r in ratios)
q1, _, q3 = statistics.quantiles(parent_s, n=4, method="inclusive")
p_med, c_med = statistics.median(parent_s), statistics.median(change_s)
holds = won * 10 >= 9 * len(ratios) and p_med - c_med > q3 - q1
print("%s run_s, --seconds %s, %d pairs" % (workload, seconds, len(ratios)))
print("pairs won by the change: %d/%d" % (won, len(ratios)))
print("median pair ratio (change/parent): %.3f (range %.3f-%.3f)"
      % (statistics.median(ratios), min(ratios), max(ratios)))
print("parent median %.3f s (IQR %.3f-%.3f), change median %.3f s"
      % (p_med, q1, q3, c_med))
print("gain holds (>= 9 in 10 won, median gap > parent IQR): %s"
      % ("yes" if holds else "no"))
EOF
