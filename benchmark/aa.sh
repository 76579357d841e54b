#!/usr/bin/env bash
# A/A check: two sets of N full runs of the same build, compared against the
# benchmark's own bounds. Run from the root of the repository:
#
#   benchmark/aa.sh [N]             N timed runs per workload and set (default 5)
#   TRACE=1 benchmark/aa.sh [N]     also N traced runs per workload and set
#
# The sets alternate (A1 B1 A2 B2 ...), so a slow minute on a shared box
# lands on both. Every run uses the default seed, so simulated metrics and
# count metrics must repeat bit-for-bit across all runs; host-time and
# memory metrics pass when the two sets' medians are within the metric's
# bound of each other. Prints one line per metric and workload and exits
# non-zero on any FAIL. Result lines are kept under benchmark/out/aa/.
set -euo pipefail

n="${1:-5}"
out=benchmark/out/aa
rm -rf "$out"
traces=(0)
[ "${TRACE:-0}" = "1" ] && traces=(0 1)

for i in $(seq 1 "$n"); do
    for set in A B; do
        for t in "${traces[@]}"; do
            dir="$out/trace$t/$set"
            mkdir -p "$dir"
            for w in figs_cold stream_open serve_tenants fleet_gray update_mix; do
                echo "aa.sh: set $set, run $i/$n, --trace $t, $w" >&2
                benchmark/run.sh --workload "$w" --trace "$t" >"$dir/$w.$i.json"
            done
        done
    done
done

status=0
for t in "${traces[@]}"; do
    echo "== A/A, --trace $t: two sets of $n runs =="
    "${CARGO_TARGET_DIR:-benchmark/target}/release/ssdbench" compare \
        BENCHMARK.json "$out/trace$t/A" "$out/trace$t/B" || status=$?
done
exit "$status"
