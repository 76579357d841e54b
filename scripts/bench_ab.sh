#!/usr/bin/env bash
# A/B wall-clock comparison of a parent revision against the working tree on
# one benchmark workload. Run from anywhere inside the repository:
#
#   scripts/bench_ab.sh <parent-rev> <workload> <pairs> <seed>
#
# Both sides are exported side by side under $BENCH_AB_DIR (default
# ${TMPDIR:-/tmp}/bench_ab): the parent as committed into `a/`, the working
# tree (tracked and untracked files, ignored ones aside) into `b/`. The two
# paths have equal length, since code placement alone can swing a run by a
# few percent. Each side builds its own `benchmark/` unmodified, into
# `a.target/` or `b.target/` (kept between invocations, so a second
# workload rebuilds nothing), and runs it with `benchmark/run.sh`. The
# pairs alternate which side runs first, so a slow phase of a shared
# machine lands on both.
#
# Prints every pair's end-to-end ratios (change / parent), then per metric
# the median of each side's values beside the median ratio, e.g.
# `peak_rss_mb  parent 107.2  change 90.3  ratio 0.842`. Exits non-zero if
# any `sim_*` value differs between the two sides, or if a run fails.
# Nothing under `benchmark/` is edited.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: scripts/bench_ab.sh <parent-rev> <workload> <pairs> <seed>" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="$3" seed="$4"
root="$(git rev-parse --show-toplevel)"
dir="${BENCH_AB_DIR:-${TMPDIR:-/tmp}/bench_ab}"

rm -rf "$dir/a" "$dir/b"
mkdir -p "$dir/a" "$dir/b" "$dir/out"
# `git archive` stamps every file with the commit's time, which can be
# older than a target built earlier from another revision, and cargo would
# keep that build: side a's target is dropped whenever its revision changes.
commit="$(git -C "$root" rev-parse "$rev^{commit}")"
if [ "$(cat "$dir/a.rev" 2>/dev/null)" != "$commit" ]; then
    rm -rf "$dir/a.target"
    echo "$commit" >"$dir/a.rev"
fi
git -C "$root" archive "$rev" | tar -x -C "$dir/a"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    (cd "$root" && tar --null -T - -c) | tar -x -C "$dir/b"

for side in a b; do
    echo "bench_ab: building $side" >&2
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side.target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run of one side; its result is the last stdout line.
run() {
    (cd "$dir/$1" && CARGO_TARGET_DIR="$dir/$1.target" \
        benchmark/run.sh --workload "$workload" --seed "$seed") | tail -n 1
}

for i in $(seq 1 "$pairs"); do
    order=(a b)
    [ $((i % 2)) -eq 0 ] && order=(b a)
    for side in "${order[@]}"; do
        echo "bench_ab: pair $i/$pairs, $side" >&2
        run "$side" >"$dir/out/$side.$i.json"
    done
done

# Every pair's ratios, the medians, and the simulated-metric check.
status=0
jq -rn --arg pairs "$pairs" '
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
        else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def fmt: if (. | fabs) >= 100 then (. * 10 | round / 10) else (. * 1000 | round / 1000) end;
    [inputs] as $all
    | [range(0; $pairs | tonumber) as $k | {i: ($k + 1), a: $all[2 * $k], b: $all[2 * $k + 1]}] as $runs
    | $runs[0].a.metrics | keys_unsorted as $names
    | ($names | map(select(startswith("sim_") | not))) as $wall
    | "pair " + ($wall | join(" ")),
      ($runs[] | "\(.i) " + ([$wall[] as $m | (.b.metrics[$m].value / .a.metrics[$m].value * 1000 | round / 1000)] | map(tostring) | join(" "))),
      ($wall[] as $m | "\($m)  parent \([$runs[].a.metrics[$m].value] | median | fmt)  change \([$runs[].b.metrics[$m].value] | median | fmt)  ratio \([$runs[] | .b.metrics[$m].value / .a.metrics[$m].value] | median | . * 1000 | round / 1000)"),
      ([$runs[] | . as $r | $names[] | select(startswith("sim_"))
        | select($r.a.metrics[.].value != $r.b.metrics[.].value)
        | "SIM DIFF pair \($r.i) \(.): parent \($r.a.metrics[.].value) change \($r.b.metrics[.].value)"]
       | if length == 0 then "sim_* identical on every pair" else .[] end)
' $(for i in $(seq 1 "$pairs"); do echo "$dir/out/a.$i.json" "$dir/out/b.$i.json"; done) |
    tee "$dir/out/summary.txt"
grep -q '^SIM DIFF' "$dir/out/summary.txt" && status=1
exit "$status"
