#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the root of the repository:
#
#   benchmark/run.sh                      all five workloads, timed, seed 42
#   benchmark/run.sh --workload W         one workload
#   benchmark/run.sh --trace 1 [...]      the traced run (per-layer metrics)
#   benchmark/run.sh --smoke [...]        self-test scale
#
# Flags are passed through: --workload W --seed N --seconds S --trace 0|1.
# One process per workload, in sequence, so peak_rss_mb is per workload.
# The last line of each run is its result as one JSON object; the exit code
# is non-zero if a build fails or any output check failed.
set -euo pipefail

if [ ! -f benchmark/Cargo.toml ] || [ ! -d crates ]; then
    echo "run.sh: run me from the root of the repository (need benchmark/ and crates/)" >&2
    exit 2
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin_dir="${CARGO_TARGET_DIR:-benchmark/target}/release"

# Keep freed memory inside the process between reps. On the sandbox this
# was sized on, the first touch of a page the guest has given back costs
# 4-120 us (the hypervisor has to back it again), so a rep that returned
# its 65 MB report to the kernel and faulted it back in would time the
# hypervisor, not the program. With these two settings glibc serves every
# request from the heap and never trims it: after the deep-checked warm-up
# pass, timed reps reuse pages that are already resident. Parent and change
# run under the same settings; peak_rss_mb is measured under them too.
export MALLOC_MMAP_MAX_=0
export MALLOC_TRIM_THRESHOLD_=68719476736

trace=0
workload=""
prev=""
for arg in "$@"; do
    case "$prev" in
        --trace) trace="$arg" ;;
        --workload) workload="$arg" ;;
    esac
    prev="$arg"
done
[ "${1:-}" = "trace" ] && trace=1

# The traced run needs the counting allocator, which only this binary has.
bin="$bin_dir/ssdbench"
[ "$trace" = "1" ] && bin="$bin_dir/ssdbench-traced"

# Pin the run to one CPU, the first this shell may use. The library hands
# work to scoped threads (one per fleet shard, and kernel fan-out on large
# tables); on a 2-vCPU sandbox a hand-off to the other vCPU costs 0.1-2 ms
# and varies fivefold with what the neighbours are doing, which made reps
# of one run differ by 3x. On one CPU the same threads are spawned and
# joined by plain context switches and reps agree within a few percent.
# The kernels' fan-out sizes itself from the CPUs it may use, so under the
# pin it runs serially: this benchmark makes no claim about parallel
# speed-up. Without taskset the run goes ahead unpinned, and noisier.
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status)"
    pin=(taskset -c "${cpu:-0}")
else
    echo "run.sh: taskset not found; running unpinned" >&2
fi

if [ -n "$workload" ]; then
    exec "${pin[@]}" "$bin" "$@"
fi
status=0
for w in figs_cold stream_open serve_tenants fleet_gray update_mix; do
    "${pin[@]}" "$bin" "$@" --workload "$w" || status=$?
done
exit "$status"
