#!/usr/bin/env bash
# Repo gate: formatting, lints, tier-1 tests (the whole workspace), and the
# benchmark smoke runs.
#
#   scripts/check.sh          # everything
#   scripts/check.sh fast     # skip the benchmark package and the smoke runs
#
# Mirrors what CI should enforce; every step fails the script.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# clippy.toml sets too-many-lines-threshold = 100; the nine library crates
# opt in with #![warn(clippy::too_many_lines)], so a function over 100 lines
# fails here.
echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== code lines (scripts/loc.sh; report, not gate) =="
scripts/loc.sh

# One engine: each step of the run lifecycle and of the device attempt has
# one call site in crates/core/src (non-test code, definitions and comments
# aside). A second one means a second scheduler is growing back.
echo "== one engine (call sites in crates/core/src) =="
for call in 'settle_done(' 'settle_fault(' 'collect_session(' '.begin_run()' '.finish_run()'; do
    # shellcheck disable=SC2046 # source paths have no spaces
    n=$(awk -v call="${call}" '
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        !tests && $1 !~ /^\/\// && index($0, call) && !index($0, "fn " call) { n++ }
        END { print n + 0 }' $(find crates/core/src -name '*.rs'))
    printf '%-16s %d\n' "${call}" "${n}"
    [[ "${n}" -le 1 ]]
done

# One thread, one OPEN: the scheduler drives every device of a system from
# its event loop, so threads and panic guards live only in exec::par (the
# fork/join the frozen benchmark prices), and the scheduler opens sessions
# only through the session driver, which marshals the operator itself.
# Non-test code, comments aside.
echo "== threads only in exec::par, no OPEN of its own in crates/core/src =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && $1 !~ /^\/\// && /std::thread|catch_unwind/ && FILENAME != "crates/exec/src/par.rs" {
        print FILENAME ":" FNR ": " $0; n++
    }
    END { exit !n }' $(find crates/*/src -name '*.rs'); then
    echo "a thread or a panic guard outside crates/exec/src/par.rs (see above)" >&2
    exit 1
fi
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && $1 !~ /^\/\// && /encode_op\(|open_raw\(/ { print FILENAME ":" FNR ": " $0; n++ }
    END { exit !n }' $(find crates/core/src -name '*.rs'); then
    echo "crates/core/src marshals or opens a session itself (see above); use SessionDriver::open_session" >&2
    exit 1
fi

# One flash host path: a System reads every flash device — the Smart SSDs
# and the SAS SSD baseline, a one-device array with its device route
# refused — through a shard's LinkedFlashView, whose read_page is the host
# crate's one flash read loop, so no host read skips its retries or its
# checksum; SsdHostPath, which owns its parts for
# Table 2 and the frozen benchmark, reads through the same view. Non-test
# code, comments aside.
echo "== one flash host path (crates/core/src reads no flash itself, one flash read loop) =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && $1 !~ /^\/\// && /SsdHostPath|flash\.read\(/ { print FILENAME ":" FNR ": " $0; n++ }
    END { exit !n }' $(find crates/core/src -name '*.rs'); then
    echo "crates/core/src reads flash around the block path (see above); read through Shard::host_view" >&2
    exit 1
fi
reads=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && $1 !~ /^\/\// && /ssd\.read\(/ { n++ }
    END { print n + 0 }' crates/host/src/io.rs)
printf '%-16s %d\n' 'ssd.read(' "${reads}"
[[ "${reads}" -eq 1 ]]

# One table read loop: the operator driver's private read_table in
# crates/exec/src/driver.rs streams a table's pages into the operator's
# kernel one at a time, each read through OpSite::read_page, so a page is
# validated and consumed while it is still in cache. No site may define a
# read_table of its own, and a reader that collects the whole table first —
# the deleted read_table_pages / read_table_batched, or a read_table
# returning a vector of pages — would read every cold page from memory
# twice. Non-test code, comments aside.
echo "== one table read loop, the driver's (crates/*/src) =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0; sig = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    tests || $1 ~ /^\/\// { next }
    /read_table_batched|read_table_pages/ { print FILENAME ":" FNR ": " $0; n++ }
    /fn read_table\(/ && FILENAME != "crates/exec/src/driver.rs" { print FILENAME ":" FNR ": " $0; n++ }
    /fn read_table\(/ { sig = 1 }
    sig && /Vec<\(PageBuf/ { print FILENAME ":" FNR ": " $0; n++ }
    sig && /[{;][[:space:]]*$/ { sig = 0 }
    END { exit !n }' $(find crates/*/src -name '*.rs'); then
    echo "a second table reader is back (see above); stream pages through the driver's read_table" >&2
    exit 1
fi

# One scan-aggregate kernel call: run_op's ScanAgg arm reaches
# scan_agg_page only through the operator scratch's memo in
# crates/exec/src/driver.rs, which runs the kernel on a page it has not
# seen in that buffer; kernels.rs defines it and its one-page wrapper. A
# site that called the kernel itself would bypass the memo. Non-test
# code, comments aside.
echo "== scan_agg_page called only by the driver's memo (crates/*/src) =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    tests || $1 ~ /^\/\// { next }
    /scan_agg_page\(/ && FILENAME != "crates/exec/src/driver.rs" && FILENAME != "crates/exec/src/kernels.rs" {
        print FILENAME ":" FNR ": " $0; n++
    }
    END { exit !n }' $(find crates/*/src -name '*.rs'); then
    echo "a scan_agg_page call outside the driver's memo (see above); run ScanAgg through run_op" >&2
    exit 1
fi

# One page read on the device: every page goes through the firmware's read
# and its retry policy, clean or faulted, traced or not. The batched
# table-read timing, its seven-term gate and its helpers stay deleted.
echo "== batched table-read timing stays deleted (crates/*/src) =="
batch='can_batch_reads|charge_batch|fn read_pages|tracer_quiet|perturbs_reads|BatchScratch'
if grep -rnE "${batch}" crates/*/src; then
    echo "the deleted batched table-read timing is back (see above); read page by page" >&2
    exit 1
fi

# FlashSsd::charge_reads, Timeline::occupy_batch, TimelineBank::occupy_batch
# and BatchIntervals are kept for the frozen benchmark's probes only
# (flash.charge_batch_ns_per_page, sim.bank_batch_ns_per_interval): no
# library code, test or example may call them. Their definitions (the
# BatchIntervals type lives in timeline.rs, re-exported from sim's lib.rs),
# the crates' own test modules and the proptest that holds the batched
# timelines to the sequential loop, crates/sim/tests/batched_timeline.rs,
# are exempt. Comments aside.
echo "== no caller of the benchmark-only batch shims (crates, tests, examples) =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    tests || $1 ~ /^\/\// || FILENAME == "crates/sim/tests/batched_timeline.rs" { next }
    /[.:]charge_reads\(|[.:]occupy_batch\(/ { print FILENAME ":" FNR ": " $0; n++ }
    /BatchIntervals/ && FILENAME != "crates/sim/src/timeline.rs" && !/^pub use timeline::/ {
        print FILENAME ":" FNR ": " $0; n++
    }
    END { exit !n }' $(find crates/*/src crates/*/tests crates/*/benches tests examples src -name '*.rs'); then
    echo "code calls a benchmark-only batch shim (see above); read or occupy one page at a time" >&2
    exit 1
fi

# One arrival cursor, one admission engine: names deleted from the shipped
# scheduler must not grow back anywhere in the crates' sources.
echo "== deleted scheduler forks stay deleted (crates/*/src) =="
if grep -rnE 'ArrivalSrc|reference_admission|Pareto' crates/*/src; then
    echo "a deleted scheduler fork is back (see above)" >&2
    exit 1
fi

# One GET rule: the driver posts each GET at the device's readiness hint,
# which always gets the batch, so the stall-retry path, its knobs and its
# counter stay deleted.
echo "== GET stall-retry path stays deleted (crates/*/src) =="
if grep -rnE 'get_retries|poll_backoff|backoff_cap|max_get_retries|BackoffCapBelowPoll|backoff_step' crates/*/src; then
    echo "the deleted GET stall-retry path is back (see above)" >&2
    exit 1
fi

# No knob without a workload: options only tests ever set stay deleted —
# the session timeout, the firmware's own retry budget (both read paths
# share smartssd_flash::READ_RETRY_LIMIT), the per-tenant deadline and the
# uncalled open_stream_with.
echo "== test-only knobs stay deleted (crates/*/src) =="
knobs='session_timeout|session_policy|read_retry_limit|HOST_READ_RETRY_LIMIT|SessionError::Timeout|deadline_for|open_stream_with'
if grep -rnE "${knobs}" crates/*/src; then
    echo "a deleted test-only knob is back (see above)" >&2
    exit 1
fi

# One operator type: a query template is the physical operator over table
# names (OpTemplate = QueryOp<String>), so an operator is defined once. The
# planner is one cost comparison (the stale-data rule is the system's, and
# residency is a cost, not a cutoff) on the system's own machine, and it has
# one cost model, the kernels': it prices a receipt sampled off the input
# with the engines' cost tables, so there is no per-tuple arithmetic of its
# own and a planned run carries no caller value (no selectivity). An array's
# table state is every device's, with no first-device pool accessor.
echo "== one operator type, one cost model, no planner knobs, no first-device pool (crates/*/src) =="
if grep -rnE 'enum OpTemplate|data_mutable|prefer_cache_warming|residency_cutoff|PlannedRoute|fn pool\(|cycles_per_tuple|expr_cycles|atom_cycles|aggs_cycles|tuples_per_page|Planned \{' crates/*/src; then
    echo "a deleted second operator enum, planner cost model or knob, or first-device pool accessor is back (see above)" >&2
    exit 1
fi

# One operator set on every array size: an array refuses an operator only
# for its tables' placement (System::resolve_ops over QueryOp::tables),
# never by the operator's name.
echo "== no refusal by operator name (crates/core/src) =="
if grep -rnE '"(GroupAgg|Join)"' crates/core/src; then
    echo "an operator name as a string literal in crates/core/src (see above); refuse by table placement" >&2
    exit 1
fi

# One host type: an N-device Smart SSD array is a System (devices(n),
# load_partitioned, run with the device route forced). The old fleet front
# door survives only as crates/core/src/fleet.rs, a shim for the frozen
# benchmark; nothing else in the crates, the tests or the examples may name
# it, and the fleet-only wire mode stays deleted.
echo "== fleet shim serves benchmark/ only (crates/*/src, tests, examples) =="
fleet_names='SmartSsdFleet|FleetOptions|build_fleet|run_agg|AttemptRules'
if grep -rnE "${fleet_names}" crates/*/src tests examples | grep -v '^crates/core/src/fleet.rs:'; then
    echo "the fleet shim is named outside crates/core/src/fleet.rs (see above); use the System API" >&2
    exit 1
fi

# `page::checksum` is checksum64 folded to 32 bits, kept for the frozen
# benchmark's probe only: a fold gives up the single-word guarantee, so no
# library code may call it (its definition, comments and the golden vector
# in page.rs's test module aside). And the crates' sources hold no
# `unsafe`; keep that a checked fact.
echo "== no caller of the 32-bit checksum fold, no unsafe (crates/*/src) =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && $1 !~ /^\/\// && /(^|[^_[:alnum:]])checksum\(/ && !/pub fn checksum\(/ {
        print FILENAME ":" FNR ": " $0; n++
    }
    END { exit !n }' $(find crates/*/src -name '*.rs'); then
    echo "library code calls page::checksum, the 32-bit fold (see above); use checksum64 or page_digest" >&2
    exit 1
fi
if grep -rnw 'unsafe' crates/*/src; then
    echo "unsafe under crates/*/src (see above)" >&2
    exit 1
fi

# A string literal is static text: `Datum::static_str` borrows it, while
# `Datum::str` copies it into an allocation per call (five a LINEITEM row
# were most of a table load's heap traffic). Test modules aside.
echo "== no string literal through the allocating Datum::str (crates/*/src) =="
# shellcheck disable=SC2046 # source paths have no spaces
if awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && $1 !~ /^\/\// && /Datum::str\("/ { print FILENAME ":" FNR ": " $0; n++ }
    END { exit !n }' $(find crates/*/src -name '*.rs'); then
    echo "library code copies a string literal into a Datum (see above); use Datum::static_str" >&2
    exit 1
fi

echo "== cargo doc --no-deps (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

if [[ "${1:-}" != "fast" ]]; then
    # The benchmark package sits outside the workspace; an API deletion that
    # breaks it must fail here, not in the pipeline.
    echo "== benchmark package: tests + smoke run =="
    cargo test --offline --manifest-path benchmark/Cargo.toml
    benchmark/run.sh --smoke

    echo "== benchmark smoke (criterion --quick, kernel groups only) =="
    cargo bench -q -p smartssd-bench --bench kernels -- --quick scan_agg
    cargo bench -q -p smartssd-bench --bench kernels -- --quick filter_select
    cargo bench -q -p smartssd-bench --bench kernels -- --quick group_agg
    cargo bench -q -p smartssd-bench --bench kernels -- --quick page_validate
    cargo bench -q -p smartssd-bench --bench kernels -- --quick join_probe
    cargo bench -q -p smartssd-bench --bench kernels -- --quick page_build
    # Every repro subcommand that writes a BENCH_<sub>.json (trace also
    # writes trace_*.json), quick scale. The registry is the only list of
    # names: `repro list` prints name, scope, BENCH file (or -), about. A
    # failed or aborted experiment exits non-zero and fails the gate. The
    # files land in target/repro-smoke, so the tracked full-scale BENCH
    # files in the repo root are left as they are.
    repro=(cargo run -q --release -p smartssd-bench --bin repro --)
    subs=$("${repro[@]}" list | awk -F'\t' '$3 != "-" { print $1 }')
    [[ -n "${subs}" ]]
    smoke=target/repro-smoke
    mkdir -p "${smoke}"
    for sub in ${subs}; do
        echo "== repro ${sub} --quick (${smoke}/BENCH_${sub}.json) =="
        (cd "${smoke}" && "${repro[@]}" "${sub}" --quick)
    done

    # Tenant scaling, for the eye only: arrivals/s at the sweep's largest
    # tenant count over the figure at 16 tenants, both from the
    # BENCH_servescale.json just written in target/repro-smoke (same run,
    # same machine). A cell is 50 ms of wall clock, so single readings
    # scatter (0.41-0.56 with per-run work quadratic in tenants and one
    # catalog resolution per dispatch, 0.51-0.70 without); the property
    # itself is held without a clock by crates/bench/tests/servescale.rs and
    # the try_validate / ArrivalStream tests in crates/core.
    echo "== serving tenant scaling (largest tenant count / 16 tenants; informational) =="
    awk '
        /"tenants": [0-9]+, "arrivals"/ {
            match($0, /"tenants": [0-9]+/)
            t = substr($0, RSTART + 11, RLENGTH - 11) + 0
            match($0, /"arrivals_per_sec": [0-9.]+/)
            r = substr($0, RSTART + 20, RLENGTH - 20) + 0
            if (!(t in rate)) rate[t] = r
            if (t > max) max = t
        }
        END {
            if (!(16 in rate) || max <= 16) exit 1
            printf "  %.2f (%.0f/s at %d tenants, %.0f/s at 16)\n", rate[max] / rate[16], rate[max], max, rate[16]
        }' "${smoke}/BENCH_servescale.json"
fi

echo "OK"
