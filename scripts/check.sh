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

# One arrival cursor, one admission engine: names deleted from the shipped
# scheduler must not grow back anywhere in the crates' sources.
echo "== deleted scheduler forks stay deleted (crates/*/src) =="
if grep -rnE 'ArrivalSrc|reference_admission|Pareto' crates/*/src; then
    echo "a deleted scheduler fork is back (see above)" >&2
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
    # failed or aborted experiment exits non-zero and fails the gate.
    repro=(cargo run -q --release -p smartssd-bench --bin repro --)
    subs=$("${repro[@]}" list | awk -F'\t' '$3 != "-" { print $1 }')
    [[ -n "${subs}" ]]
    for sub in ${subs}; do
        echo "== repro ${sub} --quick (BENCH_${sub}.json) =="
        "${repro[@]}" "${sub}" --quick
    done

    # Tenant scaling, for the eye only: arrivals/s at the sweep's largest
    # tenant count over the figure at 16 tenants, both from the
    # BENCH_servescale.json just written (same run, same machine). A cell is
    # 50 ms of wall clock, so single readings scatter (0.41-0.56 with
    # per-run work quadratic in tenants and one catalog resolution per
    # dispatch, 0.51-0.70 without); the property itself is held without a
    # clock by crates/bench/tests/servescale.rs and the try_validate /
    # ArrivalStream tests in crates/core.
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
        }' BENCH_servescale.json
fi

echo "OK"
