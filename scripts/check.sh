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
fi

echo "OK"
