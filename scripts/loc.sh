#!/usr/bin/env bash
# Code-line report: the measure the simplification PRs are held to.
#
#   scripts/loc.sh [repo-root]
#
# A code line is a non-blank line that does not start with `//`, before the
# file's first `#[cfg(test)]`. Printed per library crate (src/ only), for
# the nine together, and for the files that hold the operator path, the
# session protocol and the scheduling path (one host over 1..N Smart SSDs:
# the system, its shards, the workload types, and the scheduler with its
# device attempt and report assembly), plus the fleet shim the frozen
# benchmark still imports. A report, not a gate.

set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

code_lines() {
    awk 'FNR == 1 { tests = 0 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
         !tests && NF && $1 !~ /^\/\// { n++ }
         END { print n + 0 }' "$@"
}

total=0
for crate in core device exec flash host query sim storage workload; do
    # shellcheck disable=SC2046 # source paths have no spaces
    n=$(code_lines $(find "crates/${crate}/src" -name '*.rs'))
    printf '%-28s %6d\n' "crates/${crate}" "${n}"
    total=$((total + n))
done
printf '%-28s %6d\n' "nine library crates" "${total}"

echo
path=0
for f in device/src/runtime.rs query/src/engine.rs exec/src/par.rs exec/src/kernels.rs \
    exec/src/join.rs exec/src/driver.rs; do
    [[ -f "crates/${f}" ]] || continue
    n=$(code_lines "crates/${f}")
    printf '%-28s %6d\n' "${f}" "${n}"
    path=$((path + n))
done
printf '%-28s %6d\n' "operator path" "${path}"
printf '%-28s %6d\n' "query/src/session.rs" "$(code_lines crates/query/src/session.rs)"

echo
path=0
for f in core/src/system.rs core/src/shard.rs core/src/workload.rs core/src/workload/sched.rs \
    core/src/workload/attempt.rs core/src/workload/report.rs; do
    [[ -f "crates/${f}" ]] || continue
    n=$(code_lines "crates/${f}")
    printf '%-28s %6d\n' "${f}" "${n}"
    path=$((path + n))
done
printf '%-28s %6d\n' "scheduling path" "${path}"
printf '%-28s %6d\n' "core/src/fleet.rs (shim)" "$(code_lines crates/core/src/fleet.rs)"
