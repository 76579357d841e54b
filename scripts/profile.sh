#!/usr/bin/env bash
# Where one benchmark workload spends its host CPU time, by function:
#
#   scripts/profile.sh <workload> [seed]
#
# Builds `ssdbench` with frame pointers into its own target directory
# (${TMPDIR:-/tmp}/smartssd-profile/target; `benchmark/` and its build are
# untouched), preloads the sampler in scripts/profile_shim.c (built with
# `cc`), runs the workload once the way benchmark/run.sh does (pinned to one
# CPU, same malloc settings, seed 42 unless given) and prints each
# function's inclusive share (samples with the function anywhere on the
# stack) and self share (samples with it innermost), inlined functions
# included, over the samples outside the benchmark's drift meter
# (`calib::drift`), which is reported apart. The sampler reads the
# process's own CPU time (ITIMER_PROF): no `perf`, no kernel setting.
# Addresses are symbolized with `addr2line -f -i`, which knows inlined
# frames; a nearest-symbol lookup puts samples on the wrong function. A
# leaf outside the executable (libc, the vDSO) comes from the sampler
# already named, as `object:symbol` (e.g. `libc.so.6:malloc`) or, where
# the object exports no symbol there, `object+0xoffset`; the report counts
# an object's offsets together, as `libc.so.6 (unexported)`.
#
# A diagnostic, not a gate: without `cc` or `addr2line` it says so and
# exits 0.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: scripts/profile.sh <workload> [seed]" >&2
    exit 2
fi
workload="$1" seed="${2:-42}"
for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "profile.sh: $tool not found; no profile taken" >&2
        exit 0
    fi
done
root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${TMPDIR:-/tmp}/smartssd-profile"
mkdir -p "$dir"

cc -O2 -shared -fPIC -o "$dir/shim.so" "$root/scripts/profile_shim.c"
(cd "$root" && RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin ssdbench)
bin="$dir/target/release/ssdbench"

pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status)"
    pin=(taskset -c "${cpu:-0}")
fi
rm -f "$dir/ssdbench.prof"
(cd "$dir" && MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=68719476736 LD_PRELOAD="$dir/shim.so" \
    "${pin[@]}" "$bin" --workload "$workload" --seed "$seed") | tail -n 1

# awk, not grep -v: grep fails the pipe when it selects nothing.
tr ' ' '\n' <"$dir/ssdbench.prof" | awk '!/^@/' | sort -u | sed 's/^/0x/' |
    addr2line -a -f -i -C -e "$bin" >"$dir/symbols.txt"

# symbols.txt: per address a `0x...` line, then (function, file:line)
# pairs, innermost inlined function first.
awk '
    function key(a) { sub(/^0x0*/, "", a); return a == "" ? "0" : a }
    NR == FNR {
        if ($0 ~ /^0x[0-9a-f]+$/) { addr = key($0); odd = 1; next }
        if (odd) {
            name = $0
            sub(/::h[0-9a-f]+$/, "", name)
            # Test before assigning: mawk creates chain[addr] on the left first.
            if (addr in chain) name = chain[addr] SUBSEP name
            chain[addr] = name
        }
        odd = !odd
        next
    }
    {
        delete seen
        meter = 0
        for (i = 1; i <= NF; i++) {
            # `@object:symbol`: a leaf the sampler named outside the executable.
            # An `@object+0xoffset` leaf has no exported symbol (a hidden or
            # ifunc-selected libc routine); those of one object count as one leaf.
            if ($i ~ /^@/) { n = 1; names[1] = substr($i, 2); sub(/\+0x[0-9a-f]+$/, " (unexported)", names[1]) }
            else n = split(chain[key($i)], names, SUBSEP)
            for (j = 1; j <= n; j++) {
                if (names[j] != "??") seen[names[j]] = 1
                if (names[j] ~ /calib::drift/) meter = 1
            }
            if (i == 1) leaf = (n && names[1] != "??") ? names[1] : "(unsymbolized)"
        }
        if (meter) { meter_samples++; next }
        kept++
        self[leaf]++
        for (f in seen) incl[f]++
    }
    END {
        total = kept + meter_samples
        printf "%d samples: %d kept, %d in the drift meter (%.1f %%)\n", total, kept, meter_samples, total ? 100 * meter_samples / total : 0
        if (!kept) exit
        for (f in incl) printf "incl\t%6.2f %%\t%s\n", 100 * incl[f] / kept, f
        for (f in self) printf "self\t%6.2f %%\t%s\n", 100 * self[f] / kept, f
    }
' "$dir/symbols.txt" "$dir/ssdbench.prof" >"$dir/shares.txt"

head -n 1 "$dir/shares.txt"
for kind in incl:inclusive self:self; do
    echo
    echo "== ${kind#*:} share, top 40 =="
    # awk, not head: head would close the pipe early and fail it.
    grep "^${kind%%:*}	" "$dir/shares.txt" | sort -t '	' -k2,2nr | awk 'NR <= 40' | cut -f 2-
done
