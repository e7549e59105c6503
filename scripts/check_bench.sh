#!/bin/sh
# Kernel-vs-event throughput gate: run bench_microperf's speedup
# report (--fast --report) and compare it against the checked-in
# baseline (tests/data/BENCH_microperf.json) with tools/sweep
# compare.  Two ways to fail, both load-bearing:
#   - bench_microperf exits non-zero when the kernel's measured
#     speedup drops below the hard floor (3.45x on the default
#     16-node, 4-bus config);
#   - sweep compare exits non-zero when a gated baseline leaf (the
#     floor indicators, and bench_microperf's profiler-overhead
#     bound indicators) is missing or out of tolerance.
# Usage: scripts/check_bench.sh [bench sweep baseline.json [min-speedup]]
# With no arguments, binaries are taken from ./build and the
# baseline from tests/data (the developer workflow; the bench_gate
# ctest passes explicit paths).  The same script gates any bench
# that speaks --fast/--report/--min-speedup (bench_microperf,
# bench_hierarchy); the optional 4th argument overrides the
# speedup floor handed to the bench (default 3.45,
# bench_microperf's).
set -e

min_speedup=3.45
if [ $# -ge 3 ]; then
    bench="$1"
    sweep="$2"
    baseline="$3"
    [ $# -ge 4 ] && min_speedup="$4"
else
    cd "$(dirname "$0")/.."
    bench=build/bench/bench_microperf
    sweep=build/tools/sweep
    baseline=tests/data/BENCH_microperf.json
    if [ ! -x "$bench" ] || [ ! -x "$sweep" ]; then
        echo "check_bench: build bench_microperf and sweep first" \
            "(cmake --build build)" >&2
        exit 1
    fi
fi

fresh="${TMPDIR:-/tmp}/bench_microperf_fresh_$$.json"
trap 'rm -f "$fresh"' EXIT

"$bench" --fast --report "$fresh" --min-speedup "$min_speedup"
exec "$sweep" compare "$fresh" "$baseline"
