#!/usr/bin/env bash
# Build the benchmark binary from this checkout's sources and run one
# workload:
#
#   bash fbbench/run.sh --workload poisson|wide_barrier|fuzz_campaign \
#       --seed N --seconds S --trace 0|1
#
# The binary and the simulator libraries it links are built out of
# tree, Release, into .bench_build/fbbench at the checkout root; an
# existing build/ is never used. Build output goes to stderr, so the
# last line of stdout is the binary's JSON result. A traced run also
# writes its spans as Chrome trace-event JSON to
# .bench_build/fbbench/traces/<workload>-seed<N>.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
    echo "fbbench: no simulator sources at $root/src" >&2
    exit 2
fi

build="$root/.bench_build/fbbench"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi
{
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" -j "$jobs" --target fbbench
} >&2

workload="" seed="" trace=0
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload="${args[i + 1]}" ;;
        --seed) seed="${args[i + 1]}" ;;
        --trace) trace="${args[i + 1]}" ;;
    esac
done
if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/traces"
    exec "$build/fbbench" "$@" \
        --trace-out "$build/traces/${workload}-seed${seed}.json"
fi
exec "$build/fbbench" "$@"
