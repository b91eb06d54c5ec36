#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs the four workloads, each
# in its own process, first with tracing off (end-to-end metrics) and then
# traced (per-layer metrics). Prints every metric as `name value unit`.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#
# Exits non-zero if any run fails a correctness gate. The generator is one
# thread with at most `nproc` connections; there is no flag to raise that.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
seed=1
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
out="$here/out/run"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "usage: $0 [--seed N] [--seconds S] [--out DIR]" >&2; exit 2 ;;
    esac
done
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")

cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
mkdir -p "$out"

echo "# git $(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "# rustc $(rustc --version)"
echo "# nproc $(nproc)"
echo "# seed $seed, $seconds s per run, loopback only, outputs in $out"

status=0
for workload in $workloads; do
    for trace in 0 1; do
        extra=()
        if [ "$trace" = 1 ]; then
            extra=(--trace-out "$out/$workload.trace.json")
        fi
        echo
        if ! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            "${extra[@]}" | tee "$out/$workload.trace$trace.txt"; then
            echo "# $workload (trace $trace) FAILED" >&2
            status=1
        fi
    done
done
exit $status
