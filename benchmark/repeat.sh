#!/usr/bin/env bash
# The repeatability artefact: two sets of k full runs (every workload,
# tracing off) of the *same* build, the sets alternating run by run, then a
# table of each end-to-end metric's quartiles per set, its spread, how much
# worse the second set's median is, and pass / unresolved / FAIL against the
# bounds in BENCHMARK.json. Run i of both sets uses seed i.
#
#   benchmark/repeat.sh [k]        (k >= 5, default 5)
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
k=${1:-5}
if [ "$k" -lt 5 ]; then
    echo "repeat.sh: k must be at least 5" >&2
    exit 2
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
out="$here/out/repeat"

cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
rm -rf "$out"
mkdir -p "$out/first" "$out/second"

for i in $(seq 1 "$k"); do
    for set in first second; do
        for workload in $workloads; do
            echo "# run $i/$k, $set set, $workload" >&2
            cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
                --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 \
                > "$out/$set/$workload.$i.txt"
        done
    done
done

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    compare --bench BENCHMARK.json --first "$out/first" --second "$out/second"
