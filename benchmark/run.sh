#!/usr/bin/env bash
# Builds ddl-serve and the benchmark binary from source, then runs one
# workload (--workload W) or every workload, each in a fresh process.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--self-test]
#
# Prints `workload metric value unit` lines and, last, one JSON result
# line per workload; writes $CARGO_TARGET_DIR/benchmark/<workload>.json
# (or .layers.json and .trace.json with --trace). Exits non-zero if a
# build fails or any output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline -q -p ddl-serve >&2
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml >&2

bench=("$target/release/ddl-benchmark" --serve-bin "$target/release/ddl-serve"
    --out-dir "$target/benchmark")
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "${bench[@]}" "$@"
    fi
done
status=0
for w in dft-large dft-mid wht-large serve-mix; do
    "${bench[@]}" --workload "$w" "$@" || status=1
done
exit "$status"
