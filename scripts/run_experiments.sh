#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation and
# collects the outputs under results/. Runtime is dominated by the two
# measured dynamic-programming sweeps (fig11/table6 and fig15/table5).
#
# Usage: scripts/run_experiments.sh [MAX_LOG_N] [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_LOG_N="${1:-22}"
QUICK="${2:-}"

mkdir -p results
cargo build --release -p ddl-bench --bin bench_suite

run() {
    local name="$1"; shift
    echo "== $name =="
    ./target/release/bench_suite "$name" "$@" | tee "results/$name.txt"
    echo
}

run platform
run fig9   --max-log-n "$MAX_LOG_N" $QUICK
run table2 --max-log-n "$MAX_LOG_N" $QUICK
run fig10  $QUICK
run table1 --max-log-n 20 $QUICK
run fig11_fft --max-log-n "$MAX_LOG_N" $QUICK
run fig15_wht --max-log-n "$MAX_LOG_N" $QUICK
run table6 --max-log-n "$MAX_LOG_N" $QUICK
run table5 --max-log-n "$MAX_LOG_N" $QUICK
run assoc  $QUICK
run tlb_ablation $QUICK

echo "all results captured under results/"
