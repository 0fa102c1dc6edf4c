#!/usr/bin/env bash
# Full CI gate, runnable locally and offline (the workspace has no
# registry dependencies — rand/proptest/criterion are vendored path
# crates). .github/workflows/ci.yml runs this script as its gate.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo
    echo "==> $*"
    "$@"
}

# `bench <subcommand> [flags]` runs the one binary of ddl-bench.
bench() {
    cargo run --release -q -p ddl-bench --bin bench_suite -- "$@"
}

run cargo fmt --all -- --check
# Source discipline: no panics in library code, no clock outside a module
# that declares one, no unbounded channel, `unsafe` only in the audited
# SIMD module. The lint lines at each crate root and the workspace
# clippy.toml declare it; tests/lint_policy.rs checks the declarations.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --workspace --release
run cargo test --workspace -q
# LLVM vectorizes the WHT butterfly loop and lane batches, and the AVX2
# DFT kernels run, only in optimized builds: pin their outputs bit for
# bit, and the simulated stream exactly, there too.
run cargo test --release -q --test differential wht_execution_is_bit_identical_to_leaf_at_a_time
run cargo test --release -q --test differential dft_untraced_execution_is_bit_identical_to_the_traced_schedule
run cargo test --release -q --test simulation wht_simulated_stream_stays_leaf_ordered_under_lane_batches
# The AVX2 kernels index checked slices: a kernel precondition
# violation must panic at a slice bound in release too.
run cargo test --release -q -p ddl-backend-simd

# Chaos suite: the deterministic fault-injection harness under a pinned
# seed, re-run explicitly so it emits the JSONL fault report artifact
# (each test appends one line per injected fault class). The gate also
# checks the report covers at least five distinct fault classes, so a
# silently-skipped chaos test cannot pass unnoticed. The flight recorder
# routes its dumps to a shared artifact; the run must produce capsules
# for at least three distinct triggers, and the artifact must validate
# line by line as ddl-flight v1.
rm -f target/chaos-report.jsonl target/flight-chaos.jsonl
run env DDL_CHAOS_SEED=42 DDL_CHAOS_REPORT=target/chaos-report.jsonl \
    DDL_FLIGHT_OUT=target/flight-chaos.jsonl \
    cargo test -q --test chaos
echo
echo "==> chaos report fault-class coverage"
found=$(grep -o '"class":"[^"]*"' target/chaos-report.jsonl | sort -u)
echo "$found" >&2
classes=$(echo "$found" | wc -l)
if [ "$classes" -lt 5 ]; then
    echo "error: chaos report covers only $classes fault classes (need >= 5)"
    exit 1
fi
echo
echo "==> flight recorder trigger coverage"
found=$(grep -o '"trigger":"[^"]*"' target/flight-chaos.jsonl | sort -u)
echo "$found" >&2
triggers=$(echo "$found" | wc -l)
if [ "$triggers" -lt 3 ]; then
    echo "error: flight recorder covers only $triggers dump triggers (need >= 3)"
    exit 1
fi
run bench check target/flight-chaos.jsonl

# Kernel conformance (DESIGN.md §11): every planned tree, on the
# kernels the executor picks for this host, against a walk of the same
# tree on the scalar codelets alone. Release mode runs the vector
# kernels as shipped. Each checked case appends one JSONL line to the
# conformance report artifact; the gate requires at least one.
rm -f target/conformance-report.jsonl
run env DDL_CONFORMANCE_REPORT=target/conformance-report.jsonl \
    cargo test --release -q --test backend_conformance
echo
echo "==> conformance report coverage"
cases=$(grep -c '"ok":true' target/conformance-report.jsonl || true)
grep -o '"backend":"[^"]*"' target/conformance-report.jsonl | sort -u >&2 || true
if [ "${cases:-0}" -lt 1 ]; then
    echo "error: conformance report has no cases"
    exit 1
fi

# Observability smoke: emit a ddl-report from an instrumented run, then
# validate the schema and its structural invariants.
run bench obs_smoke --metrics-out target/metrics-smoke.json
run bench obs_smoke --check target/metrics-smoke.json

# Service telemetry smoke: drive a scripted mixed plan/exec session
# through the oneshot server with a worker panic and a slow dequeue
# injected, so the flight recorder dumps both a "panic" and a "deadline"
# capsule. The quiescent shutdown snapshot and the flight artifact are
# then schema-validated (the ddl-telemetry parser re-derives outcome
# conservation when quiesced), and the admitted-sample count in the
# snapshot must exactly equal the wire-level response tally.
echo
echo "==> ddl-serve telemetry smoke"
rm -f target/telemetry-serve.json target/flight-serve.jsonl
printf '%s\n' \
    "plan dft 1024 ddl" \
    "exec dft 1024 ddl" \
    "exec dft 256 sdl" \
    "exec wht 256 sdl" \
    "exec dft ct(16, 16)" \
    "exec dft 64 sdl deadline_ms=3600000" \
    "telemetry text" \
    "telemetry" \
    | cargo run --release -q -p ddl-serve --bin ddl-serve -- --oneshot --workers 2 \
        --faults "42:serve.worker.panic=once@1;serve.dequeue.slow=once@0" \
        --telemetry-out target/telemetry-serve.json \
        --flight-out target/flight-serve.jsonl \
    > target/serve-smoke.out
grep -q '"trigger":"panic"' target/flight-serve.jsonl
grep -q '"trigger":"deadline"' target/flight-serve.jsonl
grep -q '^ddl_serve_accepted' target/serve-smoke.out
telemetry_check=$(bench check target/telemetry-serve.json target/flight-serve.jsonl)
echo "$telemetry_check"
echo "$telemetry_check" | grep -q 'quiesced=1'
# One response line per request, except `telemetry text`, whose response
# is the multi-line Prometheus body (counted as one more).
wire=$(grep -c '^ok \|^err ' target/serve-smoke.out)
wire=$((wire + 1))
if ! echo "$telemetry_check" | grep -q "${wire} admitted + 0 shed"; then
    echo "error: telemetry snapshot does not conserve the wire tally ($wire responses)"
    exit 1
fi

# Benchmark trajectory: the quick suite appends its one record, a line
# of the longitudinal ledger, and emits a Chrome trace of one
# instrumented run and one ddl-report of plan records (DFT/WHT at 2^10
# and 2^16, both strategies, plus the DDL real FFT), each carrying its
# cost-model prediction, median measured run and per-node L1/L2/d-TLB
# attribution; the calibration error lines and the hierarchy scorecard
# are printed from those records. Every artifact, the ledger included,
# is schema-validated; the ledger is gated below.
run bench run --quick --label ci --report-out target/report-ci.json \
    --trace-out target/trace-ci.json --ledger results/trajectory.jsonl
run bench check target/report-ci.json target/trace-ci.json results/trajectory.jsonl

# TLB ablation regeneration: emit the ddl-report artifact for the
# table-sized plans (--quick: 2^14..2^16), validate it, render the
# table purely from the stored counters, and diff the overlapping rows
# against the committed results/tlb_ablation.txt. Hard gate: the
# committed table was produced by a full run, and simulated counters
# are host-independent, so any mismatch means a simulated address or
# access moved.
echo
echo "==> TLB ablation regeneration"
run bench tlb_ablation --quick \
    --artifact target/tlb-ablation-ci.json --out target/tlb_ablation_ci.txt
run bench check target/tlb-ablation-ci.json
# --quick renders 2^14..2^16: header (2 lines) + 3 rows = 5 overlapping
# lines with the committed full table.
if ! diff <(head -n 5 results/tlb_ablation.txt) \
          <(head -n 5 target/tlb_ablation_ci.txt); then
    echo "error: regenerated TLB ablation rows differ from results/tlb_ablation.txt"
    exit 1
fi

# Simulated paper tables, same hard gate: the --quick sweeps of Fig. 9
# and Table II (2^12..2^16) must reproduce the header and first rows of
# the committed tables, and the associativity ablation all of its table.
echo
echo "==> simulated paper tables regeneration"
if ! diff <(head -n 8 results/fig9.txt) <(bench fig9 --quick | head -n 8); then
    echo "error: regenerated Fig. 9 rows differ from results/fig9.txt"
    exit 1
fi
if ! diff <(head -n 7 results/table2.txt) <(bench table2 --quick | head -n 7); then
    echo "error: regenerated Table II rows differ from results/table2.txt"
    exit 1
fi
if ! diff results/assoc.txt <(bench assoc); then
    echo "error: regenerated associativity ablation differs from results/assoc.txt"
    exit 1
fi

# Every other subcommand, once each at a small size: each must exit 0,
# and the Fig. 11 plan report must validate.
echo
echo "==> remaining bench subcommands"
run bench fig10 --quick
run bench table1 --quick --max-log-n 14
run bench fig11_fft --quick --max-log-n 12 --metrics-out target/fig11-ci.json
run bench check target/fig11-ci.json
run bench fig15_wht --quick --max-log-n 12
run bench table5 --quick --max-log-n 10
run bench table6 --quick --max-log-n 10
run bench platform
run bench probe 'ctddl(64,64)'
# The host cost model's committed fit parses and validates (no timing).
run bench fit --check crates/core/data/host-fit.json

# Longitudinal ledger: every entry (including the one just appended) must
# parse, and no consecutive same-environment pair may have regressed. The
# rendered trend table is archived as a human-readable artifact.
run bench ledger-check results/trajectory.jsonl
echo
echo "==> trajectory trend report"
bench ledger-report results/trajectory.jsonl | tee target/trajectory-report.md | head -n 6

# Static analysis gate: the plan/DAG analyzer over every golden plan and
# generated codelet. It exits non-zero on any error-severity finding;
# its report is validated by round-tripping it through --check.
run cargo run --release -q -p ddl-analyze --bin ddl_analyze -- --out target/analyze-report.json
run cargo run --release -q -p ddl-analyze --bin ddl_analyze -- --check target/analyze-report.json

# Certificate gate (DESIGN.md §12): prove that in every lock-holding
# file no lock is acquired while another is held and none is held
# across catch_unwind, a thread spawn or plan execution, and the
# per-size ulp bounds derived and monotone; emit the versioned ddl-cert
# artifact and re-validate it through --check. Hard gate: any
# error-severity finding fails the build.
run cargo run --release -q -p ddl-analyze --bin ddl_cert -- --out target/cert-report.json
run cargo run --release -q -p ddl-analyze --bin ddl_cert -- --check target/cert-report.json

# The gate must be able to fail: run the lock rule on a seeded
# lock-order inversion and require it to be refused. The demo exits zero
# only when the seeded defect IS refused, so a silently-weakened
# verifier breaks the build here.
run cargo run --release -q -p ddl-analyze --bin ddl_cert -- --demo-mutation lock-inversion

echo
echo "CI gate passed."
