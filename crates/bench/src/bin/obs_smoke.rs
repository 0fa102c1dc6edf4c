//! Observability smoke run and report validator (the CI gate for the
//! `ddl-metrics` schema).
//!
//! Two modes:
//!
//! * **emit** (default) — runs a deterministic, seconds-scale exercise of
//!   every instrumented subsystem: planner searches (DFT and WHT, both
//!   strategies, analytical backend), instrumented executions including
//!   trees with explicit reorganizations (so the `Dr` term of Eq. (2)/(3)
//!   is non-zero), a parallel batch, and a wisdom save/load/hit cycle.
//!   The aggregated report is written to `--metrics-out <path>` (or the
//!   `DDL_METRICS_OUT` environment variable; stdout when neither is set).
//! * **`--check <path>`** — parses a previously emitted report and
//!   verifies the schema plus the structural invariants CI relies on:
//!   non-empty planner section, at least one DFT and one WHT execution,
//!   per-stage nanoseconds summing to at most the wall-clock total, and a
//!   reorganization stage that actually ran. Exits non-zero on violation.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin obs_smoke -- --metrics-out target/metrics-smoke.json
//! cargo run --release -p ddl-bench --bin obs_smoke -- --check target/metrics-smoke.json
//! ```

use ddl_core::obs::{env_metrics_out, merge_counters, Counter, PlannerRunMetrics};
use ddl_core::planner::{try_plan_dft_with, try_plan_wht_with, PlannerConfig, Strategy};
use ddl_core::tree::Tree;
use ddl_core::wisdom::Wisdom;
use ddl_core::{
    execute_batch_scheduled, try_execute_dft_batch, BatchOptions, CancelToken, DftPlan,
    MetricsReport, Recorder, WhtPlan,
};
use ddl_num::{Complex64, Direction};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DFT_N: usize = 1 << 12;
const WHT_N: usize = 1 << 10;

fn main() -> ExitCode {
    let mut metrics_out = env_metrics_out();
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    args.next().expect("--metrics-out needs a path"),
                ));
            }
            "--check" => {
                check = Some(PathBuf::from(args.next().expect("--check needs a path")));
            }
            other => {
                panic!("unknown argument {other} (expected --metrics-out <path> | --check <path>)")
            }
        }
    }

    match check {
        Some(path) => check_report(&path),
        None => emit_report(metrics_out.as_deref()),
    }
}

/// Runs the instrumented exercise and writes (or prints) the report.
fn emit_report(metrics_out: Option<&Path>) -> ExitCode {
    let mut report = MetricsReport::new();

    // --- planner: one run per (transform, strategy), analytical backend ---
    let mut plan = |transform: &str, strategy: Strategy| {
        let cfg = match strategy {
            Strategy::Sdl => PlannerConfig::sdl_analytical(),
            Strategy::Ddl => PlannerConfig::ddl_analytical(),
        };
        let n = if transform == "dft" { DFT_N } else { WHT_N };
        let mut rec = Recorder::new();
        let t0 = std::time::Instant::now();
        let out = match transform {
            "dft" => try_plan_dft_with(n, &cfg, &mut rec),
            _ => try_plan_wht_with(n, &cfg, &mut rec),
        }
        .unwrap_or_else(|e| panic!("{e}"));
        let plan_seconds = t0.elapsed().as_secs_f64();
        report.planner.push(PlannerRunMetrics {
            transform: transform.into(),
            n,
            strategy: strategy.label().into(),
            backend: cfg.backend.label().into(),
            states: rec.counter_value(Counter::PlannerStates),
            candidates: rec.counter_value(Counter::PlannerCandidates),
            memo_hits: rec.counter_value(Counter::PlannerMemoHits),
            cost: out.cost,
            plan_seconds,
            tree: match transform {
                "dft" => out.tree.to_string(),
                _ => ddl_core::grammar::print_wht(&out.tree),
            },
        });
        merge_counters(&mut report.counters, &rec);
        out.tree
    };
    let dft_tree = plan("dft", Strategy::Sdl);
    plan("dft", Strategy::Ddl);
    let wht_tree = plan("wht", Strategy::Sdl);
    plan("wht", Strategy::Ddl);

    // --- executions: planned trees plus explicit-reorg trees, so the
    //     report deterministically contains a non-zero `Dr` breakdown ---
    let reorg_dft = Tree::split_ddl(Tree::leaf(64), Tree::leaf(64));
    for tree in [&dft_tree, &reorg_dft] {
        let plan = DftPlan::new(tree.clone(), Direction::Forward).expect("valid tree");
        let n = plan.n();
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64 * -0.5))
            .collect();
        let mut output = vec![Complex64::ZERO; n];
        report.executions.push(
            plan.try_profile_with(&input, &mut output, &mut Recorder::new())
                .expect("dft profile"),
        );
    }
    // Reorg on the left child: WHT left children run at stride n2, and
    // the gather/scatter only fires on strided views.
    let reorg_wht = Tree::split(Tree::leaf_ddl(32), Tree::leaf(32));
    for tree in [&wht_tree, &reorg_wht] {
        let plan = WhtPlan::new(tree.clone()).expect("valid tree");
        let mut data: Vec<f64> = (0..plan.n()).map(|i| (i % 17) as f64 - 8.0).collect();
        report.executions.push(
            plan.try_profile_with(&mut data, &mut Recorder::new())
                .expect("wht profile"),
        );
    }

    // --- parallel batch: per-item queue/run timings feed BatchMetrics ---
    let batch_plan = DftPlan::new(dft_tree.clone(), Direction::Forward).expect("valid tree");
    let signals = 8;
    let inputs = vec![Complex64::ONE; DFT_N * signals];
    let mut outputs = vec![Complex64::ZERO; DFT_N * signals];
    let opts = BatchOptions::with_threads(2);
    let batch = try_execute_dft_batch(&batch_plan, &inputs, &mut outputs, &opts).expect("batch");
    report.batches.push(batch.metrics("dft-smoke-batch"));

    // --- scheduler outcomes: one batch per shed path, so `--check` can
    //     gate that deadline_expired/cancelled/steals actually flow into
    //     the report (schema v2) rather than silently reading as zero ---
    let expired = execute_batch_scheduled(
        (0..8usize).collect(),
        &BatchOptions::with_threads(2).deadline(std::time::Duration::ZERO),
        || (),
        |_idx, item, _| {
            std::hint::black_box(item);
            Ok(())
        },
    );
    report.batches.push(expired.metrics("sched-deadline-batch"));
    let token = CancelToken::new();
    token.cancel();
    let cancelled = execute_batch_scheduled(
        (0..8usize).collect(),
        &BatchOptions::with_threads(2).cancel_token(token),
        || (),
        |_idx, item, _| {
            std::hint::black_box(item);
            Ok(())
        },
    );
    report
        .batches
        .push(cancelled.metrics("sched-cancelled-batch"));

    // --- wisdom: save/load/hit cycle through the counter sink ---
    let dir = std::env::temp_dir().join(format!("ddl-obs-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("wisdom.json");
    let mut rec = Recorder::new();
    let mut wisdom = Wisdom::load_with(&path, &mut rec).expect("fresh wisdom");
    let cfg = PlannerConfig::ddl_analytical();
    wisdom
        .get_or_plan_dft_with(DFT_N, &cfg, &mut rec)
        .expect("plan into wisdom"); // miss + plan
    wisdom.save_with(&path, &mut rec).expect("save wisdom");
    let mut wisdom = Wisdom::load_with(&path, &mut rec).expect("reload wisdom");
    wisdom
        .get_or_plan_dft_with(DFT_N, &cfg, &mut rec)
        .expect("recall from wisdom"); // hit
    merge_counters(&mut report.counters, &rec);
    std::fs::remove_dir_all(&dir).ok();

    match metrics_out {
        Some(path) => ddl_bench::write_metrics_report(&report, path),
        None => println!("{}", report.to_pretty_json()),
    }
    ExitCode::SUCCESS
}

/// Validates an emitted report through the shared `ddl-core` dispatcher
/// and enforces the `ddl-metrics` invariants CI gates on.
fn check_report(path: &Path) -> ExitCode {
    let report = match ddl_core::check_report(path) {
        Ok(ddl_core::CheckedReport::Metrics(r)) => *r,
        Ok(other) => {
            return fail(format!(
                "{}: expected a ddl-metrics report, found schema {:?}",
                path.display(),
                other.schema()
            ))
        }
        Err(e) => return fail(format!("invalid report: {e}")),
    };

    if report.planner.is_empty() {
        return fail("planner section is empty".into());
    }
    for run in &report.planner {
        if run.states == 0 || run.candidates == 0 {
            return fail(format!(
                "planner run ({} n={}, {}) explored no states/candidates",
                run.transform, run.n, run.strategy
            ));
        }
    }
    for t in ["dft", "wht"] {
        if !report.executions.iter().any(|e| e.transform == t) {
            return fail(format!("no {t} execution in report"));
        }
    }
    for exec in &report.executions {
        if exec.total_ns == 0 {
            return fail(format!(
                "{} n={} execution has zero wall-clock time",
                exec.transform, exec.n
            ));
        }
        let sum = exec.stages.stage_sum_ns();
        if sum > exec.total_ns {
            return fail(format!(
                "{} n={}: stage sum {}ns exceeds total {}ns",
                exec.transform, exec.n, sum, exec.total_ns
            ));
        }
    }
    for t in ["dft", "wht"] {
        if !report
            .executions
            .iter()
            .any(|e| e.transform == t && e.reorg_points > 0)
        {
            return fail(format!("no {t} execution exercised a reorganization stage"));
        }
    }
    if report.counters.is_empty() {
        return fail("counters section is empty".into());
    }
    // Scheduler outcome accounting (schema v2): every batch partitions
    // its items into exactly one outcome, and the smoke run must have
    // exercised both shed paths.
    for b in &report.batches {
        let accounted = b.ok + b.panicked + b.deadline_expired + b.cancelled;
        if accounted != b.items {
            return fail(format!(
                "batch {:?}: outcomes sum to {accounted} but batch has {} items",
                b.label, b.items
            ));
        }
    }
    if !report.batches.iter().any(|b| b.deadline_expired > 0) {
        return fail("no batch recorded a deadline-expired item".into());
    }
    if !report.batches.iter().any(|b| b.cancelled > 0) {
        return fail("no batch recorded a cancelled item".into());
    }

    println!(
        "ok: {} planner runs, {} executions, {} batches, {} counters",
        report.planner.len(),
        report.executions.len(),
        report.batches.len(),
        report.counters.len()
    );
    ExitCode::SUCCESS
}

fn fail(msg: String) -> ExitCode {
    eprintln!("metrics check failed: {msg}");
    ExitCode::from(1)
}
