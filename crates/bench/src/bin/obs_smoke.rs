//! Observability smoke run and report validator (the CI gate for the
//! instrumented sections of the `ddl-report` envelope).
//!
//! Two modes:
//!
//! * **emit** (default) — runs a deterministic, seconds-scale exercise of
//!   every instrumented subsystem: planner searches (DFT and WHT, both
//!   strategies, analytical backend), instrumented executions including
//!   trees with explicit reorganizations (so the `Dr` term of Eq. (2)/(3)
//!   is non-zero), a parallel batch, and a wisdom save/load/hit cycle.
//!   Each tree gets one plan record, so a planned tree carries its
//!   `planner` and `measured` sections side by side. The report is
//!   written to `--metrics-out <path>` (or the `DDL_METRICS_OUT`
//!   environment variable; stdout when neither is set).
//! * **`--check <path>`** — parses a previously emitted report (the
//!   parse itself refuses stage times that exceed their execution's wall
//!   clock) and verifies the structural invariants CI relies on:
//!   planner records that explored states, at least one DFT and one WHT
//!   execution that ran a reorganization stage, counters, and batch
//!   outcomes that partition their items. Exits non-zero on violation.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin obs_smoke -- --metrics-out target/metrics-smoke.json
//! cargo run --release -p ddl-bench --bin obs_smoke -- --check target/metrics-smoke.json
//! ```

use ddl_core::obs::{env_metrics_out, merge_counters, PlannerRunMetrics};
use ddl_core::planner::{try_plan_dft_with, try_plan_wht_with, PlannerConfig, Strategy};
use ddl_core::tree::Tree;
use ddl_core::wisdom::Wisdom;
use ddl_core::{
    execute_batch_scheduled, try_execute_dft_batch, BatchOptions, CancelToken, DftPlan, PlanRecord,
    Recorder, Report, WhtPlan,
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

fn dft_record(tree: &Tree, strategy: &str) -> PlanRecord {
    let plan = DftPlan::new(tree.clone(), Direction::Forward).expect("valid tree");
    let n = plan.n();
    let input: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64 * -0.5))
        .collect();
    let mut output = vec![Complex64::ZERO; n];
    let mut record = PlanRecord::dft(&plan, strategy);
    record.measured = Some(
        plan.try_profile_with(&input, &mut output, &mut Recorder::new())
            .expect("dft profile"),
    );
    record
}

fn wht_record(tree: &Tree, strategy: &str) -> PlanRecord {
    let plan = WhtPlan::new(tree.clone()).expect("valid tree");
    let mut data: Vec<f64> = (0..plan.n()).map(|i| (i % 17) as f64 - 8.0).collect();
    let mut record = PlanRecord::wht(&plan, strategy);
    record.measured = Some(
        plan.try_profile_with(&mut data, &mut Recorder::new())
            .expect("wht profile"),
    );
    record
}

/// Runs the instrumented exercise and writes (or prints) the report.
fn emit_report(metrics_out: Option<&Path>) -> ExitCode {
    let mut report = Report::new("obs-smoke");

    // --- planner: one search per (transform, strategy), analytical
    //     backend; each planned tree is also profiled once ---
    let mut sdl_dft_tree = None;
    for transform in ["dft", "wht"] {
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            let cfg = match strategy {
                Strategy::Sdl => PlannerConfig::sdl_analytical(),
                Strategy::Ddl => PlannerConfig::ddl_analytical(),
            };
            let mut rec = Recorder::new();
            let t0 = std::time::Instant::now();
            let out = match transform {
                "dft" => try_plan_dft_with(DFT_N, &cfg, &mut rec),
                _ => try_plan_wht_with(WHT_N, &cfg, &mut rec),
            }
            .unwrap_or_else(|e| panic!("{e}"));
            let plan_seconds = t0.elapsed().as_secs_f64();
            let mut record = match transform {
                "dft" => dft_record(&out.tree, strategy.label()),
                _ => wht_record(&out.tree, strategy.label()),
            };
            record.planner = Some(PlannerRunMetrics::from_recorder(
                cfg.backend.label(),
                out.cost,
                plan_seconds,
                &rec,
            ));
            report.plans.push(record);
            merge_counters(&mut report.counters, &rec);
            if (transform, strategy) == ("dft", Strategy::Sdl) {
                sdl_dft_tree = Some(out.tree);
            }
        }
    }

    // --- explicit-reorg trees, so the report deterministically contains
    //     a non-zero `Dr` breakdown. WHT left children run at stride n2,
    //     and the gather/scatter only fires on strided views, so the
    //     WHT reorganizes its left child. ---
    report.plans.push(dft_record(
        &Tree::split_ddl(Tree::leaf(64), Tree::leaf(64)),
        "ddl",
    ));
    report.plans.push(wht_record(
        &Tree::split(Tree::leaf_ddl(32), Tree::leaf(32)),
        "ddl",
    ));

    // --- parallel batch: per-item queue/run timings feed BatchMetrics ---
    let batch_plan =
        DftPlan::new(sdl_dft_tree.expect("planned above"), Direction::Forward).expect("valid tree");
    let signals = 8;
    let inputs = vec![Complex64::ONE; DFT_N * signals];
    let mut outputs = vec![Complex64::ZERO; DFT_N * signals];
    let opts = BatchOptions::with_threads(2);
    let batch = try_execute_dft_batch(&batch_plan, &inputs, &mut outputs, &opts).expect("batch");
    report.batches.push(batch.metrics("dft-smoke-batch"));

    // --- scheduler outcomes: one batch per shed path, so `--check` can
    //     gate that deadline_expired/cancelled/steals actually flow into
    //     the report rather than silently reading as zero ---
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
        Some(path) => ddl_bench::write_report(&report, path),
        None => println!("{}", report.to_text()),
    }
    ExitCode::SUCCESS
}

/// Validates an emitted report through the shared `ddl-core` dispatcher
/// and enforces the invariants CI gates on.
fn check_report(path: &Path) -> ExitCode {
    let report = match ddl_core::check_report(path) {
        Ok(ddl_core::CheckedReport::Report(r)) => r,
        Ok(other) => {
            return fail(format!(
                "{}: expected a ddl-report, found schema {:?}",
                path.display(),
                other.schema()
            ))
        }
        Err(e) => return fail(format!("invalid report: {e}")),
    };

    let planned = report.plans.iter().filter(|p| p.planner.is_some()).count();
    if planned == 0 {
        return fail("no plan record carries a planner section".into());
    }
    for p in &report.plans {
        if let Some(s) = &p.planner {
            if s.states == 0 || s.candidates == 0 {
                return fail(format!(
                    "planner run ({} n={}, {}) explored no states/candidates",
                    p.transform, p.n, p.strategy
                ));
            }
        }
        if let Some(m) = &p.measured {
            if m.total_ns == 0 {
                return fail(format!(
                    "{} n={} execution has zero wall-clock time",
                    p.transform, p.n
                ));
            }
        }
    }
    for t in ["dft", "wht"] {
        let reorganized = report
            .plans
            .iter()
            .filter(|p| p.transform == t)
            .filter_map(|p| p.measured.as_ref())
            .any(|m| m.reorg_points > 0);
        if !reorganized {
            return fail(format!("no {t} execution exercised a reorganization stage"));
        }
    }
    if report.counters.is_empty() {
        return fail("counters section is empty".into());
    }
    // Scheduler outcome accounting: every batch partitions its items
    // into exactly one outcome, and the smoke run must have exercised
    // both shed paths.
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
        "ok: {} plan records ({planned} planned, {} measured), {} batches, {} counters",
        report.plans.len(),
        report.plans.iter().filter(|p| p.measured.is_some()).count(),
        report.batches.len(),
        report.counters.len()
    );
    ExitCode::SUCCESS
}

fn fail(msg: String) -> ExitCode {
    eprintln!("report check failed: {msg}");
    ExitCode::from(1)
}
