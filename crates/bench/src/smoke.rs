//! Observability smoke run and report validator (`bench_suite
//! obs_smoke`): the CI gate for the instrumented sections of the
//! `ddl-report` envelope.
//!
//! * **emit** (default) — runs a deterministic, seconds-scale exercise of
//!   every instrumented subsystem: planner searches (DFT and WHT, both
//!   strategies, analytical backend), instrumented executions including
//!   trees with explicit reorganizations (so the `Dr` term of Eq. (2)/(3)
//!   is non-zero), and a wisdom save/load/hit cycle.
//!   Each tree gets one plan record, so a planned tree carries its
//!   `planner` and `measured` sections side by side. The report goes to
//!   `--metrics-out <path>`, or to stdout without it.
//! * **`--check <path>`** — parses a previously emitted report (the
//!   parse itself refuses stage times that exceed their execution's wall
//!   clock) and verifies the structural invariants CI relies on:
//!   planner records that explored states, at least one DFT and one WHT
//!   execution that ran a reorganization stage, and counters.

#![expect(clippy::disallowed_types, reason = "times each planner run")]

use crate::cli::{Args, Outcome, Usage};
use crate::{write_report, Transform};
use ddl_core::obs::{merge_counters, PlannerRunMetrics};
use ddl_core::planner::{PlannerConfig, Strategy};
use ddl_core::tree::Tree;
use ddl_core::wisdom::Wisdom;
use ddl_core::{CheckedReport, Recorder, Report};
use std::path::Path;

const DFT_N: usize = 1 << 12;
const WHT_N: usize = 1 << 10;

/// Emits the smoke report, or validates one with `--check`.
pub fn obs_smoke(args: &Args) -> Outcome {
    match (&args.check, &args.metrics_out) {
        (Some(_), Some(_)) => {
            Err(Usage("obs_smoke takes --metrics-out or --check, not both".into()).into())
        }
        (Some(path), None) => check(path),
        (None, out) => emit(out.as_deref()),
    }
}

/// Runs the instrumented exercise and writes (or prints) the report.
fn emit(metrics_out: Option<&Path>) -> Outcome {
    let mut report = Report::new("obs-smoke");

    // --- planner: one search per (transform, strategy), analytical
    //     backend; each planned tree is also profiled once ---
    for (transform, n) in [(Transform::Dft, DFT_N), (Transform::Wht, WHT_N)] {
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            let cfg = match strategy {
                Strategy::Sdl => PlannerConfig::sdl_analytical(),
                Strategy::Ddl => PlannerConfig::ddl_analytical(),
            };
            let mut rec = Recorder::new();
            let t0 = std::time::Instant::now();
            let out = transform.plan(n, &cfg, &mut rec)?;
            let plan_seconds = t0.elapsed().as_secs_f64();
            let mut record = transform.profiled_record(&out.tree, strategy.label())?;
            record.planner = Some(PlannerRunMetrics::from_recorder(
                cfg.backend.label(),
                out.cost,
                plan_seconds,
                &rec,
            ));
            report.plans.push(record);
            merge_counters(&mut report.counters, &rec);
        }
    }

    // --- explicit-reorg trees, so the report deterministically contains
    //     a non-zero `Dr` breakdown. WHT left children run at stride n2,
    //     and the gather/scatter only fires on strided views, so the
    //     WHT reorganizes its left child. ---
    let dft_reorg = Tree::split_ddl(Tree::leaf(64), Tree::leaf(64));
    let wht_reorg = Tree::split(Tree::leaf_ddl(32), Tree::leaf(32));
    report
        .plans
        .push(Transform::Dft.profiled_record(&dft_reorg, "ddl")?);
    report
        .plans
        .push(Transform::Wht.profiled_record(&wht_reorg, "ddl")?);

    // --- wisdom: save/load/hit cycle through the counter sink ---
    let dir = std::env::temp_dir().join(format!("ddl-obs-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("wisdom.json");
    let mut rec = Recorder::new();
    let mut wisdom = Wisdom::load_with(&path, &mut rec)?;
    let cfg = PlannerConfig::ddl_analytical();
    wisdom.get_or_plan_dft_with(DFT_N, &cfg, &mut rec)?; // miss + plan
    wisdom.save_with(&path, &mut rec)?;
    let mut wisdom = Wisdom::load_with(&path, &mut rec)?;
    wisdom.get_or_plan_dft_with(DFT_N, &cfg, &mut rec)?; // hit
    merge_counters(&mut report.counters, &rec);
    std::fs::remove_dir_all(&dir).ok();

    match metrics_out {
        Some(path) => write_report(&report, path),
        None => println!("{}", report.to_text()),
    }
    Ok(())
}

/// Validates an emitted report through the shared `ddl-core` dispatcher
/// and enforces the invariants CI gates on.
fn check(path: &Path) -> Outcome {
    let report = match ddl_core::check_report(path)? {
        CheckedReport::Report(r) => r,
        other => {
            let schema = other.schema();
            return Err(format!("expected a ddl-report, found schema {schema:?}").into());
        }
    };

    let planned = report.plans.iter().filter(|p| p.planner.is_some()).count();
    if planned == 0 {
        return Err("no plan record carries a planner section".into());
    }
    for p in &report.plans {
        if let Some(s) = &p.planner {
            if s.states == 0 || s.candidates == 0 {
                return Err(format!(
                    "planner run ({} n={}, {}) explored no states/candidates",
                    p.transform, p.n, p.strategy
                )
                .into());
            }
        }
        if let Some(m) = &p.measured {
            if m.total_ns == 0 {
                let msg = format!(
                    "{} n={} execution has zero wall-clock time",
                    p.transform, p.n
                );
                return Err(msg.into());
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
            return Err(format!("no {t} execution exercised a reorganization stage").into());
        }
    }
    if report.counters.is_empty() {
        return Err("counters section is empty".into());
    }

    println!(
        "ok: {} plan records ({planned} planned, {} measured), {} counters",
        report.plans.len(),
        report.plans.iter().filter(|p| p.measured.is_some()).count(),
        report.counters.len()
    );
    Ok(())
}
