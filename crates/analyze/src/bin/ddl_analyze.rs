//! Static plan/DAG analysis gate.
//!
//! Two modes:
//!
//! * **analyze** (default) — plans every size `2^1..2^max` with SDL,
//!   with host-model DDL, and with the paper-model DDL rule under a sweep
//!   of reorganization thresholds (analytical backend, fully
//!   deterministic), statically proves each emitted plan
//!   in-bounds and alias-free at several root strides through the
//!   execution layouts the compiled plans export, computes
//!   cache-conflict summaries under the paper's cache geometry, and
//!   structurally verifies every generated codelet DAG. The findings
//!   report is written to `--out <path>` (stdout when omitted) in the
//!   versioned `ddl-analyze` schema. Exits non-zero on any
//!   `error`-severity finding.
//! * **`--check <path>`** — re-parses a previously written report
//!   (schema/version/summary validation) and exits by its error count,
//!   so CI can gate on the uploaded artifact.
//!
//! ```sh
//! cargo run --release -p ddl-analyze --bin ddl_analyze -- --out target/analyze-report.json
//! cargo run --release -p ddl-analyze --bin ddl_analyze -- --check target/analyze-report.json
//! ```

use ddl_analyze::conflict::conflict_findings;
use ddl_analyze::{
    analyze_dft_plan, analyze_wht_plan, verify_generated, AnalysisReport, CacheGeometry, Severity,
};
use ddl_cachesim::CacheConfig;
use ddl_core::layout::PlanLayout;
use ddl_core::planner::{try_plan_dft, try_plan_wht, PlannerConfig};
use ddl_core::{CacheModel, DdlError, DftPlan, WhtPlan};
use ddl_num::Direction;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Root strides the executor contract must hold at (1 is the batch/API
/// default; the odd stride exercises non-unit, non-power-of-two views).
const ROOT_STRIDES: &[usize] = &[1, 7];

fn main() -> ExitCode {
    let mut max_log: u32 = 16;
    let mut out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-log-n" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_log = v,
                None => return usage("--max-log-n needs an integer"),
            },
            "--quick" => max_log = 12,
            "--out" => match args.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(v) => check = Some(PathBuf::from(v)),
                None => return usage("--check needs a path"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    match check {
        Some(path) => check_report(&path),
        None => analyze(max_log, out.as_deref()),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "ddl_analyze: {msg}\n\
         usage: ddl_analyze [--max-log-n <k>] [--quick] [--out <path>] | --check <path>"
    );
    ExitCode::from(2)
}

fn analyze(max_log: u32, out: Option<&Path>) -> ExitCode {
    let mut report = AnalysisReport::new();
    let geom = CacheGeometry::from_config(&CacheConfig::paper_default(64));

    // One subject per planner configuration that can plan a different
    // tree. SDL and host-model DDL read no reorganization threshold, so
    // each is analyzed once. The paper-model DDL rule reads it, so it
    // runs under a sweep of thresholds (in points): reorg considered
    // everywhere, at several sub-cache sizes, at the paper default, and
    // nowhere.
    let mut configs = vec![
        ("sdl".to_string(), PlannerConfig::sdl_analytical()),
        ("ddl".to_string(), PlannerConfig::ddl_analytical()),
    ];
    let paper = CacheModel::paper_default().capacity_points;
    for cache_points in [1, 1 << 6, 1 << 10, paper, usize::MAX] {
        let tag = match cache_points {
            usize::MAX => "inf".to_string(),
            t => t.to_string(),
        };
        let cfg = PlannerConfig {
            cache_points,
            ..PlannerConfig::ddl_paper_analytical()
        };
        configs.push((format!("ddl-paper:t{tag}"), cfg));
    }

    for k in 1..=max_log {
        let n = 1usize << k;
        for (tag, cfg) in &configs {
            let dft = try_plan_dft(n, cfg).and_then(|o| DftPlan::new(o.tree, Direction::Forward));
            let subject = format!("dft:{n}:{tag}");
            check_plan(dft, analyze_dft_plan, &subject, &geom, &mut report);
            let wht = try_plan_wht(n, cfg).and_then(|o| WhtPlan::new(o.tree));
            let subject = format!("wht:{n}:{tag}");
            check_plan(wht, analyze_wht_plan, &subject, &geom, &mut report);
        }
    }

    // Codegen DAG verification over the shipped codelet set plus a
    // broader sweep of generatable sizes.
    verify_generated(ddl_kernels::generated::GENERATED_SIZES, &mut report);
    verify_generated(&[1, 2, 4, 6, 8, 9, 10, 12, 15, 20, 64], &mut report);

    let text = report.to_json().pretty();
    if let Some(path) = out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("ddl_analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    } else {
        println!("{text}");
    }
    finish(&report)
}

/// Proves a planned tree's execution layout at every root stride and
/// reports its cache conflicts, or reports why it could not be planned.
fn check_plan<P>(
    planned: Result<P, DdlError>,
    prove: fn(&P, usize, &str, &mut AnalysisReport) -> Option<PlanLayout>,
    subject: &str,
    geom: &CacheGeometry,
    report: &mut AnalysisReport,
) {
    match planned {
        Ok(plan) => {
            let mut layout = None;
            for &stride in ROOT_STRIDES {
                layout = prove(&plan, stride, subject, report);
            }
            if let Some(layout) = layout {
                let _ = conflict_findings(&layout, geom, subject, report);
            }
        }
        Err(e) => report.push(
            "plan/build-failed",
            Severity::Error,
            subject,
            format!("planner or plan construction failed: {e}"),
        ),
    }
}

fn check_report(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("ddl_analyze: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match AnalysisReport::parse(&text) {
        Ok(report) => finish(&report),
        Err(e) => {
            eprintln!("ddl_analyze: {}: invalid report: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn finish(report: &AnalysisReport) -> ExitCode {
    for f in &report.findings {
        eprintln!(
            "{}: {} [{}] {}",
            f.severity.label(),
            f.subject,
            f.rule,
            f.message
        );
    }
    eprintln!(
        "ddl-analyze: {} subjects, {} checks, {} errors, {} warnings, {} info",
        report.subjects,
        report.checks,
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Info),
    );
    if report.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
