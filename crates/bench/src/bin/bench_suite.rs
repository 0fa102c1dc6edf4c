//! Performance-trajectory harness: runs the pinned benchmark suite,
//! writes a versioned `ddl-bench` report, and optionally compares it
//! against a stored baseline, emits a `ddl-report` of per-plan records
//! and a Chrome trace of one instrumented run, and maintains the
//! longitudinal trajectory ledger.
//!
//! Modes:
//!
//! * **run** (default) — executes the suite (see [`ddl_bench::suite`])
//!   and writes `BENCH_<label>.json`. With `--baseline <path>` the run
//!   is compared case-by-case against the stored report: regressions
//!   beyond `--tolerance` (or a vanished case) exit non-zero. With
//!   `--report-out <path>` the pinned plans (DFT/WHT at 2^10 and 2^16,
//!   both strategies, plus the DDL real FFT) are written as one
//!   `ddl-report`: each record carries the cost model's per-stage
//!   prediction, the median measured run and the per-node L1/L2/d-TLB
//!   attribution of the same tree. The calibration error lines and the
//!   hierarchy scorecard are printed from those records. With
//!   `--ledger <path>` the run (plus an attribution digest of each
//!   simulated record) is appended as one line to the JSONL ledger.
//! * **`--check <path>`** (repeatable) — validates a previously emitted
//!   artifact through `ddl_core::check_report`: `ddl-report`,
//!   `ddl-telemetry` and `ddl-flight` documents (JSONL artifacts line by
//!   line) and Chrome traces are dispatched by the shared validator; the
//!   `ddl-bench` schema this crate owns is layered on its `Unknown`
//!   passthrough. Violations print the offending JSON path and exit
//!   non-zero.
//! * **`--compare <current> <baseline>`** — compares two stored reports
//!   without re-running the suite.
//! * **`--ledger-check <path>`** — validates every line of a trajectory
//!   ledger and exits non-zero if any consecutive same-environment pair
//!   regressed beyond `--tolerance`.
//! * **`--ledger-report <path>`** — renders the trajectory ledger as a
//!   per-case markdown trend table on stdout (no gating).
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin bench_suite -- --quick --label ci \
//!     --out target/BENCH_ci.json --report-out target/report-ci.json \
//!     --trace-out target/trace.json --ledger results/trajectory.jsonl
//! cargo run --release -p ddl-bench --bin bench_suite -- --check target/report-ci.json
//! cargo run --release -p ddl-bench --bin bench_suite -- \
//!     --compare target/BENCH_ci.json results/bench_baseline.json
//! cargo run --release -p ddl-bench --bin bench_suite -- \
//!     --ledger-check results/trajectory.jsonl
//! ```

use ddl_analyze::{annotate_static, crosscheck};
use ddl_bench::ledger::{append_entry, check_ledger, read_ledger, render_report, LedgerEntry};
use ddl_bench::suite::{
    compare, default_repeats, run_suite, BenchReport, Comparison, SuiteConfig, DEFAULT_TOLERANCE,
};
use ddl_cachesim::{CacheConfig, HierarchyConfig};
use ddl_core::attrib::{attribute_dft_hier, attribute_rfft_hier, attribute_wht_hier};
use ddl_core::planner::{try_plan_dft, try_plan_dft_with, try_plan_wht, PlannerConfig, Strategy};
use ddl_core::{
    calibrate_dft, calibrate_wht, check_report, validate_chrome_trace, write_chrome_trace,
    CalibrationConfig, CheckedReport, DftPlan, PlanRecord, Recorder, Report, RfftPlan, WhtPlan,
};
use ddl_num::{Complex64, Direction};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Sizes of the plan records behind `--report-out` and the ledger
/// digest: one in-cache, one out-of-cache on paper-default geometry.
const REPORT_LOGS: [u32; 2] = [10, 16];
/// Cache line size (bytes) for the attribution simulations.
const ATTRIBUTION_LINE_BYTES: usize = 64;
/// Size of the traced run behind `--trace-out`.
const TRACE_N: usize = 1 << 10;

struct Args {
    quick: bool,
    label: String,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    repeats: Option<u32>,
    check: Vec<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    report_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    ledger: Option<PathBuf>,
    ledger_check: Option<PathBuf>,
    ledger_report: Option<PathBuf>,
}

fn die(msg: &str) -> ! {
    eprintln!("bench_suite: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        quick: false,
        label: "local".into(),
        out: None,
        baseline: None,
        tolerance: DEFAULT_TOLERANCE,
        repeats: None,
        check: Vec::new(),
        compare: None,
        report_out: None,
        trace_out: None,
        ledger: None,
        ledger_check: None,
        ledger_report: None,
    };
    let mut args = std::env::args().skip(1);
    let next_path = |args: &mut dyn Iterator<Item = String>, flag: &str| -> PathBuf {
        PathBuf::from(
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a path"))),
        )
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--label" => {
                parsed.label = args.next().unwrap_or_else(|| die("--label needs a value"));
            }
            "--out" => parsed.out = Some(next_path(&mut args, "--out")),
            "--baseline" => parsed.baseline = Some(next_path(&mut args, "--baseline")),
            "--tolerance" => {
                parsed.tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| die("--tolerance needs a non-negative number"));
            }
            "--repeats" => {
                parsed.repeats = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|r| *r >= 1)
                        .unwrap_or_else(|| die("--repeats needs a positive integer")),
                );
            }
            "--check" => parsed.check.push(next_path(&mut args, "--check")),
            "--compare" => {
                let cur = next_path(&mut args, "--compare");
                let base = next_path(&mut args, "--compare");
                parsed.compare = Some((cur, base));
            }
            "--report-out" => parsed.report_out = Some(next_path(&mut args, "--report-out")),
            "--trace-out" => parsed.trace_out = Some(next_path(&mut args, "--trace-out")),
            "--ledger" => parsed.ledger = Some(next_path(&mut args, "--ledger")),
            "--ledger-check" => {
                parsed.ledger_check = Some(next_path(&mut args, "--ledger-check"));
            }
            "--ledger-report" => {
                parsed.ledger_report = Some(next_path(&mut args, "--ledger-report"));
            }
            other => die(&format!(
                "unknown argument {other} (expected --quick | --label <s> | --out <path> | \
                 --baseline <path> | --tolerance <f> | --repeats <k> | --check <path> | \
                 --compare <current> <baseline> | --report-out <path> | --trace-out <path> | \
                 --ledger <path> | --ledger-check <path> | --ledger-report <path>)"
            )),
        }
    }
    parsed
}

fn main() -> ExitCode {
    let args = parse_args();

    if !args.check.is_empty() {
        let mut code = ExitCode::SUCCESS;
        for path in &args.check {
            match check_artifact(path) {
                Ok(summary) => println!("ok: {}: {summary}", path.display()),
                Err(msg) => {
                    eprintln!("check failed: {}: {msg}", path.display());
                    code = ExitCode::from(1);
                }
            }
        }
        return code;
    }

    if let Some((current, baseline)) = &args.compare {
        let cur = match load_report(current) {
            Ok(r) => r,
            Err(msg) => die(&msg),
        };
        let base = match load_report(baseline) {
            Ok(r) => r,
            Err(msg) => die(&msg),
        };
        warn_mode_mismatch(&cur, &base);
        return report_comparison(&compare(&cur, &base, args.tolerance), args.tolerance);
    }

    if let Some(path) = &args.ledger_check {
        return run_ledger_check(path, args.tolerance);
    }

    if let Some(path) = &args.ledger_report {
        let entries = match read_ledger(path) {
            Ok(e) => e,
            Err(e) => die(&format!("{e}")),
        };
        print!("{}", render_report(&entries));
        return ExitCode::SUCCESS;
    }

    // --- run mode ---
    let cfg = SuiteConfig {
        label: args.label.clone(),
        quick: args.quick,
        repeats: args.repeats.unwrap_or_else(|| default_repeats(args.quick)),
    };
    eprintln!(
        "running {} suite ({} repeats per case)...",
        if cfg.quick { "quick" } else { "full" },
        cfg.repeats
    );
    let report = match run_suite(&cfg) {
        Ok(r) => r,
        Err(e) => die(&format!("suite failed: {e}")),
    };
    for case in &report.cases {
        println!(
            "{:<28} median {:>12.0} ns  (min {:.0}, max {:.0})",
            case.id, case.median_ns, case.min_ns, case.max_ns
        );
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/BENCH_{}.json", args.label)));
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Err(e) = report.write(&out) {
        die(&format!("{e}"));
    }
    eprintln!("bench report written to {}", out.display());

    if let Some(path) = &args.trace_out {
        if let Err(e) = emit_trace(path) {
            die(&format!("trace export failed: {e}"));
        }
    }

    // The plan records feed both the report artifact and the ledger
    // digest; compute them once when either consumer is enabled.
    if args.report_out.is_some() || args.ledger.is_some() {
        let plans = match plan_records(&args.label) {
            Ok(r) => r,
            Err(e) => die(&format!("plan records failed: {e}")),
        };
        print!("{}", plans.render_calibration());
        match plans.render_scorecard() {
            Ok(table) => print!("{table}"),
            Err(e) => die(&format!("hierarchy scorecard: {e}")),
        }
        if let Some(path) = &args.report_out {
            if let Err(e) = plans.write(path) {
                die(&format!("plan report: {e}"));
            }
            eprintln!(
                "plan report written to {} ({} records)",
                path.display(),
                plans.plans.len()
            );
        }
        if let Some(path) = &args.ledger {
            let entry = LedgerEntry::from_report(&report, &plans);
            if let Err(e) = append_entry(path, &entry) {
                die(&format!("ledger append: {e}"));
            }
            eprintln!(
                "ledger entry appended to {} ({} cases, {} attribution digests)",
                path.display(),
                entry.cases.len(),
                entry.attribution.len()
            );
        }
    }

    if let Some(baseline) = &args.baseline {
        let base = match load_report(baseline) {
            Ok(r) => r,
            Err(msg) => die(&msg),
        };
        warn_mode_mismatch(&report, &base);
        return report_comparison(&compare(&report, &base, args.tolerance), args.tolerance);
    }
    ExitCode::SUCCESS
}

/// Comparing a quick run against a full baseline (or vice versa) is
/// usually a CI misconfiguration: the case sets only partially overlap
/// and the repeat counts differ. Warn, but still compare — `--compare`
/// stays usable for ad-hoc questions.
fn warn_mode_mismatch(current: &BenchReport, baseline: &BenchReport) {
    if current.quick != baseline.quick {
        eprintln!(
            "warning: comparing a {} run against a {} baseline; case sets will only \
             partially overlap",
            if current.quick { "quick" } else { "full" },
            if baseline.quick { "quick" } else { "full" },
        );
    }
}

/// One record per pinned plan: DFT and WHT at [`REPORT_LOGS`] under both
/// strategies, each with its model prediction, median measured run and
/// per-node L1/L2/d-TLB attribution (statically annotated, with any
/// three-way classification disagreement printed), plus the DDL real
/// FFT pipeline, simulated only, so its pack/dft/untangle stages get the
/// same per-node scorecard.
fn plan_records(label: &str) -> Result<Report, ddl_num::DdlError> {
    let cache = CacheConfig::paper_default(ATTRIBUTION_LINE_BYTES);
    let hier = HierarchyConfig::typical(cache);
    let cal = CalibrationConfig::paper_default();
    let mut report = Report::new(label);
    for log in REPORT_LOGS {
        let n = 1usize << log;
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            let cfg = match strategy {
                Strategy::Sdl => PlannerConfig::sdl_analytical(),
                Strategy::Ddl => PlannerConfig::ddl_analytical(),
            };
            let name = strategy.label();
            let dft = DftPlan::new(try_plan_dft(n, &cfg)?.tree, Direction::Forward)?;
            let mut record = calibrate_dft(&dft, name, &cal)?;
            record.sim = Some(attribute_dft_hier(&dft, 1, cache, hier)?);
            report.plans.push(record);
            let wht = WhtPlan::new(try_plan_wht(n, &cfg)?.tree)?;
            let mut record = calibrate_wht(&wht, name, &cal)?;
            record.sim = Some(attribute_wht_hier(&wht, 1, cache, hier)?);
            report.plans.push(record);
            if strategy == Strategy::Ddl {
                let rfft = RfftPlan::plan(n, &cfg)?;
                let mut record = PlanRecord::rfft(&rfft, name);
                record.sim = Some(attribute_rfft_hier(&rfft, cache, hier)?);
                report.plans.push(record);
            }
        }
    }
    for record in &mut report.plans {
        let Some(sim) = &mut record.sim else { continue };
        annotate_static(sim);
        for d in crosscheck(sim) {
            eprintln!(
                "attribution disagreement ({} n={} {}): {d}",
                record.transform, record.n, record.strategy
            );
        }
    }
    Ok(report)
}

/// Reads and validates a trajectory ledger; regressions between
/// consecutive comparable entries fail the process.
fn run_ledger_check(path: &Path, tolerance: f64) -> ExitCode {
    let entries = match read_ledger(path) {
        Ok(e) => e,
        Err(e) => die(&format!("{e}")),
    };
    let check = check_ledger(&entries, tolerance);
    for r in &check.regressions {
        println!(
            "LEDGER REGRESSION {:<28} {:>12.0} ns -> {:>12.0} ns  ({:+.1}%, host drift {:.2}x)  [{} -> {}]",
            r.id,
            r.prev_ns,
            r.cur_ns,
            (r.ratio - 1.0) * 100.0,
            r.drift,
            r.from,
            r.to
        );
    }
    println!(
        "ledger {}: {} entries, {} pairs compared, {} skipped (environment change)",
        path.display(),
        check.entries,
        check.compared,
        check.skipped
    );
    if check.passed() {
        println!("ledger check passed (tolerance {:.0}%)", tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ledger check FAILED: {} regressions (tolerance {:.0}%)",
            check.regressions.len(),
            tolerance * 100.0
        );
        ExitCode::from(1)
    }
}

/// Plans and profiles one instrumented DFT, exporting the recorded
/// span/stage timeline as a Chrome trace-event document.
fn emit_trace(path: &Path) -> Result<(), ddl_num::DdlError> {
    let mut recorder = Recorder::new();
    let cfg = PlannerConfig::ddl_analytical();
    let outcome = try_plan_dft_with(TRACE_N, &cfg, &mut recorder)?;
    let plan = DftPlan::new(outcome.tree, Direction::Forward)?;
    let input: Vec<Complex64> = (0..TRACE_N)
        .map(|i| Complex64::new((i % 7) as f64, (i % 3) as f64 * 0.5))
        .collect();
    let mut output = vec![Complex64::ZERO; TRACE_N];
    plan.try_profile_with(&input, &mut output, &mut recorder)?;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    write_chrome_trace(&recorder, path)?;
    // Round-trip self-check: what we just wrote must validate.
    let text = std::fs::read_to_string(path).map_err(|e| ddl_num::DdlError::Metrics {
        detail: format!("cannot re-read {}: {e}", path.display()),
    })?;
    let summary = validate_chrome_trace(&text)?;
    eprintln!(
        "trace written to {} ({} events, {} spans, depth {})",
        path.display(),
        summary.events,
        summary.begins,
        summary.max_depth
    );
    Ok(())
}

fn load_report(path: &Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchReport::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints a comparison and converts it to the process exit code.
fn report_comparison(cmp: &Comparison, tolerance: f64) -> ExitCode {
    for r in &cmp.regressions {
        println!(
            "REGRESSION {:<28} {:>12.0} ns -> {:>12.0} ns  ({:+.1}%)",
            r.id,
            r.baseline_ns,
            r.current_ns,
            (r.ratio - 1.0) * 100.0
        );
    }
    for i in &cmp.improvements {
        println!(
            "improved   {:<28} {:>12.0} ns -> {:>12.0} ns  ({:+.1}%)",
            i.id,
            i.baseline_ns,
            i.current_ns,
            (i.ratio - 1.0) * 100.0
        );
    }
    for id in &cmp.missing {
        println!("MISSING    {id} (present in baseline, absent from current run)");
    }
    for id in &cmp.added {
        println!("added      {id} (not in baseline)");
    }
    if cmp.passed() {
        println!(
            "baseline comparison passed (tolerance {:.0}%, {} improvements, {} new cases)",
            tolerance * 100.0,
            cmp.improvements.len(),
            cmp.added.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "baseline comparison FAILED: {} regressions, {} missing cases (tolerance {:.0}%)",
            cmp.regressions.len(),
            cmp.missing.len(),
            tolerance * 100.0
        );
        ExitCode::from(1)
    }
}

/// Validates one artifact through the shared `ddl-core` dispatcher
/// (which validates `.jsonl` artifacts line by line), layering the
/// `ddl-bench` schema (which core does not own) on the `Unknown`
/// passthrough; returns a short human summary or the path-bearing
/// error message.
fn check_artifact(path: &Path) -> Result<String, String> {
    match check_report(path).map_err(|e| e.to_string())? {
        CheckedReport::Trace(s) => Ok(format!(
            "ddl-trace: {} events ({} begin/end pairs, {} completes, depth {}, {} dropped)",
            s.events, s.begins, s.completes, s.max_depth, s.events_dropped
        )),
        CheckedReport::Report(r) => Ok(format!(
            "ddl-report: label {:?}, {} plan records ({} simulated, all conserved), {} batches",
            r.label,
            r.plans.len(),
            r.plans.iter().filter(|p| p.sim.is_some()).count(),
            r.batches.len()
        )),
        CheckedReport::Telemetry(r) => {
            let (admitted, shed) = r.outcome_totals();
            Ok(format!(
                "ddl-telemetry: {} histogram series, {} admitted + {} shed samples, quiesced={}",
                r.entries.len(),
                admitted,
                shed,
                r.counters
                    .get("serve.snapshot_quiesced")
                    .copied()
                    .unwrap_or(0)
            ))
        }
        CheckedReport::Flight(d) => Ok(format!(
            "ddl-flight: last dump seq {}, trigger {:?}, request {} ({})",
            d.seq, d.trigger, d.capsule.id, d.capsule.outcome
        )),
        CheckedReport::Unknown { schema } if schema == "ddl-bench" => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read file: {e}"))?;
            let r = BenchReport::parse(&text).map_err(|e| e.to_string())?;
            Ok(format!(
                "ddl-bench: label {:?}, {} cases, {} mode, host {}",
                r.label,
                r.cases.len(),
                if r.quick { "quick" } else { "full" },
                r.env.cpu
            ))
        }
        CheckedReport::Unknown { schema } => Err(format!("$.schema: unknown schema {schema:?}")),
    }
}
