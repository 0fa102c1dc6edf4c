//! `bench_suite`, the one binary of `ddl-bench`: its first argument names a
//! subcommand (see the crate docs for the experiment table).
//!
//! Besides the paper's experiments, it runs the performance-trajectory
//! suite and its gates:
//!
//! * **`run`** — executes the suite (see [`ddl_bench::suite`]) and prints
//!   each case's median, min and max. With `--ledger <path>` the run (its
//!   per-case medians, plus an attribution digest of each simulated
//!   record) is appended as one line to the JSONL ledger, the run's one
//!   persisted record. With `--report-out <path>` the pinned plans
//!   (DFT/WHT at 2^10 and 2^16, both strategies, plus the DDL real FFT)
//!   are written as one `ddl-report`: each record carries the cost
//!   model's per-stage prediction, the median measured run and the
//!   per-node L1/L2/d-TLB attribution of the same tree. The calibration
//!   error lines and the hierarchy scorecard are printed from those
//!   records. `--trace-out <path>` writes a Chrome trace of one
//!   instrumented run.
//! * **`check <path>...`** — validates previously emitted artifacts
//!   through `ddl_core::check_report`: `ddl-report`, `ddl-telemetry` and
//!   `ddl-flight` documents (JSONL artifacts line by line) and Chrome
//!   traces are dispatched by the shared validator; the `ddl-trajectory`
//!   ledger this crate owns is layered on its `Unknown` passthrough.
//!   Violations print the offending JSON path or line and exit non-zero.
//! * **`ledger-check <path>`** — validates every line of a trajectory
//!   ledger and exits non-zero if any consecutive same-environment pair
//!   regressed beyond [`DEFAULT_TOLERANCE`].
//! * **`ledger-report <path>`** — renders the trajectory ledger as a
//!   per-case markdown trend table on stdout (no gating).
//!
//! Two runs are compared by appending both to one ledger:
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin bench_suite -- run --quick --label ci \
//!     --report-out target/report-ci.json --trace-out target/trace.json \
//!     --ledger results/trajectory.jsonl
//! cargo run --release -p ddl-bench --bin bench_suite -- \
//!     check target/report-ci.json results/trajectory.jsonl
//! cargo run --release -p ddl-bench --bin bench_suite -- ledger-report results/trajectory.jsonl
//! cargo run --release -p ddl-bench --bin bench_suite -- fig9 --quick
//! ```

use ddl_analyze::{annotate_static, crosscheck};
use ddl_bench::cli::{parse, Args, Command, Outcome, Usage};
use ddl_bench::ledger::{
    append_entry, check_ledger, read_ledger, ref_name, render_report, LedgerEntry,
    DEFAULT_TOLERANCE, TRAJECTORY_SCHEMA,
};
use ddl_bench::suite::{default_repeats, run_suite};
use ddl_bench::{fit, paper, smoke, Transform};
use ddl_cachesim::{CacheConfig, HierarchyConfig};
use ddl_core::attrib::{attribute_dft_hier, attribute_rfft_hier, attribute_wht_hier};
use ddl_core::planner::{try_plan_dft, try_plan_dft_with, try_plan_wht, PlannerConfig, Strategy};
use ddl_core::{
    calibrate_dft, calibrate_wht, check_report, validate_chrome_trace, write_chrome_trace,
    CalibrationConfig, CheckedReport, DftPlan, PlanRecord, Recorder, Report, RfftPlan, WhtPlan,
};
use ddl_num::{Complex64, Direction};
use std::path::Path;
use std::process::ExitCode;

/// Sizes of the plan records behind `--report-out` and the ledger
/// digest: one in-cache, one out-of-cache on paper-default geometry.
const REPORT_LOGS: [u32; 2] = [10, 16];
/// Cache line size (bytes) for the attribution simulations.
const ATTRIBUTION_LINE_BYTES: usize = 64;
/// Size of the traced run behind `--trace-out`.
const TRACE_N: usize = 1 << 10;

const SWEEP: &[&str] = &["--quick", "--max-log-n"];
const TIMED: &[&str] = &["--quick", "--max-log-n", "--metrics-out"];
const RUN: &[&str] = &[
    "--quick",
    "--label",
    "--report-out",
    "--trace-out",
    "--ledger",
];
const TLB: &[&str] = &["--quick", "--max-log-n", "--artifact", "--out"];
const MANY: usize = usize::MAX;

const fn cmd(
    name: &'static str,
    flags: &'static [&'static str],
    positional: std::ops::RangeInclusive<usize>,
    run: fn(&Args) -> Outcome,
) -> Command {
    Command {
        name,
        flags,
        positional,
        run,
    }
}

/// Every subcommand: its name, the flags it reads, how many positional
/// arguments it takes, and what it runs.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    cmd("run", RUN, 0..=0, run),
    cmd("check", &[], 1..=MANY, check),
    cmd("ledger-check", &[], 1..=1, ledger_check),
    cmd("ledger-report", &[], 1..=1, ledger_report),
    cmd("fig9", SWEEP, 0..=0, paper::fig9),
    cmd("table2", SWEEP, 0..=0, paper::table2),
    cmd("fig10", &["--quick"], 0..=0, paper::fig10),
    cmd("assoc", SWEEP, 0..=0, paper::assoc),
    cmd("tlb_ablation", TLB, 0..=0, paper::tlb_ablation),
    cmd("table1", SWEEP, 0..=0, paper::table1),
    cmd("fig11_fft", TIMED, 0..=0, |a| paper::measured_sweep(a, Transform::Dft)),
    cmd("fig15_wht", TIMED, 0..=0, |a| paper::measured_sweep(a, Transform::Wht)),
    cmd("table5", SWEEP, 0..=0, |a| paper::optimal_trees(a, Transform::Wht)),
    cmd("table6", SWEEP, 0..=0, |a| paper::optimal_trees(a, Transform::Dft)),
    cmd("platform", &[], 0..=0, paper::platform),
    cmd("obs_smoke", &["--metrics-out", "--check"], 0..=0, smoke::obs_smoke),
    cmd("probe", &[], 1..=MANY, paper::probe),
    cmd("fit", &["--out", "--check"], 0..=0, fit::fit),
];

fn main() -> ExitCode {
    let (command, args) = match parse(std::env::args().skip(1), COMMANDS) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            return ExitCode::from(2);
        }
    };
    match (command.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_suite {}: {e}", command.name);
            ExitCode::from(if e.is::<Usage>() { 2 } else { 1 })
        }
    }
}

/// `run`: the suite, and the optional trace, plan records and ledger
/// line.
fn run(args: &Args) -> Outcome {
    eprintln!(
        "running {} suite ({} repeats per case)...",
        if args.quick { "quick" } else { "full" },
        default_repeats(args.quick)
    );
    let report = run_suite(&args.label, args.quick)?;
    for case in &report.cases {
        println!(
            "{:<28} median {:>12.0} ns  (min {:.0}, max {:.0})",
            case.id, case.median_ns, case.min_ns, case.max_ns
        );
    }

    if let Some(path) = &args.trace_out {
        emit_trace(path)?;
    }

    // The plan records feed both the report artifact and the ledger
    // digest; compute them once when either consumer is enabled.
    if args.report_out.is_some() || args.ledger.is_some() {
        let plans = plan_records(&args.label)?;
        print!("{}", plans.render_calibration());
        print!("{}", plans.render_scorecard()?);
        if let Some(path) = &args.report_out {
            plans.write(path)?;
            eprintln!(
                "plan report written to {} ({} records)",
                path.display(),
                plans.plans.len()
            );
        }
        if let Some(path) = &args.ledger {
            let entry = LedgerEntry::from_report(&report, &plans);
            append_entry(path, &entry)?;
            eprintln!(
                "ledger entry appended to {} ({} cases, {} attribution digests)",
                path.display(),
                entry.cases.len(),
                entry.attribution.len()
            );
        }
    }
    Ok(())
}

/// `check`: validates each artifact, failing if any is invalid.
fn check(args: &Args) -> Outcome {
    let mut failed = 0;
    for path in &args.positional {
        match check_artifact(Path::new(path)) {
            Ok(summary) => println!("ok: {path}: {summary}"),
            Err(msg) => {
                eprintln!("check failed: {msg}");
                failed += 1;
            }
        }
    }
    match failed {
        0 => Ok(()),
        _ => Err(format!("{failed} of {} artifacts failed", args.positional.len()).into()),
    }
}

/// `ledger-report <path>`: the ledger's per-case trend table.
fn ledger_report(args: &Args) -> Outcome {
    print!(
        "{}",
        render_report(&read_ledger(Path::new(&args.positional[0]))?)
    );
    Ok(())
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
    let cal = CalibrationConfig::host();
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

/// `ledger-check <path>`: reads and validates a trajectory ledger;
/// regressions between consecutive comparable entries fail the process.
fn ledger_check(args: &Args) -> Outcome {
    let path = Path::new(&args.positional[0]);
    let check = check_ledger(&read_ledger(path)?, DEFAULT_TOLERANCE);
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
    let tolerance = DEFAULT_TOLERANCE * 100.0;
    if !check.passed() {
        let n = check.regressions.len();
        return Err(
            format!("ledger check FAILED: {n} regressions (tolerance {tolerance:.0}%)").into(),
        );
    }
    println!("ledger check passed (tolerance {tolerance:.0}%)");
    Ok(())
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

/// Validates one artifact through the shared `ddl-core` dispatcher
/// (which validates `.jsonl` artifacts line by line), layering the
/// `ddl-trajectory` ledger (which core does not own) on the `Unknown`
/// passthrough; returns a short human summary or an error message that
/// names the path once (and a failing line once).
fn check_artifact(path: &Path) -> Result<String, String> {
    let shown = path.display();
    // Both readers' errors are metrics errors whose detail names the path.
    let message = |e: ddl_num::DdlError| match e {
        ddl_num::DdlError::Metrics { detail } => detail,
        other => format!("{shown}: {other}"),
    };
    match check_report(path).map_err(message)? {
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
        CheckedReport::Unknown { schema } if schema == TRAJECTORY_SCHEMA => {
            let entries = read_ledger(path).map_err(message)?;
            Ok(format!(
                "{TRAJECTORY_SCHEMA}: {} entries, last ref {}",
                entries.len(),
                entries.last().map_or("none".into(), ref_name)
            ))
        }
        CheckedReport::Unknown { schema } => Err(format!("{shown}: unknown schema {schema:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(&'static Command, Args), Usage> {
        parse(line.split_whitespace().map(String::from), COMMANDS)
    }

    fn refused(line: &str) -> String {
        match parse_line(line) {
            Err(Usage(msg)) => msg,
            Ok(_) => panic!("{line:?} parsed"),
        }
    }

    #[test]
    fn every_flag_each_subcommand_lists_parses() {
        for command in COMMANDS {
            assert_eq!(
                COMMANDS.iter().filter(|c| c.name == command.name).count(),
                1,
                "{} is listed twice",
                command.name
            );
            let operands = " x".repeat(*command.positional.start());
            for flag in command.flags {
                let line = match *flag {
                    "--quick" => format!("{} {flag}{operands}", command.name),
                    _ => format!("{} {flag} 12{operands}", command.name),
                };
                let (parsed, _) = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(parsed.name, command.name);
            }
        }
        let (_, args) = parse_line("tlb_ablation --quick --max-log-n 15 --out t.txt").unwrap();
        assert!(args.quick);
        assert_eq!(args.max_log, Some(15));
        assert_eq!(args.out, Some("t.txt".into()));
        let (_, args) = parse_line("check a.json b.jsonl").unwrap();
        assert_eq!(args.positional, ["a.json", "b.jsonl"]);
    }

    #[test]
    fn unknown_subcommands_are_usage_errors() {
        assert!(refused("").contains("missing subcommand"));
        assert!(refused("fig12").contains("unknown subcommand"));
        assert!(refused("--check x").contains("unknown subcommand"));
        assert!(refused("compare a b").contains("unknown subcommand"));
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_refused() {
        for line in [
            "fig9 --metrics-out x",
            "table1 --metrics-out x",
            "fig10 --max-log-n 12",
            "platform --quick",
            "check --quick a.json",
        ] {
            assert!(refused(line).contains("does not take"), "{line}");
        }
    }

    #[test]
    fn removed_settings_are_refused() {
        for line in [
            "tlb_ablation --emit",
            "tlb_ablation --render",
            "run --tolerance 0.1",
            "run --repeats 3",
            "run --baseline b.json",
            "run --out x",
        ] {
            assert!(refused(line).contains("does not take"), "{line}");
        }
    }

    #[test]
    fn missing_or_malformed_values_are_refused() {
        assert!(refused("fig9 --max-log-n").contains("needs a value"));
        assert!(refused("run --label --quick").contains("needs a value"));
        assert!(refused("obs_smoke --check").contains("needs a value"));
        for k in ["0", "27", "-3", "twelve"] {
            assert!(refused(&format!("table2 --max-log-n {k}")).contains("1..=26"));
        }
    }

    #[test]
    fn positional_counts_are_checked() {
        assert!(refused("ledger-check").contains("takes 1"));
        assert!(refused("ledger-check a b").contains("takes 1"));
        assert!(refused("check").contains("at least 1"));
        assert!(refused("probe").contains("at least 1"));
        assert!(refused("fig9 extra").contains("takes 0"));
    }

    #[test]
    fn values_a_subcommand_cannot_run_are_usage_errors() {
        // table1 has no candidate trees and the TLB ablation no rows
        // below 2^14; obs_smoke and fit either emit or check a report;
        // probe refuses a malformed tree before timing anything.
        for line in [
            "table1 --max-log-n 13",
            "tlb_ablation --max-log-n 13",
            "obs_smoke --metrics-out a.json --check b.json",
            "probe ct(64,",
            "fit --check a.json --out b.json",
        ] {
            let (command, args) = parse_line(line).unwrap();
            let err = (command.run)(&args).unwrap_err();
            assert!(err.is::<Usage>(), "{line}: {err}");
        }
    }

    #[test]
    fn check_validates_the_ledger_line_by_line() {
        let line = |label: &str| {
            LedgerEntry {
                label: label.into(),
                quick: true,
                git_sha: format!("sha-{label}"),
                rustc: "rustc".into(),
                cpu: "cpu0".into(),
                cases: [("dft-ddl-n16".to_string(), 100.0)].into(),
                attribution: Vec::new(),
            }
            .to_line()
        };
        let (a, b) = (line("a"), line("b"));
        let path = std::env::temp_dir().join(format!("bench-check-{}.jsonl", std::process::id()));
        let shown = path.display().to_string();
        std::fs::write(&path, format!("{a}\n{b}\n")).unwrap();
        let summary = check_artifact(&path).unwrap();
        assert!(summary.contains("2 entries, last ref sha-b"), "{summary}");
        // A torn line fails the JSON check, a well-formed line that is
        // no ledger entry fails the ledger parse: the message `check`
        // prints after `check failed: ` names the path once, then line 2.
        for bad in [
            &b[..b.len() / 2],
            r#"{"schema":"ddl-trajectory","version":2}"#,
        ] {
            std::fs::write(&path, format!("{a}\n{bad}\n")).unwrap();
            let err = check_artifact(&path).unwrap_err();
            assert!(err.starts_with(&format!("{shown}: line 2: ")), "{err}");
            assert_eq!(err.matches(&shown).count(), 1, "{err}");
            assert_eq!(err.matches("line 2").count(), 1, "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
