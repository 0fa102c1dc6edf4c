//! The repository benchmark: paper-scale DFT/WHT workloads through the
//! library API and a closed-loop load against a spawned `ddl-serve`.
//!
//! ```text
//! ddl-benchmark --workload W [--seed S] [--seconds T] [--trace [0|1]]
//!               [--self-test] [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! A plain run prints every end-to-end metric, a traced run (`--trace`)
//! every per-layer metric, one `workload metric value unit` line each;
//! the last stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`. `benchmark/run.sh` builds the program and this binary and
//! is the command to use; README.md lists what each metric means.

mod library;
mod mirror;
mod oracle;
mod serve;
mod stats;
mod trace;

use ddl_core::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: what a caller of the library or the service sees.
/// A plain run reports exactly these. Op time is gated as a ratio to the
/// benchmark's own reference run alongside it, because on a shared host
/// the absolute times drift by more than any usable bound (README.md).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_vs_ref", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: a traced run reports exactly these. A layer the
/// workload does not pass through reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("planner.search_ms", "ms"),
    ("planner.states", "count"),
    ("planner.reorg_nodes", "count"),
    ("planner.regret_vs_sdl", "ratio"),
    ("model.pred_over_meas", "ratio"),
    ("model.leaf_pred_over_meas", "ratio"),
    ("model.twiddle_pred_over_meas", "ratio"),
    ("model.reorg_pred_over_meas", "ratio"),
    ("compile.ms", "ms"),
    ("compile.twiddle_points", "points"),
    ("compile.scratch_points", "points"),
    ("exec.leaf_ms", "ms"),
    ("exec.twiddle_ms", "ms"),
    ("exec.reorg_ms", "ms"),
    ("exec.other_ms", "ms"),
    ("exec.leaf_calls", "count"),
    ("exec.twiddle_points", "points"),
    ("exec.reorg_points", "points"),
    ("exec.gflops_p50", "GFLOPS"),
    ("trace.overhead_ratio", "ratio"),
    ("sim.accesses", "count"),
    ("sim.l1_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.tlb_misses", "count"),
    ("sim.case3_leaves", "count"),
    ("engine.plan_hits", "count"),
    ("engine.plan_misses", "count"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p90", "ms"),
    ("serve.delayed_ack_rtt_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.deadline_expired", "count"),
    ("failed_frac", "fraction"),
    ("host.probe_ms", "ms"),
];

const WORKLOADS: [&str; 4] = ["dft-large", "dft-mid", "wht-large", "serve-mix"];

/// How one run is driven.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub self_test: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Every measured metric by name (units come from the tables above).
    pub values: Vec<(&'static str, f64)>,
    /// Trailing text for a metric's printed line (e.g. sample counts).
    pub notes: Vec<(&'static str, String)>,
    /// Further printed lines (e.g. per-request-class latency).
    pub extra: Vec<String>,
    /// Operations issued, and how many failed or returned a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// Checks on the run itself that failed (trace validity, wire tally).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Median and p90 of op latencies in ms, and ops per second of `busy_s`.
    pub fn latencies(&mut self, ms: &[f64], busy_s: f64) {
        let (p90, beyond) = stats::quantile(ms, 0.9);
        self.set("latency_ms_p50", stats::median(ms));
        self.set("latency_ms_p90", p90);
        self.notes.push((
            "latency_ms_p90",
            format!("samples={} beyond={beyond}", ms.len()),
        ));
        self.set("throughput_ops_s", ms.len() as f64 / busy_s);
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is in neither metric table"))
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = BTreeMap::new();
    m.insert("value".to_string(), Json::Num(value));
    m.insert("unit".to_string(), Json::Str(unit.to_string()));
    Json::Obj(m)
}

fn usage() -> String {
    format!(
        "usage: ddl-benchmark --workload <{}> [--seed S] [--seconds T] [--trace [0|1]] \
         [--self-test] [--serve-bin PATH] [--out-dir DIR]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 15.0,
        trace: false,
        self_test: false,
        serve_bin: PathBuf::from("target/release/ddl-serve"),
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--serve-bin" => opts.serve_bin = value("a path")?.into(),
            "--out-dir" => opts.out_dir = value("a path")?.into(),
            "--self-test" => opts.self_test = true,
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                let explicit = args.next_if(|v| v == "0" || v == "1");
                opts.trace = explicit.as_deref() != Some("0");
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok((workload, opts))
}

fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let probe_start = stats::host_probe_ms();
    let mut o = match workload {
        "dft-large" => library::run::<library::Dft>(workload, 1 << 20, opts),
        "dft-mid" => library::run::<library::Dft>(workload, 1 << 16, opts),
        "wht-large" => library::run::<library::Wht>(workload, 1 << 20, opts),
        "serve-mix" => serve::run(workload, opts),
        _ => unreachable!("workload names are checked in parse_args"),
    }?;
    o.set("failed_frac", o.failed as f64 / o.attempted.max(1) as f64);
    o.set(
        "host.probe_ms",
        0.5 * (probe_start + stats::host_probe_ms()),
    );
    Ok(o)
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ddl-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ddl-benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.extra {
        println!("{workload} {line}");
    }
    let reported: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut all = BTreeMap::new();
    for &(name, value) in &outcome.values {
        let unit = unit_of(name);
        let note = outcome
            .notes
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, text)| format!(" {text}"))
            .collect::<String>();
        println!("{workload} {name} {value} {unit}{note}");
        all.insert(name, (value, unit));
    }
    let mut metrics = BTreeMap::new();
    for &(name, unit) in reported {
        let value = match all.get(name) {
            Some(&(v, _)) => v,
            // Only per-layer metrics may be absent: their layer is not on
            // this workload's path.
            None if opts.trace => 0.0,
            None => {
                eprintln!("ddl-benchmark: {workload} did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        metrics.insert(name.to_string(), metric(value, unit));
    }
    for p in &outcome.problems {
        eprintln!("ddl-benchmark: {workload}: check failed: {p}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Json::Bool(correct));
    result.insert("attempted".to_string(), Json::Num(outcome.attempted as f64));
    result.insert("failed".to_string(), Json::Num(outcome.failed as f64));
    result.insert("metrics".to_string(), Json::Obj(metrics));
    let line = Json::Obj(result.clone()).compact();

    // The file keeps every measured value, also those not in the gated set.
    let mut file = result;
    file.insert("workload".to_string(), Json::Str(workload.clone()));
    file.insert("seed".to_string(), Json::Num(opts.seed as f64));
    let everything = all
        .iter()
        .map(|(n, (v, u))| (n.to_string(), metric(*v, u)))
        .collect();
    file.insert("metrics".to_string(), Json::Obj(everything));
    let suffix = if opts.trace { "layers.json" } else { "json" };
    let path = opts.out_dir.join(format!("{workload}.{suffix}"));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(file).pretty()))
    {
        eprintln!("ddl-benchmark: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    println!("{line}");
    if opts.self_test {
        return if outcome.failed >= 1 {
            eprintln!("ddl-benchmark: self-test: the corrupted output was counted as failed");
            ExitCode::SUCCESS
        } else {
            eprintln!("ddl-benchmark: self-test: the corrupted output was NOT caught");
            ExitCode::FAILURE
        };
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
