//! Ablation (beyond the paper): TLB behaviour of SDL vs DDL trees.
//!
//! The paper sets TLB misses aside ("not critical to the performance for
//! the small sized transforms obtained after factorization", Section
//! III-B) — true for its machines, but on modern hosts page-granular
//! strides exhaust the dTLB long before a multi-megabyte L2 fills. This
//! binary attributes SDL and DDL execution traces simultaneously against
//! the paper cache and an L1/L2/d-TLB hierarchy and reports line and
//! page miss sources side by side.
//!
//! The table is derived end-to-end from a `ddl-report` artifact, not
//! from ad-hoc counters: **emit** attributes each plan once through the
//! hierarchy attributor and writes one plan record per tree; **render**
//! reads it back — re-verifying per-node conservation at every level in
//! the parse — and prints the table from the records' `sim` sections.
//! The committed `results/tlb_ablation.txt` regenerates with:
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin tlb_ablation -- \
//!     --artifact target/tlb-ablation.json --out results/tlb_ablation.txt
//! ```
//!
//! `--emit` / `--render` restrict the run to one half (CI emits, checks
//! the artifact through `bench_suite --check`, then renders and diffs).

use ddl_analyze::annotate_static;
use ddl_bench::die;
use ddl_cachesim::{CacheConfig, HierarchyConfig};
use ddl_core::attrib::{attribute_dft_hier, AttributionRun};
use ddl_core::planner::{try_plan_dft_sweep, PlannerConfig};
use ddl_core::{DftPlan, PlanRecord, Report};
use ddl_num::Direction;
use std::path::{Path, PathBuf};

/// Smallest table row: below 2^14 both layouts fit every level on the
/// simulated geometry and the rows are identical noise.
const FIRST_LOG: u32 = 14;

struct Args {
    max_log: u32,
    quick: bool,
    artifact: PathBuf,
    emit_only: bool,
    render_only: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        max_log: 22,
        quick: false,
        artifact: PathBuf::from("target/tlb-ablation.json"),
        emit_only: false,
        render_only: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-log-n" => {
                parsed.max_log = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-log-n needs an integer"));
            }
            "--quick" => parsed.quick = true,
            "--artifact" => {
                parsed.artifact = PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--artifact needs a path")),
                );
            }
            "--emit" => parsed.emit_only = true,
            "--render" => parsed.render_only = true,
            "--out" => {
                parsed.out = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out needs a path")),
                ));
            }
            other => die(&format!(
                "unknown argument {other} (expected --max-log-n <k> | --quick | \
                 --artifact <path> | --emit | --render | --out <path>)"
            )),
        }
    }
    if parsed.emit_only && parsed.render_only {
        die("--emit and --render are mutually exclusive (omit both for emit+render)");
    }
    parsed
}

fn main() {
    let args = parse_args();
    let max_log = if args.quick {
        args.max_log.min(16)
    } else {
        args.max_log.min(20)
    };

    if !args.render_only {
        emit(&args.artifact, max_log);
    }
    if !args.emit_only {
        let table = render(&args.artifact);
        match &args.out {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent).ok();
                }
                if let Err(e) = std::fs::write(path, &table) {
                    die(&format!("writing {}: {e}", path.display()));
                }
                eprintln!("table written to {}", path.display());
            }
            None => print!("{table}"),
        }
    }
}

/// Plans both sweeps against the simulated cache, attributes every
/// table-sized plan once through the L1/L2/d-TLB hierarchy attributor,
/// and writes the `ddl-report` artifact.
fn emit(path: &Path, max_log: u32) {
    let cache = CacheConfig::paper_default(64);
    let hier = HierarchyConfig::typical(cache);

    eprintln!("planning SDL/DDL sweeps against the simulated cache ...");
    let sdl = try_plan_dft_sweep(1 << max_log, &PlannerConfig::sdl_simulated(cache, 16)).unwrap();
    let ddl = try_plan_dft_sweep(1 << max_log, &PlannerConfig::ddl_simulated(cache, 16)).unwrap();

    let mut report = Report::new("tlb-ablation");
    for log_n in FIRST_LOG..=max_log {
        let idx = (log_n - 1) as usize;
        for (name, sweep) in [("sdl", &sdl), ("ddl", &ddl)] {
            let plan = match DftPlan::new(sweep[idx].1.tree.clone(), Direction::Forward) {
                Ok(p) => p,
                Err(e) => die(&format!("compiling {name} 2^{log_n} plan: {e}")),
            };
            let mut run = match attribute_dft_hier(&plan, 1, cache, hier) {
                Ok(r) => r,
                Err(e) => die(&format!("attributing {name} 2^{log_n}: {e}")),
            };
            annotate_static(&mut run);
            let mut record = PlanRecord::dft(&plan, name);
            record.sim = Some(run);
            report.plans.push(record);
            eprintln!("attributed {name} 2^{log_n}");
        }
    }
    if let Err(e) = report.write(path) {
        die(&format!("writing artifact: {e}"));
    }
    eprintln!(
        "report written to {} ({} plan records)",
        path.display(),
        report.plans.len()
    );
}

/// Reads the artifact back (the parse re-verifies node-sum conservation
/// and L2/L1 coupling at every level) and renders the ablation table
/// purely from the stored counters.
fn render(path: &Path) -> String {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => die(&format!("reading {}: {e}", path.display())),
    };
    let report = match Report::parse(&text) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", path.display())),
    };

    let pick = |strategy: &str, n: usize| -> &AttributionRun {
        report
            .find("dft", n, strategy)
            .and_then(|p| p.sim.as_ref())
            .unwrap_or_else(|| {
                die(&format!(
                    "artifact has no simulated {strategy} dft record at n={n}; re-run --emit"
                ))
            })
    };
    let tlb_rate = |run: &AttributionRun, n: usize| -> f64 {
        run.tlb_miss_rate().unwrap_or_else(|| {
            die(&format!(
                "dft record n={n} has no hierarchy attribution; re-run --emit"
            ))
        })
    };

    let mut logs: Vec<u32> = report
        .plans
        .iter()
        .filter(|p| p.transform == "dft")
        .map(|p| p.n.trailing_zeros())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    logs.sort_unstable();
    if logs.is_empty() {
        die("artifact has no dft records");
    }

    // The d-TLB geometry in the header comes from the artifact, so the
    // title can never drift from what was actually simulated.
    let hier = pick("sdl", 1 << logs[0])
        .hierarchy
        .as_ref()
        .unwrap_or_else(|| die("artifact records lack hierarchy attribution; re-run --emit"));
    let mut out = format!(
        "# TLB ablation: {}-entry {}-way dTLB, {} KiB pages, + paper cache\n",
        hier.config.tlb_entries,
        hier.config.tlb_ways,
        hier.config.tlb_page_bytes / 1024
    );
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}\n",
        "log2(n)", "SDL tlb-m%", "DDL tlb-m%", "SDL cache-m%", "DDL cache-m%"
    ));
    for &log_n in &logs {
        let n = 1usize << log_n;
        let (s, d) = (pick("sdl", n), pick("ddl", n));
        out.push_str(&format!(
            "{:>8} {:>12.2} {:>12.2} {:>14.2} {:>14.2}\n",
            log_n,
            tlb_rate(s, n) * 100.0,
            tlb_rate(d, n) * 100.0,
            s.totals.miss_rate() * 100.0,
            d.totals.miss_rate() * 100.0
        ));
    }
    out.push_str("\n# DDL's unit-stride conversion helps the TLB for the same reason it\n");
    out.push_str("# helps lines: fewer pages touched per unit of useful data\n");
    out
}
