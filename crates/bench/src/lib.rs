//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one experiment (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for results):
//!
//! | binary      | paper artifact |
//! |-------------|----------------|
//! | `table1`    | Table I — alternate factorization trees, measured vs estimated |
//! | `fig9`      | Fig. 9 — miss rate vs FFT size (DDL vs SDL) |
//! | `table2`    | Table II — cache accesses and misses per size |
//! | `fig10`     | Fig. 10 — miss rate vs cache line size |
//! | `platform`  | Tables III/IV — host parameters |
//! | `fig11_fft` | Figs. 11–14 — FFT pseudo-MFLOPS, SDL vs DDL vs FFTW-proxy |
//! | `fig15_wht` | Fig. 15 — WHT time per point, SDL vs DDL |
//! | `table5`    | Table V — optimal WHT factorizations per size |
//! | `table6`    | Table VI — optimal FFT factorizations per size |
//!
//! Beyond the paper, `obs_smoke` emits and validates a `ddl-report`
//! from an instrumented run, and `bench_suite` (backed by [`suite`])
//! runs the pinned performance-trajectory suite with baseline
//! comparison, Chrome-trace export, a `ddl-report` of per-plan records
//! (cost-model calibration and per-node L1/L2/d-TLB cache-miss
//! attribution, rendered as calibration lines and a hierarchy
//! scorecard) and the longitudinal [`ledger`].
//!
//! This library provides the pieces they share: measured planning with a
//! wisdom cache (so one planning pass serves every binary), timing
//! wrappers, and host introspection.

#![forbid(unsafe_code)]

use ddl_core::planner::{try_plan_dft, try_plan_wht, PlannerConfig, Strategy};
use ddl_core::tree::Tree;
use ddl_core::wisdom::Wisdom;
use std::path::PathBuf;

pub mod host;
pub mod ledger;
pub mod suite;

/// Default size sweep for the performance figures: `2^10 .. 2^22`.
///
/// The paper sweeps to `2^24`/`2^25` on machines with multi-GB memory;
/// `2^22` (64 MB of complex points, ~320 MB peak with scratch) keeps the
/// sweep tractable on one laptop-class host while still exceeding every
/// cache level of interest.
pub fn default_log_sizes() -> Vec<u32> {
    (10..=22).collect()
}

/// Where shared planning results are cached between binaries.
pub fn wisdom_path() -> PathBuf {
    let dir = std::env::var_os("DDL_WISDOM_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join("ddl-wisdom.json")
}

/// Plans (or recalls) a tree for `(transform, n, strategy)` with the given
/// config, backed by the wisdom file.
pub fn plan_cached(transform: &str, n: usize, cfg: &PlannerConfig) -> Tree {
    let path = wisdom_path();
    // Degrade gracefully on a corrupt or unreadable wisdom file: warn and
    // re-plan rather than abort the whole sweep.
    let mut wisdom = match Wisdom::load(&path) {
        Ok(w) => {
            for q in w.quarantined() {
                eprintln!(
                    "warning: quarantined wisdom entry {:?} in {}: {}",
                    q.key,
                    path.display(),
                    q.error
                );
            }
            w
        }
        Err(e) => {
            eprintln!(
                "warning: could not load wisdom from {}: {e}; re-planning",
                path.display()
            );
            Wisdom::default()
        }
    };
    if let Some((tree, _)) = wisdom.get(transform, n, cfg.strategy) {
        return tree;
    }
    let outcome = match transform {
        "dft" => try_plan_dft(n, cfg),
        "wht" => try_plan_wht(n, cfg),
        other => die(&format!("unknown transform {other}")),
    }
    .unwrap_or_else(|e| die(&format!("cannot plan {transform} {n}: {e}")));
    wisdom.put(
        transform,
        n,
        cfg.strategy,
        &outcome.tree,
        outcome.cost,
        &format!("{:?}", cfg.backend),
    );
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Err(e) = wisdom.save(&path) {
        eprintln!("warning: could not save wisdom to {}: {e}", path.display());
    }
    outcome.tree
}

/// Arguments shared by the sweep binaries.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Largest transform size as a power of two (`--max-log-n <k>`).
    pub max_log: u32,
    /// `--quick` shrinks measurement floors for a fast smoke run.
    pub quick: bool,
    /// `--metrics-out <path>`: where to write a `ddl-report` JSON document
    /// (defaults to the `DDL_METRICS_OUT` environment variable; `None`
    /// disables export).
    pub metrics_out: Option<PathBuf>,
}

/// Prints a usage error and exits: the sweep binaries have no caller to
/// recover into, and a clean diagnostic beats an unwind.
pub fn die(msg: &str) -> ! {
    eprintln!("ddl-bench: {msg}");
    std::process::exit(2);
}

/// Parses `--max-log-n <k>`-style arguments shared by the sweep binaries.
pub fn parse_sweep_args() -> SweepArgs {
    let mut parsed = SweepArgs {
        max_log: 22,
        quick: false,
        metrics_out: ddl_core::obs::env_metrics_out(),
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
            "--metrics-out" => {
                parsed.metrics_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--metrics-out needs a path")),
                ));
            }
            other => die(&format!(
                "unknown argument {other} (expected --max-log-n <k> | --quick | --metrics-out <path>)"
            )),
        }
    }
    parsed
}

/// Writes a `ddl-report`, reporting failure as a warning rather than
/// aborting the benchmark that produced the data.
pub fn write_report(report: &ddl_core::Report, path: &std::path::Path) {
    match report.write(path) {
        Ok(()) => eprintln!(
            "report written to {} ({} plan records)",
            path.display(),
            report.plans.len()
        ),
        Err(e) => eprintln!("warning: could not write report to {}: {e}", path.display()),
    }
}

/// Measurement floor in seconds for the sweep binaries.
pub fn measure_floor(quick: bool) -> f64 {
    if quick {
        0.02
    } else {
        0.2
    }
}

/// A measured-backend planner config tuned for sweep use.
pub fn measured_cfg(strategy: Strategy, quick: bool) -> PlannerConfig {
    use ddl_core::planner::CostBackend;
    let base = match strategy {
        Strategy::Sdl => PlannerConfig::sdl_measured(),
        Strategy::Ddl => PlannerConfig::ddl_measured(),
    };
    PlannerConfig {
        backend: CostBackend::Measured {
            min_secs: if quick { 5e-4 } else { 2e-3 },
            min_reps: 2,
        },
        // Planning thresholds use the host L2 (the innermost cache whose
        // capacity the working set plausibly exceeds on this machine).
        cache_points: host::l2_points(16),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_cover_the_cache_crossover() {
        let sizes = default_log_sizes();
        assert!(sizes.contains(&15));
        assert!(*sizes.last().unwrap() >= 20);
    }

    #[test]
    fn plan_cached_round_trips_through_wisdom() {
        std::env::set_var(
            "DDL_WISDOM_DIR",
            std::env::temp_dir().join(format!("ddl-bench-test-{}", std::process::id())),
        );
        let cfg = PlannerConfig::ddl_analytical();
        let a = plan_cached("dft", 1 << 12, &cfg);
        let b = plan_cached("dft", 1 << 12, &cfg); // wisdom hit
        assert_eq!(a, b);
        std::fs::remove_dir_all(std::env::var_os("DDL_WISDOM_DIR").unwrap()).ok();
        std::env::remove_var("DDL_WISDOM_DIR");
    }

    #[test]
    fn measure_floor_scales_with_quick() {
        assert!(measure_floor(true) < measure_floor(false));
    }
}
