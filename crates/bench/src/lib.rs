//! Shared harness for regenerating the paper's tables and figures.
//!
//! The crate has one binary, `bench_suite`. Its first argument names a
//! subcommand, and [`cli`] parses the rest into one flat [`cli::Args`]
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for results):
//!
//! | subcommand     | artifact |
//! |----------------|----------|
//! | `table1`       | Table I — alternate factorization trees, measured vs estimated |
//! | `fig9`         | Fig. 9 — miss rate vs FFT size (DDL vs SDL) |
//! | `table2`       | Table II — cache accesses and misses per size |
//! | `fig10`        | Fig. 10 — miss rate vs cache line size |
//! | `platform`     | Tables III/IV — host parameters |
//! | `fig11_fft`    | Figs. 11–14 — FFT pseudo-MFLOPS, SDL vs DDL vs FFTW-proxy |
//! | `fig15_wht`    | Fig. 15 — WHT time per point, SDL vs DDL |
//! | `table5`       | Table V — optimal WHT factorizations per size |
//! | `table6`       | Table VI — optimal FFT factorizations per size |
//! | `assoc`        | ablation — associativity vs the SDL–DDL miss gap |
//! | `tlb_ablation` | ablation — d-TLB and cache miss rates, from a `ddl-report` |
//! | `probe`        | measured time, model estimate and simulated misses of given trees |
//! | `fit`          | the host cost model's per-point costs, measured once and committed ([`fit`]) |
//!
//! [`paper`] implements those. Beyond the paper, `obs_smoke` ([`smoke`])
//! emits and validates a `ddl-report` from an instrumented run, and
//! `run`, `check`, `ledger-check` and `ledger-report` drive the pinned
//! performance-trajectory suite ([`suite`]) with Chrome-trace export, a
//! `ddl-report` of per-plan records (cost-model calibration and per-node
//! L1/L2/d-TLB cache-miss attribution, rendered as calibration lines and
//! a hierarchy scorecard) and the longitudinal [`ledger`], the one
//! record a run persists.
//!
//! This module holds what the measured experiments share: the wisdom
//! store (so one planning pass serves every subcommand), the per-transform
//! planner configs, timing and profiling.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use ddl_core::obs::{NullSink, Sink};
use ddl_core::planner::{
    time_dft_tree, time_wht_tree, try_plan_dft_sweep_with, try_plan_dft_with,
    try_plan_wht_sweep_with, try_plan_wht_with, CostBackend, PlanOutcome, PlannerConfig, Strategy,
};
use ddl_core::tree::Tree;
use ddl_core::wisdom::Wisdom;
use ddl_core::{DftPlan, PlanRecord, Recorder, WhtPlan};
use ddl_num::{Complex64, DdlError, Direction};
use std::path::{Path, PathBuf};

pub mod cli;
pub mod fit;
pub mod host;
pub mod ledger;
pub mod paper;
pub mod smoke;
pub mod suite;

/// Where shared planning results are cached between subcommands.
pub fn wisdom_path() -> PathBuf {
    let dir = std::env::var_os("DDL_WISDOM_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join("ddl-wisdom.json")
}

/// Loads the wisdom store at `path`. A corrupt or unreadable store
/// degrades to re-planning with a warning rather than aborting the whole
/// sweep, and quarantined entries are named on stderr.
pub(crate) fn load_wisdom(path: &Path) -> Wisdom {
    match Wisdom::load(path) {
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
    }
}

/// Adds `outcomes` of planning `transform` with `cfg` to `wisdom` and
/// saves it to `path`, warning if it cannot.
pub(crate) fn remember(
    path: &Path,
    mut wisdom: Wisdom,
    transform: Transform,
    cfg: &PlannerConfig,
    outcomes: &[(usize, PlanOutcome)],
) {
    let backend = format!("{:?}", cfg.backend);
    for (n, o) in outcomes {
        wisdom.put(
            transform.name(),
            *n,
            cfg.strategy,
            &o.tree,
            o.cost,
            &backend,
        );
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Err(e) = wisdom.save(path) {
        eprintln!("warning: could not save wisdom to {}: {e}", path.display());
    }
}

/// Plans (or recalls) a tree for `(transform, n, strategy)` with the given
/// config, backed by the wisdom file.
pub fn plan_cached(transform: Transform, n: usize, cfg: &PlannerConfig) -> Result<Tree, DdlError> {
    let path = wisdom_path();
    let wisdom = load_wisdom(&path);
    if let Some((tree, _)) = wisdom.get(transform.name(), n, cfg.strategy) {
        return Ok(tree);
    }
    let outcome = transform.plan(n, cfg, &mut NullSink)?;
    let tree = outcome.tree.clone();
    remember(&path, wisdom, transform, cfg, &[(n, outcome)]);
    Ok(tree)
}

/// Writes a `ddl-report`, reporting failure as a warning rather than
/// aborting the benchmark that produced the data.
pub fn write_report(report: &ddl_core::Report, path: &Path) {
    match report.write(path) {
        Ok(()) => eprintln!(
            "report written to {} ({} plan records)",
            path.display(),
            report.plans.len()
        ),
        Err(e) => eprintln!("warning: could not write report to {}: {e}", path.display()),
    }
}

/// Measurement floor in seconds for the measured experiments.
pub fn measure_floor(quick: bool) -> f64 {
    if quick {
        0.02
    } else {
        0.2
    }
}

/// The two transforms the measured experiments plan, time and profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transform {
    /// The complex DFT (16-byte points), run forward.
    Dft,
    /// The Walsh–Hadamard transform (8-byte points), in place.
    Wht,
}

impl Transform {
    /// Name in the wisdom store and in plan records.
    pub fn name(self) -> &'static str {
        match self {
            Transform::Dft => "dft",
            Transform::Wht => "wht",
        }
    }

    /// A measured-backend planner config tuned for sweep use. The DDL
    /// threshold is the host L2 (the innermost cache whose capacity the
    /// working set plausibly exceeds on this machine) in this transform's
    /// points.
    pub fn measured_cfg(self, strategy: Strategy, quick: bool) -> PlannerConfig {
        let base = match strategy {
            Strategy::Sdl => PlannerConfig::sdl_measured(),
            Strategy::Ddl => PlannerConfig::ddl_measured(),
        };
        PlannerConfig {
            backend: CostBackend::Measured {
                min_secs: if quick { 5e-4 } else { 2e-3 },
                min_reps: 2,
            },
            cache_points: host::l2_points(match self {
                Transform::Dft => 16,
                Transform::Wht => 8,
            }),
            ..base
        }
    }

    /// One DP search for size `n`, observed by `sink`.
    pub fn plan<S: Sink>(
        self,
        n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<PlanOutcome, DdlError> {
        match self {
            Transform::Dft => try_plan_dft_with(n, cfg, sink),
            Transform::Wht => try_plan_wht_with(n, cfg, sink),
        }
    }

    /// One DP sweep, `(n, outcome)` for `n = 2, 4, …, max_n`, observed by
    /// `sink`.
    pub fn plan_sweep<S: Sink>(
        self,
        max_n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<Vec<(usize, PlanOutcome)>, DdlError> {
        match self {
            Transform::Dft => try_plan_dft_sweep_with(max_n, cfg, sink),
            Transform::Wht => try_plan_wht_sweep_with(max_n, cfg, sink),
        }
    }

    /// Seconds per execution of `tree` at unit stride, measured for at
    /// least `floor` seconds.
    pub fn time(self, tree: &Tree, floor: f64) -> Result<f64, DdlError> {
        match self {
            Transform::Dft => time_dft_tree(tree, 1, floor, 3),
            Transform::Wht => time_wht_tree(tree, 1, floor, 3),
        }
    }

    /// `tree` in this transform's grammar (`ct`/`ctddl` or `split`/`splitddl`).
    pub fn print(self, tree: &Tree) -> String {
        match self {
            Transform::Dft => ddl_core::grammar::print_dft(tree),
            Transform::Wht => ddl_core::grammar::print_wht(tree),
        }
    }

    /// A plan record of `tree` carrying one profiled execution: the
    /// per-stage (leaf/twiddle/reorg) breakdown of Eq. (2)/(3).
    pub fn profiled_record(self, tree: &Tree, strategy: &str) -> Result<PlanRecord, DdlError> {
        let n = tree.size();
        let (mut record, measured) = match self {
            Transform::Dft => {
                let plan = DftPlan::new(tree.clone(), Direction::Forward)?;
                let input: Vec<Complex64> = (0..n)
                    .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64 * -0.5))
                    .collect();
                let mut output = vec![Complex64::ZERO; n];
                let m = plan.try_profile_with(&input, &mut output, &mut Recorder::new())?;
                (PlanRecord::dft(&plan, strategy), m)
            }
            Transform::Wht => {
                let plan = WhtPlan::new(tree.clone())?;
                let mut data: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
                let m = plan.try_profile_with(&mut data, &mut Recorder::new())?;
                (PlanRecord::wht(&plan, strategy), m)
            }
        };
        record.measured = Some(measured);
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cached_round_trips_through_wisdom() {
        std::env::set_var(
            "DDL_WISDOM_DIR",
            std::env::temp_dir().join(format!("ddl-bench-test-{}", std::process::id())),
        );
        let cfg = PlannerConfig::ddl_analytical();
        let a = plan_cached(Transform::Dft, 1 << 12, &cfg).unwrap();
        let b = plan_cached(Transform::Dft, 1 << 12, &cfg).unwrap(); // wisdom hit
        assert_eq!(a, b);
        std::fs::remove_dir_all(std::env::var_os("DDL_WISDOM_DIR").unwrap()).ok();
        std::env::remove_var("DDL_WISDOM_DIR");
    }

    #[test]
    fn measure_floor_scales_with_quick() {
        assert!(measure_floor(true) < measure_floor(false));
    }

    #[test]
    fn wht_threshold_counts_eight_byte_points() {
        let [dft, wht] =
            [Transform::Dft, Transform::Wht].map(|t| t.measured_cfg(Strategy::Ddl, true));
        assert_eq!(wht.cache_points, 2 * dft.cache_points);
    }
}
