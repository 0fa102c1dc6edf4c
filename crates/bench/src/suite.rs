//! The pinned benchmark suite behind `bench_suite run`: a fixed set of
//! transform cases measured with noise controls (a warm-up run, then the
//! median of k repeats) and stamped with the host's fingerprint.
//!
//! A run persists one record, its line in the trajectory ledger
//! ([`crate::ledger`]): the per-case medians and the fingerprint. Two
//! runs are compared by appending both to one ledger.

#![expect(clippy::disallowed_types, reason = "the suite measures wall time")]

use crate::host;
use ddl_core::planner::{try_plan_dft, try_plan_wht, PlannerConfig, Strategy};
use ddl_core::wisdom::Wisdom;
use ddl_core::{
    kernel_set_for, try_execute_dft_batch, BatchOptions, DftPlan, TransformKind, WhtPlan,
};
use ddl_num::{Complex64, DdlError, Direction};
use std::time::Instant;

/// Transform size of the batch-engine and wisdom-hit cases.
const SERVICE_CASE_N: usize = 1 << 12;
/// Signals per batch in the batch-engine case.
const BATCH_SIGNALS: usize = 8;
/// Worker threads in the batch-engine case.
const BATCH_THREADS: usize = 2;

/// The host fingerprint a ledger line carries, so trajectories are only
/// compared within a matching environment.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEnv {
    /// CPU model string from `/proc/cpuinfo` (or "unknown").
    pub cpu: String,
    /// `rustc --version` of the toolchain that built the suite.
    pub rustc: String,
    /// Git commit the working tree was at, or "unknown".
    pub git_sha: String,
}

/// One measured case: [`default_repeats`] timed executions (after one
/// warm-up), summarized as median / min / max nanoseconds per execution.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Stable identifier ledger entries are matched on, e.g.
    /// `dft-ddl-n4096`.
    pub id: String,
    /// Kernel set the case ran on: `scalar` | `avx2`
    /// ([`ddl_core::kernel_set_for`] the case's transform; `scalar` for
    /// the wisdom case, which runs no kernel).
    pub backend: String,
    /// Median wall-clock nanoseconds over the repeats.
    pub median_ns: f64,
    /// Fastest repeat.
    pub min_ns: f64,
    /// Slowest repeat.
    pub max_ns: f64,
}

/// A full suite run: label, mode, host fingerprint and measured cases.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Free-form run label (`--label`), e.g. a branch name or date.
    pub label: String,
    /// Whether this was a `--quick` run (smaller sizes, fewer repeats);
    /// quick and full runs are not comparable.
    pub quick: bool,
    /// Host the numbers were measured on.
    pub env: BenchEnv,
    /// Measured cases in suite order.
    pub cases: Vec<BenchCase>,
}

/// Median-of-k repeat count: 3 in quick mode, 7 in full mode.
pub fn default_repeats(quick: bool) -> u32 {
    if quick {
        3
    } else {
        7
    }
}

/// The pinned size sweep (log2): `4..=20` stepping by 2 in full mode, a
/// three-point subset in quick mode. Both cover the paper's in-cache /
/// out-of-cache transition on typical hosts.
pub fn suite_log_sizes(quick: bool) -> Vec<u32> {
    if quick {
        vec![4, 8, 12]
    } else {
        (4..=20).step_by(2).collect()
    }
}

/// Runs the pinned suite: every `(transform, strategy, size)` triple
/// from [`suite_log_sizes`], plus one batch-engine case and one
/// wisdom-hit case, each over [`default_repeats`]. Plans use the
/// analytical model so the *measured* quantity is execution, not planner
/// noise.
pub fn run_suite(label: &str, quick: bool) -> Result<BenchReport, DdlError> {
    let repeats = default_repeats(quick);
    let mut cases = Vec::new();
    for &log in &suite_log_sizes(quick) {
        let n = 1usize << log;
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            cases.push(dft_case(n, strategy, repeats)?);
            cases.push(wht_case(n, strategy, repeats)?);
        }
    }
    cases.push(batch_case(repeats)?);
    cases.push(wisdom_case(repeats)?);
    Ok(BenchReport {
        label: label.to_string(),
        quick,
        env: BenchEnv {
            cpu: host::cpu_model(),
            rustc: host::rustc_version(),
            git_sha: host::git_sha(),
        },
        cases,
    })
}

fn planner_cfg(strategy: Strategy) -> PlannerConfig {
    match strategy {
        Strategy::Sdl => PlannerConfig::sdl_analytical(),
        Strategy::Ddl => PlannerConfig::ddl_analytical(),
    }
}

/// Deterministic non-constant input so executions touch real data.
fn dft_input(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64 * -0.5))
        .collect()
}

fn wht_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 17) as f64 - 8.0).collect()
}

/// One warm-up call, then `repeats` timed calls; returns
/// `(median, min, max)` nanoseconds.
fn time_median_ns<F>(repeats: u32, mut f: F) -> Result<(f64, f64, f64), DdlError>
where
    F: FnMut() -> Result<(), DdlError>,
{
    f()?; // warm-up: page in buffers, twiddles and code
    let reps = repeats.max(1);
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    Ok(summary(&mut samples))
}

/// Sorts in place and returns `(median, min, max)`; zeros when empty.
fn summary(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let min = samples.first().copied().unwrap_or(0.0);
    let max = samples.last().copied().unwrap_or(0.0);
    let median = match samples.len() {
        0 => 0.0,
        len if len % 2 == 1 => samples[len / 2],
        len => (samples[len / 2 - 1] + samples[len / 2]) / 2.0,
    };
    (median, min, max)
}

/// Measures one DFT case.
fn dft_case(n: usize, strategy: Strategy, repeats: u32) -> Result<BenchCase, DdlError> {
    let outcome = try_plan_dft(n, &planner_cfg(strategy))?;
    let plan = DftPlan::new(outcome.tree, Direction::Forward)?;
    let input = dft_input(n);
    let mut output = vec![Complex64::ZERO; n];
    let (median_ns, min_ns, max_ns) =
        time_median_ns(repeats, || plan.try_execute(&input, &mut output))?;
    Ok(BenchCase {
        id: format!("dft-{}-n{n}", strategy.label()),
        backend: kernel_set_for(TransformKind::Dft(Direction::Forward)).into(),
        median_ns,
        min_ns,
        max_ns,
    })
}

fn wht_case(n: usize, strategy: Strategy, repeats: u32) -> Result<BenchCase, DdlError> {
    let outcome = try_plan_wht(n, &planner_cfg(strategy))?;
    let plan = WhtPlan::new(outcome.tree)?;
    let base = wht_input(n);
    let mut data = base.clone();
    let (median_ns, min_ns, max_ns) = time_median_ns(repeats, || {
        // In-place transform: restore the input so every repeat runs the
        // same numbers (the copy is timed, uniformly across repeats).
        data.copy_from_slice(&base);
        plan.try_execute(&mut data)
    })?;
    Ok(BenchCase {
        id: format!("wht-{}-n{n}", strategy.label()),
        backend: kernel_set_for(TransformKind::Wht).into(),
        median_ns,
        min_ns,
        max_ns,
    })
}

/// Batch engine: [`BATCH_SIGNALS`] independent DFTs over
/// [`BATCH_THREADS`] workers — covers queueing plus panic containment
/// overhead, the extension path the per-plan cases miss.
fn batch_case(repeats: u32) -> Result<BenchCase, DdlError> {
    let n = SERVICE_CASE_N;
    let outcome = try_plan_dft(n, &planner_cfg(Strategy::Ddl))?;
    let plan = DftPlan::new(outcome.tree, Direction::Forward)?;
    let inputs = dft_input(n * BATCH_SIGNALS);
    let mut outputs = vec![Complex64::ZERO; n * BATCH_SIGNALS];
    let opts = BatchOptions::with_threads(BATCH_THREADS);
    let (median_ns, min_ns, max_ns) = time_median_ns(repeats, || {
        try_execute_dft_batch(&plan, &inputs, &mut outputs, &opts).map(|_| ())
    })?;
    Ok(BenchCase {
        id: format!("dft-batch-n{n}-s{BATCH_SIGNALS}-t{BATCH_THREADS}"),
        backend: kernel_set_for(TransformKind::Dft(Direction::Forward)).into(),
        median_ns,
        min_ns,
        max_ns,
    })
}

/// Wisdom hit path: recall of an already-planned tree, the latency every
/// warm-start consumer pays instead of a search.
fn wisdom_case(repeats: u32) -> Result<BenchCase, DdlError> {
    let n = SERVICE_CASE_N;
    let cfg = planner_cfg(Strategy::Ddl);
    let mut wisdom = Wisdom::default();
    wisdom.get_or_plan_dft(n, &cfg)?; // populate: miss + plan
    let (median_ns, min_ns, max_ns) =
        time_median_ns(repeats, || wisdom.get_or_plan_dft(n, &cfg).map(|_| ()))?;
    Ok(BenchCase {
        id: format!("wisdom-hit-dft-n{n}"),
        // A plan recall runs no kernel.
        backend: "scalar".into(),
        median_ns,
        min_ns,
        max_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_handles_odd_even_and_empty() {
        assert_eq!(summary(&mut []), (0.0, 0.0, 0.0));
        assert_eq!(summary(&mut [5.0, 1.0, 3.0]), (3.0, 1.0, 5.0));
        assert_eq!(summary(&mut [4.0, 2.0]), (3.0, 2.0, 4.0));
    }

    #[test]
    fn quick_suite_runs_end_to_end() {
        let report = run_suite("unit", true).unwrap();
        assert!(report.quick);
        // 3 sizes x 2 transforms x 2 strategies + batch + wisdom
        assert_eq!(report.cases.len(), 14);
        assert!(report.cases.iter().all(|c| c.median_ns > 0.0));
        assert!(report
            .cases
            .iter()
            .any(|c| c.id.starts_with("dft-batch") || c.id.starts_with("wisdom")));
        // DFT cases carry the kernel set this process runs.
        for c in report.cases.iter().filter(|c| c.id.starts_with("dft")) {
            assert_eq!(c.backend, ddl_core::kernel_set(), "case {}", c.id);
        }
        assert!(report.cases.iter().any(|c| c.id == "dft-ddl-n256"));
    }
}
