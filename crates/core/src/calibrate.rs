//! Cost-model calibration: predicted vs measured per-stage costs.
//!
//! The planner is only as good as its Eq. (2)/(3) cost model, so this
//! module makes the model's drift a *measured number*: calibrating a
//! compiled plan fills two sections of its `ddl-report` plan record
//! ([`crate::reports`]) —
//!
//! 1. **`model`** — [`CacheModel::dft_stage_cost_ns`] /
//!    [`CacheModel::wht_stage_cost_ns`], the closed-form per-stage
//!    prediction;
//! 2. **`measured`** — the median-wall-clock run of `k`
//!    [`DftPlan::try_profile_with`] / [`WhtPlan::try_profile_with`]
//!    runs, whose recorders time the same leaf/twiddle/reorg stages on
//!    the real machine.
//!
//! The caller may add the simulated `sim` section of the same tree
//! ([`crate::attrib`]); the report renders the per-stage relative error
//! between (1) and (2) ([`crate::reports::Report::render_calibration`]),
//! so a cost-model regression shows up as a diff in CI artifacts, not as
//! a mystery mis-plan three PRs later.

use crate::dft::DftPlan;
use crate::model::CacheModel;
use crate::obs::{ExecutionMetrics, Recorder};
use crate::reports::PlanRecord;
use crate::wht::WhtPlan;
use ddl_num::{Complex64, DdlError};

/// How a calibration run measures.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationConfig {
    /// Profiled executions per plan; the *median* run by wall clock is
    /// reported (median-of-k is the noise control — one preempted run
    /// cannot skew the report).
    pub repeats: u32,
    /// Analytical model under calibration.
    pub model: CacheModel,
}

impl CalibrationConfig {
    /// Paper-default model, 5 profiled repeats.
    pub fn paper_default() -> Self {
        CalibrationConfig {
            repeats: 5,
            model: CacheModel::paper_default(),
        }
    }

    /// The host model the analytical planner prices with
    /// ([`CacheModel::host`]), 5 profiled repeats.
    pub fn host() -> Self {
        CalibrationConfig {
            model: CacheModel::host(),
            ..CalibrationConfig::paper_default()
        }
    }
}

/// Profiles `repeats` (at least one) executions and keeps the run with
/// the median wall clock. Its stage split is that one run's, so the
/// stages sum to at most its total — an invariant per-stage medians
/// taken across different runs would not keep.
fn median_run(
    repeats: u32,
    mut profile: impl FnMut() -> Result<ExecutionMetrics, DdlError>,
) -> Result<ExecutionMetrics, DdlError> {
    let repeats = repeats.max(1);
    let mut runs = (0..repeats)
        .map(|_| profile())
        .collect::<Result<Vec<_>, _>>()?;
    runs.sort_by_key(|m| m.total_ns);
    let mut median = runs.swap_remove(runs.len() / 2);
    median.repeats = repeats;
    Ok(median)
}

/// Calibrates the cost model on one compiled DFT: a plan record for
/// `plan` (planned under `strategy`) carrying the analytical per-stage
/// prediction and the median measured run.
pub fn calibrate_dft(
    plan: &DftPlan,
    strategy: &str,
    cal: &CalibrationConfig,
) -> Result<PlanRecord, DdlError> {
    let n = plan.n();
    let input: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i % 89) as f64 * 0.25, (i % 61) as f64 * -0.125))
        .collect();
    let mut output = vec![Complex64::ZERO; n];
    // warm-up run: fault in buffers and tables before measuring
    plan.try_execute(&input, &mut output)?;
    let measured = median_run(cal.repeats, || {
        plan.try_profile_with(&input, &mut output, &mut Recorder::new())
    })?;
    let mut record = PlanRecord::dft(plan, strategy);
    record.model = Some(cal.model.dft_stage_cost_ns(plan.tree(), 1));
    record.measured = Some(measured);
    Ok(record)
}

/// WHT counterpart of [`calibrate_dft`].
pub fn calibrate_wht(
    plan: &WhtPlan,
    strategy: &str,
    cal: &CalibrationConfig,
) -> Result<PlanRecord, DdlError> {
    // WHT points are 8-byte f64s. The host model converts its geometry
    // per kind; the paper model's is in 16-byte points, so widen it.
    let model = match cal.model.fit {
        Some(_) => cal.model,
        None => CacheModel {
            capacity_points: cal.model.capacity_points * 2,
            line_points: cal.model.line_points * 2,
            ..cal.model
        },
    };
    let base: Vec<f64> = (0..plan.n())
        .map(|i| (i % 101) as f64 * 0.5 - 20.0)
        .collect();
    let mut data = base.clone();
    plan.try_execute(&mut data)?;
    let measured = median_run(cal.repeats, || {
        data.copy_from_slice(&base);
        plan.try_profile_with(&mut data, &mut Recorder::new())
    })?;
    let mut record = PlanRecord::wht(plan, strategy);
    record.model = Some(model.wht_stage_cost_ns(plan.tree(), 1));
    record.measured = Some(measured);
    Ok(record)
}

/// Kendall's τ-b between two rankings of the same items: `+1` when
/// `a` and `b` order every pair alike, `-1` when they order every pair
/// oppositely, with ties in either corrected for (Table I's check that
/// the cost model ranks trees as the clock does). Zero when either side
/// is all ties.
pub fn kendall_tau_b(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "kendall_tau_b: rankings of different lengths"
    );
    let (mut concordant, mut discordant, mut ties_a, mut ties_b) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let (da, db) = (a[i].total_cmp(&a[j]), b[i].total_cmp(&b[j]));
            use std::cmp::Ordering::Equal;
            match (da, db) {
                (Equal, Equal) => {}
                (Equal, _) => ties_a += 1,
                (_, Equal) => ties_b += 1,
                _ if da == db => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = (concordant + discordant) as f64;
    let denom = ((n0 + ties_a as f64) * (n0 + ties_b as f64)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_plan_dft, try_plan_wht, PlannerConfig};
    use ddl_num::Direction;

    fn cal() -> CalibrationConfig {
        CalibrationConfig {
            repeats: 3,
            ..CalibrationConfig::paper_default()
        }
    }

    #[test]
    fn kendall_tau_b_counts_pairs_and_ties() {
        assert_eq!(kendall_tau_b(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau_b(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), -1.0);
        // 2 concordant, 1 discordant of 3 pairs
        let tau = kendall_tau_b(&[1.0, 2.0, 3.0], &[1.0, 3.0, 2.0]);
        assert!((tau - 1.0 / 3.0).abs() < 1e-12);
        // a tie in one ranking: (1 - 0) / sqrt((1 + 2) * (1 + 2 - 2 + ...))
        let tau = kendall_tau_b(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert!((tau - 2.0 / (2.0f64 * 3.0).sqrt()).abs() < 1e-12, "{tau}");
        assert_eq!(kendall_tau_b(&[5.0, 5.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn median_run_keeps_one_whole_run() {
        let mut totals = [30u64, 10, 20].into_iter();
        let m = median_run(3, || {
            let total_ns = totals.next().unwrap();
            let mut r = ExecutionMetrics::from_recorder(total_ns, &Recorder::new(), 0);
            r.stages.leaf_ns = total_ns / 2;
            Ok(r)
        })
        .unwrap();
        assert_eq!((m.total_ns, m.stages.leaf_ns, m.repeats), (20, 10, 3));
        // zero repeats still profiles once
        let one = median_run(0, || {
            Ok(ExecutionMetrics::from_recorder(7, &Recorder::new(), 0))
        });
        assert_eq!(one.unwrap().repeats, 1);
    }

    #[test]
    fn calibrate_small_dft_produces_consistent_record() {
        let cfg = PlannerConfig::ddl_analytical();
        let plan =
            DftPlan::new(try_plan_dft(1 << 8, &cfg).unwrap().tree, Direction::Forward).unwrap();
        let record = calibrate_dft(&plan, "ddl", &cal()).unwrap();
        assert_eq!((record.transform.as_str(), record.n), ("dft", 256));
        let model = record.model.unwrap();
        let measured = record.measured.unwrap();
        assert!(model.leaf_ns > 0.0);
        assert!(measured.stages.leaf_ns > 0);
        assert!(measured.total_ns >= measured.stages.stage_sum_ns());
        assert_eq!(measured.repeats, 3);
    }

    #[test]
    fn calibrate_small_wht_produces_consistent_record() {
        let cfg = PlannerConfig::sdl_analytical();
        let plan = WhtPlan::new(try_plan_wht(1 << 8, &cfg).unwrap().tree).unwrap();
        let record = calibrate_wht(&plan, "sdl", &cal()).unwrap();
        assert_eq!(record.transform, "wht");
        assert!(record.tree.starts_with("split("), "{}", record.tree);
        let measured = record.measured.unwrap();
        assert_eq!(measured.stages.twiddle_ns, 0, "WHT has no twiddle stage");
        assert!(measured.stages.leaf_ns > 0);
    }
}
