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
    // WHT points are 8-byte f64s: widen the model geometry accordingly.
    let model = CacheModel {
        capacity_points: cal.model.capacity_points * 2,
        line_points: cal.model.line_points * 2,
        ..cal.model
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
