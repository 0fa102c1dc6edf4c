//! Cost-model calibration: predicted vs measured per-stage costs.
//!
//! The planner is only as good as its Eq. (2)/(3) cost model, so this
//! module makes the model's drift a *measured number*: one calibration
//! case runs a planned tree three ways —
//!
//! 1. **analytical** — [`CacheModel::dft_stage_cost_ns`] /
//!    [`CacheModel::wht_stage_cost_ns`], the closed-form per-stage
//!    prediction;
//! 2. **measured** — median-of-k [`DftPlan::try_profile_with`] /
//!    [`WhtPlan::try_profile_with`] runs, whose recorders time the same
//!    leaf/twiddle/reorg stages on the real machine;
//! 3. **simulated** — the cache simulator replaying the exact access
//!    stream, giving architecture-independent access/miss counts;
//!
//! — and reports the per-stage relative error between (1) and (2)
//! alongside (3). The aggregate serializes under the versioned
//! `ddl-calibration` schema (see DESIGN.md's "Performance tracking"),
//! so a cost-model regression shows up as a diff in CI artifacts, not
//! as a mystery mis-plan three PRs later.

use crate::dft::DftPlan;
use crate::model::{CacheModel, StageCost};
use crate::obs::{get_f64, get_str, get_u64, metrics_err, obj, Recorder};
use crate::planner::{try_plan_dft, try_plan_wht, PlannerConfig};
use crate::wht::WhtPlan;
use crate::{json, json::Json, traced};
use ddl_cachesim::CacheConfig;
use ddl_num::{Complex64, DdlError, Direction};
use std::collections::BTreeMap;

/// Schema identifier carried by every calibration report.
pub const CALIBRATION_SCHEMA: &str = "ddl-calibration";

/// Current schema version; readers refuse anything newer.
pub const CALIBRATION_VERSION: u32 = 1;

/// How a calibration run measures and simulates.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationConfig {
    /// Profiled executions per case; the *median* per-stage times are
    /// reported (median-of-k is the noise control — one preempted run
    /// cannot skew the report).
    pub repeats: u32,
    /// Analytical model under calibration.
    pub model: CacheModel,
    /// Geometry of the reference cache simulation.
    pub cache: CacheConfig,
}

impl CalibrationConfig {
    /// Paper-default model and simulated cache, 5 profiled repeats.
    pub fn paper_default() -> Self {
        CalibrationConfig {
            repeats: 5,
            model: CacheModel::paper_default(),
            cache: CacheConfig::paper_default(64),
        }
    }
}

/// One stage's predicted-vs-measured pair, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageCalibration {
    /// Analytical prediction for the whole transform.
    pub predicted_ns: f64,
    /// Median measured time across the profiled repeats.
    pub measured_ns: f64,
}

impl StageCalibration {
    /// Signed relative error `(predicted - measured) / measured`;
    /// zero when nothing was measured (a stage the tree never runs).
    pub fn rel_error(&self) -> f64 {
        if self.measured_ns > 0.0 {
            (self.predicted_ns - self.measured_ns) / self.measured_ns
        } else {
            0.0
        }
    }
}

/// One calibrated `(transform, n, strategy)` case.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationCase {
    /// `"dft"` or `"wht"`.
    pub transform: String,
    /// Transform size.
    pub n: usize,
    /// Planner strategy that produced the tree (`"sdl"` / `"ddl"`).
    pub strategy: String,
    /// The calibrated tree, as a grammar expression.
    pub tree: String,
    /// Profiled repeats behind the medians.
    pub repeats: u32,
    /// Leaf-stage prediction vs measurement.
    pub leaf: StageCalibration,
    /// Twiddle-stage prediction vs measurement.
    pub twiddle: StageCalibration,
    /// Reorganization-stage prediction vs measurement.
    pub reorg: StageCalibration,
    /// Whole-transform prediction vs measured wall clock.
    pub total: StageCalibration,
    /// Simulated memory accesses of one execution.
    pub sim_accesses: u64,
    /// Simulated cache misses of one execution.
    pub sim_misses: u64,
}

impl CalibrationCase {
    /// The per-stage pairs with their stable stage names.
    pub fn stages(&self) -> [(&'static str, StageCalibration); 3] {
        [
            ("leaf", self.leaf),
            ("twiddle", self.twiddle),
            ("reorg", self.reorg),
        ]
    }
}

/// The serializable aggregate of one calibration run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CalibrationReport {
    /// Caller-chosen label (e.g. a git sha or suite label).
    pub label: String,
    /// One entry per calibrated case.
    pub cases: Vec<CalibrationCase>,
}

impl CalibrationReport {
    /// Serializes to the versioned `ddl-calibration` JSON document.
    pub fn to_json(&self) -> Json {
        let mut top = BTreeMap::new();
        top.insert("schema".into(), Json::Str(CALIBRATION_SCHEMA.into()));
        top.insert("version".into(), Json::Num(CALIBRATION_VERSION as f64));
        top.insert("label".into(), Json::Str(self.label.clone()));
        top.insert(
            "cases".into(),
            Json::Arr(self.cases.iter().map(case_to_json).collect()),
        );
        Json::Obj(top)
    }

    /// Serializes to pretty-printed JSON text.
    pub fn to_pretty_json(&self) -> String {
        self.to_json().pretty()
    }

    /// Parses and validates a `ddl-calibration` document. Errors name
    /// the offending JSON path (e.g. `$.cases[1].leaf.predicted_ns`).
    pub fn parse(text: &str) -> Result<CalibrationReport, DdlError> {
        let doc = json::parse(text).map_err(|e| metrics_err(format!("not JSON: {e}")))?;
        let top = doc
            .as_obj()
            .ok_or_else(|| metrics_err("$: top level is not an object".into()))?;
        match top.get("schema").and_then(Json::as_str) {
            Some(CALIBRATION_SCHEMA) => {}
            Some(s) => {
                return Err(metrics_err(format!(
                    "$.schema: unknown schema {s:?} (expected {CALIBRATION_SCHEMA:?})"
                )))
            }
            None => return Err(metrics_err("$.schema: missing or non-string".into())),
        }
        let version = top
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| metrics_err("$.version: missing or non-integer".into()))?;
        if version > CALIBRATION_VERSION as u64 {
            return Err(metrics_err(format!(
                "$.version: report version {version} is newer than supported {CALIBRATION_VERSION}"
            )));
        }
        let label = get_str(top, "$", "label")?;
        let cases = match top.get("cases") {
            Some(Json::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| case_from_json(v, i))
                .collect::<Result<_, _>>()?,
            _ => return Err(metrics_err("$.cases: missing or non-array".into())),
        };
        Ok(CalibrationReport { label, cases })
    }

    /// Writes the pretty-printed report to `path`.
    pub fn write(&self, path: &std::path::Path) -> Result<(), DdlError> {
        std::fs::write(path, self.to_pretty_json())
            .map_err(|e| metrics_err(format!("cannot write {}: {e}", path.display())))
    }
}

fn pair_to_json(p: StageCalibration) -> Json {
    let mut m = BTreeMap::new();
    m.insert("predicted_ns".into(), Json::Num(p.predicted_ns));
    m.insert("measured_ns".into(), Json::Num(p.measured_ns));
    m.insert("rel_error".into(), Json::Num(p.rel_error()));
    Json::Obj(m)
}

fn pair_from_json(v: &Json, path: &str) -> Result<StageCalibration, DdlError> {
    let m = obj(v, path)?;
    Ok(StageCalibration {
        predicted_ns: get_f64(m, path, "predicted_ns")?,
        measured_ns: get_f64(m, path, "measured_ns")?,
    })
}

fn case_to_json(c: &CalibrationCase) -> Json {
    let mut m = BTreeMap::new();
    m.insert("transform".into(), Json::Str(c.transform.clone()));
    m.insert("n".into(), Json::Num(c.n as f64));
    m.insert("strategy".into(), Json::Str(c.strategy.clone()));
    m.insert("tree".into(), Json::Str(c.tree.clone()));
    m.insert("repeats".into(), Json::Num(c.repeats as f64));
    m.insert("leaf".into(), pair_to_json(c.leaf));
    m.insert("twiddle".into(), pair_to_json(c.twiddle));
    m.insert("reorg".into(), pair_to_json(c.reorg));
    m.insert("total".into(), pair_to_json(c.total));
    m.insert("sim_accesses".into(), Json::Num(c.sim_accesses as f64));
    m.insert("sim_misses".into(), Json::Num(c.sim_misses as f64));
    Json::Obj(m)
}

fn case_from_json(v: &Json, i: usize) -> Result<CalibrationCase, DdlError> {
    let path = format!("$.cases[{i}]");
    let m = obj(v, &path)?;
    let field = |key: &str| -> Result<&Json, DdlError> {
        m.get(key)
            .ok_or_else(|| metrics_err(format!("{path}.{key}: missing")))
    };
    Ok(CalibrationCase {
        transform: get_str(m, &path, "transform")?,
        n: get_u64(m, &path, "n")? as usize,
        strategy: get_str(m, &path, "strategy")?,
        tree: get_str(m, &path, "tree")?,
        repeats: get_u64(m, &path, "repeats")? as u32,
        leaf: pair_from_json(field("leaf")?, &format!("{path}.leaf"))?,
        twiddle: pair_from_json(field("twiddle")?, &format!("{path}.twiddle"))?,
        reorg: pair_from_json(field("reorg")?, &format!("{path}.reorg"))?,
        total: pair_from_json(field("total")?, &format!("{path}.total"))?,
        sim_accesses: get_u64(m, &path, "sim_accesses")?,
        sim_misses: get_u64(m, &path, "sim_misses")?,
    })
}

/// Median of a sample set; 0 for an empty set. (Middle element for odd
/// counts, mean of the middle pair for even.)
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

struct Measured {
    leaf: Vec<f64>,
    twiddle: Vec<f64>,
    reorg: Vec<f64>,
    total: Vec<f64>,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            leaf: Vec::new(),
            twiddle: Vec::new(),
            reorg: Vec::new(),
            total: Vec::new(),
        }
    }

    fn finish(mut self, predicted: StageCost, predicted_total: f64) -> CaseNumbers {
        CaseNumbers {
            leaf: StageCalibration {
                predicted_ns: predicted.leaf_ns,
                measured_ns: median(&mut self.leaf),
            },
            twiddle: StageCalibration {
                predicted_ns: predicted.twiddle_ns,
                measured_ns: median(&mut self.twiddle),
            },
            reorg: StageCalibration {
                predicted_ns: predicted.reorg_ns,
                measured_ns: median(&mut self.reorg),
            },
            total: StageCalibration {
                predicted_ns: predicted_total,
                measured_ns: median(&mut self.total),
            },
        }
    }
}

struct CaseNumbers {
    leaf: StageCalibration,
    twiddle: StageCalibration,
    reorg: StageCalibration,
    total: StageCalibration,
}

/// Calibrates the cost model on one planned DFT: plans `n` under `cfg`,
/// then compares the analytical per-stage prediction with median
/// measured stage times and the simulated access/miss counts.
pub fn calibrate_dft(
    n: usize,
    cfg: &PlannerConfig,
    cal: &CalibrationConfig,
) -> Result<CalibrationCase, DdlError> {
    let outcome = try_plan_dft(n, cfg)?;
    let plan = DftPlan::new(outcome.tree.clone(), Direction::Forward)?;
    let predicted = cal.model.dft_stage_cost_ns(plan.tree(), 1);

    let input: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i % 89) as f64 * 0.25, (i % 61) as f64 * -0.125))
        .collect();
    let mut output = vec![Complex64::ZERO; n];
    // warm-up run: fault in buffers and tables before measuring
    plan.try_execute(&input, &mut output)?;
    let mut measured = Measured::new();
    for _ in 0..cal.repeats.max(1) {
        let mut recorder = Recorder::new();
        let m = plan.try_profile_with(&input, &mut output, &mut recorder)?;
        measured.leaf.push(m.stages.leaf_ns as f64);
        measured.twiddle.push(m.stages.twiddle_ns as f64);
        measured.reorg.push(m.stages.reorg_ns as f64);
        measured.total.push(m.total_ns as f64);
    }
    let nums = measured.finish(predicted, cal.model.tree_cost_ns(plan.tree(), 1));
    let stats = traced::simulate_dft(&plan, 1, cal.cache)?;
    Ok(CalibrationCase {
        transform: "dft".into(),
        n,
        strategy: cfg.strategy.label().into(),
        tree: outcome.tree.to_string(),
        repeats: cal.repeats.max(1),
        leaf: nums.leaf,
        twiddle: nums.twiddle,
        reorg: nums.reorg,
        total: nums.total,
        sim_accesses: stats.accesses,
        sim_misses: stats.misses,
    })
}

/// WHT counterpart of [`calibrate_dft`].
pub fn calibrate_wht(
    n: usize,
    cfg: &PlannerConfig,
    cal: &CalibrationConfig,
) -> Result<CalibrationCase, DdlError> {
    let outcome = try_plan_wht(n, cfg)?;
    let plan = WhtPlan::new(outcome.tree.clone())?;
    // WHT points are 8-byte f64s: widen the model geometry accordingly.
    let model = CacheModel {
        capacity_points: cal.model.capacity_points * 2,
        line_points: cal.model.line_points * 2,
        ..cal.model
    };
    let predicted = model.wht_stage_cost_ns(plan.tree(), 1);

    let base: Vec<f64> = (0..n).map(|i| (i % 101) as f64 * 0.5 - 20.0).collect();
    let mut data = base.clone();
    plan.try_execute(&mut data)?;
    let mut measured = Measured::new();
    for _ in 0..cal.repeats.max(1) {
        data.copy_from_slice(&base);
        let mut recorder = Recorder::new();
        let m = plan.try_profile_with(&mut data, &mut recorder)?;
        measured.leaf.push(m.stages.leaf_ns as f64);
        measured.twiddle.push(m.stages.twiddle_ns as f64);
        measured.reorg.push(m.stages.reorg_ns as f64);
        measured.total.push(m.total_ns as f64);
    }
    let nums = measured.finish(predicted, model.wht_tree_cost_ns(plan.tree(), 1));
    let stats = traced::simulate_wht(&plan, 1, cal.cache)?;
    Ok(CalibrationCase {
        transform: "wht".into(),
        n,
        strategy: cfg.strategy.label().into(),
        tree: crate::grammar::print_wht(&outcome.tree),
        repeats: cal.repeats.max(1),
        leaf: nums.leaf,
        twiddle: nums.twiddle,
        reorg: nums.reorg,
        total: nums.total,
        sim_accesses: stats.accesses,
        sim_misses: stats.misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> CalibrationCase {
        CalibrationCase {
            transform: "dft".into(),
            n: 1024,
            strategy: "ddl".into(),
            tree: "ct(32, 32)".into(),
            repeats: 3,
            leaf: StageCalibration {
                predicted_ns: 1000.0,
                measured_ns: 800.0,
            },
            twiddle: StageCalibration {
                predicted_ns: 200.0,
                measured_ns: 250.0,
            },
            reorg: StageCalibration {
                predicted_ns: 0.0,
                measured_ns: 0.0,
            },
            total: StageCalibration {
                predicted_ns: 1200.0,
                measured_ns: 1100.0,
            },
            sim_accesses: 4096,
            sim_misses: 512,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = CalibrationReport {
            label: "test".into(),
            cases: vec![sample_case()],
        };
        let text = report.to_pretty_json();
        let back = CalibrationReport::parse(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn rel_error_is_signed_and_guarded() {
        let over = StageCalibration {
            predicted_ns: 150.0,
            measured_ns: 100.0,
        };
        assert!((over.rel_error() - 0.5).abs() < 1e-12);
        let unmeasured = StageCalibration {
            predicted_ns: 10.0,
            measured_ns: 0.0,
        };
        assert_eq!(unmeasured.rel_error(), 0.0);
    }

    #[test]
    fn schema_violations_name_the_path() {
        for (doc, needle) in [
            ("{}", "$.schema"),
            (r#"{"schema": "ddl-calibration"}"#, "$.version"),
            (
                r#"{"schema": "ddl-calibration", "version": 1, "label": "x"}"#,
                "$.cases",
            ),
            (
                r#"{"schema": "ddl-calibration", "version": 1, "label": "x",
                    "cases": [{"transform": "dft"}]}"#,
                "$.cases[0]",
            ),
        ] {
            let got = CalibrationReport::parse(doc);
            let detail = match got {
                Err(DdlError::Metrics { ref detail }) => detail.clone(),
                other => panic!("expected Metrics error, got {other:?}"),
            };
            assert!(detail.contains(needle), "{detail:?} misses {needle:?}");
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn calibrate_small_dft_produces_consistent_case() {
        let cal = CalibrationConfig {
            repeats: 2,
            ..CalibrationConfig::paper_default()
        };
        let case = calibrate_dft(1 << 8, &PlannerConfig::ddl_analytical(), &cal).unwrap();
        assert_eq!(case.transform, "dft");
        assert_eq!(case.n, 256);
        assert!(case.leaf.predicted_ns > 0.0);
        assert!(case.leaf.measured_ns > 0.0);
        assert!(case.total.measured_ns >= case.leaf.measured_ns);
        assert!(case.sim_accesses > 0);
    }

    #[test]
    fn calibrate_small_wht_produces_consistent_case() {
        let cal = CalibrationConfig {
            repeats: 2,
            ..CalibrationConfig::paper_default()
        };
        let case = calibrate_wht(1 << 8, &PlannerConfig::sdl_analytical(), &cal).unwrap();
        assert_eq!(case.transform, "wht");
        assert_eq!(case.twiddle.measured_ns, 0.0, "WHT has no twiddle stage");
        assert!(case.leaf.measured_ns > 0.0);
    }
}
