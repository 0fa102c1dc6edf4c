//! The `ddl-report` envelope, and one validator for every versioned
//! report schema in the workspace.
//!
//! The paper reasons one factorization tree at a time: Table I puts the
//! model's time next to the measured time of each tree, Sec. III-B
//! classifies each leaf's `(size, stride)` access, Table II counts each
//! tree's accesses and misses. A [`Report`] holds one [`PlanRecord`] per
//! tree, which names the transform, size, strategy and tree once and
//! carries whichever sections its producers filled:
//!
//! * `planner` — the search that chose the tree ([`PlannerRunMetrics`]);
//! * `measured` — one profiled execution, or the median run of several
//!   ([`ExecutionMetrics`]);
//! * `model` — the Eq. (2)/(3) per-stage prediction ([`StageCost`]);
//! * `sim` — the per-node simulated L1/L2/TLB counters and Case classes
//!   ([`AttributionRun`]);
//! * `fit` — the host's L1/L2 and the per-point costs `bench_suite fit`
//!   measured ([`HostFit`]), the data the host cost model prices with.
//!   Its record names no plan (`transform` `"host"`, `n` 0).
//!
//! Raw counters ride in the same envelope. The
//! calibration error lines and the hierarchy scorecard are renderings of
//! the records ([`Report::render_calibration`], [`Report::render_scorecard`]),
//! not documents of their own. [`Report::parse`] re-verifies every
//! invariant the writer promised — measured stages within their wall
//! clock, and simulated counts conserved per node at every level.
//!
//! [`check_report`] is the single entry point the CI `--check` modes
//! use: it sniffs the schema and routes to the matching parser. Schemas
//! owned by downstream crates (`ddl-bench`'s `ddl-trajectory` ledger,
//! `ddl-cert`) come back as [`CheckedReport::Unknown`] with the schema
//! string, letting the caller layer its own dispatch on top without
//! double-parsing.

use crate::attrib::{AttributionRun, CaseClass, HierarchyAttribution, NodeAttribution};
use crate::dft::DftPlan;
use crate::flight::{FlightDump, FLIGHT_SCHEMA};
use crate::histo::{TelemetryReport, TELEMETRY_SCHEMA};
use crate::json::{self, Json};
use crate::model::{CacheLevel, HostFit, StageCost, RESIDENCY_LEVELS, STRIDE_CLASSES};
use crate::obs::{metrics_err, ExecutionMetrics, PlannerRunMetrics, StageBreakdown};
use crate::rfft::RfftPlan;
use crate::trace::{validate_chrome_trace, TraceSummary};
use crate::wht::WhtPlan;
use ddl_cachesim::{CacheConfig, CacheStats, HierStats, HierarchyConfig};
use ddl_num::DdlError;
use std::collections::BTreeMap;
use std::path::Path;

/// Schema identifier of the report envelope.
pub const REPORT_SCHEMA: &str = "ddl-report";
/// Current envelope version; readers refuse anything newer.
pub const REPORT_VERSION: u32 = 1;

/// Everything one instrumented run learned, one record per plan tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Free-form label (e.g. `"ci"`).
    pub label: String,
    /// One record per plan tree, in production order.
    pub plans: Vec<PlanRecord>,
    /// Raw monotonic counters by dotted name.
    pub counters: BTreeMap<String, u64>,
}

/// What is known about one plan tree. Every section is optional: each
/// producer fills the ones it ran.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRecord {
    /// `"dft"`, `"wht"` or `"rfft"`.
    pub transform: String,
    /// Transform size.
    pub n: usize,
    /// Planner strategy behind the tree (`"sdl"` / `"ddl"`).
    pub strategy: String,
    /// The tree, as a grammar expression.
    pub tree: String,
    /// The search that chose the tree.
    pub planner: Option<PlannerRunMetrics>,
    /// One profiled execution, or the median run of `repeats`.
    pub measured: Option<ExecutionMetrics>,
    /// The cost model's per-stage prediction for the whole transform.
    pub model: Option<StageCost>,
    /// One simulated execution, attributed per tree node.
    pub sim: Option<AttributionRun>,
    /// The host cost model's fitted data.
    pub fit: Option<HostFit>,
}

impl PlanRecord {
    /// A record with every section empty.
    fn new(transform: &str, n: usize, strategy: &str, tree: String) -> PlanRecord {
        PlanRecord {
            transform: transform.to_string(),
            n,
            strategy: strategy.to_string(),
            tree,
            planner: None,
            measured: None,
            model: None,
            sim: None,
            fit: None,
        }
    }

    /// A record carrying `fit`, the host cost model's data.
    pub fn host_fit(fit: HostFit) -> PlanRecord {
        let mut record = PlanRecord::new("host", 0, "fit", String::new());
        record.fit = Some(fit);
        record
    }

    /// An empty record naming a compiled DFT plan.
    pub fn dft(plan: &DftPlan, strategy: &str) -> PlanRecord {
        PlanRecord::new("dft", plan.n(), strategy, plan.tree().to_string())
    }

    /// An empty record naming a compiled WHT plan.
    pub fn wht(plan: &WhtPlan, strategy: &str) -> PlanRecord {
        PlanRecord::new(
            "wht",
            plan.n(),
            strategy,
            crate::grammar::print_wht(plan.tree()),
        )
    }

    /// An empty record naming a real-FFT plan by its half-size complex
    /// tree, as `rfft(<tree>)`.
    pub fn rfft(plan: &RfftPlan, strategy: &str) -> PlanRecord {
        let tree = format!("rfft({})", plan.half_forward().tree());
        PlanRecord::new("rfft", plan.n(), strategy, tree)
    }
}

/// Signed relative error `(predicted - measured) / measured`; zero when
/// nothing was measured (a stage the tree never runs).
fn rel_error(predicted_ns: f64, measured_ns: u64) -> f64 {
    if measured_ns > 0 {
        (predicted_ns - measured_ns as f64) / measured_ns as f64
    } else {
        0.0
    }
}

impl Report {
    /// An empty report.
    pub fn new(label: &str) -> Report {
        Report {
            label: label.to_string(),
            ..Report::default()
        }
    }

    /// The record of `(transform, n, strategy)`, if present.
    pub fn find(&self, transform: &str, n: usize, strategy: &str) -> Option<&PlanRecord> {
        self.plans
            .iter()
            .find(|p| p.transform == transform && p.n == n && p.strategy == strategy)
    }

    /// One line per record that carries both a `model` and a `measured`
    /// section: the model's relative error on the whole transform and on
    /// each Eq. (2)/(3) stage.
    pub fn render_calibration(&self) -> String {
        let mut out = String::new();
        for p in &self.plans {
            let (Some(model), Some(m)) = (&p.model, &p.measured) else {
                continue;
            };
            out.push_str(&format!(
                "calibration {:<4} n={:<7} {:<4} total err {:>+7.1}%  (leaf {:+.1}%, twiddle {:+.1}%, reorg {:+.1}%)\n",
                p.transform,
                p.n,
                p.strategy,
                rel_error(model.total_ns(), m.total_ns) * 100.0,
                rel_error(model.leaf_ns, m.stages.leaf_ns) * 100.0,
                rel_error(model.twiddle_ns, m.stages.twiddle_ns) * 100.0,
                rel_error(model.reorg_ns, m.stages.reorg_ns) * 100.0,
            ));
        }
        out
    }

    /// The hierarchy scorecard: one row per simulated record with its
    /// whole-run miss rate at the simulated cache and at L1, L2 and the
    /// d-TLB, and its Case III leaf counts at line and page geometry.
    /// A record simulated at line level only is an error: it has no
    /// L1/L2/TLB story, and rendering zeros would fabricate one.
    pub fn render_scorecard(&self) -> Result<String, DdlError> {
        let mut out = format!("# Hierarchy scorecard: {}\n\n", self.label);
        out.push_str(&format!(
            "{:<5} {:>8} {:<5} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9}\n",
            "plan", "n", "strat", "cache-m%", "l1-m%", "l2-m%", "tlb-m%", "leaves", "case3 l/p"
        ));
        for p in &self.plans {
            let Some(sim) = &p.sim else { continue };
            let (Some(h), Some((_, case3_page))) = (&sim.hierarchy, sim.case3_leaf_counts_page())
            else {
                return Err(metrics_err(format!(
                    "plan {} n={} {} has no hierarchy attribution; the scorecard needs L1/L2/TLB counters",
                    p.transform, p.n, p.strategy
                )));
            };
            let (leaves, case3) = sim.case3_leaf_counts();
            out.push_str(&format!(
                "{:<5} {:>8} {:<5} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>7} {:>5}/{}\n",
                p.transform,
                p.n,
                p.strategy,
                sim.totals.miss_rate() * 100.0,
                h.totals.l1.miss_rate() * 100.0,
                h.totals.l2.miss_rate() * 100.0,
                h.totals.tlb.miss_rate() * 100.0,
                leaves,
                case3,
                case3_page
            ));
        }
        Ok(out)
    }

    /// Serializes to the versioned `ddl-report` JSON document.
    pub fn to_json(&self) -> Json {
        object(vec![
            ("schema", Json::Str(REPORT_SCHEMA.into())),
            ("version", num(REPORT_VERSION as u64)),
            ("label", Json::Str(self.label.clone())),
            (
                "plans",
                Json::Arr(self.plans.iter().map(record_to_json).collect()),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn to_text(&self) -> String {
        self.to_json().pretty()
    }

    /// Writes the pretty JSON document to `path`, creating parent
    /// directories as needed.
    pub fn write(&self, path: &Path) -> Result<(), DdlError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| metrics_err(format!("creating {}: {e}", parent.display())))?;
        }
        std::fs::write(path, self.to_text())
            .map_err(|e| metrics_err(format!("cannot write {}: {e}", path.display())))
    }

    /// Strict parse: schema/version gate, field validation, and the
    /// per-record invariant checks. Errors name the offending JSON path.
    /// A key it does not read is ignored, such as the `batches` array
    /// that `crates/core/data/host-fit.json` still carries.
    pub fn parse(text: &str) -> Result<Report, DdlError> {
        let doc = json::parse(text).map_err(|e| metrics_err(format!("not JSON: {e}")))?;
        let top = obj(&doc, "$")?;
        let schema = get_str(top, "$", "schema")?;
        if schema != REPORT_SCHEMA {
            return Err(metrics_err(format!(
                "$.schema: unknown schema {schema:?} (expected {REPORT_SCHEMA:?})"
            )));
        }
        let version = get_u64(top, "$", "version")?;
        if version > REPORT_VERSION as u64 {
            return Err(metrics_err(format!(
                "$.version: report version {version} is newer than supported version {REPORT_VERSION}"
            )));
        }
        let counters = obj(field(top, "$", "counters")?, "$.counters")?
            .iter()
            .map(|(k, v)| match v.as_u64() {
                Some(v) => Ok((k.clone(), v)),
                None => Err(metrics_err(format!(
                    "$.counters.{k}: not a non-negative integer"
                ))),
            })
            .collect::<Result<_, _>>()?;
        Ok(Report {
            label: get_str(top, "$", "label")?,
            plans: items(top, "$", "plans", record_from_json)?,
            counters,
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn record_to_json(p: &PlanRecord) -> Json {
    let mut fields = vec![
        ("transform", Json::Str(p.transform.clone())),
        ("n", num(p.n as u64)),
        ("strategy", Json::Str(p.strategy.clone())),
        ("tree", Json::Str(p.tree.clone())),
    ];
    if let Some(s) = &p.planner {
        fields.push((
            "planner",
            object(vec![
                ("backend", Json::Str(s.backend.clone())),
                ("states", num(s.states)),
                ("candidates", num(s.candidates)),
                ("memo_hits", num(s.memo_hits)),
                ("cost", Json::Num(s.cost)),
                ("plan_seconds", Json::Num(s.plan_seconds)),
            ]),
        ));
    }
    if let Some(m) = &p.measured {
        fields.push((
            "measured",
            object(vec![
                ("repeats", num(m.repeats as u64)),
                ("total_ns", num(m.total_ns)),
                ("leaf_ns", num(m.stages.leaf_ns)),
                ("twiddle_ns", num(m.stages.twiddle_ns)),
                ("reorg_ns", num(m.stages.reorg_ns)),
                ("leaf_calls", num(m.leaf_calls)),
                ("twiddle_points", num(m.twiddle_points)),
                ("reorg_points", num(m.reorg_points)),
                ("leaf_flops_est", num(m.leaf_flops_est)),
            ]),
        ));
    }
    if let Some(c) = &p.model {
        fields.push((
            "model",
            object(vec![
                ("leaf_ns", Json::Num(c.leaf_ns)),
                ("twiddle_ns", Json::Num(c.twiddle_ns)),
                ("reorg_ns", Json::Num(c.reorg_ns)),
            ]),
        ));
    }
    if let Some(r) = &p.sim {
        fields.push(("sim", sim_to_json(r)));
    }
    if let Some(f) = &p.fit {
        fields.push(("fit", fit_to_json(f)));
    }
    object(fields)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

fn fit_to_json(f: &HostFit) -> Json {
    let level = |l: &CacheLevel| {
        object(vec![
            ("capacity_bytes", num(l.capacity_bytes as u64)),
            ("line_bytes", num(l.line_bytes as u64)),
            ("ways", num(l.ways as u64)),
        ])
    };
    let rows = |rows: Vec<Json>| Json::Arr(rows);
    object(vec![
        ("cpu", Json::Str(f.cpu.clone())),
        ("levels", Json::Arr(f.levels.iter().map(level).collect())),
        ("page_bytes", num(f.page_bytes as u64)),
        (
            "dft_leaf",
            rows(
                f.dft_leaf
                    .iter()
                    .map(|m| Json::Arr(m.iter().map(|r| nums(r)).collect()))
                    .collect(),
            ),
        ),
        (
            "wht_leaf",
            rows(f.wht_leaf.iter().map(|r| nums(r)).collect()),
        ),
        (
            "wht_lanes",
            rows(f.wht_lanes.iter().map(|r| nums(r)).collect()),
        ),
        ("twiddle", nums(&f.twiddle)),
        ("transpose", nums(&f.transpose)),
        ("wht_reorg", nums(&f.wht_reorg)),
    ])
}

fn stats_to_json(s: &CacheStats) -> Json {
    object(vec![
        ("accesses", num(s.accesses)),
        ("reads", num(s.reads)),
        ("writes", num(s.writes)),
        ("line_lookups", num(s.line_lookups)),
        ("hits", num(s.hits)),
        ("misses", num(s.misses)),
        ("compulsory_misses", num(s.compulsory_misses)),
        ("evictions", num(s.evictions)),
    ])
}

fn hier_stats_to_json(h: &HierStats) -> Json {
    object(vec![
        ("l1", stats_to_json(&h.l1)),
        ("l2", stats_to_json(&h.l2)),
        ("tlb", stats_to_json(&h.tlb)),
    ])
}

fn cache_config_to_json(c: &CacheConfig) -> Json {
    object(vec![
        ("capacity_bytes", num(c.capacity_bytes as u64)),
        ("line_bytes", num(c.line_bytes as u64)),
        ("associativity", num(c.associativity as u64)),
    ])
}

fn sim_to_json(r: &AttributionRun) -> Json {
    let mut fields = vec![
        ("root_stride", num(r.root_stride as u64)),
        ("point_bytes", num(r.point_bytes as u64)),
        ("cache", cache_config_to_json(&r.cache)),
        ("totals", stats_to_json(&r.totals)),
        ("outside", stats_to_json(&r.outside)),
        (
            "nodes",
            Json::Arr(r.roots.iter().map(node_to_json).collect()),
        ),
    ];
    if let Some(h) = &r.hierarchy {
        let config = object(vec![
            ("l1", cache_config_to_json(&h.config.l1)),
            ("l2", cache_config_to_json(&h.config.l2)),
            ("tlb_entries", num(h.config.tlb_entries as u64)),
            ("tlb_page_bytes", num(h.config.tlb_page_bytes as u64)),
            ("tlb_ways", num(h.config.tlb_ways as u64)),
        ]);
        fields.push((
            "hierarchy",
            object(vec![
                ("config", config),
                ("totals", hier_stats_to_json(&h.totals)),
                ("outside", hier_stats_to_json(&h.outside)),
            ]),
        ));
    }
    object(fields)
}

fn node_to_json(n: &NodeAttribution) -> Json {
    let case = |c: Option<CaseClass>| c.map(|c| Json::Str(c.as_str().into()));
    let optional = [
        ("write_stride", n.write_stride.map(|w| num(w as u64))),
        ("empirical", case(n.empirical)),
        ("model", case(n.model)),
        ("static_pathological", n.static_pathological.map(Json::Bool)),
        ("static_degree", n.static_degree.map(num)),
        ("levels", n.levels.as_ref().map(hier_stats_to_json)),
        ("empirical_page", case(n.empirical_page)),
        ("model_page", case(n.model_page)),
        (
            "static_pathological_page",
            n.static_pathological_page.map(Json::Bool),
        ),
        ("static_degree_page", n.static_degree_page.map(num)),
    ];
    let mut fields = vec![
        ("label", Json::Str(n.label.clone())),
        ("size", num(n.size as u64)),
        ("stride", num(n.stride as u64)),
        ("reorg", Json::Bool(n.reorg)),
        ("calls", num(n.calls)),
        ("stats", stats_to_json(&n.stats)),
        (
            "children",
            Json::Arr(n.children.iter().map(node_to_json).collect()),
        ),
    ];
    fields.extend(optional.into_iter().filter_map(|(k, v)| Some((k, v?))));
    object(fields)
}

// ---------------------------------------------------------------------------
// Decoding. Every helper takes the JSON path of the enclosing object
// (e.g. `$.plans[2].sim`) so a failure names the offending field.
// ---------------------------------------------------------------------------

type Map = BTreeMap<String, Json>;

fn obj<'j>(v: &'j Json, path: &str) -> Result<&'j Map, DdlError> {
    v.as_obj()
        .ok_or_else(|| metrics_err(format!("{path}: not an object")))
}

fn field<'j>(map: &'j Map, path: &str, key: &str) -> Result<&'j Json, DdlError> {
    map.get(key)
        .ok_or_else(|| metrics_err(format!("{path}.{key}: missing")))
}

fn get_str(map: &Map, path: &str, key: &str) -> Result<String, DdlError> {
    map.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| metrics_err(format!("{path}.{key}: missing or non-string")))
}

fn get_u64(map: &Map, path: &str, key: &str) -> Result<u64, DdlError> {
    map.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| metrics_err(format!("{path}.{key}: missing or non-integer")))
}

fn get_f64(map: &Map, path: &str, key: &str) -> Result<f64, DdlError> {
    map.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| metrics_err(format!("{path}.{key}: missing or non-numeric")))
}

fn get_bool(map: &Map, path: &str, key: &str) -> Result<bool, DdlError> {
    match map.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(metrics_err(format!("{path}.{key}: missing or non-boolean"))),
    }
}

/// Decodes the required array `key` element by element.
fn items<T>(
    map: &Map,
    path: &str,
    key: &str,
    decode: fn(&Json, &str) -> Result<T, DdlError>,
) -> Result<Vec<T>, DdlError> {
    match field(map, path, key)? {
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| decode(v, &format!("{path}.{key}[{i}]")))
            .collect(),
        _ => Err(metrics_err(format!("{path}.{key}: not an array"))),
    }
}

/// Decodes the optional object `key` (absent is `None`; present but
/// malformed is an error).
fn section<T>(
    map: &Map,
    path: &str,
    key: &str,
    decode: fn(&Map, &str) -> Result<T, DdlError>,
) -> Result<Option<T>, DdlError> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => {
            let path = format!("{path}.{key}");
            decode(obj(v, &path)?, &path).map(Some)
        }
    }
}

/// Decodes an optional scalar `key` with `get` (absent is `None`).
fn optional<T>(
    map: &Map,
    path: &str,
    key: &str,
    get: fn(&Map, &str, &str) -> Result<T, DdlError>,
) -> Result<Option<T>, DdlError> {
    map.get(key).map(|_| get(map, path, key)).transpose()
}

fn get_case(map: &Map, path: &str, key: &str) -> Result<CaseClass, DdlError> {
    let s = get_str(map, path, key)?;
    CaseClass::parse_token(&s)
        .ok_or_else(|| metrics_err(format!("{path}.{key}: unknown class {s:?}")))
}

fn record_from_json(v: &Json, path: &str) -> Result<PlanRecord, DdlError> {
    let m = obj(v, path)?;
    Ok(PlanRecord {
        transform: get_str(m, path, "transform")?,
        n: get_u64(m, path, "n")? as usize,
        strategy: get_str(m, path, "strategy")?,
        tree: get_str(m, path, "tree")?,
        planner: section(m, path, "planner", planner_from_json)?,
        measured: section(m, path, "measured", measured_from_json)?,
        model: section(m, path, "model", |m, path| {
            Ok(StageCost {
                leaf_ns: get_f64(m, path, "leaf_ns")?,
                twiddle_ns: get_f64(m, path, "twiddle_ns")?,
                reorg_ns: get_f64(m, path, "reorg_ns")?,
            })
        })?,
        sim: section(m, path, "sim", sim_from_json)?,
        fit: section(m, path, "fit", fit_from_json)?,
    })
}

/// The fixed-length number array `key`.
fn get_nums<const N: usize>(v: &Json, path: &str) -> Result<[f64; N], DdlError> {
    let items = match v {
        Json::Arr(items) if items.len() == N => items,
        _ => return Err(metrics_err(format!("{path}: not an array of {N} numbers"))),
    };
    let mut out = [0.0; N];
    for (i, (o, v)) in out.iter_mut().zip(items).enumerate() {
        *o = v
            .as_f64()
            .ok_or_else(|| metrics_err(format!("{path}[{i}]: not a number")))?;
    }
    Ok(out)
}

fn fit_row(v: &Json, path: &str) -> Result<[f64; STRIDE_CLASSES], DdlError> {
    get_nums(v, path)
}

fn fit_matrix(v: &Json, path: &str) -> Result<[[f64; STRIDE_CLASSES]; STRIDE_CLASSES], DdlError> {
    let Json::Arr(rows) = v else {
        return Err(metrics_err(format!("{path}: not an array")));
    };
    if rows.len() != STRIDE_CLASSES {
        return Err(metrics_err(format!("{path}: want {STRIDE_CLASSES} rows")));
    }
    let mut out = [[0.0; STRIDE_CLASSES]; STRIDE_CLASSES];
    for (i, (o, r)) in out.iter_mut().zip(rows).enumerate() {
        *o = fit_row(r, &format!("{path}[{i}]"))?;
    }
    Ok(out)
}

fn fit_level(v: &Json, path: &str) -> Result<CacheLevel, DdlError> {
    let m = obj(v, path)?;
    Ok(CacheLevel {
        capacity_bytes: get_u64(m, path, "capacity_bytes")? as usize,
        line_bytes: get_u64(m, path, "line_bytes")? as usize,
        ways: get_u64(m, path, "ways")? as usize,
    })
}

fn fit_from_json(m: &Map, path: &str) -> Result<HostFit, DdlError> {
    let levels = items(m, path, "levels", fit_level)?;
    let [l1, l2] = levels[..] else {
        return Err(metrics_err(format!("{path}.levels: want L1 and L2")));
    };
    let per_level =
        |key: &str| get_nums::<RESIDENCY_LEVELS>(field(m, path, key)?, &format!("{path}.{key}"));
    let fit = HostFit {
        cpu: get_str(m, path, "cpu")?,
        levels: [l1, l2],
        page_bytes: get_u64(m, path, "page_bytes")? as usize,
        dft_leaf: items(m, path, "dft_leaf", fit_matrix)?,
        wht_leaf: items(m, path, "wht_leaf", fit_row)?,
        wht_lanes: items(m, path, "wht_lanes", fit_row)?,
        twiddle: per_level("twiddle")?,
        transpose: per_level("transpose")?,
        wht_reorg: per_level("wht_reorg")?,
    };
    fit.validate()
        .map_err(|e| metrics_err(format!("{path}: {e}")))?;
    Ok(fit)
}

fn planner_from_json(m: &Map, path: &str) -> Result<PlannerRunMetrics, DdlError> {
    Ok(PlannerRunMetrics {
        backend: get_str(m, path, "backend")?,
        states: get_u64(m, path, "states")?,
        candidates: get_u64(m, path, "candidates")?,
        memo_hits: get_u64(m, path, "memo_hits")?,
        cost: get_f64(m, path, "cost")?,
        plan_seconds: get_f64(m, path, "plan_seconds")?,
    })
}

fn measured_from_json(m: &Map, path: &str) -> Result<ExecutionMetrics, DdlError> {
    let measured = ExecutionMetrics {
        repeats: u32::try_from(get_u64(m, path, "repeats")?)
            .map_err(|_| metrics_err(format!("{path}.repeats: out of range")))?,
        total_ns: get_u64(m, path, "total_ns")?,
        stages: StageBreakdown {
            leaf_ns: get_u64(m, path, "leaf_ns")?,
            twiddle_ns: get_u64(m, path, "twiddle_ns")?,
            reorg_ns: get_u64(m, path, "reorg_ns")?,
        },
        leaf_calls: get_u64(m, path, "leaf_calls")?,
        twiddle_points: get_u64(m, path, "twiddle_points")?,
        reorg_points: get_u64(m, path, "reorg_points")?,
        leaf_flops_est: get_u64(m, path, "leaf_flops_est")?,
    };
    // The stage spans are disjoint sub-intervals of one execution. The
    // values come from a file, so the sum is taken wide enough not to
    // wrap.
    let StageBreakdown {
        leaf_ns,
        twiddle_ns,
        reorg_ns,
    } = measured.stages;
    let sum = u128::from(leaf_ns) + u128::from(twiddle_ns) + u128::from(reorg_ns);
    if sum > u128::from(measured.total_ns) {
        return Err(metrics_err(format!(
            "{path}: leaf+twiddle+reorg {sum} ns exceeds the total {} ns",
            measured.total_ns
        )));
    }
    Ok(measured)
}

fn stats_from_json(m: &Map, path: &str) -> Result<CacheStats, DdlError> {
    Ok(CacheStats {
        accesses: get_u64(m, path, "accesses")?,
        reads: get_u64(m, path, "reads")?,
        writes: get_u64(m, path, "writes")?,
        line_lookups: get_u64(m, path, "line_lookups")?,
        hits: get_u64(m, path, "hits")?,
        misses: get_u64(m, path, "misses")?,
        compulsory_misses: get_u64(m, path, "compulsory_misses")?,
        evictions: get_u64(m, path, "evictions")?,
    })
}

/// Decodes the required object `key` with `decode`.
fn required<T>(
    map: &Map,
    path: &str,
    key: &str,
    decode: fn(&Map, &str) -> Result<T, DdlError>,
) -> Result<T, DdlError> {
    section(map, path, key, decode)?.ok_or_else(|| metrics_err(format!("{path}.{key}: missing")))
}

fn hier_stats_from_json(m: &Map, path: &str) -> Result<HierStats, DdlError> {
    Ok(HierStats {
        l1: required(m, path, "l1", stats_from_json)?,
        l2: required(m, path, "l2", stats_from_json)?,
        tlb: required(m, path, "tlb", stats_from_json)?,
    })
}

fn cache_config_from_json(m: &Map, path: &str) -> Result<CacheConfig, DdlError> {
    Ok(CacheConfig {
        capacity_bytes: get_u64(m, path, "capacity_bytes")? as usize,
        line_bytes: get_u64(m, path, "line_bytes")? as usize,
        associativity: get_u64(m, path, "associativity")? as usize,
    })
}

fn hierarchy_from_json(m: &Map, path: &str) -> Result<HierarchyAttribution, DdlError> {
    Ok(HierarchyAttribution {
        config: required(m, path, "config", |c, path| {
            Ok(HierarchyConfig {
                l1: required(c, path, "l1", cache_config_from_json)?,
                l2: required(c, path, "l2", cache_config_from_json)?,
                tlb_entries: get_u64(c, path, "tlb_entries")? as usize,
                tlb_page_bytes: get_u64(c, path, "tlb_page_bytes")? as usize,
                tlb_ways: get_u64(c, path, "tlb_ways")? as usize,
            })
        })?,
        totals: required(m, path, "totals", hier_stats_from_json)?,
        outside: required(m, path, "outside", hier_stats_from_json)?,
    })
}

fn node_from_json(v: &Json, path: &str) -> Result<NodeAttribution, DdlError> {
    let m = obj(v, path)?;
    Ok(NodeAttribution {
        label: get_str(m, path, "label")?,
        size: get_u64(m, path, "size")? as usize,
        stride: get_u64(m, path, "stride")? as usize,
        reorg: get_bool(m, path, "reorg")?,
        calls: get_u64(m, path, "calls")?,
        stats: required(m, path, "stats", stats_from_json)?,
        write_stride: optional(m, path, "write_stride", get_u64)?.map(|w| w as usize),
        empirical: optional(m, path, "empirical", get_case)?,
        model: optional(m, path, "model", get_case)?,
        static_pathological: optional(m, path, "static_pathological", get_bool)?,
        static_degree: optional(m, path, "static_degree", get_u64)?,
        levels: section(m, path, "levels", hier_stats_from_json)?,
        empirical_page: optional(m, path, "empirical_page", get_case)?,
        model_page: optional(m, path, "model_page", get_case)?,
        static_pathological_page: optional(m, path, "static_pathological_page", get_bool)?,
        static_degree_page: optional(m, path, "static_degree_page", get_u64)?,
        children: items(m, path, "children", node_from_json)?,
    })
}

fn sim_from_json(m: &Map, path: &str) -> Result<AttributionRun, DdlError> {
    let run = AttributionRun {
        root_stride: get_u64(m, path, "root_stride")? as usize,
        point_bytes: get_u64(m, path, "point_bytes")? as usize,
        cache: required(m, path, "cache", cache_config_from_json)?,
        totals: required(m, path, "totals", stats_from_json)?,
        outside: required(m, path, "outside", stats_from_json)?,
        hierarchy: section(m, path, "hierarchy", hierarchy_from_json)?,
        roots: items(m, path, "nodes", node_from_json)?,
    };
    // A schema check is also an invariant check: conservation must hold
    // in any document claiming this schema — at the single level, at
    // every hierarchy level, and as the L2-access ≡ L1-miss identity.
    if !run.conserved() {
        return Err(metrics_err(format!(
            "{path}: conservation violated (attributed {:?} != totals {:?})",
            run.attributed_total(),
            run.totals
        )));
    }
    run.check_hierarchy()
        .map_err(|e| metrics_err(format!("{path}: {e}")))?;
    Ok(run)
}

// ---------------------------------------------------------------------------
// The one checker.
// ---------------------------------------------------------------------------

/// A successfully validated report, tagged by schema.
#[derive(Clone, Debug)]
pub enum CheckedReport {
    /// A `ddl-report` envelope.
    Report(Report),
    /// A `ddl-trace` Chrome trace-event document (summarized).
    Trace(TraceSummary),
    /// A `ddl-telemetry` service snapshot.
    Telemetry(Box<TelemetryReport>),
    /// A `ddl-flight` flight-recorder dump (one capsule per line in the
    /// JSONL artifact; file-level checks return the last line's dump).
    Flight(Box<FlightDump>),
    /// A syntactically valid document with a schema this crate does not
    /// own (e.g. `ddl-trajectory`); the caller may dispatch further.
    Unknown {
        /// The document's declared schema string.
        schema: String,
    },
}

impl CheckedReport {
    /// The schema the document declared.
    pub fn schema(&self) -> &str {
        match self {
            CheckedReport::Report(_) => REPORT_SCHEMA,
            CheckedReport::Trace(_) => crate::trace::TRACE_SCHEMA,
            CheckedReport::Telemetry(_) => TELEMETRY_SCHEMA,
            CheckedReport::Flight(_) => FLIGHT_SCHEMA,
            CheckedReport::Unknown { schema } => schema,
        }
    }
}

/// Validates one report document: strict JSON, schema detection, full
/// schema-specific parse (which re-verifies each schema's invariants —
/// e.g. attribution conservation, trace span balance).
pub fn check_report_text(text: &str) -> Result<CheckedReport, DdlError> {
    let doc = json::parse(text).map_err(|e| metrics_err(format!("report: {e}")))?;
    let map = doc
        .as_obj()
        .ok_or_else(|| metrics_err("report: top level is not an object".into()))?;
    // Chrome trace-event documents carry their schema in otherData, not
    // at the top level; the traceEvents array is their signature.
    if map.contains_key("traceEvents") {
        return Ok(CheckedReport::Trace(validate_chrome_trace(text)?));
    }
    let schema = map
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or_else(|| metrics_err("report: missing schema field".into()))?;
    match schema {
        REPORT_SCHEMA => Ok(CheckedReport::Report(Report::parse(text)?)),
        TELEMETRY_SCHEMA => Ok(CheckedReport::Telemetry(Box::new(TelemetryReport::parse(
            text,
        )?))),
        FLIGHT_SCHEMA => Ok(CheckedReport::Flight(Box::new(FlightDump::parse(text)?))),
        other => {
            // Even schemas this crate does not own must version
            // sanely: if the document carries a `version` field it has
            // to be a non-negative integer, or every downstream
            // compatibility check is meaningless.
            if let Some(v) = map.get("version") {
                let ok = v.as_f64().is_some_and(|f| f >= 0.0 && f.fract() == 0.0);
                if !ok {
                    return Err(metrics_err(format!(
                        "report: schema {other} has a non-integer version field"
                    )));
                }
            }
            Ok(CheckedReport::Unknown {
                schema: other.to_string(),
            })
        }
    }
}

/// [`check_report_text`] over a file, with the path in error messages.
///
/// A `.jsonl` file is validated line by line (blank lines skipped): every
/// line must parse, all lines must declare the same schema, and the last
/// line's report is returned. The flight recorder appends one
/// [`FlightDump`] per trigger in exactly this shape.
pub fn check_report(path: &Path) -> Result<CheckedReport, DdlError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| metrics_err(format!("reading {}: {e}", path.display())))?;
    let jsonl = path
        .extension()
        .is_some_and(|ext| ext.eq_ignore_ascii_case("jsonl"));
    let checked = if jsonl {
        check_report_lines(&text)
    } else {
        check_report_text(&text)
    };
    checked.map_err(|e| metrics_err(format!("{}: {}", path.display(), detail_of(&e))))
}

/// Validates a JSONL artifact: each non-blank line is one document, all
/// of the same schema. Returns the last line's report.
fn check_report_lines(text: &str) -> Result<CheckedReport, DdlError> {
    let mut last: Option<CheckedReport> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let checked = check_report_text(line)
            .map_err(|e| metrics_err(format!("line {}: {}", idx + 1, detail_of(&e))))?;
        if let Some(prev) = &last {
            if prev.schema() != checked.schema() {
                return Err(metrics_err(format!(
                    "line {}: schema {} differs from earlier schema {}",
                    idx + 1,
                    checked.schema(),
                    prev.schema()
                )));
            }
        }
        last = Some(checked);
    }
    last.ok_or_else(|| metrics_err("jsonl report: no non-blank lines".into()))
}

fn detail_of(e: &DdlError) -> String {
    match e {
        DdlError::Metrics { detail } => detail.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::attribute_dft;
    use ddl_num::Direction;

    #[test]
    fn schema_violations_name_the_path() {
        let future = Report::new("x").to_text().replace(
            "\"version\": 1",
            &format!("\"version\": {}", REPORT_VERSION + 1),
        );
        for (doc, needle) in [
            ("{}".to_string(), "$.schema"),
            (
                r#"{"schema": "ddl-metrics", "version": 1}"#.into(),
                "$.schema",
            ),
            (r#"{"schema": "ddl-report"}"#.into(), "$.version"),
            (future, "newer than supported"),
            (
                r#"{"schema": "ddl-report", "version": 1, "label": "x", "plans": 7,
                    "batches": [], "counters": {}}"#
                    .into(),
                "$.plans",
            ),
            (
                r#"{"schema": "ddl-report", "version": 1, "label": "x", "plans": [],
                    "batches": [], "counters": {"x": -1}}"#
                    .into(),
                "$.counters.x",
            ),
            (
                r#"{"schema": "ddl-report", "version": 1, "label": "x", "batches": [],
                    "plans": [{"transform": "dft", "n": 8, "strategy": "sdl", "tree": "8",
                               "model": {"leaf_ns": 1}}], "counters": {}}"#
                    .into(),
                "$.plans[0].model.twiddle_ns",
            ),
        ] {
            match Report::parse(&doc) {
                Err(DdlError::Metrics { detail }) => {
                    assert!(detail.contains(needle), "{detail:?} misses {needle:?}")
                }
                other => panic!("{doc}: expected a Metrics error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rel_error_is_signed_and_guarded() {
        assert!((rel_error(150.0, 100) - 0.5).abs() < 1e-12);
        assert!((rel_error(50.0, 100) + 0.5).abs() < 1e-12);
        // a stage the tree never ran: no error rather than a division by 0
        assert_eq!(rel_error(10.0, 0), 0.0);
    }

    #[test]
    fn dispatches_report_documents() {
        let plan = DftPlan::from_expr("ct(8, 8)", Direction::Forward).unwrap();
        let mut record = PlanRecord::dft(&plan, "sdl");
        record.sim = Some(attribute_dft(&plan, 1, CacheConfig::paper_default(64)).unwrap());
        let mut report = Report::new("t");
        report.plans.push(record);
        match check_report_text(&report.to_text()).unwrap() {
            CheckedReport::Report(back) => assert_eq!(back, report),
            other => panic!("wrong dispatch: {}", other.schema()),
        }
    }

    #[test]
    fn unknown_schemas_surface_without_error() {
        let text = r#"{"schema": "ddl-trajectory", "version": 2}"#;
        match check_report_text(text).unwrap() {
            CheckedReport::Unknown { schema } => assert_eq!(schema, "ddl-trajectory"),
            other => panic!("wrong dispatch: {}", other.schema()),
        }
    }

    #[test]
    fn missing_schema_and_bad_json_are_errors() {
        assert!(check_report_text("{}").is_err());
        assert!(check_report_text("not json").is_err());
        assert!(check_report_text("[1, 2]").is_err());
    }

    #[test]
    fn dispatches_telemetry_and_flight_documents() {
        let telemetry = crate::histo::TelemetryReport::default().to_json().compact();
        match check_report_text(&telemetry).unwrap() {
            CheckedReport::Telemetry(_) => {}
            other => panic!("wrong dispatch: {}", other.schema()),
        }
        let dump = FlightDump {
            trigger: "panic".into(),
            seq: 1,
            capsule: crate::flight::RequestCapsule {
                id: 7,
                outcome: "panicked".into(),
                ..Default::default()
            },
            recent: Vec::new(),
        };
        match check_report_text(&dump.to_line()).unwrap() {
            CheckedReport::Flight(back) => assert_eq!(back.trigger, "panic"),
            other => panic!("wrong dispatch: {}", other.schema()),
        }
    }

    #[test]
    fn jsonl_files_validate_every_line() {
        let dump = |seq: u64| FlightDump {
            trigger: "deadline".into(),
            seq,
            capsule: crate::flight::RequestCapsule {
                id: seq,
                outcome: "deadline_expired".into(),
                ..Default::default()
            },
            recent: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!("ddl-reports-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.jsonl");
        std::fs::write(
            &good,
            format!("{}\n{}\n", dump(1).to_line(), dump(2).to_line()),
        )
        .unwrap();
        match check_report(&good).unwrap() {
            CheckedReport::Flight(back) => assert_eq!(back.seq, 2, "last line wins"),
            other => panic!("wrong dispatch: {}", other.schema()),
        }

        // A corrupt middle line is reported with its 1-based number.
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, format!("{}\nnot json\n", dump(1).to_line())).unwrap();
        let err = check_report(&bad).unwrap_err();
        assert!(format!("{err}").contains("line 2"), "got: {err}");

        // Mixed schemas in one artifact are rejected.
        let mixed = dir.join("mixed.jsonl");
        let telemetry = crate::histo::TelemetryReport::default().to_json().compact();
        std::fs::write(&mixed, format!("{}\n{}\n", dump(1).to_line(), telemetry)).unwrap();
        assert!(check_report(&mixed).is_err());

        // Empty artifacts fail rather than vacuously pass.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "\n").unwrap();
        assert!(check_report(&empty).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_versions_must_be_non_negative_integers() {
        assert!(check_report_text(r#"{"schema": "ddl-cert", "version": 1.5}"#).is_err());
        assert!(check_report_text(r#"{"schema": "ddl-cert", "version": -1}"#).is_err());
        assert!(check_report_text(r#"{"schema": "ddl-cert", "version": "1"}"#).is_err());
        assert!(check_report_text(r#"{"schema": "ddl-cert", "version": 3}"#).is_ok());
        // A versionless unknown document still passes through.
        assert!(check_report_text(r#"{"schema": "ddl-whatever"}"#).is_ok());
    }
}
