//! The longitudinal performance ledger: `results/trajectory.jsonl`, the
//! one persisted record of a suite run.
//!
//! "Has the repo gotten slower since an earlier commit" needs runs to
//! *accumulate*. This module implements that as an append-only JSONL
//! file: one [`LedgerEntry`] per suite run, each a single compact line
//! carrying the environment fingerprint (git sha, rustc, cpu), the
//! per-case medians, and an attribution digest of each simulated plan
//! record in the run's `ddl-report`. CI appends an entry every run and
//! then validates the whole file with [`check_ledger`], which flags
//! consecutive same-environment entries whose medians regressed beyond
//! tolerance. Two runs are compared by appending both to one ledger:
//! [`render_report`] prints each case's last/first ratio and
//! [`check_ledger`] gates it.
//!
//! JSONL (not a JSON array) is deliberate: appending is an O(1) write
//! that never rewrites history, concurrent readers see a prefix of valid
//! lines, and the file diffs line-per-run under version control.

use crate::suite::BenchReport;
use ddl_core::json::{self, Json};
use ddl_core::{PlanRecord, Report};
use ddl_num::DdlError;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Schema identifier stamped into every ledger line.
pub const TRAJECTORY_SCHEMA: &str = "ddl-trajectory";
/// Current ledger schema version; readers refuse newer lines.
///
/// v2 (additive): attribution digests may carry `tlb_miss_rate` and
/// `case3_leaves_page` from hierarchy-attributed runs. v1 lines (no
/// such keys) still parse; both fields stay `None`.
pub const TRAJECTORY_VERSION: u64 = 2;

/// Default relative tolerance of [`check_ledger`]: quick CI runners
/// are noisy, so a generous band avoids false gates.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

fn ledger_err(detail: String) -> DdlError {
    DdlError::Metrics { detail }
}

/// Attribution digest for one pinned simulated run: enough to watch the
/// Case III population drift across commits without storing whole trees.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionSummary {
    /// `dft` | `wht`.
    pub transform: String,
    /// Transform size.
    pub n: usize,
    /// Planner strategy (`sdl` | `ddl`).
    pub strategy: String,
    /// Whole-run simulated miss rate.
    pub miss_rate: f64,
    /// Whole-run simulated misses.
    pub misses: u64,
    /// Whole-run accesses.
    pub accesses: u64,
    /// Classified leaves in the attributed tree.
    pub leaves: u64,
    /// Leaves empirically classified Case III.
    pub case3_leaves: u64,
    /// Whole-run d-TLB miss rate, when the run carried a hierarchy
    /// attribution (ledger v2; absent on v1 lines).
    pub tlb_miss_rate: Option<f64>,
    /// Leaves classified Case III at *page* geometry — the TLB viewed
    /// as a cache with page-sized lines (ledger v2; absent on v1).
    pub case3_leaves_page: Option<u64>,
}

impl AttributionSummary {
    /// The digest of a plan record's `sim` section; `None` for a record
    /// that was not simulated.
    pub fn of(record: &PlanRecord) -> Option<AttributionSummary> {
        let sim = record.sim.as_ref()?;
        let (leaves, case3_leaves) = sim.case3_leaf_counts();
        Some(AttributionSummary {
            transform: record.transform.clone(),
            n: record.n,
            strategy: record.strategy.clone(),
            miss_rate: sim.totals.miss_rate(),
            misses: sim.totals.misses,
            accesses: sim.totals.accesses,
            leaves,
            case3_leaves,
            tlb_miss_rate: sim.tlb_miss_rate(),
            case3_leaves_page: sim.case3_leaf_counts_page().map(|(_, c)| c),
        })
    }
}

/// One run of the suite, as a single ledger line.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Run label (`--label`).
    pub label: String,
    /// Quick-mode flag; quick and full entries are never compared.
    pub quick: bool,
    /// Git commit of the working tree, or "unknown".
    pub git_sha: String,
    /// Toolchain fingerprint.
    pub rustc: String,
    /// CPU model; entries from different CPUs are never compared.
    pub cpu: String,
    /// Case id -> median nanoseconds, from the suite report.
    pub cases: BTreeMap<String, f64>,
    /// Attribution digests for the pinned simulation sizes.
    pub attribution: Vec<AttributionSummary>,
}

impl LedgerEntry {
    /// Builds an entry from a suite report plus the digests of the
    /// simulated records in `plans`.
    pub fn from_report(report: &BenchReport, plans: &Report) -> LedgerEntry {
        LedgerEntry {
            label: report.label.clone(),
            quick: report.quick,
            git_sha: report.env.git_sha.clone(),
            rustc: report.env.rustc.clone(),
            cpu: report.env.cpu.clone(),
            cases: report
                .cases
                .iter()
                .map(|c| (c.id.clone(), c.median_ns))
                .collect(),
            attribution: plans
                .plans
                .iter()
                .filter_map(AttributionSummary::of)
                .collect(),
        }
    }

    /// Serializes as one compact JSON value (one JSONL line, sans
    /// newline).
    pub fn to_line(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Json::Str(TRAJECTORY_SCHEMA.into()));
        m.insert("version".into(), Json::Num(TRAJECTORY_VERSION as f64));
        m.insert("label".into(), Json::Str(self.label.clone()));
        m.insert("quick".into(), Json::Bool(self.quick));
        m.insert("git_sha".into(), Json::Str(self.git_sha.clone()));
        m.insert("rustc".into(), Json::Str(self.rustc.clone()));
        m.insert("cpu".into(), Json::Str(self.cpu.clone()));
        m.insert(
            "cases".into(),
            Json::Obj(
                self.cases
                    .iter()
                    .map(|(id, ns)| (id.clone(), Json::Num(*ns)))
                    .collect(),
            ),
        );
        m.insert(
            "attribution".into(),
            Json::Arr(
                self.attribution
                    .iter()
                    .map(|a| {
                        let mut am = BTreeMap::new();
                        am.insert("transform".into(), Json::Str(a.transform.clone()));
                        am.insert("n".into(), Json::Num(a.n as f64));
                        am.insert("strategy".into(), Json::Str(a.strategy.clone()));
                        am.insert("miss_rate".into(), Json::Num(a.miss_rate));
                        am.insert("misses".into(), Json::Num(a.misses as f64));
                        am.insert("accesses".into(), Json::Num(a.accesses as f64));
                        am.insert("leaves".into(), Json::Num(a.leaves as f64));
                        am.insert("case3_leaves".into(), Json::Num(a.case3_leaves as f64));
                        if let Some(t) = a.tlb_miss_rate {
                            am.insert("tlb_miss_rate".into(), Json::Num(t));
                        }
                        if let Some(c) = a.case3_leaves_page {
                            am.insert("case3_leaves_page".into(), Json::Num(c as f64));
                        }
                        Json::Obj(am)
                    })
                    .collect(),
            ),
        );
        Json::Obj(m).compact()
    }

    /// Parses one ledger line.
    pub fn parse_line(text: &str) -> Result<LedgerEntry, DdlError> {
        let doc = json::parse(text).map_err(|e| ledger_err(format!("ledger line: {e}")))?;
        let m = doc
            .as_obj()
            .ok_or_else(|| ledger_err("ledger line: not an object".into()))?;
        match m.get("schema").and_then(Json::as_str) {
            Some(s) if s == TRAJECTORY_SCHEMA => {}
            Some(s) => {
                return Err(ledger_err(format!(
                    "ledger line: expected schema {TRAJECTORY_SCHEMA:?}, got {s:?}"
                )))
            }
            None => return Err(ledger_err("ledger line: missing schema".into())),
        }
        match m.get("version").and_then(Json::as_u64) {
            Some(v) if v <= TRAJECTORY_VERSION => {}
            Some(v) => {
                return Err(ledger_err(format!(
                    "ledger line: version {v} is newer than supported {TRAJECTORY_VERSION}"
                )))
            }
            None => return Err(ledger_err("ledger line: missing version".into())),
        }
        let str_field = |key: &str| -> Result<String, DdlError> {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ledger_err(format!("ledger line: missing or non-string {key}")))
        };
        let quick = match m.get("quick") {
            Some(Json::Bool(b)) => *b,
            _ => {
                return Err(ledger_err(
                    "ledger line: missing or non-boolean quick".into(),
                ))
            }
        };
        let cases = match m.get("cases") {
            Some(Json::Obj(obj)) => {
                let mut cases = BTreeMap::new();
                for (id, v) in obj {
                    let ns = v
                        .as_f64()
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .ok_or_else(|| ledger_err(format!("ledger line: case {id}: bad median")))?;
                    cases.insert(id.clone(), ns);
                }
                cases
            }
            _ => return Err(ledger_err("ledger line: missing cases object".into())),
        };
        let mut attribution = Vec::new();
        match m.get("attribution") {
            Some(Json::Arr(items)) => {
                for (i, item) in items.iter().enumerate() {
                    let am = item.as_obj().ok_or_else(|| {
                        ledger_err(format!("ledger line: attribution[{i}]: not an object"))
                    })?;
                    let path = format!("attribution[{i}]");
                    let s = |key: &str| -> Result<String, DdlError> {
                        am.get(key)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| ledger_err(format!("ledger line: {path}.{key}: bad")))
                    };
                    let u = |key: &str| -> Result<u64, DdlError> {
                        am.get(key)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| ledger_err(format!("ledger line: {path}.{key}: bad")))
                    };
                    attribution.push(AttributionSummary {
                        transform: s("transform")?,
                        n: u("n")? as usize,
                        strategy: s("strategy")?,
                        miss_rate: am
                            .get("miss_rate")
                            .and_then(Json::as_f64)
                            .filter(|x| x.is_finite() && *x >= 0.0)
                            .ok_or_else(|| {
                                ledger_err(format!("ledger line: {path}.miss_rate: bad"))
                            })?,
                        misses: u("misses")?,
                        accesses: u("accesses")?,
                        leaves: u("leaves")?,
                        case3_leaves: u("case3_leaves")?,
                        // v2 additive fields: absent on v1 lines, and a
                        // present-but-bad value is an error, not a None.
                        tlb_miss_rate: match am.get("tlb_miss_rate") {
                            None => None,
                            Some(v) => Some(
                                v.as_f64()
                                    .filter(|x| x.is_finite() && *x >= 0.0)
                                    .ok_or_else(|| {
                                        ledger_err(format!(
                                            "ledger line: {path}.tlb_miss_rate: bad"
                                        ))
                                    })?,
                            ),
                        },
                        case3_leaves_page: match am.get("case3_leaves_page") {
                            None => None,
                            Some(v) => Some(v.as_u64().ok_or_else(|| {
                                ledger_err(format!("ledger line: {path}.case3_leaves_page: bad"))
                            })?),
                        },
                    });
                }
            }
            Some(_) => return Err(ledger_err("ledger line: attribution: not an array".into())),
            None => {}
        }
        Ok(LedgerEntry {
            label: str_field("label")?,
            quick,
            git_sha: str_field("git_sha")?,
            rustc: str_field("rustc")?,
            cpu: str_field("cpu")?,
            cases,
            attribution,
        })
    }
}

/// Appends one entry to the ledger at `path` (creating parent
/// directories and the file as needed). The write is a single
/// line-plus-newline append: existing entries are never rewritten.
pub fn append_entry(path: &Path, entry: &LedgerEntry) -> Result<(), DdlError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ledger_err(format!("creating {}: {e}", parent.display())))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| ledger_err(format!("opening {}: {e}", path.display())))?;
    writeln!(file, "{}", entry.to_line())
        .map_err(|e| ledger_err(format!("appending to {}: {e}", path.display())))
}

/// Reads every entry of a ledger file. Blank lines are skipped; a
/// malformed line fails with its 1-based line number (an append-only
/// ledger that went bad must be noticed, not truncated silently).
pub fn read_ledger(path: &Path) -> Result<Vec<LedgerEntry>, DdlError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ledger_err(format!("reading {}: {e}", path.display())))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        entries.push(LedgerEntry::parse_line(line).map_err(|e| {
            ledger_err(format!(
                "{} line {}: {}",
                path.display(),
                i + 1,
                match e {
                    DdlError::Metrics { detail } => detail,
                    other => other.to_string(),
                }
            ))
        })?);
    }
    Ok(entries)
}

/// One case that regressed between two consecutive comparable entries.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRegression {
    /// Git sha (or label) of the earlier entry.
    pub from: String,
    /// Git sha (or label) of the later entry.
    pub to: String,
    /// Case id.
    pub id: String,
    /// Earlier median nanoseconds.
    pub prev_ns: f64,
    /// Later median nanoseconds.
    pub cur_ns: f64,
    /// `cur / prev`.
    pub ratio: f64,
    /// Host-drift factor of the pair (median ratio across shared
    /// cases, clamped to >= 1) that was divided out before flagging.
    pub drift: f64,
}

/// Outcome of [`check_ledger`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerCheck {
    /// Entries read.
    pub entries: usize,
    /// Consecutive pairs actually compared (same quick mode and CPU).
    pub compared: usize,
    /// Consecutive pairs skipped for environment/mode mismatch.
    pub skipped: usize,
    /// Regressions beyond tolerance across compared pairs.
    pub regressions: Vec<LedgerRegression>,
}

impl LedgerCheck {
    /// True when no compared pair regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Minimum shared cases a pair needs before the median ratio is a
/// trustworthy host-drift estimate; below this, drift is assumed 1.
const DRIFT_MIN_CASES: usize = 5;

fn case_ratio(prev_ns: f64, cur_ns: f64) -> f64 {
    if prev_ns > 0.0 {
        cur_ns / prev_ns
    } else if cur_ns > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// Host-drift factor for one compared pair: the median `cur/prev`
/// ratio across shared cases. Two ledger entries can carry the same
/// CPU model string yet come from machines (or machine states —
/// shared tenancy, thermal state) with very different effective
/// throughput; a code regression moves *one* case, a slower host
/// moves *all* of them, and the median separates the two. Clamped to
/// >= 1 so a faster host never hides a case that failed to keep up.
fn drift_factor(prev: &LedgerEntry, cur: &LedgerEntry) -> f64 {
    let mut ratios: Vec<f64> = prev
        .cases
        .iter()
        .filter_map(|(id, &p)| cur.cases.get(id).map(|&c| case_ratio(p, c)))
        .filter(|r| r.is_finite())
        .collect();
    if ratios.len() < DRIFT_MIN_CASES {
        return 1.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let mid = ratios.len() / 2;
    let median = if ratios.len().is_multiple_of(2) {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    median.max(1.0)
}

/// Walks consecutive entry pairs and flags any case whose median grew
/// beyond `prev * drift * (1 + tolerance)`, where `drift` is the
/// pair's [host-drift factor](drift_factor). Pairs with mismatched
/// quick mode or CPU are skipped (counted, not compared):
/// cross-environment deltas are not regressions.
pub fn check_ledger(entries: &[LedgerEntry], tolerance: f64) -> LedgerCheck {
    let mut out = LedgerCheck {
        entries: entries.len(),
        ..LedgerCheck::default()
    };
    for pair in entries.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        if prev.quick != cur.quick || prev.cpu != cur.cpu {
            out.skipped += 1;
            continue;
        }
        out.compared += 1;
        let drift = drift_factor(prev, cur);
        for (id, &prev_ns) in &prev.cases {
            let Some(&cur_ns) = cur.cases.get(id) else {
                continue;
            };
            let ratio = case_ratio(prev_ns, cur_ns);
            if ratio / drift > 1.0 + tolerance {
                out.regressions.push(LedgerRegression {
                    from: ref_name(prev),
                    to: ref_name(cur),
                    id: id.clone(),
                    prev_ns,
                    cur_ns,
                    ratio,
                    drift,
                });
            }
        }
    }
    out
}

/// The name an entry is reported under: its git sha, or its label when
/// the sha is unknown.
pub fn ref_name(entry: &LedgerEntry) -> String {
    if entry.git_sha != "unknown" && !entry.git_sha.is_empty() {
        entry.git_sha.clone()
    } else {
        entry.label.clone()
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Renders the ledger as a human-readable trend report: a run legend,
/// then one markdown table row per case with one column per run and a
/// `last/first` trend ratio. Runs whose environment differs from the
/// first run (quick mode or CPU) mark their trend with `*`, since the
/// ratio then mixes code and host effects.
pub fn render_report(entries: &[LedgerEntry]) -> String {
    let mut out = String::from("# Performance trajectory\n\n");
    if entries.is_empty() {
        out.push_str("(ledger is empty)\n");
        return out;
    }
    let mut ids: Vec<&String> = entries
        .iter()
        .flat_map(|e| e.cases.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    ids.sort();
    out.push_str(&format!(
        "{} run(s), {} case(s).\n\n| run | ref | mode | cpu |\n|---|---|---|---|\n",
        entries.len(),
        ids.len()
    ));
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "| r{} | {} | {} | {} |\n",
            i + 1,
            ref_name(e),
            if e.quick { "quick" } else { "full" },
            e.cpu
        ));
    }
    out.push_str("\n| case |");
    for i in 1..=entries.len() {
        out.push_str(&format!(" r{i} |"));
    }
    out.push_str(" last/first |\n|---|");
    out.push_str(&"---|".repeat(entries.len() + 1));
    out.push('\n');
    let mut starred = false;
    for id in ids {
        out.push_str(&format!("| {id} |"));
        let present: Vec<(usize, f64)> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.cases.get(id).map(|&ns| (i, ns)))
            .collect();
        for e in entries {
            match e.cases.get(id) {
                Some(&ns) => out.push_str(&format!(" {} |", fmt_ns(ns))),
                None => out.push_str(" — |"),
            }
        }
        match (present.first(), present.last()) {
            (Some(&(fi, first)), Some(&(li, last))) if fi != li && first > 0.0 => {
                let comparable =
                    entries[fi].quick == entries[li].quick && entries[fi].cpu == entries[li].cpu;
                starred |= !comparable;
                out.push_str(&format!(
                    " {:.2}x{} |\n",
                    last / first,
                    if comparable { "" } else { "*" }
                ));
            }
            _ => out.push_str(" — |\n"),
        }
    }
    if starred {
        out.push_str(
            "\n\\* endpoints ran under different environments (quick mode \
             or CPU differ); the ratio mixes code and host effects.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, quick: bool, cpu: &str, medians: &[(&str, f64)]) -> LedgerEntry {
        LedgerEntry {
            label: label.into(),
            quick,
            git_sha: format!("sha-{label}"),
            rustc: "rustc test".into(),
            cpu: cpu.into(),
            cases: medians
                .iter()
                .map(|&(id, ns)| (id.to_string(), ns))
                .collect(),
            attribution: vec![AttributionSummary {
                transform: "dft".into(),
                n: 1024,
                strategy: "ddl".into(),
                miss_rate: 0.05,
                misses: 100,
                accesses: 2000,
                leaves: 3,
                case3_leaves: 0,
                tlb_miss_rate: Some(0.002),
                case3_leaves_page: Some(0),
            }],
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ddl-ledger-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn entry_round_trips_as_one_line() {
        let e = entry("a", true, "cpu0", &[("dft-ddl-n16", 123.5)]);
        let line = e.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(LedgerEntry::parse_line(&line).unwrap(), e);
    }

    #[test]
    fn written_lines_keep_the_committed_record_shape() {
        // Top-level keys and version of one JSONL line.
        let shape = |line: &str| -> (Vec<String>, Option<u64>) {
            let doc = json::parse(line).unwrap();
            let m = doc.as_obj().unwrap();
            (m.keys().cloned().collect(), m["version"].as_u64())
        };
        let (keys, version) = shape(&entry("a", true, "cpu0", &[("dft-ddl-n16", 1.0)]).to_line());
        assert_eq!(version, Some(2));
        let fixture =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/trajectory_3.jsonl");
        for committed in std::fs::read_to_string(fixture).unwrap().lines() {
            assert_eq!(shape(committed).0, keys);
        }
    }

    #[test]
    fn v1_lines_without_hierarchy_fields_still_parse() {
        // A pre-v2 line (version 1, no tlb/page keys) must keep
        // parsing, with the additive fields absent.
        let mut e = entry("a", true, "cpu0", &[("dft-ddl-n16", 123.5)]);
        e.attribution[0].tlb_miss_rate = None;
        e.attribution[0].case3_leaves_page = None;
        let line = e.to_line().replace("\"version\":2", "\"version\":1");
        assert_ne!(line, e.to_line(), "version rewrite did not apply");
        let back = LedgerEntry::parse_line(&line).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.attribution[0].tlb_miss_rate, None);
        assert_eq!(back.attribution[0].case3_leaves_page, None);
    }

    #[test]
    fn newer_versions_are_refused() {
        let e = entry("a", true, "cpu0", &[("dft-ddl-n16", 123.5)]);
        let line = e.to_line().replace("\"version\":2", "\"version\":3");
        assert_ne!(line, e.to_line(), "version rewrite did not apply");
        let err = LedgerEntry::parse_line(&line).unwrap_err().to_string();
        assert!(err.contains("newer than supported"), "wrong error: {err}");
    }

    #[test]
    fn bad_hierarchy_fields_are_errors_not_none() {
        let e = entry("a", true, "cpu0", &[("dft-ddl-n16", 123.5)]);
        let line = e
            .to_line()
            .replace("\"tlb_miss_rate\":0.002", "\"tlb_miss_rate\":-1");
        assert_ne!(line, e.to_line(), "garble did not apply");
        let err = LedgerEntry::parse_line(&line).unwrap_err().to_string();
        assert!(err.contains("tlb_miss_rate"), "wrong error: {err}");
    }

    #[test]
    fn append_then_read_preserves_order() {
        let path = temp_path("order");
        let _ = std::fs::remove_file(&path);
        let a = entry("a", true, "cpu0", &[("c", 100.0)]);
        let b = entry("b", true, "cpu0", &[("c", 110.0)]);
        append_entry(&path, &a).unwrap();
        append_entry(&path, &b).unwrap();
        let back = read_ledger(&path).unwrap();
        assert_eq!(back, vec![a, b]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let path = temp_path("bad");
        std::fs::write(
            &path,
            format!("{}\nnot json\n", entry("a", true, "c", &[]).to_line()),
        )
        .unwrap();
        let err = read_ledger(&path).unwrap_err().to_string();
        assert!(err.contains("line 2"), "no line number in: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_regression_fails_the_check() {
        let entries = vec![
            entry("a", true, "cpu0", &[("dft", 100.0), ("wht", 50.0)]),
            entry("b", true, "cpu0", &[("dft", 1000.0), ("wht", 55.0)]),
        ];
        let check = check_ledger(&entries, 0.5);
        assert_eq!(check.compared, 1);
        assert!(!check.passed());
        assert_eq!(check.regressions.len(), 1);
        let r = &check.regressions[0];
        assert_eq!(r.id, "dft");
        assert!((r.ratio - 10.0).abs() < 1e-12);
        assert_eq!(r.from, "sha-a");
        assert_eq!(r.to, "sha-b");
    }

    #[test]
    fn stable_medians_pass() {
        let entries = vec![
            entry("a", true, "cpu0", &[("dft", 100.0)]),
            entry("b", true, "cpu0", &[("dft", 120.0)]),
            entry("c", true, "cpu0", &[("dft", 95.0)]),
        ];
        let check = check_ledger(&entries, 0.5);
        assert!(check.passed());
        assert_eq!(check.compared, 2);
    }

    #[test]
    fn mismatched_mode_or_cpu_is_skipped_not_compared() {
        let entries = vec![
            entry("a", true, "cpu0", &[("dft", 100.0)]),
            entry("b", false, "cpu0", &[("dft", 10000.0)]),
            entry("c", false, "cpu1", &[("dft", 100000.0)]),
        ];
        let check = check_ledger(&entries, 0.5);
        assert!(check.passed(), "cross-mode/cpu deltas are not regressions");
        assert_eq!(check.compared, 0);
        assert_eq!(check.skipped, 2);
    }

    #[test]
    fn uniform_host_drift_is_not_a_regression() {
        // Every case ~1.8x slower (same CPU model string, slower
        // machine state): the median ratio absorbs it.
        let ids = ["a", "b", "c", "d", "e", "f"];
        let prev: Vec<(&str, f64)> = ids.iter().map(|&id| (id, 1000.0)).collect();
        let cur: Vec<(&str, f64)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, 1700.0 + 50.0 * i as f64))
            .collect();
        let entries = vec![
            entry("a", true, "cpu0", &prev),
            entry("b", true, "cpu0", &cur),
        ];
        let check = check_ledger(&entries, 0.5);
        assert!(check.passed(), "{:?}", check.regressions);
        assert_eq!(check.compared, 1);
    }

    #[test]
    fn single_case_regression_survives_drift_normalization() {
        // Host 1.2x slower overall, but one case blew up 5x: the
        // drift factor must not launder it.
        let prev = vec![
            ("a", 1000.0),
            ("b", 1000.0),
            ("c", 1000.0),
            ("d", 1000.0),
            ("e", 1000.0),
            ("bad", 1000.0),
        ];
        let cur = vec![
            ("a", 1200.0),
            ("b", 1150.0),
            ("c", 1250.0),
            ("d", 1200.0),
            ("e", 1180.0),
            ("bad", 5000.0),
        ];
        let entries = vec![
            entry("a", true, "cpu0", &prev),
            entry("b", true, "cpu0", &cur),
        ];
        let check = check_ledger(&entries, 0.5);
        assert_eq!(check.regressions.len(), 1, "{:?}", check.regressions);
        let r = &check.regressions[0];
        assert_eq!(r.id, "bad");
        assert!((r.ratio - 5.0).abs() < 1e-12);
        assert!(r.drift > 1.1 && r.drift < 1.3, "drift {}", r.drift);
    }

    #[test]
    fn faster_host_never_hides_a_lagging_case() {
        // Everything got 2x faster except one case that got 2x slower;
        // drift clamps at 1 so the laggard is still flagged.
        let prev = vec![
            ("a", 1000.0),
            ("b", 1000.0),
            ("c", 1000.0),
            ("d", 1000.0),
            ("e", 1000.0),
            ("bad", 1000.0),
        ];
        let cur = vec![
            ("a", 500.0),
            ("b", 500.0),
            ("c", 500.0),
            ("d", 500.0),
            ("e", 500.0),
            ("bad", 2000.0),
        ];
        let entries = vec![
            entry("a", true, "cpu0", &prev),
            entry("b", true, "cpu0", &cur),
        ];
        let check = check_ledger(&entries, 0.5);
        assert_eq!(check.regressions.len(), 1);
        assert_eq!(check.regressions[0].id, "bad");
        assert_eq!(check.regressions[0].drift, 1.0);
    }

    #[test]
    fn rendered_report_tracks_the_committed_fixture() {
        let fixture =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/trajectory_3.jsonl");
        let entries = read_ledger(&fixture).unwrap();
        assert_eq!(entries.len(), 3, "fixture is three runs");
        let report = render_report(&entries);
        assert!(report.starts_with("# Performance trajectory"));
        assert!(report.contains("3 run(s), 3 case(s)."));
        // Legend rows carry the git refs of all three runs.
        for sha in ["aaaa111", "bbbb222", "cccc333"] {
            assert!(report.contains(sha), "missing {sha} in:\n{report}");
        }
        // The improving case trends below 1x, the regressing one above.
        assert!(
            report.contains("| dft-ddl-n1024 | 820.0 ns | 790.0 ns | 780.0 ns | 0.95x |"),
            "unexpected trend row in:\n{report}"
        );
        assert!(
            report.contains("| wht-ddl-n256 | 310.0 ns | 305.0 ns | 1.40 us | 4.52x |"),
            "unexpected trend row in:\n{report}"
        );
        // Same environment throughout: no mixed-environment footnote.
        assert!(!report.contains('*'), "unexpected footnote in:\n{report}");
    }

    #[test]
    fn rendered_report_marks_cross_environment_trends() {
        let entries = vec![
            entry("a", true, "cpu0", &[("dft", 100.0)]),
            entry("b", false, "cpu1", &[("dft", 200.0), ("solo", 5.0)]),
        ];
        let report = render_report(&entries);
        assert!(report.contains("| dft | 100.0 ns | 200.0 ns | 2.00x* |"));
        // A case present in only one run has no trend, and a missing
        // cell renders as a dash.
        assert!(report.contains("| solo | — | 5.0 ns | — |"));
        assert!(report.contains("different environments"));
        assert!(render_report(&[]).contains("(ledger is empty)"));
    }

    #[test]
    fn digests_render_simulated_records_only() {
        use ddl_cachesim::{CacheConfig, HierarchyConfig};
        use ddl_core::attrib::attribute_dft_hier;
        use ddl_core::DftPlan;
        let plan = DftPlan::from_expr("ct(64, 32)", ddl_num::Direction::Forward).unwrap();
        let cache = CacheConfig::paper_default(64);
        let mut simulated = PlanRecord::dft(&plan, "sdl");
        let sim = attribute_dft_hier(&plan, 1, cache, HierarchyConfig::typical(cache)).unwrap();
        simulated.sim = Some(sim.clone());
        let mut plans = Report::new("digest");
        plans.plans = vec![PlanRecord::dft(&plan, "ddl"), simulated];
        let digests: Vec<_> = plans
            .plans
            .iter()
            .filter_map(AttributionSummary::of)
            .collect();
        assert_eq!(digests.len(), 1);
        let d = &digests[0];
        assert_eq!(
            (d.transform.as_str(), d.n, d.strategy.as_str()),
            ("dft", 2048, "sdl")
        );
        assert_eq!(
            (d.misses, d.accesses),
            (sim.totals.misses, sim.totals.accesses)
        );
        assert_eq!((d.leaves, d.case3_leaves), sim.case3_leaf_counts());
        assert_eq!(d.tlb_miss_rate, sim.tlb_miss_rate());
    }

    #[test]
    fn single_entry_trivially_passes() {
        let check = check_ledger(&[entry("a", true, "cpu0", &[("dft", 1.0)])], 0.5);
        assert!(check.passed());
        assert_eq!(check.entries, 1);
        assert_eq!(check.compared, 0);
    }
}
