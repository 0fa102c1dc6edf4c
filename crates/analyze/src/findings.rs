//! Machine-readable analysis findings and the versioned `ddl-analyze`
//! report schema.
//!
//! Every check the analyzer, DAG verifier and source linter run reports
//! through one [`AnalysisReport`]: a flat list of [`Finding`]s plus a
//! count of checks that ran (so "no findings" is distinguishable from
//! "nothing was checked"). Reports serialize through the in-tree JSON
//! module with the same versioned-schema discipline as `ddl-report`:
//! a `schema`/`version` pair up front, strict parsing, and refusal of
//! documents newer than this library understands.

use ddl_core::json::Json;
use ddl_num::DdlError;
use std::collections::BTreeMap;

/// Schema identifier emitted in every report document.
pub const ANALYZE_SCHEMA: &str = "ddl-analyze";
/// Current schema version. Bump on breaking layout changes; parsing
/// refuses documents with a newer version.
pub const ANALYZE_VERSION: u32 = 1;

/// How serious a finding is. `Error` findings gate CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a property worth surfacing, not a defect.
    Info,
    /// Suspicious but not provably wrong (e.g. a dead DAG node).
    Warning,
    /// A proven violation: out-of-bounds access, aliasing, a dropped
    /// store, a banned construct. CI fails on any of these.
    Error,
}

impl Severity {
    /// Stable lowercase name used in report documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    fn from_label(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// One finding: a rule identifier, a severity, the subject it applies to
/// (a plan key like `dft:1024:ddl`, a codelet like `dag:dft16_f`, or a
/// `file:line` for source lints) and a human-readable message.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct Finding {
    /// Stable rule identifier, e.g. `plan/out-of-bounds` or
    /// `lint/no-panics`.
    pub rule: String,
    /// Severity; `Error` findings gate CI.
    pub severity: Severity,
    /// What the finding applies to.
    pub subject: String,
    /// Human-readable diagnostic.
    pub message: String,
}

/// Accumulated result of an analysis run.
#[derive(Clone, Debug, Default, PartialEq)]
#[must_use]
pub struct AnalysisReport {
    /// All findings, in the order they were produced.
    pub findings: Vec<Finding>,
    /// Number of individual checks that ran (bounds proofs, aliasing
    /// proofs, DAG checks, linted lines...). Zero checks means the run
    /// proved nothing.
    pub checks: u64,
    /// Number of subjects (plans, codelets, files) examined.
    pub subjects: u64,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> AnalysisReport {
        AnalysisReport::default()
    }

    /// Records one finding.
    pub fn push(&mut self, rule: &str, severity: Severity, subject: &str, message: String) {
        self.findings.push(Finding {
            rule: rule.to_string(),
            severity,
            subject: subject.to_string(),
            message,
        });
    }

    /// Counts one executed check.
    pub fn check(&mut self) {
        self.checks += 1;
    }

    /// Counts one examined subject.
    pub fn subject(&mut self) {
        self.subjects += 1;
    }

    /// Appends another report's findings and counters into this one.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.findings.extend(other.findings);
        self.checks += other.checks;
        self.subjects += other.subjects;
    }

    /// Number of findings at exactly the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Number of `Error` findings — the CI gate.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// True when the run is clean at the gating severity.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.error_count() == 0
    }

    /// Serializes to the versioned `ddl-analyze` document.
    pub fn to_json(&self) -> Json {
        let mut top = BTreeMap::new();
        top.insert("schema".into(), Json::Str(ANALYZE_SCHEMA.into()));
        top.insert("version".into(), Json::Num(ANALYZE_VERSION as f64));
        top.insert("checks".into(), Json::Num(self.checks as f64));
        top.insert("subjects".into(), Json::Num(self.subjects as f64));
        let mut summary = BTreeMap::new();
        summary.insert(
            "errors".into(),
            Json::Num(self.count(Severity::Error) as f64),
        );
        summary.insert(
            "warnings".into(),
            Json::Num(self.count(Severity::Warning) as f64),
        );
        summary.insert("info".into(), Json::Num(self.count(Severity::Info) as f64));
        top.insert("summary".into(), Json::Obj(summary));
        top.insert(
            "findings".into(),
            Json::Arr(
                self.findings
                    .iter()
                    .map(|f| {
                        let mut m = BTreeMap::new();
                        m.insert("rule".into(), Json::Str(f.rule.clone()));
                        m.insert("severity".into(), Json::Str(f.severity.label().into()));
                        m.insert("subject".into(), Json::Str(f.subject.clone()));
                        m.insert("message".into(), Json::Str(f.message.clone()));
                        Json::Obj(m)
                    })
                    .collect(),
            ),
        );
        Json::Obj(top)
    }

    /// Parses a report document, validating schema, version and summary
    /// consistency.
    pub fn parse(text: &str) -> Result<AnalysisReport, DdlError> {
        let doc = ddl_core::json::parse(text).map_err(|e| bad(format!("not valid JSON: {e}")))?;
        AnalysisReport::from_json(&doc)
    }

    /// Validates and converts a parsed JSON document.
    pub fn from_json(doc: &Json) -> Result<AnalysisReport, DdlError> {
        let top = doc
            .as_obj()
            .ok_or_else(|| bad("top level is not an object".into()))?;
        match top.get("schema").and_then(Json::as_str) {
            Some(ANALYZE_SCHEMA) => {}
            Some(other) => return Err(bad(format!("schema is {other:?}, not {ANALYZE_SCHEMA:?}"))),
            None => return Err(bad("missing schema field".into())),
        }
        let version = top
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing or non-integer version".into()))?;
        if version > ANALYZE_VERSION as u64 {
            return Err(bad(format!(
                "report version {version} is newer than supported version {ANALYZE_VERSION}"
            )));
        }
        let checks = top
            .get("checks")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing or non-integer checks".into()))?;
        let subjects = top
            .get("subjects")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing or non-integer subjects".into()))?;
        let raw = match top.get("findings") {
            Some(Json::Arr(items)) => items,
            _ => return Err(bad("missing or non-array findings".into())),
        };
        let mut findings = Vec::with_capacity(raw.len());
        for item in raw {
            let m = item
                .as_obj()
                .ok_or_else(|| bad("finding is not an object".into()))?;
            let get = |key: &str| -> Result<String, DdlError> {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("finding missing string field {key:?}")))
            };
            let severity = Severity::from_label(&get("severity")?)
                .ok_or_else(|| bad("finding has unknown severity".into()))?;
            findings.push(Finding {
                rule: get("rule")?,
                severity,
                subject: get("subject")?,
                message: get("message")?,
            });
        }
        let report = AnalysisReport {
            findings,
            checks,
            subjects,
        };
        // The summary block is derived data; a document whose summary
        // disagrees with its findings list was hand-edited or corrupted.
        if let Some(summary) = top.get("summary").and_then(Json::as_obj) {
            for (key, severity) in [
                ("errors", Severity::Error),
                ("warnings", Severity::Warning),
                ("info", Severity::Info),
            ] {
                let declared = summary
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(format!("summary missing integer {key:?}")))?;
                if declared != report.count(severity) as u64 {
                    return Err(bad(format!(
                        "summary declares {declared} {key} but findings list has {}",
                        report.count(severity)
                    )));
                }
            }
        } else {
            return Err(bad("missing summary object".into()));
        }
        Ok(report)
    }
}

fn bad(detail: String) -> DdlError {
    DdlError::Metrics {
        detail: format!("ddl-analyze report: {detail}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        let mut r = AnalysisReport::new();
        r.subject();
        r.check();
        r.check();
        r.push(
            "plan/out-of-bounds",
            Severity::Error,
            "dft:64:sdl",
            "leaf view exceeds input".into(),
        );
        r.push(
            "dag/dead-node",
            Severity::Warning,
            "dag:dft16_f",
            "node 12 unreachable".into(),
        );
        r
    }

    #[test]
    fn round_trips_through_json() {
        let r = sample();
        let text = r.to_json().pretty();
        let back = AnalysisReport::parse(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn refuses_newer_versions() {
        let mut doc = sample().to_json();
        if let Json::Obj(m) = &mut doc {
            m.insert("version".into(), Json::Num((ANALYZE_VERSION + 1) as f64));
        }
        let got = AnalysisReport::from_json(&doc);
        assert!(matches!(got, Err(DdlError::Metrics { .. })), "{got:?}");
    }

    #[test]
    fn refuses_wrong_schema_and_bad_summary() {
        let mut doc = sample().to_json();
        if let Json::Obj(m) = &mut doc {
            m.insert("schema".into(), Json::Str("ddl-metrics".into()));
        }
        assert!(AnalysisReport::from_json(&doc).is_err());

        let mut doc = sample().to_json();
        if let Json::Obj(m) = &mut doc {
            let mut summary = BTreeMap::new();
            summary.insert("errors".into(), Json::Num(9.0));
            summary.insert("warnings".into(), Json::Num(1.0));
            summary.insert("info".into(), Json::Num(0.0));
            m.insert("summary".into(), Json::Obj(summary));
        }
        assert!(AnalysisReport::from_json(&doc).is_err());
    }

    #[test]
    fn severity_counts_and_gate() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(!r.passes());
        assert!(AnalysisReport::new().passes());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(b);
        assert_eq!(a.findings.len(), 4);
        assert_eq!(a.checks, 4);
        assert_eq!(a.subjects, 2);
    }
}
