//! The `ddl-cert` certificate: one versioned, machine-checkable
//! artifact binding together the two static-verification passes.
//!
//! A certificate states *what was proven* in a form another program can
//! re-validate without re-running the proofs:
//!
//! * `locks` — the [`crate::locks`] rule: the lock-holding files it
//!   scanned, their acquisition sites, and `nested: 0` (no lock taken
//!   while another is held);
//! * `errbound` — the [`crate::errbound`] per-size static ulp bounds
//!   with the model constants that produced them.
//!
//! The SIMD kernels need no section: they index bounds-checked slices,
//! so there is no raw-pointer access left to prove (the source-policy
//! test `tests/lint_policy.rs` keeps it that way).
//!
//! The document is versioned (`schema: "ddl-cert", version: 3`) and
//! validated by [`check_cert_text`], which refuses newer versions and
//! re-checks the internal invariants (a non-empty scan set with no
//! nested acquisition, monotone bounds). `ddl_core::check_report`
//! routes the document here via its `Unknown`-schema escape hatch.

use crate::errbound;
use crate::findings::{AnalysisReport, Severity};
use crate::locks::{self, LockCertificate};
use ddl_core::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema string of the certificate document.
pub const CERT_SCHEMA: &str = "ddl-cert";

/// Current certificate version; [`check_cert_text`] refuses newer.
pub const CERT_VERSION: u32 = 3;

/// Counts reported back by [`check_cert_text`] for display.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CertSummary {
    /// Lock-holding files the lock rule scanned.
    pub files: usize,
    /// Acquisition sites in them.
    pub sites: usize,
    /// Per-size error bounds recorded.
    pub bounds: usize,
}

fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    let mut m = BTreeMap::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Json::Obj(m)
}

fn locks_json(cert: &LockCertificate) -> Json {
    obj(vec![
        (
            "files",
            Json::Arr(cert.files.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("sites", num(cert.sites)),
        ("nested", num(0)),
    ])
}

fn errbound_json() -> Json {
    let mut bounds: Vec<Json> = errbound::bound_table()
        .iter()
        .map(|b| {
            obj(vec![
                ("n", num(b.n)),
                ("r_dag", Json::Num((b.r_dag * 1e6).round() / 1e6)),
                ("depth", num(b.depth)),
                ("ulps", Json::Num(b.ulps as f64)),
            ])
        })
        .collect();
    // Composed sizes above the largest codelet, through the largest
    // size the conformance suite sweeps.
    for lg in 7u32..=14 {
        let n = 1usize << lg;
        bounds.push(obj(vec![
            ("n", num(n)),
            ("ulps", Json::Num(errbound::static_ulp_bound(n) as f64)),
        ]));
    }
    obj(vec![
        (
            "model",
            obj(vec![
                ("kappa", Json::Num(errbound::KAPPA)),
                ("c_level", Json::Num(errbound::C_LEVEL)),
                ("c_dispatch", Json::Num(errbound::C_DISPATCH)),
                ("max_codelet", num(errbound::MAX_CODELET)),
            ]),
        ),
        ("bounds", Json::Arr(bounds)),
    ])
}

/// Runs both passes against the workspace at `root` and assembles the
/// certificate document. Returns `None` (with error findings in
/// `report`) when any pass fails — a failing workspace gets no
/// certificate.
pub fn build_certificate(root: &Path, report: &mut AnalysisReport) -> Option<Json> {
    let lock_cert = locks::analyze_locks(root, report)?;
    if !errbound::verify_bounds(report) {
        return None;
    }
    let findings = obj(vec![
        ("errors", num(report.count(Severity::Error))),
        ("warnings", num(report.count(Severity::Warning))),
        ("checks", Json::Num(report.checks as f64)),
        ("subjects", Json::Num(report.subjects as f64)),
    ]);
    Some(obj(vec![
        ("schema", Json::Str(CERT_SCHEMA.into())),
        ("version", Json::Num(CERT_VERSION as f64)),
        ("locks", locks_json(&lock_cert)),
        ("errbound", errbound_json()),
        ("findings_summary", findings),
    ]))
}

fn get<'a>(m: &'a BTreeMap<String, Json>, k: &str) -> Result<&'a Json, String> {
    m.get(k).ok_or_else(|| format!("missing field `{k}`"))
}

fn get_obj<'a>(
    m: &'a BTreeMap<String, Json>,
    k: &str,
) -> Result<&'a BTreeMap<String, Json>, String> {
    get(m, k)?
        .as_obj()
        .ok_or_else(|| format!("field `{k}` is not an object"))
}

fn get_arr<'a>(m: &'a BTreeMap<String, Json>, k: &str) -> Result<&'a [Json], String> {
    match get(m, k)? {
        Json::Arr(v) => Ok(v),
        _ => Err(format!("field `{k}` is not an array")),
    }
}

fn get_u64(m: &BTreeMap<String, Json>, k: &str) -> Result<u64, String> {
    get(m, k)?
        .as_u64()
        .ok_or_else(|| format!("field `{k}` is not a non-negative integer"))
}

/// Validates a certificate document and re-checks its internal
/// invariants. Returns display counts on success, a diagnostic on any
/// violation. Refuses documents with a newer version than this build
/// understands.
pub fn check_cert_text(text: &str) -> Result<CertSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let top = doc.as_obj().ok_or("top level is not an object")?;
    let schema = get(top, "schema")?
        .as_str()
        .ok_or("`schema` is not a string")?;
    if schema != CERT_SCHEMA {
        return Err(format!("schema is {schema:?}, not {CERT_SCHEMA:?}"));
    }
    let version = get_u64(top, "version")?;
    if version > CERT_VERSION as u64 {
        return Err(format!(
            "certificate version {version} is newer than supported version {CERT_VERSION}"
        ));
    }

    // Lock rule.
    let locks_doc = get_obj(top, "locks")?;
    let files = get_arr(locks_doc, "files")?;
    if files.is_empty() {
        return Err("lock certificate scanned no file".into());
    }
    if get_u64(locks_doc, "nested")? != 0 {
        return Err("lock certificate records a nested acquisition".into());
    }
    let sites = get_u64(locks_doc, "sites")?;

    // Error bounds: monotone, below the legacy flat bound.
    let errb = get_obj(top, "errbound")?;
    let bounds = get_arr(errb, "bounds")?;
    if bounds.is_empty() {
        return Err("error-bound certificate is empty".into());
    }
    let mut prev = (0u64, 0u64);
    for (i, b) in bounds.iter().enumerate() {
        let b = b
            .as_obj()
            .ok_or_else(|| format!("bound {i} is not an object"))?;
        let n = get_u64(b, "n")?;
        let ulps = get_u64(b, "ulps")?;
        if ulps >= 4096 {
            return Err(format!(
                "bound for n={n} is {ulps} ulps, not below the flat 4096"
            ));
        }
        if n > prev.0 && ulps < prev.1 {
            return Err(format!(
                "bounds not monotone: n={n} has {ulps} ulps after n={} with {}",
                prev.0, prev.1
            ));
        }
        prev = (n, ulps);
    }

    Ok(CertSummary {
        files: files.len(),
        sites: sites as usize,
        bounds: bounds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root")
    }

    #[test]
    fn workspace_certificate_builds_and_validates() {
        let mut report = AnalysisReport::new();
        let doc = build_certificate(&root(), &mut report)
            .unwrap_or_else(|| panic!("certificate: {:#?}", report.findings));
        assert!(report.passes(), "{:#?}", report.findings);
        let text = doc.pretty();
        let summary = check_cert_text(&text).expect("self-validation");
        assert_eq!(summary.files, 7, "{summary:?}");
        assert!(summary.sites >= summary.files);
        assert!(summary.bounds >= 10);
        // A nested acquisition or an empty scan set does not validate.
        let err = check_cert_text(&text.replace("\"nested\": 0", "\"nested\": 1"))
            .expect_err("nested acquisitions");
        assert!(err.contains("nested"), "{err}");
        let files = text.find("\"files\": [").expect("files");
        let end = files + text[files..].find(']').expect("end of files");
        let emptied = format!("{}\"files\": []{}", &text[..files], &text[end + 1..]);
        let err = check_cert_text(&emptied).expect_err("empty scan set");
        assert!(err.contains("no file"), "{err}");
    }

    #[test]
    fn core_report_checker_routes_cert_documents() {
        let mut report = AnalysisReport::new();
        let doc = build_certificate(&root(), &mut report).expect("certificate");
        match ddl_core::check_report_text(&doc.pretty()) {
            Ok(ddl_core::CheckedReport::Unknown { schema }) => {
                assert_eq!(schema, CERT_SCHEMA);
            }
            other => panic!("wrong dispatch: {other:?}"),
        }
    }

    #[test]
    fn newer_versions_are_refused() {
        let mut report = AnalysisReport::new();
        let doc = build_certificate(&root(), &mut report).expect("certificate");
        let text = doc.pretty().replace("\"version\": 3", "\"version\": 4");
        let err = check_cert_text(&text).expect_err("must refuse newer");
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn tampered_bounds_fail_validation() {
        let mut report = AnalysisReport::new();
        let doc = build_certificate(&root(), &mut report).expect("certificate");
        let text = doc.pretty().replace("\"ulps\": 96", "\"ulps\": 99999");
        let err = check_cert_text(&text).expect_err("must reject tampered bound");
        assert!(err.contains("4096"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = check_cert_text("{\"schema\": \"ddl-metrics\", \"version\": 1}")
            .expect_err("wrong schema");
        assert!(err.contains("ddl-cert"), "{err}");
    }
}
