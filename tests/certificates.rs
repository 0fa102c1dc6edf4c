//! The certificate gate can fail, and passes on the real sources.
//!
//! `ddl-cert` proves that no lock is acquired while another is held and
//! that the per-size error bounds are monotone. A verifier that silently
//! weakened would still "pass", so the lock rule is paired with a seeded
//! defect it must refuse: the lock-order inversion fixture. The same
//! check backs `ddl_cert --demo-mutation lock-inversion`.

use dynamic_data_layout::analyze::{
    build_certificate, check_cert_text, locks, AnalysisReport, Severity,
};
use std::path::Path;

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn seeded_lock_inversion_is_caught_as_a_cycle() {
    // The cycle alpha -> beta -> alpha needs each function to take its
    // second lock under the first: the rule refuses both nestings, each
    // at the inner acquisition and naming the guard it nests under.
    let source = workspace_file(locks::INVERSION_FIXTURE);
    assert!(locks::inversion_caught(&source));
    let site = |k: usize| {
        let line = source
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("= relock("))
            .nth(k)
            .map(|(i, _)| i + 1)
            .expect("four acquisitions");
        format!("{}:{line}", locks::INVERSION_FIXTURE)
    };
    let mut report = AnalysisReport::new();
    let files = [(locks::INVERSION_FIXTURE.to_string(), source.clone())];
    assert!(locks::analyze_lock_sources(&files, &mut report).is_none());
    let errors: Vec<(String, String)> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| (f.subject.clone(), f.message.clone()))
        .collect();
    let nested = |inner: usize, outer: usize| {
        (
            site(inner),
            format!("lock acquired while the guard from {} is live", site(outer)),
        )
    };
    assert_eq!(errors, vec![nested(1, 0), nested(3, 2)]);
}

#[test]
fn unmutated_sources_certify() {
    let mut report = AnalysisReport::new();
    let doc = build_certificate(Path::new(env!("CARGO_MANIFEST_DIR")), &mut report);
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{} [{}] {}", f.subject, f.rule, f.message))
        .collect();
    let doc = doc.unwrap_or_else(|| panic!("sources did not certify: {findings:#?}"));
    // Validation refuses a certificate with no scanned file, a nested
    // acquisition or no bound.
    if let Err(e) = check_cert_text(&doc.pretty()) {
        panic!("the certificate does not validate: {e}");
    }
}
