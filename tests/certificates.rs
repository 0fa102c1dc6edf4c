//! The certificate gate can fail, and passes on the real sources.
//!
//! `ddl-cert` proves the lock-order graph acyclic and the per-size error
//! bounds monotone. A verifier that silently weakened would still
//! "pass", so the lock proof is paired with a seeded defect it must
//! refuse: the lock-order inversion fixture. The same check backs
//! `ddl_cert --demo-mutation lock-inversion`.

use dynamic_data_layout::analyze::{build_certificate, check_cert_text, locks, AnalysisReport};
use std::path::Path;

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn seeded_lock_inversion_is_caught_as_a_cycle() {
    assert!(locks::inversion_caught(&workspace_file(
        locks::INVERSION_FIXTURE
    )));
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
    // Validation refuses a certificate with no lock class or no bound.
    if let Err(e) = check_cert_text(&doc.pretty()) {
        panic!("the certificate does not validate: {e}");
    }
}
