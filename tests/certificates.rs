//! The certificate gate can fail, and passes on the real sources.
//!
//! `ddl-cert` proves every SIMD pointer access in bounds and aligned and
//! the lock-order graph acyclic. A verifier that silently weakened would
//! still "pass", so each proof is paired with a seeded defect it must
//! refuse: an off-by-one pointer offset in `crates/backend-simd/src/arch.rs`
//! and the lock-order inversion fixture. The same checks back
//! `ddl_cert --demo-mutation`.

use dynamic_data_layout::analyze::ptr::{demo_mutation_caught, PTR_TARGET};
use dynamic_data_layout::analyze::{
    build_certificate, check_cert_text, locks, AnalysisReport, MutationKind, PtrMutation,
};
use std::path::Path;

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn seeded_pointer_off_by_one_is_caught() {
    let mutation = PtrMutation {
        site: 0,
        kind: MutationKind::OffsetByOne,
    };
    assert!(demo_mutation_caught(&workspace_file(PTR_TARGET), mutation));
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
    let summary = check_cert_text(&doc.pretty()).unwrap();
    assert!(
        summary.mutations > 0,
        "the certificate ran no mutation self-test"
    );
}
