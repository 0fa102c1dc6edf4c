//! Static analysis for the dynamic-data-layout system.
//!
//! The paper's argument is itself a static analysis: from a plan's
//! `(size, stride)` decomposition alone it predicts which leaf accesses
//! conflict in a set-associative cache and when a dynamic layout
//! reorganization pays off. This crate turns that style of reasoning
//! into correctness tooling, in eight modules:
//!
//! * [`access`] — proves the execution layout a compiled plan exports
//!   (`ddl_core::layout`, built from the nodes the executor runs on):
//!   every view in-bounds, every primitive step alias-free, every scratch
//!   interval inside the plan's scratch.
//! * [`conflict`] — closed-form cache-set conflict degrees per step
//!   family of that layout (the static counterpart to simulated conflict
//!   misses).
//! * [`attrib`] — static enrichment of `ddl-core` attribution runs and
//!   the three-way empirical/model/static Case III cross-check.
//! * [`dag`] — structural verification of `ddl-codegen` codelet DAGs:
//!   store coverage, load reachability, constant sanity, op budgets.
//! * [`lint`] — workspace source lints (`ddl-lint`): no panics in
//!   library code, no clocks in pure planning code,
//!   `#![forbid(unsafe_code)]` everywhere, no raw-pointer arithmetic,
//!   no dead `allow` markers.
//! * [`locks`] — the lock rule over every lock-holding file: no lock
//!   acquired while another is held, none held across unwind capture,
//!   a thread spawn or plan execution.
//! * [`errbound`] — static per-size ulp error bounds derived from the
//!   verified codelet DAGs, replacing the legacy flat tolerance.
//! * [`cert`] — binds the lock rule and the error-bound pass into the
//!   versioned, machine-checkable `ddl-cert` certificate artifact.
//!
//! All passes report through [`findings::AnalysisReport`], which
//! serializes to the versioned `ddl-analyze` JSON schema; CI gates on
//! `error`-severity findings via the `ddl_analyze`, `ddl_lint` and
//! `ddl_cert` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod attrib;
pub mod cert;
pub mod conflict;
pub mod dag;
pub mod errbound;
pub mod findings;
pub mod lint;
pub mod locks;
mod stride;

pub use access::{analyze_dft_plan, analyze_wht_plan};
pub use attrib::{annotate_static, annotated_leaves, crosscheck, Disagreement};
pub use cert::{build_certificate, check_cert_text, CertSummary, CERT_SCHEMA, CERT_VERSION};
pub use conflict::{
    conflict_degree, conflict_summary, CacheGeometry, ConflictInfo, ConflictSummary,
};
pub use dag::{op_budget, verify_codelet, verify_generated, CodeletDag};
pub use errbound::{static_ulp_bound, SizeBound};
pub use findings::{AnalysisReport, Finding, Severity, ANALYZE_SCHEMA, ANALYZE_VERSION};
pub use lint::{lint_source, lint_workspace, RuleSet, RULE_DEAD_ALLOW};
pub use locks::{analyze_locks, LockCertificate};
