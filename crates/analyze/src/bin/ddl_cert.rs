//! `ddl-cert`: machine-checkable certificate gate (xtask-style).
//!
//! Default mode runs both verification passes (lock-order graph vs.
//! the pinned golden, static ulp error bounds), writes the versioned
//! `ddl-cert` document, and exits non-zero if either pass fails.
//! `--check` re-validates an existing document without re-running the
//! proofs. `--demo-mutation lock-inversion` seeds one known violation
//! and exits zero only if the verifier catches it — CI runs it
//! expecting *failure to certify*, proving the gate can fail.
//!
//! ```sh
//! cargo run --release -p ddl-analyze --bin ddl_cert
//! cargo run --release -p ddl-analyze --bin ddl_cert -- --out target/cert-report.json
//! cargo run --release -p ddl-analyze --bin ddl_cert -- --check target/cert-report.json
//! cargo run --release -p ddl-analyze --bin ddl_cert -- --demo-mutation lock-inversion
//! ```

use ddl_analyze::cert;
use ddl_analyze::locks;
use ddl_analyze::{AnalysisReport, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut demo: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a path"),
            },
            "--out" => match args.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(v) => check = Some(PathBuf::from(v)),
                None => return usage("--check needs a path"),
            },
            "--demo-mutation" => match args.next() {
                Some(v) => demo = Some(v),
                None => return usage("--demo-mutation needs lock-inversion"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    // Accept being launched from the workspace root or a crate dir.
    if !root.join("crates").is_dir() && root.join("../../crates").is_dir() {
        root = root.join("../..");
    }

    if let Some(path) = check {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ddl-cert: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        // Route through the shared report checker first: the document
        // must be a well-formed versioned report before cert-specific
        // validation sees it.
        match ddl_core::check_report_text(&text) {
            Ok(ddl_core::CheckedReport::Unknown { schema }) if schema == cert::CERT_SCHEMA => {}
            Ok(other) => {
                eprintln!(
                    "ddl-cert: {} holds a {} document, not {}",
                    path.display(),
                    other.schema(),
                    cert::CERT_SCHEMA
                );
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("ddl-cert: {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        return match cert::check_cert_text(&text) {
            Ok(s) => {
                eprintln!(
                    "ddl-cert: {} valid — {} lock classes / {} edges acyclic, {} bounds",
                    path.display(),
                    s.classes,
                    s.edges,
                    s.bounds
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ddl-cert: {} INVALID: {e}", path.display());
                ExitCode::from(1)
            }
        };
    }

    if let Some(which) = demo {
        return run_demo(&root, &which);
    }

    let mut report = AnalysisReport::new();
    let doc = cert::build_certificate(&root, &mut report);
    for f in &report.findings {
        eprintln!(
            "{}: {} [{}] {}",
            f.severity.label(),
            f.subject,
            f.rule,
            f.message
        );
    }
    let Some(doc) = doc else {
        eprintln!(
            "ddl-cert: NOT certified — {} errors across {} checks",
            report.count(Severity::Error),
            report.checks
        );
        return ExitCode::from(1);
    };
    if let Some(path) = out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("ddl-cert: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("ddl-cert: wrote {}", path.display());
    }
    eprintln!(
        "ddl-cert: certified — {} checks over {} subjects, 0 errors",
        report.checks, report.subjects
    );
    ExitCode::SUCCESS
}

/// Seeds one known violation and reports whether the verifier caught
/// it. Exits 0 *only if caught* — so CI asserts the gate can fail by
/// expecting this command to succeed, and the certify run to fail,
/// under the same seeded defect.
fn run_demo(root: &std::path::Path, which: &str) -> ExitCode {
    match which {
        "lock-inversion" => {
            let source = match std::fs::read_to_string(root.join(locks::INVERSION_FIXTURE)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ddl-cert: cannot read {}: {e}", locks::INVERSION_FIXTURE);
                    return ExitCode::from(2);
                }
            };
            if locks::inversion_caught(&source) {
                eprintln!("ddl-cert: seeded lock-order inversion was caught as a cycle");
                ExitCode::SUCCESS
            } else {
                eprintln!("ddl-cert: seeded lock-order inversion was NOT caught");
                ExitCode::from(1)
            }
        }
        other => usage(&format!(
            "unknown demo mutation {other} (want lock-inversion)"
        )),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ddl-cert: {msg}");
    eprintln!(
        "usage: ddl_cert [--root DIR] [--out FILE] [--check FILE] \
         [--demo-mutation lock-inversion]"
    );
    ExitCode::from(2)
}
