//! `ddl-cert`: machine-checkable certificate gate (xtask-style).
//!
//! Default mode runs both verification passes (the lock rule over every
//! lock-holding file, static ulp error bounds), writes the versioned
//! `ddl-cert` document, and exits non-zero if either pass fails; each
//! lock-rule error names its site. `--check` re-validates an existing
//! document without re-running the proofs. `--demo-mutation
//! lock-inversion` runs the rule on a seeded lock-order inversion and
//! exits zero only if it is refused — CI runs it, proving the gate can
//! fail.
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
    let mut demo = false;
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
            "--demo-mutation" => match args.next().as_deref() {
                Some("lock-inversion") => demo = true,
                _ => return usage("--demo-mutation needs lock-inversion"),
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
                    "ddl-cert: {} valid — {} lock-holding files / {} acquisition sites, \
                     none nested, {} bounds",
                    path.display(),
                    s.files,
                    s.sites,
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

    if demo {
        return run_demo(&root);
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

/// Runs the lock rule on the seeded lock-order inversion. Exits 0 *only
/// if the rule refuses it*, so CI running this command proves the gate
/// can fail.
fn run_demo(root: &std::path::Path) -> ExitCode {
    match std::fs::read_to_string(root.join(locks::INVERSION_FIXTURE)) {
        Ok(source) if locks::inversion_caught(&source) => {
            eprintln!("ddl-cert: seeded lock-order inversion was refused as nesting");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("ddl-cert: seeded lock-order inversion was NOT refused");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ddl-cert: cannot read {}: {e}", locks::INVERSION_FIXTURE);
            ExitCode::from(2)
        }
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
