//! Pass 1 of `ddl-cert`: the lock rule.
//!
//! Every lock in the workspace obeys one rule, checked over every
//! non-test file under `crates/*/src` that names `Mutex` or `RwLock`
//! (`scrub::holds_locks`):
//!
//! * no lock is acquired while another is held;
//! * no lock is held across unwind capture, a thread spawn or plan
//!   execution ([`RISKY_CALLS`]).
//!
//! Every lock-order cycle, and every self-deadlock, needs one lock taken
//! while another is held, so the first part refuses all of them without
//! naming lock classes or building an order graph.
//!
//! An acquisition is spelled `relock(..)` (the poison-recovering
//! `ddl_core::faultpoint::relock`), `.lock()`, `.read()` or `.write()`.
//! Its guard is held:
//!
//! * **temporary** — inside a larger expression (`relock(&q).pop_front()`,
//!   `*relock(&w) = x`, `std::mem::take(&mut *relock(&w))`): to the end
//!   of the statement;
//! * **let-bound** — `let g = relock(&q);`, possibly through a
//!   poison-recovering chain ([`PRESERVING`]): to the end of the block,
//!   or to `drop(g)`;
//! * **header-bound** — in an `if let`/`while let`/`match`/`for` header:
//!   through the body (Rust 2021 extends the header temporary there).
//!
//! Inside a guard's extent the rule refuses (a) any acquisition, re-entry
//! included; (b) a call to a scanned free function that takes a lock or
//! makes a risky call, directly or through further such calls; (c) a
//! risky call. Calls resolve by name to free functions only: `f(..)` and
//! `module::f(..)` resolve, while a method call `.f(..)`, a `Type::f(..)`
//! path and a function with a `self` parameter never do — so
//! `map.insert(..)` cannot alias `Engine::insert`, nor `drop(guard)`
//! `FaultGuard::drop`.

use crate::findings::{AnalysisReport, Severity};
use crate::scrub;
use std::collections::BTreeSet;
use std::path::Path;

/// Rule id for lock-rule findings.
pub const RULE_LOCKS: &str = "cert/locks";

/// Workspace-relative path of the seeded lock-order inversion the
/// self-test must refuse.
pub const INVERSION_FIXTURE: &str = "crates/analyze/fixtures/locks/inversion.rs";

/// Calls no guard may be held across: unwind capture, thread creation,
/// and the plan entry points that run user plans.
const RISKY_CALLS: &[&str] = &[
    "catch_unwind",
    "spawn",
    "spawn_scoped",
    "try_execute",
    "try_execute_inplace",
    "try_run",
    "try_profile_with",
    "run_request",
];

/// Chain methods after which `let g = lock()...` still binds the guard.
const PRESERVING: &[&str] = &["unwrap_or_else", "unwrap", "expect", "into_inner", "ok"];

/// What the rule certified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockCertificate {
    /// Scanned files, workspace-relative and sorted.
    pub files: Vec<String>,
    /// Acquisition sites in their non-test code.
    pub sites: usize,
}

/// One token of scrubbed, non-test source.
struct Tok<'a> {
    text: &'a str,
    line: usize,
}

fn word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The words and the punctuation `{ } ( ) [ ] ; . , :` of the non-test
/// lines; `scrub::scrub` has already blanked strings and comments.
fn tokens(scrubbed: &[String]) -> Vec<Tok<'_>> {
    let in_test = scrub::test_module_lines(scrubbed);
    let mut out = Vec::new();
    for (idx, line) in scrubbed.iter().enumerate().filter(|(i, _)| !in_test[*i]) {
        let mut rest = line.as_str();
        while let Some(c) = rest.chars().next() {
            let len = if word(c) {
                rest.find(|c| !word(c)).unwrap_or(rest.len())
            } else {
                c.len_utf8()
            };
            if word(c) || "{}()[];.,:".contains(c) {
                out.push(Tok {
                    text: &rest[..len],
                    line: idx + 1,
                });
            }
            rest = &rest[len..];
        }
    }
    out
}

/// Index of the `)`/`]` matching the bracket at `open`.
fn close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let inside = |t: &&Tok| {
        depth += match t.text {
            "(" | "[" => 1,
            ")" | "]" => -1,
            _ => 0,
        };
        depth > 0
    };
    open + toks[open..].iter().take_while(inside).count()
}

/// Method names chained from index `k`: `.a().b` → `[a, b]`.
fn chain<'a>(toks: &[Tok<'a>], mut k: usize) -> Vec<&'a str> {
    let mut out = Vec::new();
    while toks.get(k).is_some_and(|t| t.text == ".")
        && toks.get(k + 1).is_some_and(|t| t.text.starts_with(word))
    {
        out.push(toks[k + 1].text);
        k = match toks.get(k + 2) {
            Some(t) if t.text == "(" => close(toks, k + 2) + 1,
            _ => k + 2,
        };
    }
    out
}

struct Guard<'a> {
    /// Held to the end of its statement rather than of a block.
    temporary: bool,
    /// Brace depth of the statement or block that bounds it.
    depth: usize,
    /// Let-bound: the binding `drop(..)` releases.
    name: Option<&'a str>,
    site: String,
}

/// One function, for call resolution.
struct Func {
    name: String,
    /// Has a `self` parameter, so no call resolves to it.
    method: bool,
    /// Acquires a lock or makes a risky call itself.
    taints: bool,
    /// Names of the free functions it calls.
    calls: Vec<String>,
}

#[derive(Default)]
struct Scan {
    funcs: Vec<Func>,
    /// Free calls inside a guard's extent as (callee, site, guard site).
    guarded: Vec<(String, String, String)>,
    sites: usize,
    /// Violations as (site, message).
    errors: Vec<(String, String)>,
}

/// Scans one file: records (a) and (c) violations, its functions and its
/// guarded free calls for (b).
fn scan_file(rel: &str, source: &str, scan: &mut Scan) {
    let scrubbed = scrub::scrub(source);
    let toks = tokens(&scrubbed);
    let text = |k: usize| toks.get(k).map_or("", |t| t.text);
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // (function, brace depth of its body); a function whose body is next.
    let mut fns: Vec<(usize, usize)> = Vec::new();
    let mut pending: Option<usize> = None;
    // First token of the current statement, and bracket depth within it.
    let mut first: Option<usize> = None;
    let mut parens = 0i64;
    for i in 0..toks.len() {
        let t = text(i);
        let prev = |k: usize| if i >= k { text(i - k) } else { "" };
        match t {
            "{" | "}" => {
                if t == "{" {
                    depth += 1;
                    if let Some(f) = pending.take() {
                        fns.push((f, depth));
                    }
                } else {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| depth >= g.depth);
                    while fns.last().is_some_and(|&(_, d)| depth < d) {
                        fns.pop();
                    }
                }
                first = None;
                parens = 0;
                continue;
            }
            ";" if parens <= 0 => {
                guards.retain(|g| !(g.temporary && g.depth == depth));
                pending = None;
                first = None;
                continue;
            }
            "(" | "[" => parens += 1,
            ")" | "]" => parens -= 1,
            _ => {}
        }
        let first_at = *first.get_or_insert(i);
        if !t.starts_with(word) || prev(1) == "fn" {
            continue;
        }
        let site = format!("{rel}:{}", toks[i].line);
        let current = fns.last().map(|&(f, _)| f);
        let held = guards.last().map(|g| g.site.clone());
        if t == "fn" && text(i + 1).starts_with(word) {
            let method = toks[i + 2..]
                .iter()
                .skip_while(|p| p.text != "(")
                .skip(1)
                .take_while(|p| p.text != "," && p.text != ")")
                .any(|p| p.text == "self");
            scan.funcs.push(Func {
                name: text(i + 1).to_string(),
                method,
                taints: false,
                calls: Vec::new(),
            });
            pending = Some(scan.funcs.len() - 1);
            continue;
        }

        let call_open = match (t, prev(1)) {
            ("lock" | "read" | "write", ".") if text(i + 1) == "(" && text(i + 2) == ")" => {
                Some(i + 1)
            }
            ("relock", p) if p != "." && text(i + 1) == "(" => Some(i + 1),
            _ => None,
        };
        if let Some(open) = call_open {
            scan.sites += 1;
            if let Some(held) = held {
                let message = format!("lock acquired while the guard from {held} is live");
                scan.errors.push((site.clone(), message));
            }
            if let Some(f) = current {
                scan.funcs[f].taints = true;
            }
            // A header guard is bounded by the body one level down.
            let methods = chain(&toks, close(&toks, open) + 1);
            let (temporary, bound) = match text(first_at) {
                _ if parens > 0 => (true, depth),
                "if" | "while" | "for" | "match" | "else" => (false, depth + 1),
                "let" if methods.iter().all(|m| PRESERVING.contains(m)) => (false, depth),
                _ => (true, depth),
            };
            let binding = match text(first_at + 1) {
                "mut" => text(first_at + 2),
                name => name,
            };
            let let_bound = !temporary && text(first_at) == "let";
            guards.push(Guard {
                temporary,
                depth: bound,
                name: (let_bound && binding.starts_with(word)).then_some(binding),
                site,
            });
            continue;
        }

        if t == "drop" && text(i + 1) == "(" && text(i + 3) == ")" {
            let released = text(i + 2);
            guards.retain(|g| g.name != Some(released));
        }
        if text(i + 1) != "(" {
            continue;
        }
        if RISKY_CALLS.contains(&t) {
            if let Some(f) = current {
                scan.funcs[f].taints = true;
            }
            if let Some(held) = held {
                let message = format!(
                    "`{t}` while the guard from {held} is live: no lock may be held across \
                     unwind capture, a thread spawn or plan execution"
                );
                scan.errors.push((site, message));
            }
            continue;
        }
        let type_path = prev(1) == ":" && prev(2) == ":" && prev(3).starts_with(char::is_uppercase);
        if prev(1) == "." || type_path {
            continue;
        }
        if let Some(f) = current {
            scan.funcs[f].calls.push(t.to_string());
        }
        if let Some(held) = held {
            scan.guarded.push((t.to_string(), site, held));
        }
    }
}

/// Applies the rule to `(workspace-relative path, source)` pairs. Pushes
/// one error finding per violation, named by its site, and returns
/// `None` when there is any.
pub fn analyze_lock_sources(
    files: &[(String, String)],
    report: &mut AnalysisReport,
) -> Option<LockCertificate> {
    let mut scan = Scan::default();
    for (rel, source) in files {
        report.subject();
        scan_file(rel, source, &mut scan);
    }
    // A free function taints when it, or a free function it calls,
    // takes a lock or makes a risky call.
    let free = || scan.funcs.iter().filter(|f| !f.method);
    let mut tainted: BTreeSet<&str> = free()
        .filter(|f| f.taints)
        .map(|f| f.name.as_str())
        .collect();
    loop {
        let before = tainted.len();
        for f in free() {
            if f.calls.iter().any(|c| tainted.contains(c.as_str())) {
                tainted.insert(&f.name);
            }
        }
        if tainted.len() == before {
            break;
        }
    }
    for (callee, site, held) in &scan.guarded {
        if tainted.contains(callee.as_str()) {
            let message = format!(
                "call to `{callee}`, which takes a lock or makes a risky call, while the guard \
                 from {held} is live"
            );
            scan.errors.push((site.clone(), message));
        }
    }
    report.checks += scan.sites as u64;
    for (site, message) in &scan.errors {
        report.push(RULE_LOCKS, Severity::Error, site, message.clone());
    }
    scan.errors.is_empty().then(|| LockCertificate {
        files: files.iter().map(|(rel, _)| rel.clone()).collect(),
        sites: scan.sites,
    })
}

/// The lock rule's self-test: whether it refuses [`INVERSION_FIXTURE`]
/// (`source`), whose two functions take the same two locks in opposite
/// orders, with a nested-acquisition error.
pub fn inversion_caught(source: &str) -> bool {
    let mut report = AnalysisReport::new();
    let files = [(INVERSION_FIXTURE.to_string(), source.to_string())];
    analyze_lock_sources(&files, &mut report).is_none()
        && report
            .findings
            .iter()
            .any(|f| f.message.starts_with("lock acquired while"))
}

/// The scan set under `root`: every non-test file under `crates/*/src`
/// that names `Mutex` or `RwLock`, as `(workspace-relative path,
/// source)` sorted by path.
fn lock_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            scrub::collect_rs_files(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(&path)?;
        if scrub::holds_locks(&source) {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            files.push((rel.replace('\\', "/"), source));
        }
    }
    Ok(files)
}

/// Applies the rule to the scan set of the workspace at `root`.
pub fn analyze_locks(root: &Path, report: &mut AnalysisReport) -> Option<LockCertificate> {
    match lock_files(root) {
        Ok(files) if !files.is_empty() => analyze_lock_sources(&files, report),
        outcome => {
            let why = outcome
                .err()
                .map_or("no file holds a lock".into(), |e| e.to_string());
            report.push(
                RULE_LOCKS,
                Severity::Error,
                "crates",
                format!("no scan set: {why}"),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> (Option<LockCertificate>, Vec<String>) {
        let mut report = AnalysisReport::new();
        let files = vec![("crates/core/src/demo.rs".to_string(), src.to_string())];
        let cert = analyze_lock_sources(&files, &mut report);
        let found = report
            .findings
            .iter()
            .map(|f| format!("{} {}", f.subject, f.message))
            .collect();
        (cert, found)
    }

    const RELOCK: &str = "pub fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                          lock.lock().unwrap_or_else(PoisonError::into_inner)\n\
                          }\n";

    #[test]
    fn temporary_guard_creates_no_edge() {
        // The guard is a temporary of the first statement, released
        // before the second acquisition.
        let src = format!(
            "{RELOCK}fn helper(queue: &Mutex<Vec<u8>>, other: &Mutex<u8>) {{\n\
             let job = relock(queue).pop();\n\
             let _g = relock(other);\n\
             let _ = job;\n\
             }}\n"
        );
        let (cert, found) = check(&src);
        assert_eq!(cert.map(|c| c.sites), Some(3), "{found:#?}");
    }

    #[test]
    fn block_bound_guard_creates_call_edges() {
        // A let-bound guard held across a free call that takes a lock is
        // refused at the call, spelled bare or through its module.
        for call in ["inner_acquire(state)", "demo::inner_acquire(state)"] {
            let src = format!(
                "{RELOCK}fn inner_acquire(state: &Mutex<u8>) {{\n\
                 let _g = relock(state);\n\
                 }}\n\
                 fn outer(queue: &Mutex<Vec<u8>>, state: &Mutex<u8>) {{\n\
                 let q = relock(queue);\n\
                 {call};\n\
                 let _ = q;\n\
                 }}\n"
            );
            let (cert, found) = check(&src);
            assert!(cert.is_none());
            assert_eq!(
                found,
                vec![
                    "crates/core/src/demo.rs:9 call to `inner_acquire`, which takes a lock or \
                     makes a risky call, while the guard from crates/core/src/demo.rs:8 is live"
                ],
                "{call}"
            );
        }
    }

    #[test]
    fn catch_unwind_under_a_held_lock_is_an_error() {
        for risky in [
            "catch_unwind(|| q.len())",
            "plan.try_run(views, q.as_mut())",
        ] {
            let src = format!(
                "fn bad(queue: &Mutex<Vec<u8>>) {{\n\
                 let q = queue.lock().unwrap_or_else(PoisonError::into_inner);\n\
                 let _r = {risky};\n\
                 }}\n"
            );
            let (cert, found) = check(&src);
            assert!(cert.is_none());
            assert_eq!(found.len(), 1, "{found:#?}");
            assert!(
                found[0].starts_with("crates/core/src/demo.rs:3 `"),
                "{found:#?}"
            );
        }
    }

    #[test]
    fn reentrant_acquisition_is_an_error() {
        let src = "fn bad(state: &Mutex<u8>) {\n\
                   let a = state.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   let b = state.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   let _ = (a, b);\n\
                   }\n";
        let (cert, found) = check(src);
        assert!(cert.is_none());
        assert_eq!(
            found,
            vec![
                "crates/core/src/demo.rs:3 lock acquired while the guard from \
                 crates/core/src/demo.rs:2 is live"
            ]
        );
    }

    #[test]
    fn header_bound_guard_spans_the_body() {
        // An if-let header temporary lives to the end of the body (Rust
        // 2021), so an acquisition inside the body is nested; one after
        // the body is not.
        let src = format!(
            "{RELOCK}fn pump(deques: &[Mutex<VecDeque<u8>>], slots: &Mutex<u8>) {{\n\
             if let Some(task) = relock(&deques[0]).pop_front() {{\n\
             let _s = relock(slots);\n\
             let _ = task;\n\
             }}\n\
             let _t = relock(slots);\n\
             }}\n"
        );
        let (cert, found) = check(&src);
        assert!(cert.is_none());
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].starts_with("crates/core/src/demo.rs:6 lock acquired"));
    }

    #[test]
    fn drop_ends_a_let_bound_guard() {
        let src = format!(
            "{RELOCK}fn record(ring: &Mutex<Vec<u8>>, count: &Mutex<u64>) {{\n\
             let mut r = relock(ring);\n\
             r.push(1);\n\
             drop(r);\n\
             *relock(count) += 1;\n\
             }}\n"
        );
        let (cert, found) = check(&src);
        assert!(cert.is_some(), "{found:#?}");
        let (cert, _) = check(&src.replace("drop(r);", "let _ = &r;"));
        assert!(cert.is_none(), "without the drop the guard is still live");
    }

    #[test]
    fn self_methods_are_not_call_targets() {
        // `FaultGuard::drop` takes a lock, but `drop(ring)` is the
        // prelude's, and a method never resolves by its bare name.
        let src = format!(
            "{RELOCK}struct FaultGuard(());\n\
             impl Drop for FaultGuard {{\n\
             fn drop(&mut self) {{\n\
             let _g = relock(&STATE);\n\
             }}\n\
             }}\n\
             fn record(ring: &Mutex<Vec<u8>>) {{\n\
             let r = relock(ring);\n\
             drop(r);\n\
             }}\n"
        );
        let (cert, found) = check(&src);
        assert!(cert.is_some(), "{found:#?}");
        // The same name as a free function that locks does resolve.
        let src = src.replace(
            "fn drop(&mut self)",
            "fn unrelated(&mut self) {}\n}\nfn drop(x: u8) {\nlet _ = x;",
        );
        let (cert, _) = check(&src);
        assert!(cert.is_none());
    }

    #[test]
    fn scan_set_is_every_lock_holding_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files: Vec<String> = lock_files(&root)
            .expect("workspace sources")
            .into_iter()
            .map(|(rel, _)| rel)
            .collect();
        assert_eq!(
            files,
            vec![
                "crates/core/src/engine.rs",
                "crates/core/src/faultpoint.rs",
                "crates/core/src/flight.rs",
                "crates/core/src/histo.rs",
                "crates/core/src/scratch.rs",
                "crates/serve/src/lib.rs",
            ]
        );
        let mut report = AnalysisReport::new();
        let cert = analyze_locks(&root, &mut report);
        assert!(cert.is_some_and(|c| c.sites > 0), "{:#?}", report.findings);
    }
}
