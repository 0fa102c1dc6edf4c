//! Pass 2 of `ddl-cert`: the lock-order analyzer.
//!
//! The engine/scheduler/serve stack holds a handful of `Mutex`/`RwLock`
//! instances. A deadlock needs two locks acquired in opposite orders on
//! two threads; a poison cascade needs a lock held across code that can
//! unwind or run user plans. This pass extracts every acquisition site
//! from the concurrent sources, models how long each guard lives,
//! builds the inter-procedural lock-order graph, and fails on:
//!
//! * cycles (including re-entrant acquisition of the same lock class,
//!   which is a self-deadlock with `std::sync` locks);
//! * a lock held across `catch_unwind`, thread spawns, or the executor
//!   entry points that run user plans;
//! * drift from the pinned golden order in
//!   `crates/analyze/fixtures/lock_order.golden`.
//!
//! Guard-extent model (how long an acquisition is considered held),
//! matched to the idioms the hot-path lint enforces:
//!
//! * **Temporary** — the guard is a temporary inside a larger
//!   expression (`relock(&q).pop_front()`, `*relock(&w) = x`,
//!   `std::mem::take(&mut *relock(&w))`): held to the end of the
//!   statement.
//! * **BlockBound** — `let g = relock(&q);` or `let g = match
//!   x.lock() {...};`, possibly through a poison-recovering chain
//!   (`unwrap_or_else`, `into_inner`): held to the end of the
//!   enclosing block.
//! * **HeaderBound** — acquisition in an `if let`/`while let`/`for`/
//!   `match` header: Rust 2021 extends the header temporary to the end
//!   of the construct's body, so the guard is modeled as held through
//!   the following block.
//!
//! Inter-procedural edges come from *free calls only* (`relock(&x)`,
//! `faultpoint::hit(..)`): method calls are intentionally not resolved
//! by bare name — `map.insert(..)` must not alias `Engine::insert` —
//! and every real cross-function lock flow in the workspace is a free
//! call. Lock classes are named `file.field` (e.g. `engine.plans`).

use crate::findings::{AnalysisReport, Severity};
use crate::lint;
use crate::tok::{self, Kind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Rule id for lock-certificate findings.
pub const RULE_LOCKS: &str = "cert/locks";

/// Workspace-relative paths of the concurrent sources this pass scans.
pub const LOCK_SCAN_FILES: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/faultpoint.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/scratch.rs",
    "crates/core/src/wisdom.rs",
    "crates/serve/src/lib.rs",
];

/// Workspace-relative path of the pinned golden lock order.
pub const LOCK_GOLDEN_FIXTURE: &str = "crates/analyze/fixtures/lock_order.golden";

/// One edge of the lock-order graph: `from` was held while `to` was
/// acquired (directly or through a called function).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Class already held.
    pub from: String,
    /// Class acquired under it.
    pub to: String,
    /// `file:line` of the inner acquisition or the guarded call.
    pub site: String,
}

/// The lock-order certificate.
#[derive(Clone, Debug)]
pub struct LockCertificate {
    /// Every lock class seen, sorted.
    pub classes: Vec<String>,
    /// Order edges, sorted and deduplicated.
    pub edges: Vec<LockEdge>,
    /// A topological order of the classes (alphabetical tie-break);
    /// empty when the graph has a cycle.
    pub order: Vec<String>,
    /// Whether the graph is acyclic.
    pub acyclic: bool,
}

/// Guard-extent model for one acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Extent {
    Temporary,
    BlockBound,
    HeaderBound,
}

#[derive(Clone, Debug)]
struct GuardState {
    class: String,
    extent: Extent,
    /// Brace depth at the acquisition.
    depth: i64,
    /// For `HeaderBound`: whether the body block has been entered.
    entered: bool,
}

#[derive(Clone, Debug, Default)]
struct FnInfo {
    name: String,
    /// Lock classes acquired directly in this function.
    direct: BTreeSet<String>,
    /// Bare names of free functions this function calls.
    calls: BTreeSet<String>,
    /// Whether the function directly contains a risky token.
    risky: bool,
}

/// A free call made while at least one guard was held.
#[derive(Clone, Debug)]
struct GuardedCall {
    held: Vec<String>,
    callee: String,
    site: String,
}

#[derive(Clone, Debug, Default)]
struct ScanOut {
    fns: Vec<FnInfo>,
    /// Direct nesting edges (guard class, acquired class, site).
    nestings: Vec<(String, String, String)>,
    guarded_calls: Vec<GuardedCall>,
    /// Risky tokens reached while holding (held classes, token, site).
    risky_hits: Vec<(Vec<String>, String, String)>,
    /// Same-class nested acquisition (class, site).
    reentries: Vec<(String, String)>,
    /// Acquisitions whose receiver could not be named (site).
    unknown: Vec<String>,
}

/// Calls that must never run under a held lock: unwind capture, thread
/// creation, and the executor entry points that run user plans.
const RISKY_CALLS: &[&str] = &[
    "catch_unwind",
    "spawn",
    "spawn_scoped",
    "execute",
    "try_execute",
    "run_request",
];

/// Guard-preserving chain methods: `let g = lock().m()` still binds the
/// guard when `m` merely unwraps or recovers it.
const PRESERVING: &[&str] = &["unwrap_or_else", "unwrap", "expect", "into_inner", "ok"];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "in", "as", "move", "fn",
    "break", "continue",
];

/// Lock class prefix for one scanned file: the file stem, or the crate
/// directory name for a crate root (`crates/serve/src/lib.rs` →
/// `serve`).
fn class_prefix(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("file");
    if stem == "lib" || stem == "mod" {
        for (i, p) in parts.iter().enumerate() {
            if *p == "src" && i > 0 {
                return parts[i - 1].to_string();
            }
        }
    }
    stem.to_string()
}

/// Tokenizes `source` with test-module tokens removed (test modules are
/// brace-balanced, so dropping them keeps depth tracking sound).
fn lex_non_test(source: &str) -> Vec<Token> {
    let scrubbed = lint::scrub(source);
    let in_test = lint::test_module_lines(&scrubbed);
    tok::tokenize(&scrubbed)
        .into_iter()
        .filter(|t| {
            !in_test
                .get(t.line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
        })
        .collect()
}

/// First pass: find forwarder functions — a function taking a `&Mutex`
/// (or `&RwLock`) parameter and *returning a guard type*, whose body
/// calls `.lock()`/`.read()`/`.write()` (the poison-recovering
/// `relock` idiom). Calls to these count as acquisitions at the *call*
/// site instead. A function that merely locks a `&Mutex` parameter
/// internally (without handing the guard back) is not a forwarder: its
/// acquisitions are accounted where they happen.
fn find_forwarders(files: &[(String, String)]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (_, source) in files {
        let toks = lex_non_test(source);
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
                let name = toks[i + 1].text.clone();
                // Signature: up to the body `{` at bracket depth 0.
                let mut j = i + 2;
                let mut bracket = 0i64;
                let mut sig_has_lock_type = false;
                let mut sig_returns_guard = false;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct("(") || t.is_punct("[") {
                        bracket += 1;
                    } else if t.is_punct(")") || t.is_punct("]") {
                        bracket -= 1;
                    } else if bracket == 0 && (t.is_punct("{") || t.is_punct(";")) {
                        break;
                    } else if t.is_ident("Mutex") || t.is_ident("RwLock") {
                        sig_has_lock_type = true;
                    } else if t.is_ident("MutexGuard")
                        || t.is_ident("RwLockReadGuard")
                        || t.is_ident("RwLockWriteGuard")
                    {
                        sig_returns_guard = true;
                    }
                    j += 1;
                }
                if sig_has_lock_type && sig_returns_guard && j < toks.len() && toks[j].is_punct("{")
                {
                    // Body: matching brace group.
                    let mut depth = 0i64;
                    let mut k = j;
                    let mut body_locks = false;
                    while k < toks.len() {
                        let t = &toks[k];
                        if t.is_punct("{") {
                            depth += 1;
                        } else if t.is_punct("}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
                            && k > j
                            && toks[k - 1].is_punct(".")
                            && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
                        {
                            body_locks = true;
                        }
                        k += 1;
                    }
                    if body_locks {
                        out.insert(name);
                    }
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }
    out
}

/// Collects the method-chain names following position `k` (which must
/// point just past a call's closing paren): `.a().b()` → `[a, b]`.
fn chain_after(toks: &[Token], mut k: usize) -> Vec<String> {
    let mut out = Vec::new();
    while k + 1 < toks.len() && toks[k].is_punct(".") && toks[k + 1].kind == Kind::Ident {
        out.push(toks[k + 1].text.clone());
        k += 2;
        if k < toks.len() && toks[k].is_punct("(") {
            let mut depth = 0i64;
            while k < toks.len() {
                if toks[k].is_punct("(") {
                    depth += 1;
                } else if toks[k].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
    }
    out
}

/// Index just past the `)` matching the `(` at `open`.
fn past_close(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut k = open;
    while k < toks.len() {
        if toks[k].is_punct("(") || toks[k].is_punct("[") {
            depth += 1;
        } else if toks[k].is_punct(")") || toks[k].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    toks.len()
}

fn classify(stmt_first: Option<&str>, stmt_paren: i64, chain: &[String]) -> Extent {
    if stmt_paren > 0 {
        return Extent::Temporary;
    }
    match stmt_first {
        // `else` covers `else if let ...` headers.
        Some("if" | "while" | "for" | "match" | "else") => Extent::HeaderBound,
        Some("let") => {
            if chain.iter().all(|m| PRESERVING.contains(&m.as_str())) {
                Extent::BlockBound
            } else {
                Extent::Temporary
            }
        }
        _ => Extent::Temporary,
    }
}

fn record_acquisition(
    class: &str,
    extent: Extent,
    depth: i64,
    site: &str,
    guards: &mut Vec<GuardState>,
    fn_stack: &[(usize, i64, bool)],
    out: &mut ScanOut,
) {
    if let Some((idx, _, _)) = fn_stack.last() {
        out.fns[*idx].direct.insert(class.to_string());
    }
    for g in guards.iter() {
        if g.class == class {
            out.reentries.push((class.to_string(), site.to_string()));
        } else {
            out.nestings
                .push((g.class.clone(), class.to_string(), site.to_string()));
        }
    }
    guards.push(GuardState {
        class: class.to_string(),
        extent,
        depth,
        entered: false,
    });
}

/// Scans one file, merging events into `out`.
fn scan_file(rel: &str, source: &str, forwarders: &BTreeSet<String>, out: &mut ScanOut) {
    let prefix = class_prefix(rel);
    let toks = lex_non_test(source);
    let mut depth = 0i64;
    // (fn index in out.fns, depth after its opening brace, forwarder?)
    let mut fn_stack: Vec<(usize, i64, bool)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut guards: Vec<GuardState> = Vec::new();
    let mut stmt_first: Option<String> = None;
    let mut stmt_paren = 0i64;

    fn held(guards: &[GuardState]) -> Vec<String> {
        guards.iter().map(|g| g.class.clone()).collect()
    }

    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i].clone();
        let site = format!("{rel}:{}", t.line);
        if t.is_punct("{") {
            depth += 1;
            for g in guards.iter_mut() {
                if g.extent == Extent::HeaderBound && depth > g.depth {
                    g.entered = true;
                }
            }
            if let Some(name) = pending_fn.take() {
                let idx = out.fns.len();
                let fwd = forwarders.contains(&name);
                out.fns.push(FnInfo {
                    name,
                    ..FnInfo::default()
                });
                fn_stack.push((idx, depth, fwd));
            }
            stmt_first = None;
            stmt_paren = 0;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth -= 1;
            guards.retain(|g| match g.extent {
                Extent::BlockBound | Extent::Temporary => depth >= g.depth,
                Extent::HeaderBound => !(g.entered && depth <= g.depth),
            });
            while fn_stack.last().is_some_and(|(_, d, _)| depth < *d) {
                fn_stack.pop();
            }
            stmt_first = None;
            stmt_paren = 0;
            i += 1;
            continue;
        }
        if t.is_punct(";") && stmt_paren <= 0 {
            guards.retain(|g| !(g.extent == Extent::Temporary && g.depth == depth));
            stmt_first = None;
            i += 1;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") {
            stmt_paren += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            stmt_paren -= 1;
        }
        if stmt_first.is_none() && (t.kind == Kind::Ident || t.kind == Kind::Punct) {
            stmt_first = Some(t.text.clone());
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            pending_fn = Some(toks[i + 1].text.clone());
            i += 2;
            continue;
        }

        let in_forwarder = fn_stack.last().is_some_and(|(_, _, fwd)| *fwd);

        // Direct method acquisition: `recv.lock()` / `.read()` / `.write()`.
        let is_acq_method = (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(")"));
        if is_acq_method && !in_forwarder {
            let recv = if i >= 2 && toks[i - 2].kind == Kind::Ident {
                Some(toks[i - 2].text.clone())
            } else {
                None
            };
            let Some(recv) = recv else {
                out.unknown.push(site);
                i += 3;
                continue;
            };
            let class = format!("{prefix}.{recv}");
            // The receiver chain holds no parens, so `stmt_paren` here
            // equals the paren depth of the statement at the trigger.
            let chain = chain_after(&toks, i + 3);
            let extent = classify(stmt_first.as_deref(), stmt_paren, &chain);
            record_acquisition(&class, extent, depth, &site, &mut guards, &fn_stack, out);
            i += 3;
            continue;
        }

        // Calls: forwarder acquisition, free call, or risky method.
        if t.kind == Kind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            let is_dot = i > 0 && toks[i - 1].is_punct(".");
            let name = t.text.clone();
            if !is_dot && forwarders.contains(&name) && !in_forwarder {
                // Receiver class: last ident of the first argument,
                // truncated at any index expression.
                let close = past_close(&toks, i + 1);
                let mut recv: Option<String> = None;
                let mut k = i + 2;
                while k < close.saturating_sub(1) {
                    let a = &toks[k];
                    if a.is_punct("[") || a.is_punct(",") {
                        break;
                    }
                    if a.kind == Kind::Ident && a.text != "self" {
                        recv = Some(a.text.clone());
                    }
                    k += 1;
                }
                let Some(recv) = recv else {
                    out.unknown.push(site);
                    i = close;
                    continue;
                };
                let class = format!("{prefix}.{recv}");
                let chain = chain_after(&toks, close);
                let extent = classify(stmt_first.as_deref(), stmt_paren, &chain);
                record_acquisition(&class, extent, depth, &site, &mut guards, &fn_stack, out);
                i += 1; // keep scanning inside the argument tokens
                continue;
            }
            let risky = RISKY_CALLS.contains(&name.as_str());
            if risky {
                if let Some((idx, _, _)) = fn_stack.last() {
                    out.fns[*idx].risky = true;
                }
                if !guards.is_empty() {
                    out.risky_hits
                        .push((held(&guards), name.clone(), site.clone()));
                }
            }
            if !is_dot && !KEYWORDS.contains(&name.as_str()) {
                if let Some((idx, _, fwd)) = fn_stack.last() {
                    if !*fwd {
                        out.fns[*idx].calls.insert(name.clone());
                    }
                }
                if !guards.is_empty() && !risky {
                    out.guarded_calls.push(GuardedCall {
                        held: held(&guards),
                        callee: name,
                        site,
                    });
                }
            }
        }
        i += 1;
    }
}

/// Analyzes `(workspace-relative-path, source)` pairs and returns the
/// lock-order certificate. Pushes error findings for re-entries, locks
/// held across risky calls, cycles, and unresolvable receivers; returns
/// `None` when any error was found.
pub fn analyze_lock_sources(
    files: &[(String, String)],
    report: &mut AnalysisReport,
) -> Option<LockCertificate> {
    let forwarders = find_forwarders(files);
    let mut out = ScanOut::default();
    for (rel, source) in files {
        report.subject();
        scan_file(rel, source, &forwarders, &mut out);
    }

    // Transitive closure of per-function acquisition sets and riskiness
    // over the free-call graph.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in out.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut trans: Vec<BTreeSet<String>> = out.fns.iter().map(|f| f.direct.clone()).collect();
    let mut trans_risky: Vec<bool> = out.fns.iter().map(|f| f.risky).collect();
    loop {
        let mut changed = false;
        for i in 0..out.fns.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            let mut risky = trans_risky[i];
            for callee in &out.fns[i].calls {
                if let Some(targets) = by_name.get(callee.as_str()) {
                    for &t in targets {
                        add.extend(trans[t].iter().cloned());
                        risky = risky || trans_risky[t];
                    }
                }
            }
            for c in add {
                if trans[i].insert(c) {
                    changed = true;
                }
            }
            if risky && !trans_risky[i] {
                trans_risky[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut ok = true;
    for site in &out.unknown {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            site,
            "lock acquisition with an unresolvable receiver: name the lock field directly"
                .to_string(),
        );
    }
    for (class, site) in &out.reentries {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            site,
            format!("re-entrant acquisition of `{class}` while already held (self-deadlock)"),
        );
    }
    for (heldv, name, site) in &out.risky_hits {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            site,
            format!(
                "`{name}` reached while holding {}: locks must not be held across \
                 unwind capture, thread spawns, or user-plan execution",
                heldv.join(", ")
            ),
        );
    }

    // Edges: direct nestings plus guarded calls resolved through the
    // transitive sets.
    let mut edge_map: BTreeMap<(String, String), String> = BTreeMap::new();
    for (from, to, site) in &out.nestings {
        edge_map
            .entry((from.clone(), to.clone()))
            .or_insert_with(|| site.clone());
    }
    for call in &out.guarded_calls {
        let Some(targets) = by_name.get(call.callee.as_str()) else {
            continue;
        };
        let mut acquired: BTreeSet<String> = BTreeSet::new();
        let mut risky = false;
        for &t in targets {
            acquired.extend(trans[t].iter().cloned());
            risky = risky || trans_risky[t];
        }
        if risky {
            ok = false;
            report.push(
                RULE_LOCKS,
                Severity::Error,
                &call.site,
                format!(
                    "call to `{}` (which can unwind/spawn/run plans) while holding {}",
                    call.callee,
                    call.held.join(", ")
                ),
            );
        }
        for held_class in &call.held {
            for to in &acquired {
                if held_class == to {
                    ok = false;
                    report.push(
                        RULE_LOCKS,
                        Severity::Error,
                        &call.site,
                        format!(
                            "call to `{}` re-acquires `{to}` already held here (self-deadlock)",
                            call.callee
                        ),
                    );
                } else {
                    edge_map
                        .entry((held_class.clone(), to.clone()))
                        .or_insert_with(|| call.site.clone());
                }
            }
        }
    }

    let mut classes: BTreeSet<String> = BTreeSet::new();
    for f in &out.fns {
        classes.extend(f.direct.iter().cloned());
    }
    for (from, to) in edge_map.keys() {
        classes.insert(from.clone());
        classes.insert(to.clone());
    }

    // Kahn topological sort with alphabetical tie-break.
    let mut indeg: BTreeMap<&str, usize> = classes.iter().map(|c| (c.as_str(), 0)).collect();
    for (_, to) in edge_map.keys() {
        if let Some(d) = indeg.get_mut(to.as_str()) {
            *d += 1;
        }
    }
    let mut ready: BTreeSet<&str> = indeg
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(c, _)| *c)
        .collect();
    let mut order: Vec<String> = Vec::new();
    while let Some(&c) = ready.iter().next() {
        ready.remove(c);
        order.push(c.to_string());
        for (from, to) in edge_map.keys() {
            if from.as_str() == c {
                if let Some(d) = indeg.get_mut(to.as_str()) {
                    *d -= 1;
                    if *d == 0 {
                        ready.insert(to.as_str());
                    }
                }
            }
        }
    }
    let acyclic = order.len() == classes.len();
    if !acyclic {
        ok = false;
        let stuck: Vec<&str> = classes
            .iter()
            .filter(|c| !order.contains(c))
            .map(|c| c.as_str())
            .collect();
        report.push(
            RULE_LOCKS,
            Severity::Error,
            "lock-order-graph",
            format!("lock-order cycle among: {}", stuck.join(", ")),
        );
    }
    report.check();

    let cert = LockCertificate {
        classes: classes.into_iter().collect(),
        edges: edge_map
            .into_iter()
            .map(|((from, to), site)| LockEdge { from, to, site })
            .collect(),
        order: if acyclic { order } else { Vec::new() },
        acyclic,
    };
    if ok {
        Some(cert)
    } else {
        None
    }
}

/// Workspace-relative path of the seeded lock-order inversion the
/// self-test must refuse.
pub const INVERSION_FIXTURE: &str = "crates/analyze/fixtures/locks/inversion.rs";

/// The lock-order self-test: analyzes `source` (the
/// [`INVERSION_FIXTURE`]) and returns whether the analysis refused to
/// certify it with a cycle error — proof the cycle check can fail.
pub fn inversion_caught(source: &str) -> bool {
    let mut report = AnalysisReport::new();
    let files = [(INVERSION_FIXTURE.to_string(), source.to_string())];
    let cert = analyze_lock_sources(&files, &mut report);
    cert.is_none()
        && report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Error && f.message.contains("cycle"))
}

/// Reads and analyzes the workspace's concurrent sources under `root`.
pub fn analyze_locks(root: &Path, report: &mut AnalysisReport) -> Option<LockCertificate> {
    let mut files = Vec::new();
    for rel in LOCK_SCAN_FILES {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(source) => files.push(((*rel).to_string(), source)),
            Err(e) => {
                report.push(
                    RULE_LOCKS,
                    Severity::Error,
                    rel,
                    format!("cannot read scanned source: {e}"),
                );
                return None;
            }
        }
    }
    analyze_lock_sources(&files, report)
}

/// Renders the golden-fixture text for a certificate.
pub fn golden_text(cert: &LockCertificate) -> String {
    let mut out = String::from(
        "# ddl-cert v1 lock-order golden fixture\n\
         # Classes and edges extracted from the concurrent sources; the\n\
         # certificate run fails if the graph drifts from this pin.\n",
    );
    for c in &cert.classes {
        out.push_str("class ");
        out.push_str(c);
        out.push('\n');
    }
    for e in &cert.edges {
        out.push_str(&format!("edge {} -> {}\n", e.from, e.to));
    }
    out
}

/// Compares a certificate against the pinned golden text; pushes an
/// error finding per drift line. Returns whether they match.
pub fn check_golden(cert: &LockCertificate, golden: &str, report: &mut AnalysisReport) -> bool {
    let mut want_classes: BTreeSet<String> = BTreeSet::new();
    let mut want_edges: BTreeSet<(String, String)> = BTreeSet::new();
    for line in golden.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("class ") {
            want_classes.insert(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("edge ") {
            let mut it = rest.split("->");
            let from = it.next().unwrap_or("").trim().to_string();
            let to = it.next().unwrap_or("").trim().to_string();
            want_edges.insert((from, to));
        } else {
            report.push(
                RULE_LOCKS,
                Severity::Error,
                LOCK_GOLDEN_FIXTURE,
                format!("unparseable golden line: `{line}`"),
            );
            return false;
        }
    }
    let got_classes: BTreeSet<String> = cert.classes.iter().cloned().collect();
    let got_edges: BTreeSet<(String, String)> = cert
        .edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    let mut ok = true;
    for c in want_classes.difference(&got_classes) {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            LOCK_GOLDEN_FIXTURE,
            format!("pinned lock class `{c}` no longer observed — update the golden deliberately"),
        );
    }
    for c in got_classes.difference(&want_classes) {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            LOCK_GOLDEN_FIXTURE,
            format!("new lock class `{c}` not in the golden order — add it deliberately"),
        );
    }
    for (f, t) in want_edges.difference(&got_edges) {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            LOCK_GOLDEN_FIXTURE,
            format!("pinned lock-order edge `{f} -> {t}` no longer observed"),
        );
    }
    for (f, t) in got_edges.difference(&want_edges) {
        ok = false;
        report.push(
            RULE_LOCKS,
            Severity::Error,
            LOCK_GOLDEN_FIXTURE,
            format!("new lock-order edge `{f} -> {t}` not in the golden order"),
        );
    }
    ok
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
    fn workspace_lock_graph_is_acyclic_and_matches_golden() {
        let mut report = AnalysisReport::new();
        let cert = analyze_locks(&root(), &mut report)
            .unwrap_or_else(|| panic!("lock certificate should be clean: {:#?}", report.findings));
        assert!(report.passes(), "{:#?}", report.findings);
        assert!(cert.acyclic);
        let classes: Vec<&str> = cert.classes.iter().map(String::as_str).collect();
        assert_eq!(
            classes,
            vec![
                "engine.plans",
                "faultpoint.EXCLUSIVE",
                "faultpoint.state",
                "scheduler.deques",
                "scheduler.slots",
                "scratch.free",
                "serve.queue",
                "serve.workers",
            ]
        );
        let edges: Vec<(String, String)> = cert
            .edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(
            edges,
            vec![
                ("engine.plans".to_string(), "faultpoint.state".to_string()),
                ("serve.queue".to_string(), "faultpoint.state".to_string()),
            ],
            "{:#?}",
            cert.edges
        );
        assert_eq!(cert.order.len(), cert.classes.len());
        // The committed golden must match.
        let golden = std::fs::read_to_string(root().join(LOCK_GOLDEN_FIXTURE)).expect("golden");
        let mut greport = AnalysisReport::new();
        assert!(
            check_golden(&cert, &golden, &mut greport),
            "{:#?}",
            greport.findings
        );
    }

    #[test]
    fn inversion_fixture_is_detected_as_a_cycle() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/locks/inversion.rs");
        let source = std::fs::read_to_string(path).expect("inversion fixture");
        let mut report = AnalysisReport::new();
        let files = vec![("fixtures/locks/inversion.rs".to_string(), source)];
        assert!(analyze_lock_sources(&files, &mut report).is_none());
        assert!(
            report.findings.iter().any(|f| f.message.contains("cycle")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn golden_drift_is_detected() {
        let mut report = AnalysisReport::new();
        let cert = analyze_locks(&root(), &mut report).expect("certificate");
        let tampered = golden_text(&cert).replace("class serve.queue\n", "");
        let mut greport = AnalysisReport::new();
        assert!(!check_golden(&cert, &tampered, &mut greport));
        assert!(greport
            .findings
            .iter()
            .any(|f| f.message.contains("serve.queue")));
    }

    #[test]
    fn temporary_guard_creates_no_edge() {
        // `process_one` idiom: the guard is a temporary of the first
        // statement and must be released before the second acquisition.
        let src = "fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                   lock.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   }\n\
                   fn helper(queue: &Mutex<Vec<u8>>, other: &Mutex<u8>) {\n\
                   let job = relock(queue).pop();\n\
                   let _g = relock(other);\n\
                   let _ = job;\n\
                   }\n";
        let mut report = AnalysisReport::new();
        let files = vec![("crates/core/src/demo.rs".to_string(), src.to_string())];
        let cert = analyze_lock_sources(&files, &mut report).expect("cert");
        assert!(cert.edges.is_empty(), "{:#?}", cert.edges);
    }

    #[test]
    fn block_bound_guard_creates_call_edges() {
        let src = "fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                   lock.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   }\n\
                   fn inner_acquire(state: &Mutex<u8>) {\n\
                   let _g = relock(state);\n\
                   }\n\
                   fn outer(queue: &Mutex<Vec<u8>>, state: &Mutex<u8>) {\n\
                   let q = relock(queue);\n\
                   inner_acquire(state);\n\
                   let _ = q;\n\
                   }\n";
        let mut report = AnalysisReport::new();
        let files = vec![("crates/core/src/demo.rs".to_string(), src.to_string())];
        let cert = analyze_lock_sources(&files, &mut report).expect("cert");
        let edges: Vec<(String, String)> = cert
            .edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(
            edges,
            vec![("demo.queue".to_string(), "demo.state".to_string())],
            "{:#?}",
            cert.edges
        );
    }

    #[test]
    fn catch_unwind_under_a_held_lock_is_an_error() {
        let src = "fn bad(queue: &Mutex<Vec<u8>>) {\n\
                   let q = queue.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   let _r = catch_unwind(|| q.len());\n\
                   }\n";
        let mut report = AnalysisReport::new();
        let files = vec![("crates/core/src/demo.rs".to_string(), src.to_string())];
        assert!(analyze_lock_sources(&files, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("catch_unwind")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn reentrant_acquisition_is_an_error() {
        let src = "fn bad(state: &Mutex<u8>) {\n\
                   let a = state.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   let b = state.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   let _ = (a, b);\n\
                   }\n";
        let mut report = AnalysisReport::new();
        let files = vec![("crates/core/src/demo.rs".to_string(), src.to_string())];
        assert!(analyze_lock_sources(&files, &mut report).is_none());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("re-entrant")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn header_bound_guard_spans_the_body() {
        // An if-let header temporary lives to the end of the body
        // (Rust 2021): an acquisition inside the body is a real edge.
        let src = "fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                   lock.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   }\n\
                   fn pump(deques: &[Mutex<VecDeque<u8>>], slots: &Mutex<u8>) {\n\
                   if let Some(task) = relock(&deques[0]).pop_front() {\n\
                   let _s = relock(slots);\n\
                   let _ = task;\n\
                   }\n\
                   }\n";
        let mut report = AnalysisReport::new();
        let files = vec![("crates/core/src/demo.rs".to_string(), src.to_string())];
        let cert = analyze_lock_sources(&files, &mut report).expect("cert");
        let edges: Vec<(String, String)> = cert
            .edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(
            edges,
            vec![("demo.deques".to_string(), "demo.slots".to_string())]
        );
    }
}
