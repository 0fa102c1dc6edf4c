//! Workspace source lints (`ddl-lint`).
//!
//! Repo invariants, enforced mechanically so they survive future PRs:
//!
//! * **`lint/no-panics`** — library code must not call
//!   `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
//!   outside `#[cfg(test)]` modules: fallible operations route through
//!   `DdlError` (the try-first rule). Documented panicking wrappers over
//!   `try_*` functions carry an explicit allow marker (below).
//! * **`lint/no-std-time`** — pure planning code (the planner, cost
//!   model, tree/grammar, wisdom, JSON, and all of `ddl-num` and
//!   `ddl-cachesim`) must not read clocks: planning is a
//!   deterministic function of its inputs. Measurement lives in
//!   `measure.rs`/`parallel.rs`/`obs.rs`, which are exempt by design.
//! * **`lint/forbid-unsafe`** — every workspace crate root must carry
//!   `#![forbid(unsafe_code)]`.
//! * **`lint/no-bare-lock`** — a file that holds a lock
//!   (`holds_locks`, the scan set of the `ddl-cert` lock rule) must not
//!   unwrap lock results: one poisoned lock would cascade into a dead
//!   scheduler.
//! * **`lint/no-unbounded-queue`** — executor and scheduler hot paths
//!   (`parallel.rs`, `scheduler.rs`, `engine.rs`, `faultpoint.rs`,
//!   `scratch.rs`, all of `ddl-serve`) must not construct unbounded
//!   channels: overload must shed with `DdlError::Overloaded`, not grow
//!   memory.
//! * **`lint/no-ptr-arith`** (always on) — no raw-pointer arithmetic:
//!   `as *const` / `as *mut` casts are banned in every scanned file, and
//!   the pointer methods `.add(` / `.offset(` wherever `unsafe` is
//!   allowed. Elsewhere a pointer's `add`/`offset` cannot be called at
//!   all (both are `unsafe` fns, and `lint/no-unsafe` bans `unsafe`), so
//!   `.add(` there is another type's method (`CacheStats::add`). The
//!   SIMD kernels index slices and array references, whose bounds the
//!   compiler checks; their loads and stores pass a reference's own
//!   pointer straight to the intrinsic.
//! * **`lint/dead-allow`** — suppressions must stay earned: an allow
//!   marker that no longer sits on or directly above a banned token, or
//!   that names an unknown rule, is itself an error, as is an
//!   [`UNSAFE_AUDITED`] entry that no longer contains `unsafe` code, and
//!   an entry of any rule's path list that names nothing on disk (a
//!   deleted or renamed file would otherwise leave its rule's scope
//!   unnoticed). Without this, allow-lists only ever grow.
//!
//! A finding is suppressed by a marker on the same line or the line
//! directly above:
//!
//! ```text
//! // ddl-lint: allow(no-panics): documented panicking wrapper over try_execute
//! ```
//!
//! The scanner is deliberately token-based — but it scrubs string/char
//! literals and comments with a tiny lexer first, so tokens inside
//! strings or docs never fire and `#[cfg(test)]` modules are excluded by
//! an accurate brace count. The point is an `O(source)` gate with zero
//! dependencies, not a parser.

use crate::findings::{AnalysisReport, Severity};
use std::fs;
use std::path::{Path, PathBuf};

/// Rule id for dead-suppression findings. Always on: a marker that
/// suppresses nothing is wrong in every file class.
pub const RULE_DEAD_ALLOW: &str = "lint/dead-allow";

/// Which rule families to apply to one source file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleSet {
    /// Apply `lint/no-panics`.
    pub no_panics: bool,
    /// Apply `lint/no-std-time`.
    pub no_std_time: bool,
    /// Apply the executor hot-path rule `lint/no-unbounded-queue`
    /// (`lint/no-bare-lock` applies wherever `holds_locks` does).
    pub exec_hot_path: bool,
    /// Apply `lint/no-unsafe`: off only for the audited SIMD module
    /// ([`UNSAFE_AUDITED`]).
    pub no_unsafe: bool,
}

/// Banned panic-family tokens, stored in halves so this file does not
/// flag itself when scanned.
fn panic_tokens() -> Vec<String> {
    [
        (".unw", "rap()"),
        (".exp", "ect(\""),
        ("pan", "ic!("),
        ("unreach", "able!"),
        ("to", "do!("),
        ("unimple", "mented!("),
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect()
}

fn std_time_token() -> String {
    ["std::", "time"].concat()
}

/// The `unsafe` keyword, stored in halves so this file does not flag
/// itself. Matched whole-word, so the `unsafe_code` lint name inside
/// `#![deny(unsafe_code)]` / `#[allow(unsafe_code)]` attributes does not
/// fire.
fn unsafe_token() -> String {
    ["uns", "afe"].concat()
}

/// The explicit allow-list of audited modules permitted to contain
/// `unsafe`: exactly the SIMD backend's arch dispatch module. Everything
/// else in the workspace is scanned by `lint/no-unsafe` and every other
/// crate root must carry `#![forbid(unsafe_code)]`.
pub const UNSAFE_AUDITED: &[&str] = &["crates/backend-simd/src/arch.rs"];

/// Crate roots that deny rather than forbid `unsafe_code`: `forbid`
/// cannot be overridden per-module, so the one crate hosting an audited
/// unsafe module uses `deny` at the root plus a scoped `allow` on that
/// module. Pinned to exactly the SIMD backend.
pub const DENY_UNSAFE_ROOTS: &[&str] = &["crates/backend-simd/src/lib.rs"];

/// Whether `rel` (workspace-relative, `/`-separated) is on the audited
/// unsafe allow-list.
pub fn is_unsafe_audited(rel: &str) -> bool {
    UNSAFE_AUDITED.contains(&rel)
}

/// Whole-word occurrences of `tok` in `code` (neither neighbor is an
/// identifier character).
fn contains_word(code: &str, tok: &str) -> bool {
    let bytes = code.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    code.match_indices(tok).any(|(pos, _)| {
        let before_ok = pos == 0 || !ident(bytes[pos - 1]);
        let after = pos + tok.len();
        let after_ok = after >= bytes.len() || !ident(bytes[after]);
        before_ok && after_ok
    })
}

/// Banned lock idioms in lock-holding files: a panicking worker poisons
/// the lock, and a bare unwrap turns the *next* worker's lock into a
/// second panic — one fault cascades into a dead scheduler. Locks are
/// taken through the poison-recovering `ddl_core::faultpoint::relock`,
/// or route a typed error.
fn bare_lock_tokens() -> Vec<String> {
    [(".lock().unw", "rap()"), (".lock().exp", "ect(")]
        .iter()
        .map(|(a, b)| format!("{a}{b}"))
        .collect()
}

/// Banned queue constructors in executor hot paths: an unbounded channel
/// turns overload into unbounded memory growth instead of typed
/// backpressure (`DdlError::Overloaded`). Use `mpsc::sync_channel` or a
/// capacity-checked `VecDeque`.
fn unbounded_queue_tokens() -> Vec<String> {
    // No trailing paren: `mpsc::channel::<T>()` must match too. The
    // bounded `mpsc::sync_channel` never contains this substring.
    [("mpsc::chan", "nel"), ("::unbo", "unded(")]
        .iter()
        .map(|(a, b)| format!("{a}{b}"))
        .collect()
}

/// Banned raw-pointer arithmetic, stored in halves so this file does
/// not flag itself: `as` casts to raw pointers, plus, when `methods` is
/// set (only where `unsafe` is allowed), the pointer offset methods.
fn ptr_arith_tokens(methods: bool) -> Vec<String> {
    let casts = [("as *con", "st"), ("as *m", "ut")];
    let offsets = [(".ad", "d("), (".offs", "et(")];
    let extra: &[(&str, &str)] = if methods { &offsets } else { &[] };
    casts
        .iter()
        .chain(extra)
        .map(|(a, b)| format!("{a}{b}"))
        .collect()
}

fn allow_marker(rule: &str) -> String {
    // rule is "lint/<name>"; the marker spells just the short name.
    let short = rule.rsplit('/').next().unwrap_or(rule);
    format!("ddl-lint: allow({short})")
}

/// The banned tokens a marker for `short` would suppress, plus whether
/// they match whole-word. `None` for rule names no marker can refer to
/// (including `forbid-unsafe`, whose crate-root check honors no
/// markers at all — an allow for it is dead by construction).
fn rule_tokens(short: &str) -> Option<(Vec<String>, bool)> {
    match short {
        "no-panics" => Some((panic_tokens(), false)),
        "no-std-time" => Some((vec![std_time_token()], false)),
        "no-bare-lock" => Some((bare_lock_tokens(), false)),
        "no-unbounded-queue" => Some((unbounded_queue_tokens(), false)),
        "no-unsafe" => Some((vec![unsafe_token()], true)),
        "no-ptr-arith" => Some((ptr_arith_tokens(true), false)),
        _ => None,
    }
}

/// Lexer state carried across lines while scrubbing.
enum ScrubState {
    Normal,
    Str,
    RawStr(usize),
    BlockComment(usize),
}

/// Returns the source line by line with string/char-literal contents and
/// comments blanked out: what remains is pure code text, safe for token
/// matching and brace counting. Shared with the `ddl-cert` lock rule
/// ([`crate::locks`]).
pub(crate) fn scrub(source: &str) -> Vec<String> {
    scrub_and_comments(source).0
}

/// [`scrub`], but additionally captures each line's `//` line-comment
/// text (including the slashes, so callers can tell `//` from `///` and
/// `//!`; empty when the line has none). Only comments the lexer sees in
/// code position count — a `//` inside a string literal or block comment
/// is not a comment.
pub(crate) fn scrub_and_comments(source: &str) -> (Vec<String>, Vec<String>) {
    let mut state = ScrubState::Normal;
    let mut out = Vec::new();
    let mut comments = Vec::new();
    for line in source.lines() {
        let b = line.as_bytes();
        let mut res = String::with_capacity(b.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match state {
                ScrubState::Normal => {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
                        // Line comment: rest of line is prose. `//` is
                        // ASCII, so `i` is a char boundary.
                        comment = line.get(i..).unwrap_or("").to_string();
                        break;
                    }
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        state = ScrubState::BlockComment(1);
                        i += 2;
                        continue;
                    }
                    // Raw string start: r"..." / r#"..."# (optionally
                    // after a b). The r must not continue an identifier.
                    if b[i] == b'r'
                        && !res
                            .chars()
                            .last()
                            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        let mut j = i + 1;
                        let mut hashes = 0;
                        while b.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&b'"') {
                            state = ScrubState::RawStr(hashes);
                            res.push('"');
                            i = j + 1;
                            continue;
                        }
                    }
                    if b[i] == b'"' {
                        state = ScrubState::Str;
                        res.push('"');
                        i += 1;
                        continue;
                    }
                    if b[i] == b'\'' {
                        // Char literal or lifetime.
                        if b.get(i + 1) == Some(&b'\\') {
                            // Escaped char: skip to the closing quote.
                            let mut j = i + 2;
                            while j < b.len() && b[j] != b'\'' {
                                j += 1;
                            }
                            i = j + 1;
                            continue;
                        }
                        if b.get(i + 2) == Some(&b'\'') {
                            i += 3; // plain 'x'
                            continue;
                        }
                        res.push('\''); // lifetime
                        i += 1;
                        continue;
                    }
                    res.push(b[i] as char);
                    i += 1;
                }
                ScrubState::Str => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        state = ScrubState::Normal;
                        res.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                ScrubState::RawStr(hashes) => {
                    if b[i] == b'"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&c| c == b'#')
                            .count()
                            == hashes
                    {
                        state = ScrubState::Normal;
                        res.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                ScrubState::BlockComment(depth) => {
                    if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        state = if depth == 1 {
                            ScrubState::Normal
                        } else {
                            ScrubState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        state = ScrubState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(res);
        comments.push(comment);
    }
    (out, comments)
}

/// Whether `source`'s non-test code names `Mutex` or `RwLock`: the one
/// definition of a lock-holding file, shared by `lint/no-bare-lock` and
/// the `ddl-cert` lock rule ([`crate::locks`]).
pub(crate) fn holds_locks(source: &str) -> bool {
    let code = scrub(source);
    let in_test = test_module_lines(&code);
    code.iter()
        .zip(in_test)
        .any(|(line, test)| !test && ["Mutex", "RwLock"].iter().any(|w| contains_word(line, w)))
}

/// Which lines belong to `#[cfg(test)]` items, determined by brace
/// counting over scrubbed code. Shared with the lock rule, so it skips
/// test-only code the same way the lints do.
pub(crate) fn test_module_lines(scrubbed: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; scrubbed.len()];
    let mut i = 0;
    while i < scrubbed.len() {
        if scrubbed[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0i64;
            let mut started = false;
            let mut j = i;
            while j < scrubbed.len() {
                in_test[j] = true;
                for c in scrubbed[j].bytes() {
                    match c {
                        b'{' => {
                            depth += 1;
                            started = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                if started && depth <= 0 {
                    break;
                }
                // An attribute on a braceless item (`#[cfg(test)] use x;`)
                // ends at the semicolon.
                if !started && scrubbed[j].contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Lints one source file's content. `label` is the path reported in
/// findings; pure so tests can feed strings.
pub fn lint_source(label: &str, source: &str, rules: RuleSet, report: &mut AnalysisReport) {
    report.subject();
    let (scrubbed, comments) = scrub_and_comments(source);
    let in_test = test_module_lines(&scrubbed);
    let bare_lock = holds_locks(source);
    let panic_toks = panic_tokens();
    let time_tok = std_time_token();
    let unsafe_tok = unsafe_token();
    let lock_toks = bare_lock_tokens();
    let queue_toks = unbounded_queue_tokens();
    let ptr_toks = ptr_arith_tokens(!rules.no_unsafe);
    let raw: Vec<&str> = source.lines().collect();
    for (idx, code) in scrubbed.iter().enumerate() {
        report.check();
        if in_test[idx] {
            continue;
        }
        // Allow markers live in comments, so they are matched against
        // the raw line (same line or the one directly above).
        let allowed = |rule: &str| {
            let marker = allow_marker(rule);
            raw[idx].contains(&marker) || (idx > 0 && raw[idx - 1].contains(&marker))
        };
        if rules.no_panics {
            for tok in &panic_toks {
                if code.contains(tok.as_str()) && !allowed("lint/no-panics") {
                    report.push(
                        "lint/no-panics",
                        Severity::Error,
                        &format!("{label}:{}", idx + 1),
                        format!(
                            "banned token `{tok}` in library code: route errors through \
                             DdlError (try-first rule), or add `// {}: <reason>`",
                            allow_marker("lint/no-panics")
                        ),
                    );
                }
            }
        }
        if bare_lock {
            for tok in &lock_toks {
                if code.contains(tok.as_str()) && !allowed("lint/no-bare-lock") {
                    report.push(
                        "lint/no-bare-lock",
                        Severity::Error,
                        &format!("{label}:{}", idx + 1),
                        format!(
                            "`{tok}` in a lock-holding file: one poisoned lock must not \
                             cascade — take it through faultpoint::relock or route a typed \
                             error, or add `// {}: <reason>`",
                            allow_marker("lint/no-bare-lock")
                        ),
                    );
                }
            }
        }
        if rules.exec_hot_path {
            for tok in &queue_toks {
                if code.contains(tok.as_str()) && !allowed("lint/no-unbounded-queue") {
                    report.push(
                        "lint/no-unbounded-queue",
                        Severity::Error,
                        &format!("{label}:{}", idx + 1),
                        format!(
                            "`{tok}` in an executor hot path: unbounded queues turn overload \
                             into memory growth — use a bounded queue that sheds with \
                             DdlError::Overloaded, or add `// {}: <reason>`",
                            allow_marker("lint/no-unbounded-queue")
                        ),
                    );
                }
            }
        }
        if rules.no_unsafe && contains_word(code, unsafe_tok.as_str()) && !allowed("lint/no-unsafe")
        {
            report.push(
                "lint/no-unsafe",
                Severity::Error,
                &format!("{label}:{}", idx + 1),
                format!(
                    "`{unsafe_tok}` outside the audited SIMD module: all unsafe code \
                     lives in {} (see DESIGN.md §11)",
                    UNSAFE_AUDITED.join(", ")
                ),
            );
        }
        for tok in &ptr_toks {
            if code.contains(tok.as_str()) && !allowed("lint/no-ptr-arith") {
                report.push(
                    "lint/no-ptr-arith",
                    Severity::Error,
                    &format!("{label}:{}", idx + 1),
                    format!(
                        "`{tok}` is raw-pointer arithmetic: index a slice or array \
                         reference instead, whose bounds the compiler checks, or add \
                         `// {}: <reason>`",
                        allow_marker("lint/no-ptr-arith")
                    ),
                );
            }
        }
        if rules.no_std_time && code.contains(time_tok.as_str()) && !allowed("lint/no-std-time") {
            report.push(
                "lint/no-std-time",
                Severity::Error,
                &format!("{label}:{}", idx + 1),
                format!(
                    "`{time_tok}` in pure planning code: plans must be a deterministic \
                     function of their inputs"
                ),
            );
        }
        // lint/dead-allow (always on): every allow marker in a real
        // `//` comment must still suppress something. Doc comments
        // (`///`, `//!`) and string literals are prose — markers there
        // never suppressed anything, so they are not checked either.
        let comment = comments[idx].as_str();
        if !comment.starts_with("///") && !comment.starts_with("//!") {
            let prefix = ["ddl-lint: ", "allow("].concat();
            for (pos, _) in comment.match_indices(&prefix) {
                let rest = &comment[pos + prefix.len()..];
                let Some(end) = rest.find(')') else {
                    continue;
                };
                let short = &rest[..end];
                let Some((toks, whole_word)) = rule_tokens(short) else {
                    report.push(
                        RULE_DEAD_ALLOW,
                        Severity::Error,
                        &format!("{label}:{}", idx + 1),
                        format!(
                            "allow marker names unknown rule `{short}`: it suppresses \
                             nothing and will rot silently"
                        ),
                    );
                    continue;
                };
                let live = [idx, idx + 1].iter().any(|&j| {
                    j < scrubbed.len()
                        && !in_test[j]
                        && toks.iter().any(|t| {
                            if whole_word {
                                contains_word(&scrubbed[j], t)
                            } else {
                                scrubbed[j].contains(t.as_str())
                            }
                        })
                });
                if !live {
                    report.push(
                        RULE_DEAD_ALLOW,
                        Severity::Error,
                        &format!("{label}:{}", idx + 1),
                        format!(
                            "dead allow marker for `{short}`: no banned token on this \
                             line or the one below — delete the marker"
                        ),
                    );
                }
            }
        }
    }
}

/// Checks one crate root for `#![forbid(unsafe_code)]`.
///
/// The roots pinned in [`DENY_UNSAFE_ROOTS`] (exactly the SIMD backend)
/// may use `#![deny(unsafe_code)]` instead: `forbid` cannot be
/// overridden, and that crate scopes an `#[allow(unsafe_code)]` onto its
/// single audited module.
pub fn lint_crate_root(label: &str, source: &str, report: &mut AnalysisReport) {
    report.subject();
    report.check();
    if DENY_UNSAFE_ROOTS.contains(&label) {
        if !source.contains("#![deny(unsafe_code)]") {
            report.push(
                "lint/forbid-unsafe",
                Severity::Error,
                label,
                "audited-unsafe crate root is missing #![deny(unsafe_code)]".to_string(),
            );
        }
        return;
    }
    if !source.contains("#![forbid(unsafe_code)]") {
        report.push(
            "lint/forbid-unsafe",
            Severity::Error,
            label,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        );
    }
}

/// Path suffixes (relative to the workspace root, `/`-separated) of the
/// pure-planning files subject to `lint/no-std-time`.
const PURE_PLANNING: &[&str] = &[
    "crates/core/src/planner.rs",
    "crates/core/src/model.rs",
    "crates/core/src/tree.rs",
    "crates/core/src/grammar.rs",
    "crates/core/src/wisdom.rs",
    "crates/core/src/json.rs",
];

/// Crates whose entire source tree is subject to `lint/no-std-time`.
const PURE_PLANNING_CRATES: &[&str] = &["crates/num", "crates/cachesim"];

fn is_pure_planning(rel: &str) -> bool {
    PURE_PLANNING.contains(&rel)
        || PURE_PLANNING_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("{c}/")))
}

/// Path suffixes of the executor/scheduler hot-path files subject to
/// `lint/no-unbounded-queue`: code that faces unbounded request arrival.
const EXEC_HOT_PATH: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/faultpoint.rs",
    "crates/core/src/scratch.rs",
];

/// Crates whose entire library source is an executor hot path.
const EXEC_HOT_PATH_CRATES: &[&str] = &["crates/serve"];

fn is_exec_hot_path(rel: &str) -> bool {
    EXEC_HOT_PATH.contains(&rel)
        || EXEC_HOT_PATH_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("{c}/")))
}

/// Every rule's path list, by name. Each entry must name a file or
/// directory under the workspace root (`lint/dead-allow`).
const SCOPE_LISTS: [(&str, &[&str]); 6] = [
    ("UNSAFE_AUDITED", UNSAFE_AUDITED),
    ("DENY_UNSAFE_ROOTS", DENY_UNSAFE_ROOTS),
    ("PURE_PLANNING", PURE_PLANNING),
    ("PURE_PLANNING_CRATES", PURE_PLANNING_CRATES),
    ("EXEC_HOT_PATH", EXEC_HOT_PATH),
    ("EXEC_HOT_PATH_CRATES", EXEC_HOT_PATH_CRATES),
];

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

pub(crate) fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the whole workspace rooted at `root`:
///
/// * `lint/no-panics` over every library source under `crates/*/src`
///   and `src/` (binaries under `bin/`, the machine-generated
///   `generated.rs`, and the vendored stand-ins are out of scope);
/// * `lint/no-std-time` over the pure-planning subset;
/// * `lint/no-bare-lock` over the lock-holding files, and
///   `lint/no-unbounded-queue` over the executor hot paths;
/// * `lint/forbid-unsafe` over every workspace crate root, vendored
///   stand-ins included;
/// * `lint/dead-allow` over every entry of the rules' path lists.
pub fn lint_workspace(root: &Path, report: &mut AnalysisReport) -> std::io::Result<()> {
    // Library sources.
    let mut lib_dirs: Vec<PathBuf> = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            lib_dirs.push(src);
        }
    }
    lib_dirs.sort();
    for dir in &lib_dirs {
        let mut files = Vec::new();
        collect_rs_files(dir, &mut files)?;
        for path in files {
            let rel = rel_label(root, &path);
            if rel.contains("/bin/") || rel.ends_with("generated.rs") {
                continue;
            }
            let source = fs::read_to_string(&path)?;
            let rules = RuleSet {
                no_panics: true,
                no_std_time: is_pure_planning(&rel),
                exec_hot_path: is_exec_hot_path(&rel),
                no_unsafe: !is_unsafe_audited(&rel),
            };
            lint_source(&rel, &source, rules, report);
        }
    }

    // Crate roots (including vendor: they are workspace members).
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for base in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(base))? {
            let lib = entry?.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.sort();
    for path in roots {
        let rel = rel_label(root, &path);
        let source = fs::read_to_string(&path)?;
        lint_crate_root(&rel, &source, report);
    }

    // The scope lists must stay earned too: an entry that names nothing
    // on disk silently drops a renamed file out of its rule, and an
    // audited path that no longer contains any real `unsafe` code would
    // silently exempt a future rewrite.
    for (list, entries) in SCOPE_LISTS {
        for rel in entries {
            report.check();
            if !root.join(rel).exists() {
                report.push(
                    RULE_DEAD_ALLOW,
                    Severity::Error,
                    rel,
                    format!("{list} entry does not exist on disk"),
                );
            }
        }
    }
    let tok = unsafe_token();
    for rel in UNSAFE_AUDITED {
        if let Ok(src) = fs::read_to_string(root.join(rel)) {
            report.check();
            if !contains_word(&scrub(&src).join("\n"), &tok) {
                report.push(
                    RULE_DEAD_ALLOW,
                    Severity::Error,
                    rel,
                    format!(
                        "UNSAFE_AUDITED entry no longer contains any `{tok}` code: \
                         remove it from the allow-list"
                    ),
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: RuleSet = RuleSet {
        no_panics: true,
        no_std_time: true,
        exec_hot_path: true,
        no_unsafe: true,
    };

    #[test]
    fn flags_panic_family_tokens() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "lint/no-panics");
        assert_eq!(report.findings[0].subject, "a.rs:2");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() { Some(1).unwrap(); panic!(\"x\"); }\n\
                   }\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn code_after_test_module_is_still_linted() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].subject, "a.rs:5");
    }

    #[test]
    fn unbalanced_braces_in_test_strings_do_not_confuse_the_scanner() {
        // A test module full of unbalanced braces inside string and char
        // literals (as in the JSON parser's tests) must still end where
        // its real braces end.
        let src = "fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t() { parse(\"{\\\"a\\\":\"); p(b'{'); q(r#\"}}}\"#); x.unwrap(); }\n\
                   }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert_eq!(report.error_count(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].subject, "a.rs:6");
    }

    #[test]
    fn allow_marker_suppresses_on_same_or_previous_line() {
        let marker = allow_marker("lint/no-panics");
        let src = format!(
            "fn f() {{\n\
             \x20   // {marker}: documented wrapper\n\
             \x20   Some(1).unwrap();\n\
             \x20   panic!(\"boom\"); // {marker}: also fine\n\
             }}\n"
        );
        let mut report = AnalysisReport::new();
        lint_source("a.rs", &src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn comments_strings_and_docs_are_exempt() {
        let src = "//! Call .unwrap() at your peril; std::time is evil.\n\
                   /// let x = foo().unwrap();\n\
                   fn f() {} // panic!(\"not code\")\n\
                   fn g() -> &'static str { \".unwrap() and std::time inside a string\" }\n\
                   /* block comment: panic!(\"nope\") */\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn std_time_flagged_only_when_rule_enabled() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let mut report = AnalysisReport::new();
        lint_source(
            "crates/core/src/measure.rs",
            src,
            RuleSet {
                no_panics: true,
                no_std_time: false,
                exec_hot_path: false,
                no_unsafe: true,
            },
            &mut report,
        );
        assert!(report.passes());
        let mut report = AnalysisReport::new();
        lint_source("crates/core/src/planner.rs", src, ALL, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "lint/no-std-time");
    }

    #[test]
    fn parser_expect_method_is_not_flagged() {
        // json.rs has a parser method literally named `expect`; the
        // token requires a string-literal argument so it stays exempt.
        let src = "fn f(p: &mut P) -> R {\n    p.expect(b'{')\n}\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn crate_root_lint_requires_forbid_unsafe() {
        let mut report = AnalysisReport::new();
        lint_crate_root(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n",
            &mut report,
        );
        assert!(report.passes());
        lint_crate_root("crates/y/src/lib.rs", "pub mod a;\n", &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "lint/forbid-unsafe");
    }

    #[test]
    fn deny_unsafe_root_carve_out_is_pinned_to_the_simd_backend() {
        // The audited crate root satisfies the rule with deny.
        let deny = "#![deny(unsafe_code)]\npub mod arch;\n";
        let mut report = AnalysisReport::new();
        lint_crate_root("crates/backend-simd/src/lib.rs", deny, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
        // ...and fails without it.
        let mut report = AnalysisReport::new();
        lint_crate_root(
            "crates/backend-simd/src/lib.rs",
            "pub mod arch;\n",
            &mut report,
        );
        assert_eq!(report.error_count(), 1);
        // Any other crate root with deny instead of forbid still fails:
        // the carve-out does not generalize.
        let mut report = AnalysisReport::new();
        lint_crate_root("crates/core/src/lib.rs", deny, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "lint/forbid-unsafe");
    }

    #[test]
    fn unsafe_token_flagged_outside_the_audited_module() {
        let tok = unsafe_token();
        let src = format!("fn f(p: *const u8) -> u8 {{\n    {tok} {{ *p }}\n}}\n");
        let mut report = AnalysisReport::new();
        lint_source("crates/core/src/dft.rs", &src, ALL, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "lint/no-unsafe");
        assert_eq!(report.findings[0].subject, "crates/core/src/dft.rs:2");
    }

    #[test]
    fn unsafe_allow_list_is_exactly_the_arch_module() {
        assert!(is_unsafe_audited("crates/backend-simd/src/arch.rs"));
        assert!(!is_unsafe_audited("crates/backend-simd/src/lib.rs"));
        assert!(!is_unsafe_audited("crates/core/src/dft.rs"));
        assert_eq!(UNSAFE_AUDITED.len(), 1);
        // The workspace walk disables the rule for exactly that file.
        let tok = unsafe_token();
        let src = format!("fn f(p: *const u8) -> u8 {{\n    {tok} {{ *p }}\n}}\n");
        let rules = RuleSet {
            no_panics: true,
            no_std_time: false,
            exec_hot_path: false,
            no_unsafe: !is_unsafe_audited("crates/backend-simd/src/arch.rs"),
        };
        let mut report = AnalysisReport::new();
        lint_source("crates/backend-simd/src/arch.rs", &src, rules, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn unsafe_code_attribute_spelling_is_not_flagged() {
        // `#![deny(unsafe_code)]` / `#[allow(unsafe_code)]` contain the
        // keyword only as a prefix of the lint name; whole-word matching
        // must not fire on them.
        let tok = unsafe_token();
        let src = format!("#![deny({tok}_code)]\n#[allow({tok}_code)]\nmod arch;\n");
        let mut report = AnalysisReport::new();
        lint_source("crates/backend-simd/src/lib.rs", &src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn ptr_offsets_are_flagged_where_unsafe_is_allowed() {
        let src = "fn f(v: &mut [f64]) -> *mut f64 {\n    v.as_mut_ptr().add(2)\n}\n";
        let audited = RuleSet {
            no_unsafe: false,
            ..ALL
        };
        let mut report = AnalysisReport::new();
        lint_source("crates/backend-simd/src/arch.rs", src, audited, &mut report);
        assert_eq!(report.error_count(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "lint/no-ptr-arith");
        assert_eq!(
            report.findings[0].subject,
            "crates/backend-simd/src/arch.rs:2"
        );
        // Where `unsafe` is banned, `.add(` cannot be a pointer's.
        let mut report = AnalysisReport::new();
        lint_source("crates/cachesim/src/attrib.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn bare_lock_flagged_in_hot_paths() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n    *m.lock().unwrap()\n}\n";
        // The file names `Mutex`, so it holds a lock and the rule applies.
        assert!(holds_locks(src));
        let mut report = AnalysisReport::new();
        lint_source("crates/core/src/scheduler.rs", src, ALL, &mut report);
        // Both the lock rule and no-panics fire on the same token.
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "lint/no-bare-lock" && f.subject.ends_with(":2")));
        // A lock named only in a string, a comment or a test module does
        // not make a lock-holding file; where no lock is held the rule
        // stays silent.
        assert!(!holds_locks(
            "// a Mutex\nfn f() -> &'static str { \"RwLock\" }\n\
             #[cfg(test)]\nmod tests { use std::sync::Mutex; }\n"
        ));
        let unnamed = "fn f(m: &Shared) -> u8 {\n    *m.lock().unwrap()\n}\n";
        let mut report = AnalysisReport::new();
        lint_source(
            "crates/core/src/obs.rs",
            unnamed,
            RuleSet {
                no_panics: false,
                no_std_time: false,
                exec_hot_path: false,
                no_unsafe: true,
            },
            &mut report,
        );
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn poison_recovering_lock_is_clean() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 {\n    \
                   *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n";
        let mut report = AnalysisReport::new();
        lint_source("crates/serve/src/lib.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn unbounded_channel_flagged_in_hot_paths() {
        let src = "fn f() {\n    let (_tx, _rx) = std::sync::mpsc::channel::<u8>();\n}\n";
        let mut report = AnalysisReport::new();
        lint_source("crates/serve/src/lib.rs", src, ALL, &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "lint/no-unbounded-queue");
        // The bounded constructor is the sanctioned alternative.
        let src = "fn f() {\n    let (_tx, _rx) = std::sync::mpsc::sync_channel::<u8>(1);\n}\n";
        let mut report = AnalysisReport::new();
        lint_source("crates/serve/src/lib.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn hot_path_rules_honor_allow_markers() {
        let src = "fn f() {\n    \
                   // ddl-lint: allow(no-unbounded-queue): drained by the caller each turn\n    \
                   let (_tx, _rx) = std::sync::mpsc::channel::<u8>();\n}\n";
        let mut report = AnalysisReport::new();
        lint_source("crates/serve/src/lib.rs", src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn dead_allow_marker_is_flagged() {
        let marker = allow_marker("lint/no-panics");
        // The unwrap was removed in a refactor; the marker stayed.
        let src = format!(
            "fn f(x: Option<u8>) -> u8 {{\n\
             \x20   // {marker}: documented wrapper\n\
             \x20   x.unwrap_or(0)\n\
             }}\n"
        );
        let mut report = AnalysisReport::new();
        lint_source("a.rs", &src, ALL, &mut report);
        assert_eq!(report.error_count(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RULE_DEAD_ALLOW);
        assert_eq!(report.findings[0].subject, "a.rs:2");
    }

    #[test]
    fn unknown_rule_in_allow_marker_is_flagged() {
        let src = "fn f() {\n\
                   \x20   // ddl-lint: allow(no-panix): typo'd rule name\n\
                   \x20   let _ = 1;\n\
                   }\n";
        let mut report = AnalysisReport::new();
        lint_source("a.rs", src, ALL, &mut report);
        assert_eq!(report.error_count(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RULE_DEAD_ALLOW);
        assert!(report.findings[0].message.contains("no-panix"));
    }

    #[test]
    fn markers_in_docs_and_strings_are_not_dead_allows() {
        let marker = allow_marker("lint/no-panics");
        // Doc comments and string literals mention markers as prose —
        // they never suppressed anything, so they cannot be dead.
        let src = format!(
            "//! Suppress with `// {marker}: reason`.\n\
             /// Example: `// {marker}: reason`.\n\
             fn f() -> String {{\n\
             \x20   format!(\"{marker}\")\n\
             }}\n"
        );
        let mut report = AnalysisReport::new();
        lint_source("a.rs", &src, ALL, &mut report);
        assert!(report.passes(), "{:?}", report.findings);
    }

    #[test]
    fn live_unsafe_marker_requires_a_whole_word_match() {
        let tok = unsafe_token();
        let marker = allow_marker("lint/no-unsafe");
        // `unsafe_code` in an attribute is not the keyword: a marker
        // "covering" only that spelling is dead.
        let src = format!(
            "// {marker}: stale\n\
             #[allow({tok}_code)]\n\
             mod arch;\n"
        );
        let mut report = AnalysisReport::new();
        let rules = RuleSet {
            no_panics: true,
            no_std_time: false,
            exec_hot_path: false,
            no_unsafe: true,
        };
        lint_source("a.rs", &src, rules, &mut report);
        assert_eq!(report.error_count(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RULE_DEAD_ALLOW);
    }

    #[test]
    fn exec_hot_path_scope_is_exact() {
        assert!(is_exec_hot_path("crates/core/src/scheduler.rs"));
        assert!(is_exec_hot_path("crates/core/src/parallel.rs"));
        assert!(is_exec_hot_path("crates/core/src/engine.rs"));
        assert!(is_exec_hot_path("crates/core/src/scratch.rs"));
        assert!(is_exec_hot_path("crates/serve/src/lib.rs"));
        assert!(!is_exec_hot_path("crates/core/src/planner.rs"));
        assert!(!is_exec_hot_path("crates/core/src/obs.rs"));
    }

    #[test]
    fn pure_planning_scope_is_exact() {
        assert!(is_pure_planning("crates/core/src/planner.rs"));
        assert!(is_pure_planning("crates/num/src/twiddle.rs"));
        assert!(is_pure_planning("crates/cachesim/src/cache.rs"));
        assert!(!is_pure_planning("crates/core/src/measure.rs"));
        assert!(!is_pure_planning("crates/core/src/parallel.rs"));
        assert!(!is_pure_planning("crates/core/src/obs.rs"));
    }

    #[test]
    fn scope_entries_that_name_no_path_are_errors() {
        // A root holding every scope entry but one: exactly that one is
        // reported.
        let root = std::env::temp_dir().join(format!("ddl-lint-scopes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let missing = "crates/core/src/wisdom.rs";
        let entries: Vec<&str> = SCOPE_LISTS.iter().flat_map(|&(_, e)| e).copied().collect();
        assert!(entries.contains(&missing));
        for rel in entries.into_iter().filter(|&rel| rel != missing) {
            let path = root.join(rel);
            if !rel.ends_with(".rs") {
                fs::create_dir_all(&path).unwrap();
                continue;
            }
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            let text = if is_unsafe_audited(rel) {
                format!("fn f() {{ {} {{}} }}\n", unsafe_token())
            } else if DENY_UNSAFE_ROOTS.contains(&rel) {
                "#![deny(unsafe_code)]\n".to_string()
            } else {
                String::new()
            };
            fs::write(&path, text).unwrap();
        }
        fs::create_dir_all(root.join("src")).unwrap();
        fs::create_dir_all(root.join("vendor")).unwrap();
        fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").unwrap();
        let mut report = AnalysisReport::new();
        let walked = lint_workspace(&root, &mut report);
        fs::remove_dir_all(&root).unwrap();
        walked.unwrap();
        assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
        let finding = &report.findings[0];
        assert_eq!(finding.rule, RULE_DEAD_ALLOW);
        assert_eq!(finding.subject, missing);
        assert_eq!(
            finding.message,
            "PURE_PLANNING entry does not exist on disk"
        );
    }

    #[test]
    fn fixture_corpus_covers_every_rule() {
        // Every rule ships a positive (`.flag.rs`, must trip exactly
        // that rule) and a negative (`.ok.rs`, must be fully clean
        // under every rule) snippet, and the corpus directory contains
        // nothing else.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/lint");
        let rules = [
            "no-panics",
            "no-std-time",
            "no-bare-lock",
            "no-unbounded-queue",
            "no-unsafe",
            "no-ptr-arith",
            "dead-allow",
            "forbid-unsafe",
        ];
        for rule in rules {
            for (suffix, want_clean) in [("ok", true), ("flag", false)] {
                let path = dir.join(format!("{rule}.{suffix}.rs"));
                let source =
                    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let mut report = AnalysisReport::new();
                if rule == "forbid-unsafe" {
                    lint_crate_root("crates/x/src/lib.rs", &source, &mut report);
                } else {
                    lint_source("fixture.rs", &source, ALL, &mut report);
                }
                if want_clean {
                    assert!(report.passes(), "{rule}.{suffix}: {:#?}", report.findings);
                } else {
                    assert!(
                        report
                            .findings
                            .iter()
                            .any(|f| f.severity == Severity::Error
                                && f.rule == format!("lint/{rule}")),
                        "{rule}.{suffix} did not trip lint/{rule}: {:#?}",
                        report.findings
                    );
                }
            }
        }
        let entries = fs::read_dir(&dir).expect("fixture dir").count();
        assert_eq!(entries, rules.len() * 2, "stray files in fixtures/lint");
    }

    #[test]
    fn whole_workspace_is_lint_clean() {
        // The real gate: the repository's own sources must pass. Walk up
        // from this crate's manifest dir to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let mut report = AnalysisReport::new();
        lint_workspace(root, &mut report).expect("lint walk");
        let errors: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "lint errors: {errors:#?}");
        assert!(report.subjects > 40, "suspiciously few files scanned");
    }
}
