//! The source policy the compiler cannot state by itself.
//!
//! rustc and clippy enforce the workspace's source discipline, but only
//! as declared: the lint lines at each library crate root, the bans in
//! `clippy.toml`, and `#![forbid(unsafe_code)]`. This test checks the
//! declarations, plus the two rules no lint expresses: where `unsafe`
//! may live, and no raw-pointer arithmetic. Each check maps
//! `(workspace-relative path, source)` pairs to the violations it finds,
//! and each is shown to refuse a doctored input.

use std::path::Path;

/// The lint lines every library crate root carries, in this order.
const POLICY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
                      #![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
                      #![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]";

/// The crate root that denies rather than forbids `unsafe_code` (a
/// `forbid` cannot be lifted for one module), and the module it lifts
/// it for.
const SIMD_ROOT: &str = "crates/backend-simd/src/lib.rs";
const UNSAFE_MODULE: (&str, &str) = ("crates/backend-simd/src/arch.rs", "mod arch;");

/// What `clippy.toml` must ban: the clock types and the unbounded
/// channel.
const BANNED: [&str; 3] = [
    "std::time::Instant",
    "std::time::SystemTime",
    "std::sync::mpsc::channel",
];

type Sources = [(String, String)];

/// The lines outside `//` comments and docs, trimmed and numbered from 1.
fn code_lines(source: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = source.lines().map(str::trim).enumerate();
    lines
        .filter(|(_, line)| !line.starts_with("//"))
        .map(|(i, line)| (i + 1, line))
}

fn squeeze(text: &str) -> String {
    text.split_whitespace().collect()
}

/// Crate roots missing `#![forbid(unsafe_code)]` (`deny` at
/// [`SIMD_ROOT`]), or, unless vendored, [`POLICY`].
fn root_violations(roots: &Sources) -> Vec<String> {
    let mut out = Vec::new();
    for (path, source) in roots {
        let code: String = code_lines(source).map(|(_, line)| squeeze(line)).collect();
        let level = if path == SIMD_ROOT { "deny" } else { "forbid" };
        let unsafe_attr = format!("#![{level}(unsafe_code)]");
        if !code.contains(&unsafe_attr) {
            out.push(format!("{path}: missing {unsafe_attr}"));
        }
        if !path.starts_with("vendor/") && !code.contains(&squeeze(POLICY)) {
            out.push(format!("{path}: missing the lint lines"));
        }
    }
    out
}

/// Every `allow(unsafe_code)`/`expect(unsafe_code)` as `path:line item`,
/// `item` being the line the attribute applies to.
fn unsafe_exemptions(files: &Sources) -> Vec<String> {
    let mut out = Vec::new();
    for (path, source) in files {
        let lines: Vec<(usize, &str)> = code_lines(source).collect();
        for (k, &(line, text)) in lines.iter().enumerate() {
            let text = squeeze(text);
            if text.contains("allow(unsafe_code") || text.contains("expect(unsafe_code") {
                let item = lines[k..]
                    .iter()
                    .map(|&(_, l)| l)
                    .find(|l| !l.starts_with(['#', ')']) && !l.contains("unsafe_code"));
                out.push(format!("{path}:{line} {}", item.unwrap_or("")));
            }
        }
    }
    out
}

/// Raw-pointer arithmetic as `path:line`: `as *const`/`as *mut` casts
/// anywhere, and `.add(`/`.offset(` where `unsafe` lives (elsewhere they
/// cannot be a pointer's: both are `unsafe` fns).
fn ptr_arith_sites(files: &Sources) -> Vec<String> {
    let mut out = Vec::new();
    for (path, source) in files {
        let tokens = if path == UNSAFE_MODULE.0 { 4 } else { 2 };
        let banned = &["as *const", "as *mut", ".add(", ".offset("][..tokens];
        for (line, text) in code_lines(source) {
            if banned.iter().any(|tok| text.contains(tok)) {
                out.push(format!("{path}:{line}"));
            }
        }
    }
    out
}

/// The entries of [`BANNED`] that `clippy.toml` does not name.
fn missing_bans(clippy_toml: &str) -> Vec<&'static str> {
    let entries: String = code_lines(clippy_toml)
        .filter(|(_, line)| !line.starts_with('#'))
        .map(|(_, line)| line)
        .collect();
    let named = |path: &&str| entries.contains(&format!("\"{path}\""));
    BANNED.into_iter().filter(|path| !named(path)).collect()
}

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// Every `.rs` file under `dirs` (workspace-relative), sorted.
fn sources(dirs: &[&str]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut pending: Vec<String> = dirs.iter().map(|d| d.to_string()).collect();
    let mut out = Vec::new();
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(root.join(&dir)).expect("listing a source dir") {
            let name = entry.expect("entry").file_name();
            let rel = format!("{dir}/{}", name.to_string_lossy());
            if root.join(&rel).is_dir() {
                pending.push(rel);
            } else if rel.ends_with(".rs") {
                let source = read(&rel);
                out.push((rel, source));
            }
        }
    }
    out.sort();
    out
}

fn doctored(path: &str, source: &str) -> Vec<(String, String)> {
    vec![(path.to_string(), source.to_string())]
}

#[test]
fn crate_roots_carry_their_lint_attributes() {
    let roots: Vec<_> = sources(&["crates", "src", "vendor"])
        .into_iter()
        .filter(|(path, _)| {
            let parts: Vec<&str> = path.split('/').collect();
            path == "src/lib.rs" || matches!(parts[..], ["crates" | "vendor", _, "src", "lib.rs"])
        })
        .collect();
    let libraries = roots.iter().filter(|(p, _)| !p.starts_with("vendor/"));
    assert!(libraries.count() >= 11, "{roots:?}");
    assert_eq!(root_violations(&roots), Vec::<String>::new());

    let bare = doctored("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n");
    assert_eq!(
        root_violations(&bare),
        ["crates/x/src/lib.rs: missing the lint lines"]
    );
}

#[test]
fn crate_roots_forbid_unsafe_code() {
    let forbid = doctored(
        "crates/x/src/lib.rs",
        &format!("{POLICY}\n#![forbid(unsafe_code)]\n"),
    );
    assert_eq!(root_violations(&forbid), Vec::<String>::new());
    let bare = doctored("crates/y/src/lib.rs", &format!("{POLICY}\npub mod a;\n"));
    assert_eq!(
        root_violations(&bare),
        ["crates/y/src/lib.rs: missing #![forbid(unsafe_code)]"]
    );
}

#[test]
fn only_the_simd_backend_root_denies_unsafe_code() {
    let deny = format!("{POLICY}\n#![deny(unsafe_code)]\npub mod arch;\n");
    assert_eq!(
        root_violations(&doctored(SIMD_ROOT, &deny)),
        Vec::<String>::new()
    );
    let want = format!("{SIMD_ROOT}: missing #![deny(unsafe_code)]");
    let bare = doctored(SIMD_ROOT, &format!("{POLICY}\npub mod arch;\n"));
    assert_eq!(root_violations(&bare), [want.as_str()]);
    let forbid = doctored(SIMD_ROOT, &format!("{POLICY}\n#![forbid(unsafe_code)]\n"));
    assert_eq!(root_violations(&forbid), [want]);

    // The carve-out does not generalize: any other root that denies fails.
    let core = "crates/core/src/lib.rs";
    assert_eq!(
        root_violations(&doctored(core, &deny)),
        [format!("{core}: missing #![forbid(unsafe_code)]")]
    );
}

#[test]
fn unsafe_code_is_expected_on_the_simd_arch_module_alone() {
    let mut files = sources(&["crates", "src", "vendor"]);
    let sites = unsafe_exemptions(&files);
    assert_eq!(sites.len(), 1, "{sites:?}");
    assert!(sites[0].starts_with(SIMD_ROOT) && sites[0].ends_with(UNSAFE_MODULE.1));

    let path = "crates/core/src/dft.rs";
    files.extend(doctored(path, "#[allow(unsafe_code)]\nmod fast;\n"));
    let sites = unsafe_exemptions(&files);
    assert_eq!(sites[1..], [format!("{path}:1 mod fast;")], "{sites:?}");
}

#[test]
fn no_raw_pointer_arithmetic() {
    let files = sources(&["crates", "src", "vendor"]);
    assert!(files.iter().any(|(path, _)| path == UNSAFE_MODULE.0));
    assert_eq!(ptr_arith_sites(&files), Vec::<String>::new());

    let cast = "// `as *const` in a comment is prose\nfn f(x: &u8) -> *const u8 {\n    \
                x as *const u8\n}\n";
    let offset = "fn g(p: *const f64) -> *const f64 {\n    p.add(1)\n}\n";
    let mut files = doctored("crates/core/src/dft.rs", cast);
    files.extend(doctored(UNSAFE_MODULE.0, offset));
    files.extend(doctored("crates/cachesim/src/cache.rs", offset));
    let want = [
        "crates/core/src/dft.rs:3".to_string(),
        format!("{}:2", UNSAFE_MODULE.0),
    ];
    assert_eq!(ptr_arith_sites(&files), want);
}

#[test]
fn clippy_toml_bans_the_clocks_and_the_unbounded_channel() {
    let text = read("clippy.toml");
    assert_eq!(missing_bans(&text), Vec::<&str>::new());
    let doctored = text.replace("std::time::Instant", "std::time::Duration");
    assert_eq!(missing_bans(&doctored), ["std::time::Instant"]);
}
