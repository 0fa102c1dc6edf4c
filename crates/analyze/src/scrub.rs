//! The source scrubber the lock rule ([`crate::locks`]) reads code
//! through.
//!
//! A tiny lexer blanks string/char literals and comments, so tokens
//! inside strings or docs never count, and `#[cfg(test)]` items are
//! found by an accurate brace count over what remains. The point is an
//! `O(source)` scan with zero dependencies, not a parser.

use std::fs;
use std::path::{Path, PathBuf};

/// Lexer state carried across lines while scrubbing.
enum ScrubState {
    Normal,
    Str,
    RawStr(usize),
    BlockComment(usize),
}

/// Returns the source line by line with string/char-literal contents and
/// comments blanked out: what remains is pure code text, safe for token
/// matching and brace counting.
pub(crate) fn scrub(source: &str) -> Vec<String> {
    let mut state = ScrubState::Normal;
    let mut out = Vec::new();
    for line in source.lines() {
        let b = line.as_bytes();
        let mut res = String::with_capacity(b.len());
        let mut i = 0;
        while i < b.len() {
            match state {
                ScrubState::Normal => {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
                        // Line comment: rest of line is prose.
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
    }
    out
}

/// Whether `source`'s non-test code names `Mutex` or `RwLock`: the one
/// definition of a lock-holding file, which scopes the lock rule.
pub(crate) fn holds_locks(source: &str) -> bool {
    let code = scrub(source);
    let in_test = test_module_lines(&code);
    let lock = |w: &str| w == "Mutex" || w == "RwLock";
    code.iter().zip(in_test).any(|(line, test)| {
        !test
            && line
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .any(lock)
    })
}

/// Which lines belong to `#[cfg(test)]` items, determined by brace
/// counting over scrubbed code.
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

/// Appends every `.rs` file under `dir`, recursively, to `out` (sorted).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1-based lines outside `#[cfg(test)]` items whose scrubbed code
    /// contains `tok`.
    fn live_lines(src: &str, tok: &str) -> Vec<usize> {
        let code = scrub(src);
        let in_test = test_module_lines(&code);
        (0..code.len())
            .filter(|&i| !in_test[i] && code[i].contains(tok))
            .map(|i| i + 1)
            .collect()
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                   fn t() { Some(1).unwrap(); panic!(\"x\"); }\n}\n";
        let in_test = test_module_lines(&scrub(src));
        assert_eq!(in_test, [false, true, true, true, true, true]);
    }

    #[test]
    fn code_after_test_module_is_still_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(live_lines(src, ".unwrap()"), [5]);
        // A braceless `#[cfg(test)]` item ends at its semicolon.
        let src = "#[cfg(test)]\nuse std::sync::Mutex;\nfn g() { x.unwrap() }\n";
        assert_eq!(live_lines(src, ".unwrap()"), [3]);
    }

    #[test]
    fn unbalanced_braces_in_test_strings_do_not_confuse_the_scanner() {
        // A test module full of unbalanced braces inside string and char
        // literals (as in the JSON parser's tests) must still end where
        // its real braces end.
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { \
                   parse(\"{\\\"a\\\":\"); p(b'{'); q(r#\"}}}\"#); x.unwrap(); }\n}\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(live_lines(src, ".unwrap()"), [6]);
    }

    #[test]
    fn comments_strings_and_docs_are_exempt() {
        let src = "//! Call .unwrap() at your peril.\n/// let x = foo().unwrap();\n\
                   fn f() {} // panic!(\"not code\")\n\
                   fn g() -> &'static str { \".unwrap() inside a string\" }\n\
                   /* block comment: panic!(\"nope\") */\n";
        let code = scrub(src);
        assert_eq!(
            code,
            ["", "", "fn f() {} ", "fn g() -> &'static str { \"\" }", ""]
        );
    }

    #[test]
    fn locks_named_in_comments_strings_or_tests_are_not_held() {
        assert!(holds_locks("fn f(m: &std::sync::Mutex<u8>) {}\n"));
        // A lock named only in a comment, a string or a test module, or
        // inside a longer identifier, does not make a lock-holding file.
        assert!(!holds_locks(
            "// a Mutex\nfn f() -> &'static str { \"RwLock\" }\nstruct MutexGuardLike;\n\
             #[cfg(test)]\nmod tests { use std::sync::Mutex; }\n"
        ));
    }
}
