//! Host introspection — the analogue of the paper's platform tables.

/// Cache description: `(level, size_bytes, line_bytes, associativity)`.
pub type CacheDesc = (u32, usize, usize, usize);

/// Reads the CPU model name from `/proc/cpuinfo` (Linux) or reports
/// "unknown".
pub fn cpu_model() -> String {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, name)) = rest.split_once(':') {
                    return name.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// Enumerates data caches from sysfs; falls back to a typical geometry if
/// unavailable.
pub fn caches() -> Vec<CacheDesc> {
    let mut out = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}"));
        let Ok(cache_type) = read("type") else { break };
        if cache_type.trim() == "Instruction" {
            continue;
        }
        let level: u32 = read("level")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        let size = read("size")
            .ok()
            .and_then(|s| parse_size(s.trim()))
            .unwrap_or(0);
        let line: usize = read("coherency_line_size")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(64);
        let ways: usize = read("ways_of_associativity")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(8);
        out.push((level, size, line, ways));
    }
    if out.is_empty() {
        // fallback: a generic modern hierarchy
        out.push((1, 32 * 1024, 64, 8));
        out.push((2, 1024 * 1024, 64, 16));
    }
    out
}

/// Output of `rustc --version` (or "unknown"): part of the benchmark
/// environment header, since codegen changes shift every timing.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// Short git commit of the working tree (or "unknown"): lets a stored
/// benchmark report be traced back to the code it measured.
pub fn git_sha() -> String {
    command_line("git", &["rev-parse", "--short", "HEAD"])
}

/// First line of a command's stdout, or "unknown" when the command is
/// missing or fails (benchmarks must run on hosts without a toolchain).
fn command_line(program: &str, args: &[&str]) -> String {
    let out = match std::process::Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => out,
        _ => return "unknown".to_string(),
    };
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .unwrap_or("unknown")
        .to_string()
}

/// Parses "48K" / "2048K" / "36M" sysfs cache size strings.
pub fn parse_size(s: &str) -> Option<usize> {
    if let Some(k) = s.strip_suffix('K') {
        k.parse::<usize>().ok().map(|v| v * 1024)
    } else if let Some(m) = s.strip_suffix('M') {
        m.parse::<usize>().ok().map(|v| v * 1024 * 1024)
    } else {
        s.parse().ok()
    }
}

/// The page size in bytes (`getconf PAGESIZE`), or 4 KiB, the base page
/// of the usual hosts, when it cannot be read.
pub fn page_bytes() -> usize {
    command_line("getconf", &["PAGESIZE"])
        .parse()
        .unwrap_or(4096)
}

/// The L2 capacity in points of `point_bytes` each, defaulting to 2 MiB
/// when undiscoverable. Used as the planner's DDL threshold on this host.
pub fn l2_points(point_bytes: usize) -> usize {
    let l2 = caches()
        .into_iter()
        .filter(|&(level, ..)| level == 2)
        .map(|(_, size, ..)| size)
        .max()
        .unwrap_or(2 * 1024 * 1024);
    l2 / point_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size("12345"), Some(12345));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn caches_reports_something() {
        let c = caches();
        assert!(!c.is_empty());
        for (level, size, line, _) in c {
            assert!(level >= 1);
            assert!(size > 0);
            assert!(line.is_power_of_two());
        }
    }

    #[test]
    fn toolchain_probes_never_panic() {
        // Either a real answer or the documented fallback — never empty.
        assert!(!rustc_version().is_empty());
        assert!(!git_sha().is_empty());
        assert_eq!(command_line("ddl-no-such-binary", &[]), "unknown");
    }

    #[test]
    fn l2_points_is_positive() {
        assert!(l2_points(16) > 0);
        assert_eq!(l2_points(8), 2 * l2_points(16));
    }
}
