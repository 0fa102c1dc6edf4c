//! Seeded inputs, order statistics, and process measurements.

use std::time::Instant;

/// SplitMix64: a small seeded generator, so a seed fixes every input and
/// request order the benchmark produces.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// `k` distinct values from `0..n` (all of them when `n <= k`), sorted.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < k.min(n) {
            let i = self.below(n);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of `values`; also returns how
/// many samples lie beyond it.
pub fn quantile(values: &[f64], q: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// Host-speed probe: a fixed dependent floating-point loop owned by the
/// benchmark, in milliseconds. It runs none of the program's code, so a
/// change in it between runs is host drift, not a code change.
pub fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0.5f64;
    for i in 0..20_000_000u32 {
        x = std::hint::black_box(x * 1.000_000_1 + f64::from(i & 7) * 1e-9);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
