//! Runtime-dispatched SIMD leaf and twiddle kernels for the DFT
//! executor, which runs them where they were measured faster than the
//! scalar codelets: on AVX2+FMA hosts, for 32- and 64-point leaves and
//! every twiddle pass ([`profitable_isa`], [`profitable_size`],
//! DESIGN.md §11).
//!
//! This crate lowers the same pow2 leaf sizes the scalar codelets in
//! `ddl-kernels` cover (n ≤ 64) to an iterative radix-2 DIT network with
//! precomputed bit-reversal and per-stage twiddle tables, then executes
//! the butterfly stream through one of three code paths picked at
//! dispatch time:
//!
//! - **AVX2+FMA** on x86_64 (two complex points per `__m256d`),
//! - **NEON** on aarch64 (one complex point per `float64x2_t`),
//! - a **portable chunked** safe-Rust loop everywhere else.
//!
//! All `unsafe` lives in the single audited [`arch`] module; this crate
//! root denies `unsafe_code` and `ddl_lint` pins the allow-list to
//! exactly `crates/backend-simd/src/arch.rs`. Feature detection happens
//! once (cached) via `is_x86_feature_detected!`, never per butterfly.
//!
//! Strided access is handled outside the kernels: callers hand in
//! `(base, stride)` views and the wrapper gathers into a stack buffer in
//! bit-reversed order (the permutation rides along with the gather for
//! free), runs the in-place contiguous network, and scatters back out.

#![deny(unsafe_code)]

use std::sync::OnceLock;

use ddl_num::{Complex64, Direction};

#[allow(unsafe_code)]
mod arch;

/// Largest leaf size the SIMD backend lowers, matching the scalar
/// codelet ceiling in `ddl-kernels`.
pub const MAX_SIMD_LEAF: usize = 64;

/// Whether the SIMD backend lowers an `n`-point leaf at all: powers of
/// two up to [`MAX_SIMD_LEAF`]. Other sizes fall to the scalar oracle.
pub fn supported_size(n: usize) -> bool {
    (1..=MAX_SIMD_LEAF).contains(&n) && n.is_power_of_two()
}

/// Smallest leaf where the vector network beats the straight-line scalar
/// codelets, so the DFT executor runs the scalar kernels below it even
/// on an AVX2 host: the bit-reversal gather and per-stage passes cost
/// more than the codelets' fully unrolled register schedules. Measured
/// on AVX2+FMA as vector time over scalar time (the break-even table of
/// DESIGN.md §11): 1.14–1.71× at n = 16 in cache; at n = 32, 0.69–1.03×
/// in cache and 0.84–0.91× inside the planner's trees; at n = 64,
/// 0.65–1.22× in cache (most 0.71–0.96×) and 0.67–0.77× in the trees.
pub const MIN_PROFITABLE_LEAF: usize = 32;

/// Whether the DFT executor runs this crate's kernels on this host at
/// all: only when the AVX2+FMA lowering is active, the one lowering
/// measured faster than the scalar codelets (DESIGN.md §11). The NEON
/// lowering has not been measured on aarch64 hardware, so aarch64 hosts
/// run the scalar codelets, as do hosts with no vector unit.
pub fn profitable_isa() -> bool {
    active_isa() == "avx2"
}

/// Whether routing an `n`-point leaf through the vector network is
/// expected to be a *win* on this host — supported, at or above
/// [`MIN_PROFITABLE_LEAF`], and on a [`profitable_isa`] host. The DFT
/// executor's leaf kernel choice.
pub fn profitable_size(n: usize) -> bool {
    supported_size(n) && n >= MIN_PROFITABLE_LEAF && profitable_isa()
}

/// The instruction set the dispatcher resolved on this host: `"avx2"`,
/// `"neon"`, or `"portable"`. Cached after the first probe.
pub fn active_isa() -> &'static str {
    static ISA: OnceLock<&'static str> = OnceLock::new();
    ISA.get_or_init(arch::detect_isa)
}

/// Bit-reversal permutation and per-stage twiddle tables for one leaf
/// size, shared by every code path so all three agree on the network.
struct SizeTables {
    n: usize,
    bitrev: Vec<usize>,
    /// Forward twiddles, stages concatenated: stage with half-length
    /// `h` contributes `h` factors `exp(-2πi·j/2h)` at offset `h - 1`.
    fwd: Vec<Complex64>,
    /// Inverse twiddles (conjugates of `fwd`, same layout).
    inv: Vec<Complex64>,
}

fn build_tables(n: usize) -> SizeTables {
    let bits = n.trailing_zeros();
    let mut bitrev = vec![0usize; n];
    for (i, slot) in bitrev.iter_mut().enumerate() {
        if bits > 0 {
            *slot = i.reverse_bits() >> (usize::BITS - bits);
        }
    }
    let mut fwd = Vec::with_capacity(n.saturating_sub(1));
    let mut inv = Vec::with_capacity(n.saturating_sub(1));
    let mut half = 1usize;
    while half < n {
        let len = half * 2;
        for j in 0..half {
            let theta = -2.0 * std::f64::consts::PI * j as f64 / len as f64;
            let w = Complex64::new(theta.cos(), theta.sin());
            fwd.push(w);
            inv.push(w.conj());
        }
        half = len;
    }
    SizeTables {
        n,
        bitrev,
        fwd,
        inv,
    }
}

/// Tables for every supported size, built once. Index is log2(n).
fn tables(n: usize) -> &'static SizeTables {
    static TABLES: OnceLock<Vec<SizeTables>> = OnceLock::new();
    let all = TABLES.get_or_init(|| {
        let mut v = Vec::new();
        let mut n = 1usize;
        while n <= MAX_SIMD_LEAF {
            v.push(build_tables(n));
            n *= 2;
        }
        v
    });
    &all[n.trailing_zeros() as usize]
}

/// Portable chunked radix-2 DIT over a bit-reversed in-place buffer.
/// Kept in safe Rust; this is both the fallback path and the reference
/// the arch kernels are conformance-tested against.
fn dft_inplace_portable(buf: &mut [Complex64], tw: &[Complex64]) {
    let n = buf.len();
    let mut half = 1usize;
    let mut tw_off = 0usize;
    while half < n {
        let len = half * 2;
        let mut b = 0;
        while b < n {
            for j in 0..half {
                let w = tw[tw_off + j];
                let hi = buf[b + j + half];
                let t = Complex64::new(hi.re * w.re - hi.im * w.im, hi.re * w.im + hi.im * w.re);
                let lo = buf[b + j];
                buf[b + j] = Complex64::new(lo.re + t.re, lo.im + t.im);
                buf[b + j + half] = Complex64::new(lo.re - t.re, lo.im - t.im);
            }
            b += len;
        }
        tw_off += half;
        half = len;
    }
}

/// Run the in-place network through the best available code path.
fn dft_inplace_dispatch(buf: &mut [Complex64], tw: &[Complex64]) {
    if !arch::dft_inplace_vector(buf, tw) {
        dft_inplace_portable(buf, tw);
    }
}

/// One strided `n`-point DFT leaf through the SIMD dispatcher:
/// gather (applying the bit-reversal), in-place network, scatter.
///
/// Returns `false` without touching `dst` when the size is outside the
/// supported set, so callers can fall back to the scalar kernels.
#[allow(clippy::too_many_arguments)]
pub fn dft_leaf_strided_simd(
    n: usize,
    dir: Direction,
    src: &[Complex64],
    src_base: usize,
    src_stride: usize,
    dst: &mut [Complex64],
    dst_base: usize,
    dst_stride: usize,
) -> bool {
    if !supported_size(n) {
        return false;
    }
    let t = tables(n);
    debug_assert_eq!(t.n, n);
    let mut buf = [Complex64::ZERO; MAX_SIMD_LEAF];
    let buf = &mut buf[..n];
    for (i, slot) in buf.iter_mut().enumerate() {
        *slot = src[src_base + t.bitrev[i] * src_stride];
    }
    let tw = match dir {
        Direction::Forward => &t.fwd,
        Direction::Inverse => &t.inv,
    };
    dft_inplace_dispatch(buf, tw);
    for (j, v) in buf.iter().enumerate() {
        dst[dst_base + j * dst_stride] = *v;
    }
    true
}

/// Vectorized twiddle pass: `buf[base + i] *= factors[i]` for every
/// factor, through the host's vector unit.
///
/// Returns `false` without touching `buf` when no vector unit exists
/// (or the view is out of bounds), so callers keep their scalar loop as
/// the fallback.
pub fn apply_twiddles_simd(buf: &mut [Complex64], base: usize, factors: &[Complex64]) -> bool {
    let Some(window) = buf.get_mut(base..) else {
        return false;
    };
    if window.len() < factors.len() {
        return false;
    }
    arch::twiddles_vector(window, factors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
        let n = x.len();
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                    let w = Complex64::new(theta.cos(), theta.sin());
                    acc += v * w;
                }
                acc
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let a = (i as f64 * 0.73).sin();
                let b = (i as f64 * 1.31).cos() * 0.5;
                Complex64::new(a, b)
            })
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(p, q)| ((p.re - q.re).powi(2) + (p.im - q.im).powi(2)).sqrt())
            .fold(0.0, f64::max)
    }

    #[test]
    fn supported_sizes_are_pow2_up_to_64() {
        for n in 0..200 {
            assert_eq!(
                supported_size(n),
                (1..=64).contains(&n) && n.is_power_of_two(),
                "n={n}"
            );
        }
    }

    #[test]
    fn all_sizes_match_naive_both_directions() {
        for log2 in 0..=6 {
            let n = 1usize << log2;
            let x = signal(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = naive_dft(&x, dir);
                let mut got = vec![Complex64::ZERO; n];
                assert!(dft_leaf_strided_simd(n, dir, &x, 0, 1, &mut got, 0, 1));
                assert!(
                    max_err(&got, &want) < 1e-11,
                    "n={n} dir={dir:?} err={}",
                    max_err(&got, &want)
                );
            }
        }
    }

    #[test]
    fn strided_and_offset_views_match_contiguous() {
        let n = 32;
        let x = signal(n);
        let mut contig = vec![Complex64::ZERO; n];
        assert!(dft_leaf_strided_simd(
            n,
            Direction::Forward,
            &x,
            0,
            1,
            &mut contig,
            0,
            1
        ));
        // Misaligned base (odd offset breaks 32-byte alignment) and a
        // non-unit stride on both sides.
        let stride = 3;
        let base = 1;
        let mut wide_src = vec![Complex64::ZERO; base + n * stride];
        for (i, &v) in x.iter().enumerate() {
            wide_src[base + i * stride] = v;
        }
        let mut wide_dst = vec![Complex64::ZERO; base + n * stride];
        assert!(dft_leaf_strided_simd(
            n,
            Direction::Forward,
            &wide_src,
            base,
            stride,
            &mut wide_dst,
            base,
            stride
        ));
        for k in 0..n {
            let got = wide_dst[base + k * stride];
            // The gathered path runs the same contiguous network, so the
            // result is bit-identical, not merely close.
            assert_eq!(got.re.to_bits(), contig[k].re.to_bits());
            assert_eq!(got.im.to_bits(), contig[k].im.to_bits());
        }
    }

    #[test]
    fn vector_and_portable_paths_agree_bitwise_on_this_host() {
        // Only meaningful where a vector unit exists; the portable path
        // is the reference either way.
        for log2 in 0..=6 {
            let n = 1usize << log2;
            let x = signal(n);
            let t = tables(n);
            let mut vec_buf: Vec<Complex64> = (0..n).map(|i| x[t.bitrev[i]]).collect();
            let mut ref_buf = vec_buf.clone();
            dft_inplace_dispatch(&mut vec_buf, &t.fwd);
            dft_inplace_portable(&mut ref_buf, &t.fwd);
            for (a, b) in vec_buf.iter().zip(&ref_buf) {
                assert!(
                    (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                    "n={n} vector path diverged from portable: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn unsupported_sizes_are_refused() {
        let x = signal(12);
        let mut y = vec![Complex64::ZERO; 12];
        assert!(!dft_leaf_strided_simd(
            12,
            Direction::Forward,
            &x,
            0,
            1,
            &mut y,
            0,
            1
        ));
        assert!(y.iter().all(|v| v.re == 0.0 && v.im == 0.0));
    }

    #[test]
    fn twiddle_pass_matches_scalar_multiply() {
        for n in [1usize, 2, 5, 8, 31, 64, 100] {
            let factors = signal(n);
            let mut buf = signal(n + 3); // base offset of 3 below
            let mut want = buf.clone();
            for (i, &w) in factors.iter().enumerate() {
                want[3 + i] *= w;
            }
            if apply_twiddles_simd(&mut buf, 3, &factors) {
                assert!(
                    max_err(&buf, &want) < 1e-12,
                    "n={n} twiddle pass diverged: {}",
                    max_err(&buf, &want)
                );
            } else {
                assert_eq!(active_isa(), "portable");
            }
        }
    }

    #[test]
    fn twiddle_pass_refuses_short_buffers() {
        let factors = signal(8);
        let mut buf = signal(6);
        let before = buf.clone();
        assert!(!apply_twiddles_simd(&mut buf, 0, &factors));
        assert!(!apply_twiddles_simd(&mut buf, 100, &factors));
        assert_eq!(max_err(&buf, &before), 0.0, "refusal must not write");
    }

    #[test]
    fn isa_report_is_stable_and_known() {
        let isa = active_isa();
        assert!(matches!(isa, "avx2" | "neon" | "portable"));
        assert_eq!(isa, active_isa());
    }

    /// The shadow assertions at the safe/unsafe boundary must actually
    /// fire: a twiddle table that is too short for the buffer — the
    /// exact precondition the `ddl-cert` pointer proof assumes — has to
    /// panic in debug builds rather than reach an intrinsic.
    #[test]
    #[cfg(debug_assertions)]
    fn violated_kernel_precondition_panics_in_debug_builds() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut buf = signal(8);
        let short_tw = signal(3); // an 8-point network needs 7 factors
        let result = catch_unwind(AssertUnwindSafe(|| {
            arch::dft_inplace_vector(&mut buf, &short_tw);
        }));
        assert!(
            result.is_err(),
            "debug build accepted a 3-entry twiddle table for an 8-point buffer"
        );
        let mut odd = signal(6); // not a power of two
        let tw = signal(5);
        let result = catch_unwind(AssertUnwindSafe(|| {
            arch::dft_inplace_vector(&mut odd, &tw);
        }));
        assert!(result.is_err(), "debug build accepted a non-pow2 length");
    }
}
