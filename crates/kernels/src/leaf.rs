//! The leaf DFT dispatcher.
//!
//! [`dft_leaf_strided`] is the single entry point the executors use for a
//! leaf node `(n, stride)`:
//!
//! * `n ∈ {1, 2, 4, 8}` — fully unrolled codelets reading/writing memory
//!   at the given strides.
//! * `n ∈ {3, 5, 7, 16, 32}` — the straight-line codelets `ddl-codegen`
//!   generates (`generated.rs`), also reading and writing at the given
//!   strides.
//! * `n = 64` — a composite codelet: the 64 strided points are loaded
//!   once into a stack buffer, one constant-twiddle `8×8` Cooley–Tukey
//!   level runs on the stack, and results are stored once. This is the
//!   register/codelet model of FFTW — the *memory* traffic is still `n`
//!   strided loads and `n` strided stores, so the cache behaviour of the
//!   leaf remains exactly the paper's `(size, stride)` model; the 1 KiB
//!   stack buffer plays the role of the register file.
//! * other `n` — `O(n^2)` naive fallback (correct for arbitrary sizes).
//!
//! The planner never chooses leaves larger than [`MAX_LEAF_DFT`].

use crate::codelets::{dft1, dft2, dft4, dft8};
use crate::naive::naive_dft_strided;
use ddl_num::{Complex64, Direction, TwiddleTable};
use std::sync::OnceLock;

/// Largest leaf size the codelets cover (and the largest leaf the
/// planners will generate).
pub const MAX_LEAF_DFT: usize = 64;

/// Computes one `n`-point DFT: `dst[db + j*ds] = Σ_i src[sb + i*ss] w^{ij}`.
///
/// `src` and `dst` must be distinct buffers (out-of-place). Panics if the
/// strided ranges fall outside the slices.
#[inline]
#[allow(clippy::too_many_arguments)] // the codelet calling convention
pub fn dft_leaf_strided(
    n: usize,
    dir: Direction,
    src: &[Complex64],
    sb: usize,
    ss: usize,
    dst: &mut [Complex64],
    db: usize,
    ds: usize,
) {
    match n {
        0 => {}
        1 => dft1(src, sb, dst, db),
        2 => dft2(src, sb, ss, dst, db, ds),
        4 => dft4(src, sb, ss, dst, db, ds, dir),
        8 => dft8(src, sb, ss, dst, db, ds, dir),
        64 => composite_leaf(dir, src, sb, ss, dst, db, ds),
        // generated straight-line codelets cover 3, 5, 7, 16, 32
        _ => {
            if !crate::generated::generated_dft_leaf(n, dir, src, sb, ss, dst, db, ds) {
                naive_dft_strided(n, dir, src, sb, ss, dst, db, ds);
            }
        }
    }
}

/// Composite codelet for `n = 64`: strided load → stack DFT → strided
/// store.
fn composite_leaf(
    dir: Direction,
    src: &[Complex64],
    sb: usize,
    ss: usize,
    dst: &mut [Complex64],
    db: usize,
    ds: usize,
) {
    let mut buf = [Complex64::ZERO; MAX_LEAF_DFT];
    let mut idx = sb;
    for b in buf.iter_mut() {
        *b = src[idx];
        idx += ss;
    }
    dft_stack(&mut buf, dir);
    let mut idx = db;
    for &b in buf.iter() {
        dst[idx] = b;
        idx += ds;
    }
}

/// Unit-stride 64-point DFT on a stack buffer, via one `8×8`
/// Cooley–Tukey level with cached constant twiddles.
fn dft_stack(buf: &mut [Complex64; MAX_LEAF_DFT], dir: Direction) {
    const N1: usize = 8;
    const N2: usize = 8;
    let tw = cached_twiddles(dir);

    let mut t = [Complex64::ZERO; MAX_LEAF_DFT];
    // Stage 1: n2 DFTs of size n1, input stride n2, output contiguous
    // columns t[j1 + n1*i2].
    for i2 in 0..N2 {
        dft8(&buf[..], i2, N2, &mut t, N1 * i2, 1, dir);
    }
    // Twiddle: t[i2*n1 + j1] *= w^{i2*j1}.
    for (ti, &wi) in t.iter_mut().zip(tw.iter()) {
        *ti *= wi;
    }
    // Stage 2: n1 DFTs of size n2, input stride n1, output stride n1.
    for j1 in 0..N1 {
        dft8(&t[..], j1, N1, &mut buf[..], j1, N1, dir);
    }
}

/// Lazily built twiddle table of the 64-point composite codelet, one
/// per direction.
fn cached_twiddles(dir: Direction) -> &'static [Complex64] {
    static TABLES: [OnceLock<Box<[Complex64]>>; 2] = [OnceLock::new(), OnceLock::new()];
    let slot = match dir {
        Direction::Forward => 0,
        Direction::Inverse => 1,
    };
    TABLES[slot]
        .get_or_init(|| {
            TwiddleTable::new(8, 8, dir)
                .as_slice()
                .to_vec()
                .into_boxed_slice()
        })
        .as_ref()
}

/// Estimated floating-point operations of one `n`-point DFT leaf: the
/// standard `5 n log2 n` FFT count for power-of-two sizes (the basis of
/// the pseudo-MFLOPS metric), `8 n^2` for the naive fallback used at
/// other sizes. An accounting estimate for observability reports, not an
/// instruction count.
pub fn dft_leaf_flops_est(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let nf = n as u64;
    if n.is_power_of_two() {
        5 * nf * nf.ilog2() as u64
    } else {
        8 * nf * nf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_dft;
    use ddl_num::{linf_error, relative_rms_error};

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    (i as f64 * 0.379).sin() * 2.0,
                    (i as f64 * 0.731).cos() - 0.4,
                )
            })
            .collect()
    }

    fn check(n: usize, dir: Direction, ss: usize, ds: usize) {
        let src = sample(n * ss + 5);
        let mut dst = vec![Complex64::ZERO; n * ds + 5];
        dft_leaf_strided(n, dir, &src, 2, ss, &mut dst, 3, ds);
        let input: Vec<Complex64> = (0..n).map(|i| src[2 + i * ss]).collect();
        let got: Vec<Complex64> = (0..n).map(|i| dst[3 + i * ds]).collect();
        let want = naive_dft(&input, dir);
        assert!(
            relative_rms_error(&got, &want) < 1e-12,
            "n={n} dir={dir:?} ss={ss} ds={ds}: err={}",
            relative_rms_error(&got, &want)
        );
    }

    #[test]
    fn all_codelet_sizes_match_naive_unit_stride() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64] {
            check(n, Direction::Forward, 1, 1);
            check(n, Direction::Inverse, 1, 1);
        }
    }

    #[test]
    fn all_codelet_sizes_match_naive_strided() {
        for &n in &[2usize, 4, 8, 16, 32, 64] {
            for &(ss, ds) in &[(3usize, 1usize), (1, 4), (5, 7), (64, 2)] {
                check(n, Direction::Forward, ss, ds);
                check(n, Direction::Inverse, ss, ds);
            }
        }
    }

    #[test]
    fn non_pow2_sizes_use_naive_fallback() {
        for &n in &[3usize, 5, 6, 7, 9, 12, 24] {
            check(n, Direction::Forward, 2, 3);
        }
    }

    #[test]
    fn large_pow2_not_special_cased_still_correct() {
        // 128 exceeds the composite set and falls back to naive.
        check(128, Direction::Forward, 1, 1);
    }

    #[test]
    fn forward_inverse_round_trip_composite() {
        for &n in &[16usize, 32, 64] {
            let x = sample(n);
            let mut f = vec![Complex64::ZERO; n];
            let mut b = vec![Complex64::ZERO; n];
            dft_leaf_strided(n, Direction::Forward, &x, 0, 1, &mut f, 0, 1);
            dft_leaf_strided(n, Direction::Inverse, &f, 0, 1, &mut b, 0, 1);
            let back: Vec<Complex64> = b.iter().map(|v| v.scale(1.0 / n as f64)).collect();
            assert!(linf_error(&back, &x) < 1e-12, "n={n}");
        }
    }

    #[test]
    fn zero_size_is_noop() {
        let src = [Complex64::ONE; 1];
        let mut dst = [Complex64::ONE; 1];
        dft_leaf_strided(0, Direction::Forward, &src, 0, 1, &mut dst, 0, 1);
        assert_eq!(dst[0], Complex64::ONE);
    }

    #[test]
    fn impulse_through_each_size() {
        for &n in &[2usize, 4, 8, 16, 32, 64] {
            let mut x = vec![Complex64::ZERO; n];
            x[0] = Complex64::ONE;
            let mut y = vec![Complex64::ZERO; n];
            dft_leaf_strided(n, Direction::Forward, &x, 0, 1, &mut y, 0, 1);
            for (j, v) in y.iter().enumerate() {
                assert!((*v - Complex64::ONE).abs() < 1e-12, "n={n} bin={j}");
            }
        }
    }
}
