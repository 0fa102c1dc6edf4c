//! Classic in-place iterative radix-2 FFT.
//!
//! This is the textbook decimation-in-time algorithm: bit-reverse the
//! input, then `log2 n` passes of butterflies with growing span. It serves
//! two roles in the reproduction:
//!
//! 1. an independent implementation to cross-validate the factorized
//!    executors against (beyond the `O(n^2)` naive reference, which is too
//!    slow for large sizes), and
//! 2. a *static-layout, unit-stride-but-poor-locality* baseline: its late
//!    passes touch the whole array per pass, which is exactly the access
//!    pattern whose cache behaviour motivates both FFTW-style recursion
//!    and the paper's DDL.

use ddl_num::{root_of_unity, Complex64, DdlError, Direction};

/// In-place radix-2 FFT. `data.len()` must be a power of two.
///
/// Forward/inverse per `dir`; the inverse is unnormalized (scale by `1/n`
/// to invert a forward transform). Panics on a non-power-of-two length;
/// see [`try_fft_radix2_inplace`] for the fallible form.
#[expect(
    clippy::panic,
    reason = "panicking wrapper by design; use the try_ variant for a Result"
)]
pub fn fft_radix2_inplace(data: &mut [Complex64], dir: Direction) {
    if let Err(e) = try_fft_radix2_inplace(data, dir) {
        panic!("{e}");
    }
}

/// Fallible form of [`fft_radix2_inplace`].
pub fn try_fft_radix2_inplace(data: &mut [Complex64], dir: Direction) -> Result<(), DdlError> {
    let n = data.len();
    if n <= 1 {
        return Ok(());
    }
    if !n.is_power_of_two() {
        return Err(DdlError::invalid_size(
            "fft_radix2_inplace",
            n,
            format!("length {n} is not a power of two"),
        ));
    }

    // Bit-reversal permutation: each swap pairs `i` with its reversed
    // `log2 n`-bit index once.
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if j > i {
            data.swap(i, j);
        }
    }

    let mut span = 1;
    while span < n {
        let step = span * 2;
        // w = primitive (2*span)-th root; successive powers via one
        // multiply per butterfly column.
        let w_base = root_of_unity(step, 1, dir);
        for start in (0..n).step_by(step) {
            let mut w = Complex64::ONE;
            for k in 0..span {
                let a = data[start + k];
                let b = data[start + k + span] * w;
                data[start + k] = a + b;
                data[start + k + span] = a - b;
                w *= w_base;
            }
        }
        span = step;
    }
    Ok(())
}

/// Convenience wrapper: returns the FFT of `x` without modifying it.
pub fn fft_radix2(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let mut data = x.to_vec();
    fft_radix2_inplace(&mut data, dir);
    data
}

/// Fallible form of [`fft_radix2`].
pub fn try_fft_radix2(x: &[Complex64], dir: Direction) -> Result<Vec<Complex64>, DdlError> {
    let mut data = x.to_vec();
    try_fft_radix2_inplace(&mut data, dir)?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_dft;
    use ddl_num::{linf_error, max_abs, relative_rms_error};

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.113).sin(), (i as f64 * 0.277).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_for_all_small_powers() {
        for log_n in 0..11u32 {
            let n = 1usize << log_n;
            let x = sample(n);
            let got = fft_radix2(&x, Direction::Forward);
            let want = naive_dft(&x, Direction::Forward);
            assert!(
                relative_rms_error(&got, &want) < 1e-10,
                "n={n}: err={}",
                relative_rms_error(&got, &want)
            );
        }
    }

    #[test]
    fn inverse_matches_naive() {
        let x = sample(64);
        let got = fft_radix2(&x, Direction::Inverse);
        let want = naive_dft(&x, Direction::Inverse);
        assert!(relative_rms_error(&got, &want) < 1e-11);
    }

    #[test]
    fn round_trip_recovers_input() {
        let x = sample(1 << 12);
        let mut data = x.clone();
        fft_radix2_inplace(&mut data, Direction::Forward);
        fft_radix2_inplace(&mut data, Direction::Inverse);
        let n = data.len() as f64;
        let back: Vec<Complex64> = data.iter().map(|v| v.scale(1.0 / n)).collect();
        assert!(linf_error(&back, &x) < 1e-9 * max_abs(&x).max(1.0));
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut data = vec![Complex64::ZERO; 256];
        data[0] = Complex64::ONE;
        fft_radix2_inplace(&mut data, Direction::Forward);
        for v in &data {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn length_one_and_empty_are_noops() {
        let mut e: Vec<Complex64> = vec![];
        fft_radix2_inplace(&mut e, Direction::Forward);
        let mut one = vec![Complex64::new(2.0, 3.0)];
        fft_radix2_inplace(&mut one, Direction::Forward);
        assert_eq!(one[0], Complex64::new(2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let mut v = vec![Complex64::ZERO; 12];
        fft_radix2_inplace(&mut v, Direction::Forward);
    }
}
