//! Reference circular convolution.
//!
//! Fast convolution via the FFT (`DFT⁻¹(DFT(x) · DFT(h)) / n`) is the
//! classic large-transform workload; this module provides the direct
//! `O(n^2)` reference the fast path is verified against in the
//! `fast_convolution` example and the integration tests.

use ddl_num::{Complex64, DdlError};

/// Direct circular convolution: `y[k] = Σ_i x[i] · h[(k - i) mod n]`.
///
/// Panics on mismatched lengths; see [`try_circular_convolution_direct`]
/// for the fallible form.
pub fn circular_convolution_direct(x: &[Complex64], h: &[Complex64]) -> Vec<Complex64> {
    match try_circular_convolution_direct(x, h) {
        Ok(y) => y,
        #[expect(
            clippy::panic,
            reason = "panicking wrapper by design; use the try_ variant for a Result"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`circular_convolution_direct`].
pub fn try_circular_convolution_direct(
    x: &[Complex64],
    h: &[Complex64],
) -> Result<Vec<Complex64>, DdlError> {
    if x.len() != h.len() {
        return Err(DdlError::shape(
            "circular convolution: length mismatch",
            x.len(),
            h.len(),
        ));
    }
    let n = x.len();
    let mut y = vec![Complex64::ZERO; n];
    for (k, yk) in y.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (i, &xi) in x.iter().enumerate() {
            let j = (k + n - i) % n;
            acc = acc.mul_add(xi, h[j]);
        }
        *yk = acc;
    }
    Ok(y)
}

/// Elementwise product of two spectra (the frequency-domain half of fast
/// convolution).
///
/// Panics on mismatched lengths; see [`try_pointwise_product`] for the
/// fallible form.
pub fn pointwise_product(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    match try_pointwise_product(a, b) {
        Ok(y) => y,
        #[expect(
            clippy::panic,
            reason = "panicking wrapper by design; use the try_ variant for a Result"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`pointwise_product`].
pub fn try_pointwise_product(a: &[Complex64], b: &[Complex64]) -> Result<Vec<Complex64>, DdlError> {
    if a.len() != b.len() {
        return Err(DdlError::shape(
            "pointwise product: length mismatch",
            a.len(),
            b.len(),
        ));
    }
    Ok(a.iter().zip(b.iter()).map(|(&x, &y)| x * y).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolution_with_impulse_is_identity() {
        let x: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, -1.0)).collect();
        let mut h = vec![Complex64::ZERO; 8];
        h[0] = Complex64::ONE;
        let y = circular_convolution_direct(&x, &h);
        for i in 0..8 {
            assert!((y[i] - x[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_with_shifted_impulse_rotates() {
        let x: Vec<Complex64> = (0..6).map(|i| Complex64::from_re(i as f64)).collect();
        let mut h = vec![Complex64::ZERO; 6];
        h[2] = Complex64::ONE;
        let y = circular_convolution_direct(&x, &h);
        for k in 0..6 {
            assert!((y[k] - x[(k + 6 - 2) % 6]).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_commutes() {
        let x: Vec<Complex64> = (0..10)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let h: Vec<Complex64> = (0..10)
            .map(|i| Complex64::new(0.1 * i as f64, -0.05 * i as f64))
            .collect();
        let xy = circular_convolution_direct(&x, &h);
        let yx = circular_convolution_direct(&h, &x);
        for i in 0..10 {
            assert!((xy[i] - yx[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn convolution_theorem_holds() {
        use ddl_kernels::naive_dft;
        use ddl_num::Direction;
        let n = 16;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64 * 0.1, 0.3))
            .collect();
        let h: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.2, -(i as f64) * 0.05))
            .collect();
        let direct = circular_convolution_direct(&x, &h);
        let fx = naive_dft(&x, Direction::Forward);
        let fh = naive_dft(&h, Direction::Forward);
        let prod = pointwise_product(&fx, &fh);
        let fast_unscaled = naive_dft(&prod, Direction::Inverse);
        for i in 0..n {
            let fast = fast_unscaled[i].scale(1.0 / n as f64);
            assert!(
                (fast - direct[i]).abs() < 1e-9,
                "mismatch at {i}: {fast:?} vs {:?}",
                direct[i]
            );
        }
    }
}
