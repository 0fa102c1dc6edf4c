//! Error metrics for comparing transform outputs.
//!
//! FFT implementations are validated against the `O(n^2)` reference DFT;
//! because floating-point summation order differs between factorizations,
//! exact equality is meaningless and tests instead bound the relative RMS
//! error, which for a well-implemented FFT grows like `O(sqrt(log n))·eps`.

use crate::complex::Complex64;
use crate::ddl_error::DdlError;

/// Fallible root-mean-square error between two complex sequences.
///
/// Returns [`DdlError::ShapeMismatch`] when the lengths differ; library
/// code comparing buffers whose lengths it does not control should use
/// this rather than the panicking [`rms_error`].
pub fn try_rms_error(a: &[Complex64], b: &[Complex64]) -> Result<f64, DdlError> {
    if a.len() != b.len() {
        return Err(DdlError::shape(
            "rms_error: length mismatch",
            a.len(),
            b.len(),
        ));
    }
    if a.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).norm_sqr())
        .sum();
    Ok((sum / a.len() as f64).sqrt())
}

/// Root-mean-square error between two equal-length complex sequences.
///
/// Panics if the lengths differ; see [`try_rms_error`] for the fallible
/// form.
pub fn rms_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    match try_rms_error(a, b) {
        Ok(v) => v,
        #[expect(
            clippy::panic,
            reason = "panicking wrapper by design; use the try_ variant for a Result"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// RMS error normalized by the RMS magnitude of the reference `b`.
///
/// Returns the absolute RMS error when the reference is identically zero.
pub fn relative_rms_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    let abs = rms_error(a, b);
    if b.is_empty() {
        return abs;
    }
    let ref_sum: f64 = b.iter().map(|&y| y.norm_sqr()).sum();
    let ref_rms = (ref_sum / b.len() as f64).sqrt();
    if ref_rms == 0.0 {
        abs
    } else {
        abs / ref_rms
    }
}

/// Fallible largest pointwise absolute difference `max_i |a_i - b_i|`.
///
/// Returns [`DdlError::ShapeMismatch`] when the lengths differ.
pub fn try_linf_error(a: &[Complex64], b: &[Complex64]) -> Result<f64, DdlError> {
    if a.len() != b.len() {
        return Err(DdlError::shape(
            "linf_error: length mismatch",
            a.len(),
            b.len(),
        ));
    }
    Ok(a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max))
}

/// Largest pointwise absolute difference `max_i |a_i - b_i|`.
///
/// Panics if the lengths differ; see [`try_linf_error`] for the fallible
/// form.
pub fn linf_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    match try_linf_error(a, b) {
        Ok(v) => v,
        #[expect(
            clippy::panic,
            reason = "panicking wrapper by design; use the try_ variant for a Result"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// Largest modulus in a sequence.
pub fn max_abs(a: &[Complex64]) -> f64 {
    a.iter().map(|&x| x.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_for_identical_inputs() {
        let v = vec![Complex64::new(1.0, -2.0); 7];
        assert_eq!(rms_error(&v, &v), 0.0);
        assert_eq!(linf_error(&v, &v), 0.0);
        assert_eq!(relative_rms_error(&v, &v), 0.0);
    }

    #[test]
    fn rms_of_constant_offset() {
        let a = vec![Complex64::ZERO; 4];
        let b = vec![Complex64::new(3.0, 4.0); 4]; // |diff| = 5 everywhere
        assert!((rms_error(&a, &b) - 5.0).abs() < 1e-12);
        assert!((linf_error(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_normalizes() {
        let a = vec![Complex64::from_re(1000.0); 3];
        let b = vec![Complex64::from_re(1001.0); 3];
        let rel = relative_rms_error(&a, &b);
        assert!((rel - 1.0 / 1001.0).abs() < 1e-9);
    }

    #[test]
    fn relative_error_zero_reference_falls_back_to_absolute() {
        let a = vec![Complex64::from_re(2.0); 2];
        let b = vec![Complex64::ZERO; 2];
        assert!((relative_rms_error(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sequences_have_zero_error() {
        assert_eq!(rms_error(&[], &[]), 0.0);
        assert_eq!(relative_rms_error(&[], &[]), 0.0);
        assert_eq!(linf_error(&[], &[]), 0.0);
    }

    #[test]
    fn max_abs_picks_largest() {
        let v = [
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, -9.0),
            Complex64::new(2.0, 2.0),
        ];
        assert!((max_abs(&v) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = vec![Complex64::ZERO; 2];
        let b = vec![Complex64::ZERO; 3];
        let _ = rms_error(&a, &b);
    }

    #[test]
    fn try_variants_report_mismatch_as_error() {
        let a = vec![Complex64::ZERO; 2];
        let b = vec![Complex64::ZERO; 3];
        assert!(matches!(
            try_rms_error(&a, &b),
            Err(DdlError::ShapeMismatch {
                want: 2,
                got: 3,
                ..
            })
        ));
        assert!(matches!(
            try_linf_error(&a, &b),
            Err(DdlError::ShapeMismatch {
                want: 2,
                got: 3,
                ..
            })
        ));
        assert_eq!(try_rms_error(&a, &a), Ok(0.0));
        assert_eq!(try_linf_error(&b, &b), Ok(0.0));
    }
}
