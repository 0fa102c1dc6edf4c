//! Workload generators and verification helpers.
//!
//! The paper's introduction motivates large signal transforms with signal
//! processing workloads; this crate provides the signals the examples,
//! integration tests and benchmarks run on — multi-tone mixtures, chirps,
//! noise — together with reference computations (circular convolution,
//! PSNR) used to verify end-to-end pipelines built on the transforms.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod convolution;
pub mod signal;

pub use convolution::{
    circular_convolution_direct, pointwise_product, try_circular_convolution_direct,
    try_pointwise_product,
};
pub use ddl_num::DdlError;
pub use signal::{chirp, impulse, noise_complex, noise_real, tone_mixture, Tone};

/// Peak signal-to-noise ratio in dB between a reference and a
/// reconstruction, with the given peak value.
///
/// Panics on mismatched or empty inputs; see [`try_psnr_db`] for the
/// fallible form.
pub fn psnr_db(reference: &[f64], reconstruction: &[f64], peak: f64) -> f64 {
    match try_psnr_db(reference, reconstruction, peak) {
        Ok(v) => v,
        #[expect(
            clippy::panic,
            reason = "panicking wrapper by design; use the try_ variant for a Result"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`psnr_db`].
pub fn try_psnr_db(reference: &[f64], reconstruction: &[f64], peak: f64) -> Result<f64, DdlError> {
    if reference.len() != reconstruction.len() {
        return Err(DdlError::shape(
            "psnr_db: length mismatch",
            reference.len(),
            reconstruction.len(),
        ));
    }
    if reference.is_empty() {
        return Err(DdlError::invalid_size(
            "psnr_db",
            0,
            "empty input has no PSNR",
        ));
    }
    let mse: f64 = reference
        .iter()
        .zip(reconstruction.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / reference.len() as f64;
    Ok(if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (peak * peak / mse).log10()
    })
}

/// Energy (sum of squared magnitudes) of a real signal.
pub fn energy(signal: &[f64]) -> f64 {
    signal.iter().map(|x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psnr_of_identical_signals_is_infinite() {
        let x = vec![1.0, 2.0, 3.0];
        assert!(psnr_db(&x, &x, 3.0).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_error() {
        let x = vec![0.0; 100];
        let small: Vec<f64> = (0..100).map(|_| 0.01).collect();
        let large: Vec<f64> = (0..100).map(|_| 0.1).collect();
        let p_small = psnr_db(&x, &small, 1.0);
        let p_large = psnr_db(&x, &large, 1.0);
        assert!(p_small > p_large);
        assert!((p_small - 40.0).abs() < 1e-9); // mse 1e-4, peak 1
    }

    #[test]
    fn energy_sums_squares() {
        assert_eq!(energy(&[3.0, 4.0]), 25.0);
        assert_eq!(energy(&[]), 0.0);
    }
}
