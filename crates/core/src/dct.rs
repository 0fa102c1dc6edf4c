//! Discrete cosine transform via the factorized FFT (extension).
//!
//! The paper scopes its technique to "the class of signal transforms
//! that can be factorized", listing the DCT alongside the DFT and WHT in
//! Section III-A. This module delivers the DCT through the machinery the
//! library already optimizes: a DCT-II of `n` real points reduces to one
//! `n`-point complex FFT of an even/odd permutation of the input (the
//! classic Makhoul reduction), so every cache-conscious plan the DDL
//! search finds for the FFT transfers to the DCT unchanged.
//!
//! Types II ("the" DCT) and III (its inverse, up to scaling) are
//! provided, with the unnormalized convention
//! `C2[k] = 2 Σ_i x[i] cos(π k (2i+1) / 2n)`.

use crate::dft::{DftPlan, PlanError};
use crate::planner::{try_plan_dft, PlannerConfig};
use crate::tree::Tree;
use ddl_num::{root_of_unity, Complex64, DdlError, Direction};

/// A compiled DCT of one size (types II and III share the plan).
#[derive(Clone, Debug)]
pub struct DctPlan {
    n: usize,
    forward: DftPlan,
    inverse: DftPlan,
}

impl DctPlan {
    /// Compiles from an FFT factorization tree of the same size.
    pub fn new(tree: Tree) -> Result<DctPlan, PlanError> {
        let n = tree.size();
        Ok(DctPlan {
            n,
            forward: DftPlan::new(tree.clone(), Direction::Forward)?,
            inverse: DftPlan::new(tree, Direction::Inverse)?,
        })
    }

    /// Plans the underlying FFT with the given configuration.
    pub fn plan(n: usize, cfg: &PlannerConfig) -> Result<DctPlan, PlanError> {
        DctPlan::new(try_plan_dft(n, cfg)?.tree)
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// DCT-II: `y[k] = 2 Σ_i x[i] cos(π k (2i+1) / 2n)`.
    pub fn try_dct2(&self, x: &[f64], y: &mut [f64]) -> Result<(), DdlError> {
        let n = self.n;
        if x.len() < n || y.len() < n {
            return Err(DdlError::shape(
                "dct2: buffers too short",
                n,
                x.len().min(y.len()),
            ));
        }
        // Makhoul: v[i] = x[2i], v[n-1-i] = x[2i+1]
        let mut v = vec![Complex64::ZERO; n];
        for i in 0..n.div_ceil(2) {
            v[i] = Complex64::from_re(x[2 * i]);
        }
        for i in 0..n / 2 {
            v[n - 1 - i] = Complex64::from_re(x[2 * i + 1]);
        }
        let mut spectrum = vec![Complex64::ZERO; n];
        self.forward.try_execute(&v, &mut spectrum)?;
        // y[k] = 2 Re( w_{4n}^{k} * V[k] ), w = exp(-2πi/4n)
        for (k, out) in y.iter_mut().take(n).enumerate() {
            let w = root_of_unity(4 * n, k, Direction::Forward);
            *out = 2.0 * (spectrum[k] * w).re;
        }
        Ok(())
    }

    /// DCT-III (the inverse of [`Self::try_dct2`] up to a factor `2n`,
    /// with the usual half-weight on coefficient 0):
    /// `x[i] = (1/n) * ( y[0]/2 + Σ_{k>=1} y[k] cos(π k (2i+1) / 2n) )`
    /// recovers the original input of `try_dct2`.
    pub fn try_dct3(&self, y: &[f64], x: &mut [f64]) -> Result<(), DdlError> {
        let n = self.n;
        if y.len() < n || x.len() < n {
            return Err(DdlError::shape(
                "dct3: buffers too short",
                n,
                y.len().min(x.len()),
            ));
        }
        // Invert the Makhoul reduction: V[k] = 0.5 * w_{4n}^{-k} *
        // (y[k] - i*y[n-k]) with y[n] := 0.
        let mut spectrum = vec![Complex64::ZERO; n];
        for (k, s) in spectrum.iter_mut().enumerate() {
            let yk = y[k];
            let yn_k = if k == 0 { 0.0 } else { y[n - k] };
            let w = root_of_unity(4 * n, k, Direction::Inverse);
            *s = w * Complex64::new(yk, -yn_k).scale(0.5);
        }
        let mut v = vec![Complex64::ZERO; n];
        self.inverse.try_execute(&spectrum, &mut v)?;
        // undo the even/odd permutation; inverse FFT is unnormalized, so
        // scale by 1/n
        let scale = 1.0 / n as f64;
        for i in 0..n.div_ceil(2) {
            x[2 * i] = v[i].re * scale;
        }
        for i in 0..n / 2 {
            x[2 * i + 1] = v[n - 1 - i].re * scale;
        }
        Ok(())
    }
}

/// Reference `O(n^2)` DCT-II with the same convention as
/// [`DctPlan::try_dct2`].
pub fn naive_dct2(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            2.0 * x
                .iter()
                .enumerate()
                .map(|(i, &xi)| {
                    xi * (core::f64::consts::PI * k as f64 * (2 * i + 1) as f64 / (2 * n) as f64)
                        .cos()
                })
                .sum::<f64>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 0.2)
            .collect()
    }

    #[test]
    fn dct2_matches_naive() {
        for n in [4usize, 8, 16, 64, 256] {
            let plan = DctPlan::plan(n, &PlannerConfig::sdl_analytical()).unwrap();
            let x = sample(n);
            let mut y = vec![0.0; n];
            plan.try_dct2(&x, &mut y).unwrap();
            let want = naive_dct2(&x);
            for k in 0..n {
                assert!(
                    (y[k] - want[k]).abs() < 1e-9 * want[k].abs().max(1.0),
                    "n={n} k={k}: {} vs {}",
                    y[k],
                    want[k]
                );
            }
        }
    }

    #[test]
    fn dct3_inverts_dct2() {
        for n in [8usize, 32, 128, 1024] {
            let plan = DctPlan::plan(n, &PlannerConfig::ddl_analytical()).unwrap();
            let x = sample(n);
            let mut y = vec![0.0; n];
            let mut back = vec![0.0; n];
            plan.try_dct2(&x, &mut y).unwrap();
            plan.try_dct3(&y, &mut back).unwrap();
            for i in 0..n {
                assert!(
                    (back[i] - x[i]).abs() < 1e-9,
                    "n={n} i={i}: {} vs {}",
                    back[i],
                    x[i]
                );
            }
        }
    }

    #[test]
    fn dct_of_constant_concentrates_in_dc() {
        let n = 32;
        let plan = DctPlan::plan(n, &PlannerConfig::sdl_analytical()).unwrap();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        plan.try_dct2(&x, &mut y).unwrap();
        assert!((y[0] - 2.0 * n as f64).abs() < 1e-9);
        for (k, yk) in y.iter().enumerate().skip(1) {
            assert!(yk.abs() < 1e-9, "leak at {k}");
        }
    }

    #[test]
    fn dct_compacts_smooth_signals() {
        // energy compaction: a smooth ramp's DCT energy concentrates in
        // the low coefficients (the property that makes DCT the
        // compression transform)
        let n = 256;
        let plan = DctPlan::plan(n, &PlannerConfig::sdl_analytical()).unwrap();
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let mut y = vec![0.0; n];
        plan.try_dct2(&x, &mut y).unwrap();
        let total: f64 = y.iter().map(|v| v * v).sum();
        let low: f64 = y[..8].iter().map(|v| v * v).sum();
        assert!(low / total > 0.99, "low-frequency share {}", low / total);
    }

    #[test]
    fn ddl_and_sdl_trees_give_identical_dcts() {
        let n = 1 << 12;
        let a = DctPlan::plan(n, &PlannerConfig::sdl_analytical()).unwrap();
        let b = DctPlan::plan(n, &PlannerConfig::ddl_analytical()).unwrap();
        let x = sample(n);
        let mut ya = vec![0.0; n];
        let mut yb = vec![0.0; n];
        a.try_dct2(&x, &mut ya).unwrap();
        b.try_dct2(&x, &mut yb).unwrap();
        for k in 0..n {
            assert!((ya[k] - yb[k]).abs() < 1e-8 * ya[k].abs().max(1.0));
        }
    }
}
