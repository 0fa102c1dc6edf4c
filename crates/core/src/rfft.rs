//! Real-input FFT via the half-size complex trick (extension).
//!
//! Real signals are the common case in the signal-processing workloads
//! the paper motivates with; packing a real signal of even length `n`
//! into a complex signal of length `n/2` halves both the arithmetic and —
//! more importantly here — the working set that must stream through the
//! cache, so the DDL machinery applies to half-size plans.
//!
//! Convention: [`RfftPlan::try_forward`] returns the `n/2 + 1`
//! nonredundant bins of the length-`n` real DFT; [`RfftPlan::try_inverse`]
//! reconstructs the real signal (exactly inverse, including the `1/n`
//! factor).

use crate::dft::{DftPlan, DftViews, PlanError};
use crate::obs::{NullSink, Observer, SpanInfo, SpanKind};
use crate::planner::{try_plan_dft, PlannerConfig};
use crate::tree::Tree;
use ddl_num::{root_of_unity, Complex64, DdlError, Direction};

/// A compiled real-input FFT of (even) size `n`.
#[derive(Clone, Debug)]
pub struct RfftPlan {
    n: usize,
    half_forward: DftPlan,
    half_inverse: DftPlan,
}

impl RfftPlan {
    /// Compiles from a factorization tree of size `n/2`.
    pub fn new(n: usize, half_tree: Tree) -> Result<RfftPlan, PlanError> {
        if !n.is_multiple_of(2) || n == 0 {
            return Err(PlanError::InvalidTree(format!(
                "real FFT size must be even and positive, got {n}"
            )));
        }
        if half_tree.size() != n / 2 {
            return Err(PlanError::InvalidTree(format!(
                "half-size tree computes {} points, need {}",
                half_tree.size(),
                n / 2
            )));
        }
        Ok(RfftPlan {
            n,
            half_forward: DftPlan::new(half_tree.clone(), Direction::Forward)?,
            half_inverse: DftPlan::new(half_tree, Direction::Inverse)?,
        })
    }

    /// Plans the half-size FFT with the given configuration.
    pub fn plan(n: usize, cfg: &PlannerConfig) -> Result<RfftPlan, PlanError> {
        if !n.is_multiple_of(2) || n == 0 {
            return Err(PlanError::InvalidTree(format!(
                "real FFT size must be even and positive, got {n}"
            )));
        }
        RfftPlan::new(n, try_plan_dft(n / 2, cfg)?.tree)
    }

    /// Transform size (length of the real signal).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of output bins (`n/2 + 1`).
    pub fn bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// The compiled half-size complex forward plan (the pipeline's inner
    /// transform — attribution walks its tree).
    pub fn half_forward(&self) -> &DftPlan {
        &self.half_forward
    }

    /// Forward transform: `spectrum[k] = Σ_i x[i] e^{-2πi ik/n}` for
    /// `k = 0 ..= n/2`.
    pub fn try_forward(&self, x: &[f64], spectrum: &mut [Complex64]) -> Result<(), DdlError> {
        self.forward_observed(x, spectrum, [0; 6], &mut NullSink)
    }

    /// [`RfftPlan::try_forward`] into one [`Observer`]: the pack and
    /// untangle stages emit their own node spans (labels `"pack"` /
    /// `"untangle"`) and memory traffic, and the inner half-size DFT runs
    /// through [`DftPlan::try_run`] — so a pipeline transform gets the
    /// same per-node attribution as a bare DFT. `addrs` are the simulated
    /// base addresses of, in order: the real input, the packed buffer,
    /// the half-size spectrum, the output spectrum, the DFT scratch and
    /// the twiddle tables; the simulation harness
    /// ([`crate::traced`]) lays them out.
    pub(crate) fn forward_observed<O: Observer>(
        &self,
        x: &[f64],
        spectrum: &mut [Complex64],
        addrs: [u64; 6],
        obs: &mut O,
    ) -> Result<(), DdlError> {
        let n = self.n;
        let h = n / 2;
        if x.len() < n {
            return Err(DdlError::shape("rfft: input too short", n, x.len()));
        }
        if spectrum.len() < h + 1 {
            return Err(DdlError::shape(
                "rfft: output too short",
                h + 1,
                spectrum.len(),
            ));
        }
        let [xa, za, zfa, speca, sa, ta] = addrs;
        let node = |label, size| SpanInfo {
            kind: SpanKind::Node,
            label,
            size,
            stride: 1,
            reorg: false,
            backend: "scalar",
        };
        obs.span_begin(node("rfft", n));

        // pack: z[i] = x[2i] + i x[2i+1] — sequential reads of the real
        // signal, unit-stride complex writes.
        obs.span_begin(node("pack", h));
        let mut z = vec![Complex64::ZERO; h];
        for (i, zi) in z.iter_mut().enumerate() {
            obs.read(xa + (2 * i) as u64 * 8, 8);
            obs.read(xa + (2 * i + 1) as u64 * 8, 8);
            *zi = Complex64::new(x[2 * i], x[2 * i + 1]);
            obs.write(za + (i * 16) as u64, 16);
        }
        obs.span_end();

        let mut zf = vec![Complex64::ZERO; h];
        let mut views = DftViews::new(&z, &mut zf);
        views.addrs = [za, zfa, sa, ta];
        self.half_forward.try_run_pooled(views, obs)?;

        // untangle: E[k] = (Z[k] + conj(Z[h-k]))/2 (FFT of evens),
        //           O[k] = -i (Z[k] - conj(Z[h-k]))/2 (FFT of odds),
        //           X[k] = E[k] + w_n^k O[k]
        // — two half-spectrum reads (one forward, one mirrored) and a
        // unit-stride write per bin; the twiddle is computed, not loaded.
        obs.span_begin(node("untangle", h + 1));
        for (k, out) in spectrum.iter_mut().enumerate().take(h + 1) {
            let fwd = k % h;
            let mir = (h - k) % h;
            obs.read(zfa + (fwd * 16) as u64, 16);
            obs.read(zfa + (mir * 16) as u64, 16);
            let zk = zf[fwd];
            let zmk = zf[mir].conj();
            let e = (zk + zmk).scale(0.5);
            let o = (zk - zmk).scale(0.5).mul_neg_i();
            let w = root_of_unity(n, k, Direction::Forward);
            *out = e + w * o;
            obs.write(speca + (k * 16) as u64, 16);
        }
        obs.span_end();
        obs.span_end();
        Ok(())
    }

    /// Inverse transform: reconstructs the real signal from `n/2 + 1`
    /// bins (normalized — `try_inverse(try_forward(x)) == x`).
    pub fn try_inverse(&self, spectrum: &[Complex64], x: &mut [f64]) -> Result<(), DdlError> {
        let n = self.n;
        let h = n / 2;
        if spectrum.len() < h + 1 {
            return Err(DdlError::shape(
                "irfft: input too short",
                h + 1,
                spectrum.len(),
            ));
        }
        if x.len() < n {
            return Err(DdlError::shape("irfft: output too short", n, x.len()));
        }

        // retangle: Z[k] = E[k] + i O[k] with
        // E[k] = (X[k] + conj(X[h-k]))/2, O[k] = w_n^{-k} (X[k] -
        // conj(X[h-k]))/2 · i
        let mut z = vec![Complex64::ZERO; h];
        for (k, zk) in z.iter_mut().enumerate() {
            let xk = spectrum[k];
            let xmk = spectrum[h - k].conj();
            let e = (xk + xmk).scale(0.5);
            let o = (xk - xmk).scale(0.5) * root_of_unity(n, k, Direction::Inverse);
            *zk = e + o.mul_i();
        }
        let mut zt = vec![Complex64::ZERO; h];
        self.half_inverse.try_execute(&z, &mut zt)?;
        let scale = 1.0 / h as f64;
        for i in 0..h {
            x[2 * i] = zt[i].re * scale;
            x[2 * i + 1] = zt[i].im * scale;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use ddl_kernels::naive_dft;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.61).sin() * 2.0 - 0.3)
            .collect()
    }

    #[test]
    fn forward_matches_complex_dft() {
        for n in [4usize, 8, 64, 512] {
            let plan = RfftPlan::plan(n, &PlannerConfig::sdl_analytical()).unwrap();
            let x = sample(n);
            let mut spec = vec![Complex64::ZERO; plan.bins()];
            plan.try_forward(&x, &mut spec).unwrap();
            let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
            let want = naive_dft(&cx, Direction::Forward);
            for k in 0..=n / 2 {
                assert!(
                    (spec[k] - want[k]).abs() < 1e-9 * want[k].abs().max(1.0),
                    "n={n} k={k}: {:?} vs {:?}",
                    spec[k],
                    want[k]
                );
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        for n in [4usize, 16, 256, 4096] {
            let plan = RfftPlan::plan(n, &PlannerConfig::ddl_analytical()).unwrap();
            let x = sample(n);
            let mut spec = vec![Complex64::ZERO; plan.bins()];
            let mut back = vec![0.0; n];
            plan.try_forward(&x, &mut spec).unwrap();
            plan.try_inverse(&spec, &mut back).unwrap();
            for i in 0..n {
                assert!((back[i] - x[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let n = 128;
        let plan = RfftPlan::plan(n, &PlannerConfig::sdl_analytical()).unwrap();
        let x = sample(n);
        let mut spec = vec![Complex64::ZERO; plan.bins()];
        plan.try_forward(&x, &mut spec).unwrap();
        assert!(spec[0].im.abs() < 1e-10);
        assert!(spec[n / 2].im.abs() < 1e-10);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9 * sum.abs().max(1.0));
    }

    #[test]
    fn odd_sizes_are_rejected() {
        assert!(RfftPlan::plan(9, &PlannerConfig::sdl_analytical()).is_err());
        assert!(RfftPlan::plan(0, &PlannerConfig::sdl_analytical()).is_err());
    }

    #[test]
    fn mismatched_half_tree_is_rejected() {
        let tree = Tree::leaf(8);
        assert!(RfftPlan::new(32, tree).is_err());
    }
}
