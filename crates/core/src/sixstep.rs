//! Bailey's six-step FFT (fixed-structure baseline).
//!
//! The paper positions its approach as the uniprocessor descendant of
//! Bailey's external/hierarchical-memory FFT (its reference [22]): view
//! the length-`n1·n2` signal as an `n1 × n2` matrix and perform
//!
//! 1. transpose,
//! 2. `n2` row FFTs of length `n1`,
//! 3. twiddle multiplication by `w^{i1·i2}`,
//! 4. transpose,
//! 5. `n1` row FFTs of length `n2`,
//! 6. transpose.
//!
//! Every FFT runs at unit stride and all data movement happens in three
//! blocked transposes — a *fixed* layout schedule, in contrast to the
//! planner's per-node decisions. It serves as the "always reorganize"
//! endpoint of the design space: the DDL planner should match or beat it
//! by reorganizing only where it pays (an ablation the benches exercise).

use crate::dft::{DftPlan, PlanError};
use crate::planner::{try_plan_dft, PlannerConfig};
use ddl_layout::try_transpose_blocked;
use ddl_num::{root_of_unity, Complex64, DdlError, Direction};

/// A compiled six-step FFT of size `n1 * n2`.
#[derive(Clone, Debug)]
pub struct SixStepPlan {
    n1: usize,
    n2: usize,
    dir: Direction,
    col_plan: DftPlan,
    row_plan: DftPlan,
    /// `tw[i1*n2 + i2] = w_n^{i1*i2}`.
    twiddles: Box<[Complex64]>,
}

impl SixStepPlan {
    /// Builds the plan for `n = n1 * n2` using planner-chosen unit-stride
    /// row FFTs.
    pub fn new(
        n1: usize,
        n2: usize,
        dir: Direction,
        cfg: &PlannerConfig,
    ) -> Result<SixStepPlan, PlanError> {
        let n = n1
            .checked_mul(n2)
            .ok_or_else(|| PlanError::InvalidTree("six-step size overflow".into()))?;
        let col_plan = DftPlan::new(try_plan_dft(n1, cfg)?.tree, dir)?;
        let row_plan = DftPlan::new(try_plan_dft(n2, cfg)?.tree, dir)?;
        let mut twiddles = Vec::with_capacity(n);
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                twiddles.push(root_of_unity(n, i1 * i2, dir));
            }
        }
        Ok(SixStepPlan {
            n1,
            n2,
            dir,
            col_plan,
            row_plan,
            twiddles: twiddles.into_boxed_slice(),
        })
    }

    /// Builds a near-square plan for a power-of-two `n`.
    pub fn balanced(
        n: usize,
        dir: Direction,
        cfg: &PlannerConfig,
    ) -> Result<SixStepPlan, PlanError> {
        if !n.is_power_of_two() || n < 4 {
            return Err(PlanError::InvalidTree(format!(
                "six-step balanced split needs a power of two >= 4, got {n}"
            )));
        }
        let log = n.trailing_zeros();
        let n1 = 1usize << (log / 2);
        SixStepPlan::new(n1, n / n1, dir, cfg)
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n1 * self.n2
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Executes out of place.
    pub fn try_execute(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
    ) -> Result<(), DdlError> {
        let (n1, n2) = (self.n1, self.n2);
        let n = n1 * n2;
        if input.len() < n {
            return Err(DdlError::shape("six-step input too short", n, input.len()));
        }
        if output.len() < n {
            return Err(DdlError::shape(
                "six-step output too short",
                n,
                output.len(),
            ));
        }
        let mut work = vec![Complex64::ZERO; n];

        // 1. transpose n1 x n2 -> n2 x n1 (into output as temp)
        try_transpose_blocked(&input[..n], &mut output[..n], n1, n2, 32)?;

        // 2. n2 row FFTs of length n1: output rows -> work rows
        for r in 0..n2 {
            let src = &output[r * n1..(r + 1) * n1];
            let dst = &mut work[r * n1..(r + 1) * n1];
            self.col_plan.try_execute(src, dst)?;
        }

        // 3+4. twiddle and transpose back: work[i2*n1 + i1] holds
        // B[i1][i2]; multiply by w^{i1 i2} while transposing to
        // output[i1*n2 + i2].
        for i2 in 0..n2 {
            for i1 in 0..n1 {
                output[i1 * n2 + i2] = work[i2 * n1 + i1] * self.twiddles[i1 * n2 + i2];
            }
        }

        // 5. n1 row FFTs of length n2: output rows -> work rows
        for r in 0..n1 {
            let src = &output[r * n2..(r + 1) * n2];
            let dst = &mut work[r * n2..(r + 1) * n2];
            self.row_plan.try_execute(src, dst)?;
        }

        // 6. final transpose n1 x n2 -> n2 x n1 gives natural order
        try_transpose_blocked(&work, &mut output[..n], n1, n2, 32)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use ddl_kernels::iterative::fft_radix2;
    use ddl_kernels::naive_dft;
    use ddl_num::relative_rms_error;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_for_small_sizes() {
        for (n1, n2) in [(4usize, 4usize), (8, 4), (4, 16), (8, 8)] {
            let plan =
                SixStepPlan::new(n1, n2, Direction::Forward, &PlannerConfig::sdl_analytical())
                    .unwrap();
            let n = n1 * n2;
            let x = sample(n);
            let mut y = vec![Complex64::ZERO; n];
            plan.try_execute(&x, &mut y).unwrap();
            let want = naive_dft(&x, Direction::Forward);
            assert!(
                relative_rms_error(&y, &want) < 1e-10,
                "{n1}x{n2}: {}",
                relative_rms_error(&y, &want)
            );
        }
    }

    #[test]
    fn matches_iterative_for_large_sizes() {
        let n = 1 << 14;
        let plan =
            SixStepPlan::balanced(n, Direction::Forward, &PlannerConfig::ddl_analytical()).unwrap();
        let x = sample(n);
        let mut y = vec![Complex64::ZERO; n];
        plan.try_execute(&x, &mut y).unwrap();
        let want = fft_radix2(&x, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-10);
    }

    #[test]
    fn inverse_direction_round_trips() {
        let n = 1 << 10;
        let cfg = PlannerConfig::sdl_analytical();
        let fwd = SixStepPlan::balanced(n, Direction::Forward, &cfg).unwrap();
        let inv = SixStepPlan::balanced(n, Direction::Inverse, &cfg).unwrap();
        let x = sample(n);
        let mut f = vec![Complex64::ZERO; n];
        let mut b = vec![Complex64::ZERO; n];
        fwd.try_execute(&x, &mut f).unwrap();
        inv.try_execute(&f, &mut b).unwrap();
        let back: Vec<Complex64> = b.iter().map(|v| v.scale(1.0 / n as f64)).collect();
        assert!(relative_rms_error(&back, &x) < 1e-10);
    }

    #[test]
    fn rejects_bad_sizes() {
        let cfg = PlannerConfig::sdl_analytical();
        assert!(SixStepPlan::balanced(3, Direction::Forward, &cfg).is_err());
        assert!(SixStepPlan::balanced(12, Direction::Forward, &cfg).is_err());
    }
}
