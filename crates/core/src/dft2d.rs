//! Two-dimensional FFT (extension beyond the paper).
//!
//! The row–column algorithm is the classic consumer of exactly the
//! machinery this library builds: FFT all rows (unit stride), then all
//! columns — which are the pathological strided accesses the paper
//! studies. This implementation handles the column pass the DDL way:
//! tiled transpose, unit-stride row FFTs, tiled transpose back — i.e.
//! Bailey's FFT organization, which the paper cites as the
//! external-memory ancestor of its approach.
//!
//! Both passes reuse the 1-D [`DftPlan`]s, so a cache-conscious 1-D plan
//! automatically yields a cache-conscious 2-D transform.

use crate::dft::{run_transpose, DftPlan, PlanError};
use crate::planner::{try_plan_dft, PlannerConfig};
use ddl_num::{Complex64, DdlError, Direction};

/// A compiled 2-D DFT over `rows x cols` row-major data.
#[derive(Clone, Debug)]
pub struct Dft2dPlan {
    rows: usize,
    cols: usize,
    row_plan: DftPlan,
    col_plan: DftPlan,
}

impl Dft2dPlan {
    /// Builds from explicit 1-D plans (`row_plan.n() == cols`,
    /// `col_plan.n() == rows`, equal directions).
    pub fn from_plans(
        rows: usize,
        cols: usize,
        row_plan: DftPlan,
        col_plan: DftPlan,
    ) -> Result<Dft2dPlan, PlanError> {
        if row_plan.n() != cols || col_plan.n() != rows {
            return Err(PlanError::InvalidTree(format!(
                "2-D plan mismatch: row plan {} (need {cols}), col plan {} (need {rows})",
                row_plan.n(),
                col_plan.n()
            )));
        }
        if row_plan.direction() != col_plan.direction() {
            return Err(PlanError::InvalidTree(
                "row and column plans must share a direction".to_string(),
            ));
        }
        Ok(Dft2dPlan {
            rows,
            cols,
            row_plan,
            col_plan,
        })
    }

    /// Plans both dimensions with the given planner configuration.
    pub fn new(
        rows: usize,
        cols: usize,
        dir: Direction,
        cfg: &PlannerConfig,
    ) -> Result<Dft2dPlan, PlanError> {
        let row_tree = try_plan_dft(cols, cfg)?.tree;
        let col_tree = try_plan_dft(rows, cfg)?.tree;
        Dft2dPlan::from_plans(
            rows,
            cols,
            DftPlan::new(row_tree, dir)?,
            DftPlan::new(col_tree, dir)?,
        )
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.row_plan.direction()
    }

    /// Executes out of place:
    /// `output[r*cols + c] = Σ_{i,j} input[i*cols + j] w_rows^{ri} w_cols^{cj}`.
    /// Both slices must hold at least `rows*cols` points, of which the
    /// first `rows*cols` are used; undersized buffers surface as
    /// [`DdlError::ShapeMismatch`].
    pub fn try_execute(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
    ) -> Result<(), DdlError> {
        let (rows, cols) = (self.rows, self.cols);
        let n = rows * cols;
        if input.len() < n {
            return Err(DdlError::shape("2-D input too short", n, input.len()));
        }
        if output.len() < n {
            return Err(DdlError::shape("2-D output too short", n, output.len()));
        }

        let mut work = vec![Complex64::ZERO; n];

        // 1. row FFTs: input rows -> work rows (all unit stride)
        for r in 0..rows {
            let src = &input[r * cols..(r + 1) * cols];
            let dst = &mut work[r * cols..(r + 1) * cols];
            self.row_plan.try_execute(src, dst)?;
        }

        // 2. tiled transpose: work (rows x cols) -> output (cols x rows)
        run_transpose(&work, &mut output[..n], rows, cols);

        // 3. column FFTs, now unit stride: output rows -> work rows
        for c in 0..cols {
            let src = &output[c * rows..(c + 1) * rows];
            let dst = &mut work[c * rows..(c + 1) * rows];
            self.col_plan.try_execute(src, dst)?;
        }

        // 4. transpose back to row-major order
        run_transpose(&work, &mut output[..n], cols, rows);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use ddl_num::{relative_rms_error, root_of_unity};

    /// O((rows*cols)^2) reference 2-D DFT.
    fn naive_dft2d(x: &[Complex64], rows: usize, cols: usize, dir: Direction) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = Complex64::ZERO;
                for i in 0..rows {
                    for j in 0..cols {
                        let w = root_of_unity(rows, r * i, dir) * root_of_unity(cols, c * j, dir);
                        acc = acc.mul_add(x[i * cols + j], w);
                    }
                }
                y[r * cols + c] = acc;
            }
        }
        y
    }

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_2d_square() {
        let (rows, cols) = (16, 16);
        let plan = Dft2dPlan::new(
            rows,
            cols,
            Direction::Forward,
            &PlannerConfig::ddl_analytical(),
        )
        .unwrap();
        let x = sample(rows * cols);
        let mut y = vec![Complex64::ZERO; rows * cols];
        plan.try_execute(&x, &mut y).unwrap();
        let want = naive_dft2d(&x, rows, cols, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-10);
    }

    #[test]
    fn matches_naive_2d_rectangular() {
        let (rows, cols) = (8, 32);
        let plan = Dft2dPlan::new(
            rows,
            cols,
            Direction::Forward,
            &PlannerConfig::sdl_analytical(),
        )
        .unwrap();
        let x = sample(rows * cols);
        let mut y = vec![Complex64::ZERO; rows * cols];
        plan.try_execute(&x, &mut y).unwrap();
        let want = naive_dft2d(&x, rows, cols, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-10);
        // A longer output holds the transform in its first rows*cols
        // points, as a longer input is read from its first.
        let mut long = vec![Complex64::ONE; rows * cols + 3];
        plan.try_execute(&x, &mut long).unwrap();
        assert_eq!(&long[..rows * cols], &y[..]);
        assert!(long[rows * cols..].iter().all(|v| *v == Complex64::ONE));
    }

    #[test]
    fn forward_inverse_round_trip() {
        let (rows, cols) = (64, 32);
        let cfg = PlannerConfig::ddl_analytical();
        let fwd = Dft2dPlan::new(rows, cols, Direction::Forward, &cfg).unwrap();
        let inv = Dft2dPlan::new(rows, cols, Direction::Inverse, &cfg).unwrap();
        let x = sample(rows * cols);
        let mut f = vec![Complex64::ZERO; rows * cols];
        let mut b = vec![Complex64::ZERO; rows * cols];
        fwd.try_execute(&x, &mut f).unwrap();
        inv.try_execute(&f, &mut b).unwrap();
        let scale = 1.0 / (rows * cols) as f64;
        let back: Vec<Complex64> = b.iter().map(|v| v.scale(scale)).collect();
        assert!(relative_rms_error(&back, &x) < 1e-10);
    }

    #[test]
    fn impulse_has_flat_2d_spectrum() {
        let (rows, cols) = (8, 8);
        let plan = Dft2dPlan::new(
            rows,
            cols,
            Direction::Forward,
            &PlannerConfig::sdl_analytical(),
        )
        .unwrap();
        let mut x = vec![Complex64::ZERO; 64];
        x[0] = Complex64::ONE;
        let mut y = vec![Complex64::ZERO; 64];
        plan.try_execute(&x, &mut y).unwrap();
        for v in &y {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_plans_are_rejected() {
        let cfg = PlannerConfig::sdl_analytical();
        let p8 = DftPlan::new(try_plan_dft(8, &cfg).unwrap().tree, Direction::Forward).unwrap();
        let p16 = DftPlan::new(try_plan_dft(16, &cfg).unwrap().tree, Direction::Forward).unwrap();
        assert!(Dft2dPlan::from_plans(8, 8, p16.clone(), p8.clone()).is_err());
        let p8i = DftPlan::new(try_plan_dft(8, &cfg).unwrap().tree, Direction::Inverse).unwrap();
        assert!(Dft2dPlan::from_plans(8, 8, p8.clone(), p8i).is_err());
        assert!(Dft2dPlan::from_plans(8, 8, p8.clone(), p8).is_ok());
    }
}
