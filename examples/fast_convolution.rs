//! Fast circular convolution via DDL-planned FFTs.
//!
//! Run with:
//! ```sh
//! cargo run --release --example fast_convolution
//! ```
//!
//! Convolves a long signal with a filter using the convolution theorem
//! (`y = IDFT(DFT(x) · DFT(h)) / n`), verifies the result against the
//! direct `O(n^2)` reference on a prefix, and compares the throughput of
//! SDL-planned and DDL-planned pipelines — three large transforms per
//! convolution, so layout effects triple.

use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::{
    circular_convolution_direct, noise_complex, pointwise_product,
};

/// One fast convolution using the given pair of compiled plans (each
/// runs on its own pooled scratch).
fn fft_convolve(
    forward: &DftPlan,
    inverse: &DftPlan,
    x: &[Complex64],
    h: &[Complex64],
) -> Result<Vec<Complex64>, DdlError> {
    let n = x.len();
    let mut fx = vec![Complex64::ZERO; n];
    let mut fh = vec![Complex64::ZERO; n];
    forward.try_execute(x, &mut fx)?;
    forward.try_execute(h, &mut fh)?;
    let prod = pointwise_product(&fx, &fh);
    let mut y = vec![Complex64::ZERO; n];
    inverse.try_execute(&prod, &mut y)?;
    let scale = 1.0 / n as f64;
    for v in y.iter_mut() {
        *v = v.scale(scale);
    }
    Ok(y)
}

fn main() -> Result<(), DdlError> {
    let n = 1 << 19;
    println!("== fast circular convolution, n = {n} ==\n");

    // Signal: noise; filter: a short exponentially-decaying kernel.
    let x = noise_complex(n, 1.0, 11);
    let mut h = vec![Complex64::ZERO; n];
    for (i, hi) in h.iter_mut().take(64).enumerate() {
        *hi = Complex64::from_re(0.8f64.powi(i as i32));
    }

    // Correctness first, on a small prefix problem.
    {
        let m = 512;
        let tree = try_plan_dft(m, &PlannerConfig::ddl_analytical())?.tree;
        let fwd = DftPlan::new(tree.clone(), Direction::Forward)?;
        let inv = DftPlan::new(tree, Direction::Inverse)?;
        let xs = &x[..m];
        let hs: Vec<Complex64> = h[..64]
            .iter()
            .copied()
            .chain(std::iter::repeat(Complex64::ZERO))
            .take(m)
            .collect();
        let fast = fft_convolve(&fwd, &inv, xs, &hs)?;
        let direct = circular_convolution_direct(xs, &hs);
        let mut worst = 0.0f64;
        for i in 0..m {
            worst = worst.max((fast[i] - direct[i]).abs());
        }
        println!("verification vs direct O(n^2) convolution (n = {m}): max err {worst:.3e}");
        assert!(worst < 1e-9);
    }

    // Throughput: SDL vs DDL pipelines at full size.
    for (label, cfg) in [
        ("SDL", PlannerConfig::sdl_analytical()),
        ("DDL", PlannerConfig::ddl_analytical()),
    ] {
        let tree = try_plan_dft(n, &cfg)?.tree;
        let fwd = DftPlan::new(tree.clone(), Direction::Forward)?;
        let inv = DftPlan::new(tree.clone(), Direction::Inverse)?;
        let mut sink = Complex64::ZERO;
        let mut failed = None;
        let t = time_per_call(
            || match fft_convolve(&fwd, &inv, &x, &h) {
                Ok(y) => sink += y[0],
                Err(e) => failed = Some(e),
            },
            0.4,
            2,
        );
        if let Some(e) = failed {
            return Err(e);
        }
        std::hint::black_box(sink);
        println!(
            "{label}: {:8.2} ms per convolution  (tree {})",
            t * 1e3,
            print_dft(&tree)
        );
    }
    println!("\n(speedups compound: each convolution runs three large transforms)");
    Ok(())
}
