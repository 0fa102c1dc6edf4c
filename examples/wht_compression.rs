//! Lossy signal compression with the Walsh–Hadamard transform.
//!
//! Run with:
//! ```sh
//! cargo run --release --example wht_compression
//! ```
//!
//! The WHT is the paper's second transform: same factorization machinery,
//! no twiddle factors, real data. This example runs a classic
//! transform-coding loop — forward WHT, keep only the largest
//! coefficients, inverse WHT — on a large piecewise-smooth signal, and
//! reports PSNR per retention rate. Both the forward and inverse
//! transforms use DDL-planned trees (the WHT is self-inverse up to `1/n`).

use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::{noise_real, psnr_db};

/// A piecewise-smooth test signal: steps + slow sinusoids + mild noise.
fn test_signal(n: usize) -> Vec<f64> {
    let noise = noise_real(n, 0.01, 99);
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let step = if t < 0.3 {
                1.0
            } else if t < 0.7 {
                -0.5
            } else {
                0.25
            };
            step + 0.3 * (12.0 * t).sin() + noise[i]
        })
        .collect()
}

fn main() -> Result<(), DdlError> {
    let n = 1 << 20;
    println!("== WHT transform coding, n = {n} ==\n");

    let wht_model = CacheModel::from_geometry(512 * 1024, 64, 8);
    let cfg = PlannerConfig {
        strategy: Strategy::Ddl,
        backend: CostBackend::Analytical(wht_model),
        max_leaf: 64,
        cache_points: wht_model.capacity_points,
    };
    let outcome = plan_wht(n, &cfg);
    println!("planned WHT tree: {}\n", print_wht(&outcome.tree));
    let plan = WhtPlan::new(outcome.tree)?;

    let original = test_signal(n);
    let peak = original.iter().fold(0.0f64, |a, &b| a.max(b.abs()));

    // Forward transform (in place).
    let mut coeffs = original.clone();
    let mut work = original.clone();
    let mut failed = None;
    let t_fwd = time_per_call(
        || {
            work.copy_from_slice(&original);
            failed = failed.take().or(plan.try_execute(&mut work).err());
            std::hint::black_box(&mut work);
        },
        0.3,
        2,
    );
    if let Some(e) = failed {
        return Err(e);
    }
    plan.try_execute(&mut coeffs)?;
    println!(
        "forward WHT: {:.2} ms ({:.2} ns/point)\n",
        t_fwd * 1e3,
        time_per_point_ns(n, t_fwd)
    );

    // Keep the top fraction of coefficients by magnitude; zero the rest.
    println!("{:>10} {:>12} {:>10}", "kept", "PSNR (dB)", "nonzero");
    for keep_ratio in [0.5, 0.1, 0.02, 0.005] {
        let keep = ((n as f64) * keep_ratio) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| coeffs[b].abs().total_cmp(&coeffs[a].abs()));
        let mut kept = vec![0.0f64; n];
        for &idx in order.iter().take(keep) {
            kept[idx] = coeffs[idx];
        }

        // Inverse: the WHT is its own inverse up to 1/n.
        plan.try_execute(&mut kept)?;
        for v in kept.iter_mut() {
            *v /= n as f64;
        }

        let psnr = psnr_db(&original, &kept, peak);
        println!("{:>9.1}% {:>12.2} {:>10}", keep_ratio * 100.0, psnr, keep);
        assert!(
            psnr > 20.0 || keep_ratio < 0.01,
            "reconstruction collapsed at {keep_ratio}"
        );
    }

    println!("\nhigher retention -> higher PSNR; the transform pipeline is lossless at 100%.");
    Ok(())
}
