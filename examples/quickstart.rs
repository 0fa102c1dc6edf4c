//! Quickstart: plan, execute and verify an FFT with dynamic data layouts.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The example plans a 2^18-point FFT twice — once with the SDL
//! (static-layout, FFTW-style) search and once with the paper's DDL
//! search — prints both trees in the paper's grammar, verifies the DDL
//! plan against an independent FFT implementation, and times both.

use dynamic_data_layout::kernels::iterative::fft_radix2;
use dynamic_data_layout::num::relative_rms_error;
use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::{noise_complex, tone_mixture, Tone};

fn main() -> Result<(), DdlError> {
    let n = 1 << 18;
    println!("== dynamic-data-layout quickstart: {n}-point FFT ==\n");

    // 1. Plan. The analytical backend is instant and deterministic; swap
    //    in PlannerConfig::ddl_measured() to tune on real timings.
    let sdl = plan_dft(n, &PlannerConfig::sdl_analytical());
    let ddl = plan_dft(n, &PlannerConfig::ddl_analytical());
    println!("SDL tree: {}", print_dft(&sdl.tree));
    println!("DDL tree: {}", print_dft(&ddl.tree));
    println!(
        "DDL applies {} reorganization(s); max leaf stride {} -> {}\n",
        ddl.tree.reorg_count(),
        sdl.tree.max_leaf_stride(1),
        ddl.tree.max_leaf_stride(1),
    );

    // 2. Compile and execute on a three-tone signal plus noise.
    let plan = DftPlan::new(ddl.tree.clone(), Direction::Forward)?;
    let mut x = tone_mixture(
        n,
        &[
            Tone::at_bin(1000, n, 1.0),
            Tone::at_bin(20_000, n, 0.5),
            Tone::at_bin(77_777, n, 0.25),
        ],
    );
    for (xi, ni) in x.iter_mut().zip(noise_complex(n, 1e-3, 7)) {
        *xi += ni;
    }
    let mut y = vec![Complex64::ZERO; n];
    plan.try_execute(&x, &mut y)?;

    // 3. Verify against an independent implementation.
    let reference = fft_radix2(&x, Direction::Forward);
    let err = relative_rms_error(&y, &reference);
    println!("relative RMS error vs iterative radix-2 FFT: {err:.3e}");
    assert!(err < 1e-10, "DDL plan disagrees with the reference FFT");

    // The three tones dominate the spectrum.
    let mut bins: Vec<(usize, f64)> = y.iter().enumerate().map(|(i, v)| (i, v.abs())).collect();
    bins.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-3 spectral peaks (bin, |Y|):");
    for (bin, mag) in bins.iter().take(3) {
        println!("  bin {bin:>6}  |Y| = {mag:.1}");
    }

    // 4. Time SDL vs DDL trees on this machine.
    // The plan owns its scratch, so repeated calls allocate nothing.
    let time_tree = |tree: &Tree| -> Result<f64, DdlError> {
        let p = DftPlan::new(tree.clone(), Direction::Forward)?;
        let mut out = vec![Complex64::ZERO; n];
        let mut failed = None;
        let secs = time_per_call(
            || failed = failed.take().or(p.try_execute(&x, &mut out).err()),
            0.2,
            3,
        );
        failed.map_or(Ok(secs), Err)
    };
    let t_sdl = time_tree(&sdl.tree)?;
    let t_ddl = time_tree(&ddl.tree)?;
    println!(
        "\nSDL: {:8.3} ms  ({:7.1} pseudo-MFLOPS)",
        t_sdl * 1e3,
        fft_mflops(n, t_sdl)
    );
    println!(
        "DDL: {:8.3} ms  ({:7.1} pseudo-MFLOPS)",
        t_ddl * 1e3,
        fft_mflops(n, t_ddl)
    );
    println!("speedup: {:.2}x", t_sdl / t_ddl);
    Ok(())
}
