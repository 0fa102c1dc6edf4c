//! Spectral analysis of a long noisy recording.
//!
//! Run with:
//! ```sh
//! cargo run --release --example spectral_analysis
//! ```
//!
//! The motivating workload of the paper's introduction: a signal long
//! enough that its transform working set far exceeds the cache. We bury
//! a handful of weak tones and a chirp in noise, take one large FFT
//! (2^20 points), detect the tones from the spectrum, and then inverse
//! transform to confirm the round trip — all with a DDL-planned FFT.

use dynamic_data_layout::num::max_abs;
use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::{chirp, noise_complex, tone_mixture, Tone};

fn main() -> Result<(), DdlError> {
    let n = 1 << 20;
    println!("== spectral analysis of a {n}-point recording ==\n");

    // Compose the "recording": three weak tones + a chirp + strong noise.
    let hidden_bins = [123_456usize, 500_000, 987_654];
    let mut x = tone_mixture(
        n,
        &[
            Tone::at_bin(hidden_bins[0], n, 0.02),
            Tone::at_bin(hidden_bins[1], n, 0.015),
            Tone::at_bin(hidden_bins[2], n, 0.01),
        ],
    );
    let sweep = chirp(n, 0.05, 0.0502); // narrow chirp: spread energy
    let noise = noise_complex(n, 0.05, 2024);
    for i in 0..n {
        x[i] += sweep[i].scale(0.002) + noise[i];
    }

    // Plan with DDL and execute the forward transform.
    let outcome = plan_dft(n, &PlannerConfig::ddl_analytical());
    println!("planned tree: {}", print_dft(&outcome.tree));
    let forward = DftPlan::new(outcome.tree.clone(), Direction::Forward)?;
    let mut spectrum = vec![Complex64::ZERO; n];
    // The plan owns its scratch: repeated calls allocate nothing.
    let mut failed = None;
    let t = time_per_call(
        || {
            failed = failed
                .take()
                .or(forward.try_execute(&x, &mut spectrum).err())
        },
        0.3,
        3,
    );
    if let Some(e) = failed {
        return Err(e);
    }
    println!(
        "forward FFT: {:.2} ms ({:.0} pseudo-MFLOPS)\n",
        t * 1e3,
        fft_mflops(n, t)
    );

    // Peak detection: a bin is a detection when it towers over the local
    // median magnitude.
    let mags: Vec<f64> = spectrum.iter().map(|v| v.abs()).collect();
    let mean = mags.iter().sum::<f64>() / n as f64;
    let threshold = 40.0 * mean;
    let mut detections: Vec<(usize, f64)> = mags
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m > threshold)
        .map(|(i, &m)| (i, m))
        .collect();
    detections.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("detections above {threshold:.1} (mean |Y| = {mean:.2}):");
    for (bin, mag) in &detections {
        let expected = hidden_bins.contains(bin);
        println!(
            "  bin {bin:>7}  |Y| = {mag:10.1}  {}",
            if expected { "<- planted tone" } else { "" }
        );
    }
    for planted in hidden_bins {
        assert!(
            detections.iter().any(|&(b, _)| b == planted),
            "planted tone at bin {planted} was not detected"
        );
    }

    // Round trip: inverse transform and compare.
    let inverse = DftPlan::new(outcome.tree, Direction::Inverse)?;
    let mut back = vec![Complex64::ZERO; n];
    inverse.try_execute(&spectrum, &mut back)?;
    let scale = 1.0 / n as f64;
    let mut worst = 0.0f64;
    for i in 0..n {
        worst = worst.max((back[i].scale(scale) - x[i]).abs());
    }
    println!(
        "\nround-trip max error: {worst:.3e} (signal peak {:.3})",
        max_abs(&x)
    );
    assert!(worst < 1e-9, "inverse FFT failed to reconstruct the signal");
    println!("all planted tones recovered; round trip verified.");
    Ok(())
}
