//! 2-D frequency-domain filtering with the row–column FFT.
//!
//! Run with:
//! ```sh
//! cargo run --release --example image_filter_2d
//! ```
//!
//! Builds a synthetic 512x512 "image" (smooth gradient + periodic
//! interference pattern + noise), removes the interference with a notch
//! filter in the 2-D frequency domain, and verifies (a) the round trip is
//! exact without the filter and (b) the interference energy drops by
//! orders of magnitude with it. The column passes inside the 2-D plan
//! are exactly the strided workloads the paper's optimization targets.

use dynamic_data_layout::core::Dft2dPlan;
use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::noise_real;

const ROWS: usize = 512;
const COLS: usize = 512;

/// Synthetic scene: gradient + strong periodic interference at a known
/// spatial frequency + noise.
fn scene() -> (Vec<Complex64>, (usize, usize)) {
    let interference_freq = (ROWS / 8, COLS / 16);
    let noise = noise_real(ROWS * COLS, 0.05, 3);
    let mut img = Vec::with_capacity(ROWS * COLS);
    for r in 0..ROWS {
        for c in 0..COLS {
            let gradient = r as f64 / ROWS as f64 + c as f64 / COLS as f64;
            let phase = core::f64::consts::TAU
                * (interference_freq.0 as f64 * r as f64 / ROWS as f64
                    + interference_freq.1 as f64 * c as f64 / COLS as f64);
            let interference = 0.8 * phase.cos();
            img.push(Complex64::from_re(
                gradient + interference + noise[r * COLS + c],
            ));
        }
    }
    (img, interference_freq)
}

fn main() {
    println!("== 2-D notch filtering, {ROWS}x{COLS} ==\n");
    let cfg = PlannerConfig::ddl_analytical();
    let forward = Dft2dPlan::new(ROWS, COLS, Direction::Forward, &cfg).unwrap();
    let inverse = Dft2dPlan::new(ROWS, COLS, Direction::Inverse, &cfg).unwrap();

    let (img, (fr, fc)) = scene();
    let mut spectrum = vec![Complex64::ZERO; ROWS * COLS];
    forward.try_execute(&img, &mut spectrum).unwrap();

    // Round-trip sanity first.
    let mut back = vec![Complex64::ZERO; ROWS * COLS];
    inverse.try_execute(&spectrum, &mut back).unwrap();
    let scale = 1.0 / (ROWS * COLS) as f64;
    let mut rt_err = 0.0f64;
    for i in 0..ROWS * COLS {
        rt_err = rt_err.max((back[i].scale(scale) - img[i]).abs());
    }
    println!("2-D round-trip max error: {rt_err:.2e}");
    assert!(rt_err < 1e-9);

    // The interference shows up at (fr, fc) and its conjugate mirror.
    let peak = spectrum[fr * COLS + fc].abs();
    let dc = spectrum[0].abs();
    println!("interference peak |F[{fr},{fc}]| = {peak:.0} (DC = {dc:.0})");
    assert!(peak > 1e4, "interference peak not found");

    // Notch out the two mirrored bins (and a 1-bin neighbourhood).
    let mut filtered = spectrum.clone();
    for (r0, c0) in [(fr, fc), (ROWS - fr, COLS - fc)] {
        for dr in -1i64..=1 {
            for dc_ in -1i64..=1 {
                let r = (r0 as i64 + dr).rem_euclid(ROWS as i64) as usize;
                let c = (c0 as i64 + dc_).rem_euclid(COLS as i64) as usize;
                filtered[r * COLS + c] = Complex64::ZERO;
            }
        }
    }
    let mut cleaned = vec![Complex64::ZERO; ROWS * COLS];
    inverse.try_execute(&filtered, &mut cleaned).unwrap();

    // Measure the residual interference by projecting onto the pattern.
    let project = |data: &[Complex64]| -> f64 {
        let mut acc = Complex64::ZERO;
        for r in 0..ROWS {
            for c in 0..COLS {
                let phase = core::f64::consts::TAU
                    * (fr as f64 * r as f64 / ROWS as f64 + fc as f64 * c as f64 / COLS as f64);
                acc += data[r * COLS + c] * Complex64::cis(-phase);
            }
        }
        acc.abs() / (ROWS * COLS) as f64
    };
    let before = project(&img);
    let cleaned_scaled: Vec<Complex64> = cleaned.iter().map(|v| v.scale(scale)).collect();
    let after = project(&cleaned_scaled);
    println!("interference amplitude: {before:.4} -> {after:.6}");
    assert!(
        after < before / 100.0,
        "notch filter failed: {after} vs {before}"
    );
    println!(
        "\ninterference suppressed by {:.0}x; gradient preserved.",
        before / after
    );
}
