//! Integration tests of the extended transform family (2-D FFT, real
//! FFT, DCT, six-step) through the public prelude — each built on
//! DDL-planned 1-D transforms and verified against an independent path.

use dynamic_data_layout::core::dct::naive_dct2;
use dynamic_data_layout::kernels::iterative::fft_radix2;
use dynamic_data_layout::num::relative_rms_error;
use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::{noise_complex, noise_real};

#[test]
fn sixstep_agrees_with_planned_fft() {
    let n = 1 << 12;
    let cfg = PlannerConfig::ddl_analytical();
    let six = SixStepPlan::balanced(n, Direction::Forward, &cfg).unwrap();
    let planned = DftPlan::new(plan_dft(n, &cfg).tree, Direction::Forward).unwrap();
    let x = noise_complex(n, 1.0, 9);
    let mut a = vec![Complex64::ZERO; n];
    let mut b = vec![Complex64::ZERO; n];
    six.try_execute(&x, &mut a).unwrap();
    planned.try_execute(&x, &mut b).unwrap();
    assert!(relative_rms_error(&a, &b) < 1e-10);
}

#[test]
fn dft2d_row_column_vs_flat_1d_equivalence() {
    // A (r x c) 2-D DFT applied to a rank-1 separable signal factorizes:
    // F2D(u ⊗ v) = F(u) ⊗ F(v).
    let (rows, cols) = (32usize, 64usize);
    let cfg = PlannerConfig::sdl_analytical();
    let plan = Dft2dPlan::new(rows, cols, Direction::Forward, &cfg).unwrap();

    let u = noise_complex(rows, 1.0, 1);
    let v = noise_complex(cols, 1.0, 2);
    let outer: Vec<Complex64> = (0..rows * cols)
        .map(|i| u[i / cols] * v[i % cols])
        .collect();
    let mut f2d = vec![Complex64::ZERO; rows * cols];
    plan.try_execute(&outer, &mut f2d).unwrap();

    let fu = fft_radix2(&u, Direction::Forward);
    let fv = fft_radix2(&v, Direction::Forward);
    let want: Vec<Complex64> = (0..rows * cols)
        .map(|i| fu[i / cols] * fv[i % cols])
        .collect();
    assert!(relative_rms_error(&f2d, &want) < 1e-9);
}

#[test]
fn rfft_halves_the_complex_work_and_matches() {
    let n = 1 << 12;
    let plan = RfftPlan::plan(n, &PlannerConfig::ddl_analytical()).unwrap();
    let x = noise_real(n, 1.0, 77);
    let mut spec = vec![Complex64::ZERO; plan.bins()];
    plan.try_forward(&x, &mut spec).unwrap();

    let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
    let full = fft_radix2(&cx, Direction::Forward);
    for k in 0..=n / 2 {
        assert!(
            (spec[k] - full[k]).abs() < 1e-8 * full[k].abs().max(1.0),
            "bin {k}"
        );
    }
}

#[test]
fn dct_pipeline_on_planned_trees() {
    let n = 1 << 10;
    let plan = DctPlan::plan(n, &PlannerConfig::ddl_analytical()).unwrap();
    let x = noise_real(n, 2.0, 5);
    let mut y = vec![0.0; n];
    plan.try_dct2(&x, &mut y).unwrap();
    let want = naive_dct2(&x);
    for k in 0..n {
        assert!(
            (y[k] - want[k]).abs() < 1e-8 * want[k].abs().max(1.0),
            "k={k}"
        );
    }
    let mut back = vec![0.0; n];
    plan.try_dct3(&y, &mut back).unwrap();
    for i in 0..n {
        assert!((back[i] - x[i]).abs() < 1e-8, "i={i}");
    }
}

#[test]
fn trace_profile_distinguishes_sdl_from_ddl_intermediates() {
    use dynamic_data_layout::cachesim::RecordingTracer;
    use dynamic_data_layout::core::traced::simulate_dft_into;

    // SDL balanced tree: stage-1 writes interleave its intermediate at a
    // large stride; the DDL version writes it contiguously and moves the
    // reorganization into tiled transposes. Among consecutive *write*
    // events, the unit-stride (next-point) fraction must therefore be
    // higher for DDL. (Reads are excluded: both variants read the input
    // at the same strides — that traffic is compulsory.)
    // Leaf-left trees make the stage-1 write stream easy to isolate: the
    // first n point-writes of the trace are exactly the root's stage-1
    // leaf outputs (leaves have no internal scratch writes).
    let n = 1 << 14;
    let sdl = DftPlan::new(parse_tree("ct(64,ct(16,16))").unwrap(), Direction::Forward).unwrap();
    let ddl = DftPlan::new(
        parse_tree("ctddl(64,ct(16,16))").unwrap(),
        Direction::Forward,
    )
    .unwrap();
    assert_eq!(sdl.n(), n);

    let stage1_writes = |plan: &DftPlan| -> Vec<u64> {
        let mut tracer = RecordingTracer::default();
        simulate_dft_into(plan, &mut tracer).unwrap();
        tracer
            .events
            .iter()
            .filter(|(is_write, ..)| *is_write)
            .map(|&(_, addr, _)| addr)
            .take(n)
            .collect()
    };
    // The SDL root interleaves its stage-1 writes at stride n2 = 256
    // points (4 KiB); the DDL root writes each sub-DFT contiguously.
    let unit_fraction = |writes: &[u64]| {
        writes
            .windows(2)
            .filter(|w| w[1].wrapping_sub(w[0]) == 16)
            .count() as f64
            / (writes.len() - 1) as f64
    };
    let f_sdl = unit_fraction(&stage1_writes(&sdl));
    let f_ddl = unit_fraction(&stage1_writes(&ddl));
    assert!(
        f_ddl > 2.0 * f_sdl,
        "DDL stage-1 write-unit fraction {f_ddl:.3} should dwarf SDL {f_sdl:.3}"
    );
}
