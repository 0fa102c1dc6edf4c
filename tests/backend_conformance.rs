//! Kernel conformance: the DFT executor runs each leaf and twiddle pass
//! on the kernel measured fastest for its size on the host (DESIGN.md
//! §11) — the vector network of `ddl-backend-simd` for 32- and 64-point
//! leaves and for twiddle passes on an AVX2+FMA host, the scalar
//! codelets of `ddl-kernels` everywhere else. Every plan shape the
//! planner emits must agree with [`scalar_walk`], a walk of the same
//! tree that runs only the scalar kernels.
//!
//! The vector kernels may differ from the scalar codelets only by
//! floating-point reassociation, bounded here by a ulp-scaled
//! per-element tolerance, not a loose RMS norm. The suite sweeps
//!
//! * sizes `2^1 .. 2^12` (and a larger spot check) under both layout
//!   regimes — DDL planning with reorganization nodes and SDL static
//!   layouts — in both directions,
//! * misaligned views: odd element bases (16-byte but not 32-byte
//!   aligned, exercising the unaligned SIMD load/store paths) with
//!   non-unit input/output strides,
//! * random planner configurations via proptest (leaf caps below,
//!   at and above the SIMD profitability threshold),
//! * and pins which kernel a single leaf runs at each size.
//!
//! When `DDL_CONFORMANCE_REPORT` names a file, every checked case
//! appends one JSON line (`backend` — the kernel set —, `isa`, `n`,
//! `regime`, view geometry, worst ulp distance): the CI conformance
//! artifact.

use dynamic_data_layout::core::kernel_set;
use dynamic_data_layout::kernels::{apply_twiddles, dft_leaf_strided};
use dynamic_data_layout::num::TwiddleTable;
use dynamic_data_layout::prelude::*;
use proptest::prelude::*;
use std::io::Write as _;

/// Deterministic, direction-asymmetric test signal.
fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(seed | 1) as f64;
            Complex64::new((t * 1e-9).sin(), (t * 3e-9).cos() - 0.25)
        })
        .collect()
}

/// The DFT executor's arithmetic on the scalar kernels alone: per split,
/// stage 1 into an interleaved intermediate `t[j1·n2 + i2]`, the twiddle
/// pass, then stage 2 reading `t` at unit stride (the scheme in
/// `ddl_core::dft`). `reorg` flags only move points, so the walk
/// ignores them.
#[allow(clippy::too_many_arguments)]
fn scalar_walk(
    tree: &Tree,
    dir: Direction,
    x: &[Complex64],
    x_base: usize,
    x_stride: usize,
    y: &mut [Complex64],
    y_base: usize,
    y_stride: usize,
) {
    match tree {
        Tree::Leaf { n, .. } => dft_leaf_strided(*n, dir, x, x_base, x_stride, y, y_base, y_stride),
        Tree::Split { left, right, .. } => {
            let (n1, n2) = (left.size(), right.size());
            let mut t = vec![Complex64::ZERO; n1 * n2];
            for i2 in 0..n2 {
                let base = x_base + i2 * x_stride;
                scalar_walk(left, dir, x, base, n2 * x_stride, &mut t, i2, n2);
            }
            apply_twiddles(&mut t, 0, &TwiddleTable::new(n2, n1, dir));
            for j1 in 0..n1 {
                let base = y_base + j1 * y_stride;
                scalar_walk(right, dir, &t, n2 * j1, 1, y, base, n1 * y_stride);
            }
        }
    }
}

/// Distance in units-in-the-last-place between two finite doubles
/// (symmetric, sign-aware: values straddling zero are "far").
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    // Map the f64 bit pattern onto a monotone integer line.
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(1).wrapping_sub(bits).wrapping_sub(1)
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// Points whose magnitude is below this fraction of the output's largest
/// component sit near a cancellation, where their own ulp spacing is
/// meaninglessly fine; they are measured in ulps of that largest
/// component instead, the scale a DFT's rounding error follows.
const TINY: f64 = 1e-3;

/// The conformance bound: the vector kernels may reassociate (FMA
/// contraction, vector-lane reordering), which perturbs each output
/// point by a few ulps per arithmetic level. The bound is derived per
/// size by the `ddl-cert` error-bound pass from the actual generated
/// codelet DAGs (96 ulps at n=2 up to 945 at n=4096).
fn assert_close(label: &str, got: &[Complex64], oracle: &[Complex64]) -> u64 {
    let max_ulps = dynamic_data_layout::analyze::static_ulp_bound(got.len());
    let scale = oracle
        .iter()
        .map(|c| c.re.abs().max(c.im.abs()))
        .fold(0.0, f64::max);
    let mut worst = 0u64;
    for (i, (g, o)) in got.iter().zip(oracle.iter()).enumerate() {
        for (gv, ov) in [(g.re, o.re), (g.im, o.im)] {
            let d = if ov.abs() < TINY * scale {
                ((gv - ov).abs() / (scale * f64::EPSILON)).ceil() as u64
            } else {
                ulp_distance(gv, ov)
            };
            worst = worst.max(d);
            assert!(
                d <= max_ulps,
                "{label}: kernel set {} diverges from the scalar walk at point {i}: \
                 {gv:e} vs {ov:e} ({d} ulps > {max_ulps})",
                kernel_set()
            );
        }
    }
    worst
}

/// Appends one JSON line per checked case when
/// `DDL_CONFORMANCE_REPORT` is set (the CI artifact).
fn report_case(n: usize, regime: &str, geometry: &str, worst_ulps: u64) {
    let Ok(path) = std::env::var("DDL_CONFORMANCE_REPORT") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"backend\":\"{}\",\"isa\":\"{}\",\"n\":{},\"regime\":\"{}\",\"geometry\":\"{}\",\"worst_ulps\":{},\"ok\":true}}\n",
        kernel_set(),
        ddl_backend_simd::active_isa(),
        n,
        regime,
        geometry,
        worst_ulps
    );
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path);
    if let Ok(mut f) = file {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Plans `n` under `cfg` and pins the plan's output against the scalar
/// walk of the same tree on a contiguous view.
fn check_contiguous(n: usize, cfg: &PlannerConfig, dir: Direction, regime: &str) {
    let outcome = try_plan_dft(n, cfg).unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));
    let plan =
        DftPlan::new(outcome.tree.clone(), dir).unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));

    let x = signal(n, 0x5eed ^ n as u64);
    let mut oracle = vec![Complex64::ZERO; n];
    let mut got = vec![Complex64::ZERO; n];
    scalar_walk(&outcome.tree, dir, &x, 0, 1, &mut oracle, 0, 1);
    plan.try_execute(&x, &mut got).unwrap();

    let label = format!("{regime} n={n} {dir:?}");
    let worst = assert_close(&label, &got, &oracle);
    report_case(n, regime, "base=0 stride=1", worst);
}

/// The same comparison on misaligned strided views: odd bases and
/// non-unit strides on both sides.
#[allow(clippy::too_many_arguments)]
fn check_strided(
    n: usize,
    cfg: &PlannerConfig,
    dir: Direction,
    in_base: usize,
    in_stride: usize,
    out_base: usize,
    out_stride: usize,
    regime: &str,
) {
    let outcome = try_plan_dft(n, cfg).unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));
    let plan =
        DftPlan::new(outcome.tree.clone(), dir).unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));

    let in_len = in_base + (n - 1) * in_stride + 1;
    let out_len = out_base + (n - 1) * out_stride + 1;
    let mut input = vec![Complex64::new(7.0, -7.0); in_len];
    let x = signal(n, 0xa11 ^ n as u64);
    for (i, &v) in x.iter().enumerate() {
        input[in_base + i * in_stride] = v;
    }

    let sentinel = Complex64::new(-99.0, 99.0);
    let mut oracle = vec![sentinel; out_len];
    scalar_walk(
        &outcome.tree,
        dir,
        &input,
        in_base,
        in_stride,
        &mut oracle,
        out_base,
        out_stride,
    );
    let mut got = vec![sentinel; out_len];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    let views = DftViews::new(&input, &mut got)
        .input_at(in_base, in_stride)
        .output_at(out_base, out_stride);
    plan.try_run(views, &mut scratch, &mut NullSink)
        .unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));

    // Gather the strided outputs; everything off-stride must be the
    // untouched sentinel (no kernel may write outside its view).
    let on_stride: Vec<usize> = (0..n).map(|i| out_base + i * out_stride).collect();
    let on_oracle: Vec<Complex64> = on_stride.iter().map(|&i| oracle[i]).collect();
    let on_got: Vec<Complex64> = on_stride.iter().map(|&i| got[i]).collect();
    for (idx, v) in got.iter().enumerate() {
        if !on_stride.contains(&idx) {
            assert_eq!(
                *v, sentinel,
                "{regime} n={n}: the executor wrote outside its strided view at {idx}"
            );
        }
    }

    let label = format!(
        "{regime} n={n} {dir:?} view in=({in_base},{in_stride}) out=({out_base},{out_stride})"
    );
    let worst = assert_close(&label, &on_got, &on_oracle);
    report_case(
        n,
        regime,
        &format!(
            "in_base={in_base} in_stride={in_stride} out_base={out_base} out_stride={out_stride}"
        ),
        worst,
    );
}

fn regimes() -> Vec<(&'static str, PlannerConfig)> {
    vec![
        ("ddl", PlannerConfig::ddl_analytical()),
        ("sdl", PlannerConfig::sdl_analytical()),
        // A tiny cache forces reorganization nodes high in the tree.
        (
            "ddl-smallcache",
            PlannerConfig {
                cache_points: 64,
                ..PlannerConfig::ddl_paper_analytical()
            },
        ),
        // Leaf cap below the SIMD profitability threshold: every leaf
        // runs the scalar codelets and only the twiddle passes can take
        // the vector multiply, which must still conform.
        (
            "ddl-tinyleaf",
            PlannerConfig {
                max_leaf: 8,
                ..PlannerConfig::ddl_analytical()
            },
        ),
    ]
}

#[test]
fn all_backends_match_scalar_across_sizes_and_regimes() {
    for (regime, cfg) in regimes() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            for dir in [Direction::Forward, Direction::Inverse] {
                check_contiguous(n, &cfg, dir, regime);
            }
        }
    }
}

#[test]
fn simd_matches_scalar_at_transition_sizes() {
    // Around the profitability threshold and the fused-stage boundaries
    // of the AVX2 kernel, forward and inverse, at a size large enough
    // that ctddl reorganization appears with the default config.
    let cfg = PlannerConfig::ddl_analytical();
    for n in [1usize << 13, 1 << 14, 1 << 16] {
        for dir in [Direction::Forward, Direction::Inverse] {
            check_contiguous(n, &cfg, dir, "ddl-large");
        }
    }
}

#[test]
fn backends_match_on_misaligned_strided_views() {
    // Odd bases: 16-byte-aligned but 32-byte-misaligned starts, the
    // adversarial case for 256-bit vector loads. Strides 2 and 3 cover
    // even and odd element spacing.
    for (regime, cfg) in [
        ("ddl", PlannerConfig::ddl_analytical()),
        ("sdl", PlannerConfig::sdl_analytical()),
    ] {
        for n in [8usize, 64, 256, 1024] {
            check_strided(n, &cfg, Direction::Forward, 3, 2, 5, 3, regime);
            check_strided(n, &cfg, Direction::Inverse, 1, 3, 7, 2, regime);
        }
    }
}

/// Which kernel a leaf runs is the host's and the leaf size's choice:
/// on an AVX2+FMA host, 32- and 64-point leaves run the vector network
/// and 16-point leaves the scalar codelets; on any other host, every
/// leaf runs the scalar codelets. A single-leaf plan's output equals
/// that kernel's bit for bit, on a unit-stride view and on an
/// odd-base, stride-3 one.
#[test]
fn default_plan_runs_the_host_kernel_for_each_leaf_size() {
    let vector = ddl_backend_simd::active_isa() == "avx2";
    for (n, vector_size) in [(16usize, false), (32, true), (64, true)] {
        let simd = vector && vector_size;
        for dir in [Direction::Forward, Direction::Inverse] {
            let plan = DftPlan::new(Tree::leaf(n), dir).unwrap();
            for (base, stride) in [(0usize, 1usize), (1, 3)] {
                let len = base + (n - 1) * stride + 1;
                let x = signal(len, 0x91 ^ n as u64);
                let mut got = vec![Complex64::ZERO; len];
                let views = DftViews::new(&x, &mut got)
                    .input_at(base, stride)
                    .output_at(base, stride);
                plan.try_run(views, &mut [], &mut NullSink).unwrap();
                let mut want = vec![Complex64::ZERO; len];
                if simd {
                    assert!(ddl_backend_simd::dft_leaf_strided_simd(
                        n, dir, &x, base, stride, &mut want, base, stride
                    ));
                } else {
                    dft_leaf_strided(n, dir, &x, base, stride, &mut want, base, stride);
                }
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                        "n={n} {dir:?} view ({base},{stride}) at {j}: {g:?} vs the {} kernel's {w:?}",
                        if simd { "vector" } else { "scalar" }
                    );
                }
            }
        }
    }
}

#[test]
fn simd_isa_is_one_of_the_known_lowerings() {
    let isa = ddl_backend_simd::active_isa();
    assert!(matches!(isa, "avx2" | "portable"));
    let expect = if isa == "avx2" { "avx2" } else { "scalar" };
    assert_eq!(kernel_set(), expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random planner configuration x view geometry: the conformance
    /// bound holds for any tree the planner can emit, on any supported
    /// view.
    #[test]
    fn random_plans_conform_on_random_views(
        log_n in 1u32..=10,
        max_leaf in prop::sample::select(vec![4usize, 16, 32, 64]),
        ddl in any::<bool>(),
        cache_points in prop::sample::select(vec![64usize, 1024, 16384]),
        in_base in 0usize..4,
        in_stride in 1usize..4,
        out_base in 0usize..4,
        out_stride in 1usize..4,
        inverse in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let base = if ddl {
            PlannerConfig::ddl_paper_analytical()
        } else {
            PlannerConfig::sdl_analytical()
        };
        let cfg = PlannerConfig { max_leaf, cache_points, ..base };
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        check_strided(n, &cfg, dir, in_base, in_stride, out_base, out_stride, "prop");
    }
}
