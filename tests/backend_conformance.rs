//! Cross-backend conformance: every execution backend must agree with
//! the `Scalar` oracle on every plan shape the planner emits.
//!
//! The tentpole contract (DESIGN.md §11): `Simd` is an alternative
//! lowering of the same verified codelet DAGs, so its output may differ
//! from the generated scalar codelets only by
//! floating-point reassociation — bounded here by a ulp-scaled
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
//! * the `DDL_BACKEND` environment selection contract used by the CI
//!   forced-path jobs.
//!
//! When `DDL_CONFORMANCE_REPORT` names a file, every checked case
//! appends one JSON line (`backend`, `isa`, `n`, `regime`, view
//! geometry, worst ulp distance) — CI uploads this as the conformance
//! artifact.

use dynamic_data_layout::core::{simd_active_isa, BackendKind};
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

/// Magnitudes below this are compared absolutely instead of in ulps:
/// near-cancellation outputs land denormal-adjacent where ulp spacing
/// is meaninglessly fine.
const TINY: f64 = 1e-9;

/// The conformance bound: backends may reassociate (FMA contraction,
/// vector-lane reordering), which perturbs each output point by a few
/// ulps per arithmetic level. Historically this was a flat 4096 ulps
/// for every size; the bound is now derived per size by the `ddl-cert`
/// error-bound pass from the actual generated codelet DAGs (96 ulps at
/// n=2 up to 945 at n=4096), so a regression that would have hidden
/// under the folklore number now fails the suite.
fn assert_close(kind: BackendKind, label: &str, got: &[Complex64], oracle: &[Complex64]) -> u64 {
    let max_ulps = dynamic_data_layout::analyze::static_ulp_bound(got.len());
    let mut worst = 0u64;
    for (i, (g, o)) in got.iter().zip(oracle.iter()).enumerate() {
        for (gv, ov) in [(g.re, o.re), (g.im, o.im)] {
            if (gv - ov).abs() < TINY {
                continue;
            }
            let d = ulp_distance(gv, ov);
            worst = worst.max(d);
            assert!(
                d <= max_ulps,
                "{label}: backend {kind} diverges from scalar oracle at point {i}: \
                 {gv:e} vs {ov:e} ({d} ulps > {max_ulps})"
            );
        }
    }
    worst
}

/// Appends one JSON line per checked case when
/// `DDL_CONFORMANCE_REPORT` is set (the CI artifact).
fn report_case(backend: BackendKind, n: usize, regime: &str, geometry: &str, worst_ulps: u64) {
    let Ok(path) = std::env::var("DDL_CONFORMANCE_REPORT") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"backend\":\"{}\",\"isa\":\"{}\",\"n\":{},\"regime\":\"{}\",\"geometry\":\"{}\",\"worst_ulps\":{},\"ok\":true}}\n",
        backend,
        simd_active_isa(),
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

/// Plans `n` under `cfg`, runs the same tree through the scalar oracle
/// and `kind`, and pins agreement on a contiguous view.
fn check_contiguous(
    n: usize,
    cfg: &PlannerConfig,
    dir: Direction,
    kind: BackendKind,
    regime: &str,
) {
    let outcome = try_plan_dft(n, cfg).unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));
    let oracle_plan = DftPlan::with_backend(outcome.tree.clone(), dir, BackendKind::Scalar)
        .unwrap_or_else(|e| panic!("{regime} n={n} scalar: {e}"));
    let plan = DftPlan::with_backend(outcome.tree, dir, kind)
        .unwrap_or_else(|e| panic!("{regime} n={n} {kind}: {e}"));
    assert_eq!(plan.backend(), kind);

    let x = signal(n, 0x5eed ^ n as u64);
    let mut oracle = vec![Complex64::ZERO; n];
    let mut got = vec![Complex64::ZERO; n];
    oracle_plan.try_execute(&x, &mut oracle).unwrap();
    plan.try_execute(&x, &mut got).unwrap();

    let label = format!("{regime} n={n} {dir:?}");
    let worst = assert_close(kind, &label, &got, &oracle);
    report_case(kind, n, regime, "base=0 stride=1", worst);
}

/// Same tree through oracle and `kind`, but on misaligned strided
/// views: odd bases and non-unit strides on both sides.
#[allow(clippy::too_many_arguments)]
fn check_strided(
    n: usize,
    cfg: &PlannerConfig,
    dir: Direction,
    kind: BackendKind,
    in_base: usize,
    in_stride: usize,
    out_base: usize,
    out_stride: usize,
    regime: &str,
) {
    let outcome = try_plan_dft(n, cfg).unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));
    let oracle_plan = DftPlan::with_backend(outcome.tree.clone(), dir, BackendKind::Scalar)
        .unwrap_or_else(|e| panic!("{regime} n={n} scalar: {e}"));
    let plan = DftPlan::with_backend(outcome.tree, dir, kind)
        .unwrap_or_else(|e| panic!("{regime} n={n} {kind}: {e}"));

    let in_len = in_base + (n - 1) * in_stride + 1;
    let out_len = out_base + (n - 1) * out_stride + 1;
    let mut input = vec![Complex64::new(7.0, -7.0); in_len];
    let x = signal(n, 0xa11 ^ n as u64);
    for (i, &v) in x.iter().enumerate() {
        input[in_base + i * in_stride] = v;
    }

    let sentinel = Complex64::new(-99.0, 99.0);
    let run = |p: &DftPlan| -> Vec<Complex64> {
        let mut out = vec![sentinel; out_len];
        let mut scratch = vec![Complex64::ZERO; p.scratch_len()];
        let views = DftViews::new(&input, &mut out)
            .input_at(in_base, in_stride)
            .output_at(out_base, out_stride);
        p.try_run(views, &mut scratch, &mut NullSink)
            .unwrap_or_else(|e| panic!("{regime} n={n}: {e}"));
        out
    };

    let oracle = run(&oracle_plan);
    let got = run(&plan);

    // Gather the strided outputs; everything off-stride must be the
    // untouched sentinel (no backend may write outside its view).
    let mut on_oracle = Vec::with_capacity(n);
    let mut on_got = Vec::with_capacity(n);
    let stride_hits: std::collections::HashSet<usize> =
        (0..n).map(|i| out_base + i * out_stride).collect();
    for i in 0..n {
        on_oracle.push(oracle[out_base + i * out_stride]);
        on_got.push(got[out_base + i * out_stride]);
    }
    for (idx, v) in got.iter().enumerate() {
        if !stride_hits.contains(&idx) {
            assert_eq!(
                *v, sentinel,
                "{regime} n={n} {kind}: backend wrote outside its strided view at {idx}"
            );
        }
    }

    let label = format!(
        "{regime} n={n} {dir:?} view in=({in_base},{in_stride}) out=({out_base},{out_stride})"
    );
    let worst = assert_close(kind, &label, &on_got, &on_oracle);
    report_case(
        kind,
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
                ..PlannerConfig::ddl_analytical()
            },
        ),
        // Leaf cap below the SIMD profitability threshold: every leaf
        // takes the per-leaf scalar completion path inside the SIMD
        // backend, which must still conform.
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
                check_contiguous(n, &cfg, dir, BackendKind::Simd, regime);
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
            check_contiguous(n, &cfg, dir, BackendKind::Simd, "ddl-large");
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
            let kind = BackendKind::Simd;
            check_strided(n, &cfg, Direction::Forward, kind, 3, 2, 5, 3, regime);
            check_strided(n, &cfg, Direction::Inverse, kind, 1, 3, 7, 2, regime);
        }
    }
}

#[test]
fn selected_backend_honors_ddl_backend_env() {
    // The CI forced-path jobs run this suite with DDL_BACKEND set to
    // each label; in those processes the cached selection must be the
    // forced backend. Unset (the default dev run) must mean Scalar.
    let expect = match std::env::var("DDL_BACKEND") {
        Ok(v) => BackendKind::parse(v.trim()).unwrap_or(BackendKind::Scalar),
        Err(_) => BackendKind::Scalar,
    };
    assert_eq!(BackendKind::selected(), expect);
    // And the default constructor routes through the selection.
    let outcome = try_plan_dft(64, &PlannerConfig::ddl_analytical()).unwrap();
    let plan = DftPlan::new(outcome.tree, Direction::Forward).unwrap();
    assert_eq!(plan.backend(), expect);
}

#[test]
fn simd_isa_is_one_of_the_known_lowerings() {
    assert!(matches!(simd_active_isa(), "avx2" | "neon" | "portable"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random planner configuration x view geometry: the SIMD
    /// conformance bound holds for any tree the planner can emit, on
    /// any supported view.
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
            PlannerConfig::ddl_analytical()
        } else {
            PlannerConfig::sdl_analytical()
        };
        let cfg = PlannerConfig { max_leaf, cache_points, ..base };
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        check_strided(n, &cfg, dir, BackendKind::Simd, in_base, in_stride, out_base, out_stride, "prop");
    }
}
