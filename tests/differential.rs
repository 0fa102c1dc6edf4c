//! Differential tests: every plan the planner can emit — any cost
//! backend, either search strategy, reorganization forced on or off —
//! must compute exactly the transform of the reference implementations.
//!
//! The planner's output space is exercised three ways: exhaustive sweeps
//! over sizes `2^1 .. 2^16` with the deterministic analytical backend
//! (under both a default and a tiny reorg threshold, so trees with and
//! without `ctddl` nodes both appear), smaller sweeps through the
//! measured and simulated backends (whose candidate pricing paths differ
//! end to end), and property-based random planner configurations.
//!
//! References: the O(n^2) naive DFT where affordable, the iterative
//! radix-2 FFT above it, and the in-place fast WHT.

use dynamic_data_layout::kernels::iterative::fft_radix2;
use dynamic_data_layout::kernels::naive_dft;
use dynamic_data_layout::kernels::wht::fwht_inplace;
use dynamic_data_layout::num::relative_rms_error;
use dynamic_data_layout::prelude::*;
use proptest::prelude::*;
// Both preludes export a name `Strategy` (the planner's search strategy
// vs proptest's trait); the glob collision silently imports neither, so
// bring the planner's enum in explicitly.
use dynamic_data_layout::core::planner::Strategy;

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(seed | 1) as f64;
            Complex64::new((t * 1e-9).sin(), (t * 3e-9).cos())
        })
        .collect()
}

fn real_signal(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(seed | 1) % 997) as f64 / 31.0 - 16.0)
        .collect()
}

/// Reference DFT: naive where it is cheap enough to be the gold standard,
/// the radix-2 FFT (itself pinned against naive elsewhere) above that.
fn dft_reference(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    if x.len() <= 512 {
        naive_dft(x, dir)
    } else {
        fft_radix2(x, dir)
    }
}

fn wht_reference(x: &[f64]) -> Vec<f64> {
    let mut data = x.to_vec();
    fwht_inplace(&mut data);
    data
}

/// Plans with `cfg`, executes, and compares against the references.
fn check_dft_plan(n: usize, cfg: &PlannerConfig, dir: Direction, label: &str) {
    let outcome = try_plan_dft(n, cfg).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
    let plan = DftPlan::new(outcome.tree.clone(), dir)
        .unwrap_or_else(|e| panic!("{label} n={n}: invalid tree {}: {e}", outcome.tree));
    let x = signal(n, n as u64);
    let mut y = vec![Complex64::ZERO; n];
    plan.try_execute(&x, &mut y).unwrap();
    let want = dft_reference(&x, dir);
    let err = relative_rms_error(&y, &want);
    assert!(
        err < 1e-9,
        "{label} n={n} {dir:?}: tree {} err {err:e}",
        outcome.tree
    );
}

fn check_wht_plan(n: usize, cfg: &PlannerConfig, label: &str) {
    let outcome = try_plan_wht(n, cfg).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
    let plan = WhtPlan::new(outcome.tree.clone())
        .unwrap_or_else(|e| panic!("{label} n={n}: invalid tree: {e}"));
    let x = real_signal(n, n as u64);
    let mut data = x.clone();
    plan.try_execute(&mut data).unwrap();
    let want = wht_reference(&x);
    for j in 0..n {
        assert!(
            (data[j] - want[j]).abs() < 1e-7 * want[j].abs().max(1.0),
            "{label} n={n} at {j}: got {} want {}",
            data[j],
            want[j]
        );
    }
}

/// A config whose tiny reorg threshold makes the DDL search consider
/// reorganization at every interior node — the opposite extreme of the
/// cache-sized default.
fn tiny_threshold(cfg: PlannerConfig) -> PlannerConfig {
    PlannerConfig {
        cache_points: 4,
        ..cfg
    }
}

#[test]
fn analytical_plans_match_references_across_the_full_size_range() {
    for log_n in 1..=16u32 {
        let n = 1usize << log_n;
        for (cfg, label) in [
            (PlannerConfig::sdl_analytical(), "sdl-analytical"),
            (PlannerConfig::ddl_analytical(), "ddl-analytical"),
            (
                tiny_threshold(PlannerConfig::ddl_analytical()),
                "ddl-analytical-tiny-threshold",
            ),
        ] {
            check_dft_plan(n, &cfg, Direction::Forward, label);
            check_wht_plan(n, &cfg, label);
        }
    }
}

#[test]
fn analytical_plans_match_references_in_the_inverse_direction() {
    for log_n in [3u32, 8, 12] {
        let n = 1usize << log_n;
        check_dft_plan(
            n,
            &PlannerConfig::ddl_analytical(),
            Direction::Inverse,
            "ddl-analytical-inverse",
        );
        check_dft_plan(
            n,
            &tiny_threshold(PlannerConfig::ddl_analytical()),
            Direction::Inverse,
            "ddl-tiny-inverse",
        );
    }
}

#[test]
fn measured_plans_match_references() {
    // Tiny floors: the measured backend's *control flow* (time, compare,
    // recurse) is under test, not the quality of its timing.
    let measured = |strategy| PlannerConfig {
        backend: CostBackend::Measured {
            min_secs: 1e-6,
            min_reps: 1,
        },
        ..match strategy {
            Strategy::Sdl => PlannerConfig::sdl_measured(),
            Strategy::Ddl => PlannerConfig::ddl_measured(),
        }
    };
    for log_n in 1..=10u32 {
        let n = 1usize << log_n;
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            let cfg = measured(strategy);
            check_dft_plan(n, &cfg, Direction::Forward, "measured");
            check_wht_plan(n, &cfg, "measured");
            let tiny = tiny_threshold(cfg);
            check_dft_plan(n, &tiny, Direction::Forward, "measured-tiny-threshold");
            check_wht_plan(n, &tiny, "measured-tiny-threshold");
        }
    }
}

#[test]
fn simulated_plans_match_references() {
    let cache = CacheConfig::paper_default(64);
    for log_n in 1..=8u32 {
        let n = 1usize << log_n;
        for (cfg, label) in [
            (PlannerConfig::sdl_simulated(cache, 16), "sdl-simulated"),
            (PlannerConfig::ddl_simulated(cache, 16), "ddl-simulated"),
            (
                tiny_threshold(PlannerConfig::ddl_simulated(cache, 16)),
                "ddl-simulated-tiny-threshold",
            ),
        ] {
            check_dft_plan(n, &cfg, Direction::Forward, label);
            check_wht_plan(n, &cfg, label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any planner configuration — random reorg threshold, leaf cap and
    /// strategy — emits a plan that computes the transform.
    #[test]
    fn random_planner_configs_emit_correct_plans(
        log_n in 1u32..=12,
        cache_points in prop::sample::select(vec![4usize, 64, 1024, 16384]),
        max_leaf in prop::sample::select(vec![2usize, 4, 8, 32, 64]),
        ddl in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let base = if ddl {
            PlannerConfig::ddl_analytical()
        } else {
            PlannerConfig::sdl_analytical()
        };
        let cfg = PlannerConfig { cache_points, max_leaf, ..base };
        check_dft_plan(n, &cfg, Direction::Forward, "random-config");
        check_wht_plan(n, &cfg, "random-config");
    }
}
