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

use dynamic_data_layout::cachesim::{CountingTracer, MemoryTracer};
use dynamic_data_layout::core::obs::Candidate;
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
                tiny_threshold(PlannerConfig::ddl_paper_analytical()),
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
            &tiny_threshold(PlannerConfig::ddl_paper_analytical()),
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

/// The butterflies of the leaf-at-a-time executor: the index loop the
/// WHT kernels ran before they shared one slice loop.
fn index_loop_fwht(data: &mut [f64]) {
    let n = data.len();
    let mut span = 1;
    while span < n {
        for start in (0..n).step_by(2 * span) {
            for k in 0..span {
                let a = data[start + k];
                let b = data[start + k + span];
                data[start + k] = a + b;
                data[start + k + span] = a - b;
            }
        }
        span *= 2;
    }
}

/// The WHT executor one leaf at a time: stage A then stage B at every
/// node, each leaf gathered and transformed by [`index_loop_fwht`]. A
/// `reorg` flag only moves points, so the walk ignores it.
fn leaf_at_a_time_wht(tree: &Tree, data: &mut [f64], base: usize, stride: usize) {
    match tree {
        Tree::Leaf { n, .. } => {
            let mut leaf: Vec<f64> = (0..*n).map(|i| data[base + i * stride]).collect();
            index_loop_fwht(&mut leaf);
            for (i, v) in leaf.into_iter().enumerate() {
                data[base + i * stride] = v;
            }
        }
        Tree::Split { left, right, .. } => {
            let (n1, n2) = (left.size(), right.size());
            for i1 in 0..n1 {
                leaf_at_a_time_wht(right, data, base + i1 * n2 * stride, stride);
            }
            for i2 in 0..n2 {
                leaf_at_a_time_wht(left, data, base + i2 * stride, n2 * stride);
            }
        }
    }
}

/// Lane batches and in-place unit-stride leaves change how the WHT
/// executor walks memory, never a single bit of its output: every path
/// (batched stage B, contiguous leaves, `n2 < 8`, reorganized and split
/// left children, strided inner nodes, leaves above `MAX_LEAF_WHT`, a
/// strided root view) matches the leaf-at-a-time walk exactly.
#[test]
fn wht_execution_is_bit_identical_to_leaf_at_a_time() {
    let assert_bits = |got: &[f64], want: &[f64], label: &str| {
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label} at {j}: {g} vs {w}");
        }
    };
    for expr in [
        "split(16, split(64, 64))",
        "split(64, 64)",
        "split(64, 4)",
        "split(ddl(32), 32)",
        "split(split(64, 64), 16)",
        "splitddl(splitddl(8, 8), split(4, 4))",
        "split(128, 64)",
    ] {
        let plan = WhtPlan::from_expr(expr).unwrap();
        let x = real_signal(plan.n(), 7);
        let mut got = x.clone();
        plan.try_execute(&mut got).unwrap();
        let mut want = x;
        leaf_at_a_time_wht(plan.tree(), &mut want, 0, 1);
        assert_bits(&got, &want, expr);
    }

    let plan = WhtPlan::from_expr("split(16, split(64, 64))").unwrap();
    let (base, stride) = (1, 3);
    let x = real_signal(base + plan.n() * stride + 1, 11);
    let mut got = x.clone();
    let view = WhtView::new(&mut got).at(base, stride);
    plan.try_run(view, &mut [], &mut NullSink).unwrap();
    let mut want = x;
    leaf_at_a_time_wht(plan.tree(), &mut want, base, stride);
    assert_bits(&got, &want, "strided root view");
}

/// A counting tracer as an observer: its trace half turns on the traced
/// executor, which keeps the paper's stage-2 stores.
#[derive(Default)]
struct Counting(CountingTracer);

impl MemoryTracer for Counting {
    fn read(&mut self, addr: u64, bytes: u32) {
        self.0.read(addr, bytes);
    }

    fn write(&mut self, addr: u64, bytes: u32) {
        self.0.write(addr, bytes);
    }
}

impl Sink for Counting {
    const ENABLED: bool = false;

    fn counter(&mut self, _counter: Counter, _delta: u64) {}

    fn stage(&mut self, _stage: Stage, _nanos: u64, _points: u64) {}

    fn candidate(&mut self, _candidate: Candidate) {}
}

/// The whole output buffer of one run reading `x[1 + 3i]` and writing
/// `y[1 + 2j]`, with output and scratch NaN-filled beforehand.
fn strided_dft_bits<O: Observer>(plan: &DftPlan, x: &[Complex64], obs: &mut O) -> Vec<(u64, u64)> {
    let nan = Complex64::new(f64::NAN, f64::NAN);
    let mut y = vec![nan; 2 + 2 * plan.n()];
    let mut scratch = vec![nan; plan.scratch_len()];
    let views = DftViews::new(x, &mut y).input_at(1, 3).output_at(1, 2);
    plan.try_run(views, &mut scratch, obs).unwrap();
    for j in 0..plan.n() {
        assert!(y[1 + 2 * j].re.is_finite(), "{} at {j}", plan.tree());
    }
    y.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// An untraced run stores a reorganizing split's stage 2 contiguously
/// into its spent `t2` and transposes that into the output; a traced run
/// stores it at stride `n1`. Both write the same bits, and no others, on
/// every tree of `tests/stale_scratch.rs` and the planner's 2^16 DDL
/// tree, in both directions, on offset and strided views.
#[test]
fn dft_untraced_execution_is_bit_identical_to_the_traced_schedule() {
    let mut trees: Vec<Tree> = [
        "ct(16, ct(8, 8))",
        "ct(ct(4, 4), ct(4, 8))",
        "ctddl(16, 16)",
        "ct(ddl(8), ct(8, 4))",
        "ct(ctddl(4, 8), ddl(8))",
        "ctddl(ctddl(8, 8), ct(4, 4))",
        "ctddl(ctddl(ctddl(ddl(4), 4), ddl(4)), ddl(8))",
        "ctddl(ddl(16), ctddl(ddl(8), ctddl(4, 4)))",
        "ctddl(ddl(6), ct(5, 4))",
    ]
    .iter()
    .map(|e| parse_tree(e).unwrap())
    .collect();
    let planned = try_plan_dft(1 << 16, &PlannerConfig::ddl_analytical())
        .unwrap()
        .tree;
    assert!(planned.reorg(), "{planned}");
    trees.push(planned);
    for tree in trees {
        for dir in [Direction::Forward, Direction::Inverse] {
            let plan = DftPlan::new(tree.clone(), dir).unwrap();
            let x = signal(3 * plan.n(), 5);
            let mut traced = Counting::default();
            let want = strided_dft_bits(&plan, &x, &mut traced);
            assert!(traced.0.total() > 0, "{tree}: nothing traced");
            let got = strided_dft_bits(&plan, &x, &mut NullSink);
            assert!(got == want, "{tree} {dir:?}: untraced output differs");
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
            PlannerConfig::ddl_paper_analytical()
        } else {
            PlannerConfig::sdl_analytical()
        };
        let cfg = PlannerConfig { cache_points, max_leaf, ..base };
        check_dft_plan(n, &cfg, Direction::Forward, "random-config");
        check_wht_plan(n, &cfg, "random-config");
    }
}
