//! Property-based integration tests: any valid factorization tree, with
//! any combination of DDL annotations, must compute the exact same
//! transform.

use dynamic_data_layout::kernels::iterative::fft_radix2;
use dynamic_data_layout::kernels::naive_wht;
use dynamic_data_layout::num::relative_rms_error;
use dynamic_data_layout::prelude::*;
use proptest::prelude::*;
// Both preludes export a name `Strategy` (the planner's search strategy
// vs proptest's trait); the glob collision silently imports neither, so
// bring the trait in explicitly.
use proptest::strategy::Strategy as _;

/// Random factorization tree of exactly `2^p` points with random reorg
/// flags and power-of-two leaves <= 64.
fn arb_tree(p: u32) -> BoxedStrategy<Tree> {
    if p <= 6 {
        // small enough to be a leaf; may still split
        if p <= 1 {
            return (any::<bool>())
                .prop_map(move |r| Tree::Leaf {
                    n: 1 << p,
                    reorg: r,
                })
                .boxed();
        }
        prop_oneof![
            any::<bool>().prop_map(move |r| Tree::Leaf {
                n: 1 << p,
                reorg: r
            }),
            (1..p, any::<bool>()).prop_flat_map(move |(a, reorg)| {
                (arb_tree(a), arb_tree(p - a)).prop_map(move |(l, r)| Tree::Split {
                    left: Box::new(l),
                    right: Box::new(r),
                    reorg,
                })
            }),
        ]
        .boxed()
    } else {
        (1..p, any::<bool>())
            .prop_flat_map(move |(a, reorg)| {
                (arb_tree(a), arb_tree(p - a)).prop_map(move |(l, r)| Tree::Split {
                    left: Box::new(l),
                    right: Box::new(r),
                    reorg,
                })
            })
            .boxed()
    }
}

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(seed | 1) as f64;
            Complex64::new((t * 1e-9).sin(), (t * 3e-9).cos())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_tree_computes_the_dft(tree in arb_tree(12), seed in 0u64..1000) {
        prop_assert!(tree.validate().is_ok());
        let n = tree.size();
        let plan = DftPlan::new(tree.clone(), Direction::Forward).unwrap();
        let x = signal(n, seed);
        let mut y = vec![Complex64::ZERO; n];
        plan.try_execute(&x, &mut y).unwrap();
        let want = fft_radix2(&x, Direction::Forward);
        let err = relative_rms_error(&y, &want);
        prop_assert!(err < 1e-9, "tree {} err {err:e}", tree);
    }

    #[test]
    fn reorg_flags_never_change_dft_results(tree in arb_tree(10), seed in 0u64..1000) {
        let n = tree.size();
        let with = DftPlan::new(tree.clone(), Direction::Forward).unwrap();
        let without = DftPlan::new(tree.without_reorgs(), Direction::Forward).unwrap();
        let x = signal(n, seed);
        let mut a = vec![Complex64::ZERO; n];
        let mut b = vec![Complex64::ZERO; n];
        with.try_execute(&x, &mut a).unwrap();
        without.try_execute(&x, &mut b).unwrap();
        prop_assert!(relative_rms_error(&a, &b) < 1e-11);
    }

    #[test]
    fn any_tree_computes_the_wht(tree in arb_tree(12), seed in 0u64..1000) {
        let n = tree.size();
        let plan = WhtPlan::new(tree.clone()).unwrap();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 1000) as f64 / 29.0 - 17.0)
            .collect();
        let mut data = x.clone();
        plan.try_execute(&mut data).unwrap();
        let want = naive_wht(&x);
        for j in 0..n {
            prop_assert!(
                (data[j] - want[j]).abs() < 1e-7 * want[j].abs().max(1.0),
                "tree {} at {j}", tree
            );
        }
    }

    #[test]
    fn grammar_round_trips_any_tree(tree in arb_tree(14)) {
        let dft = print_dft(&tree);
        prop_assert_eq!(&parse_tree(&dft).unwrap(), &tree);
        let wht = print_wht(&tree);
        prop_assert_eq!(&parse_tree(&wht).unwrap(), &tree);
    }

    #[test]
    fn simulation_is_deterministic_for_any_tree(tree in arb_tree(10)) {
        let plan = DftPlan::new(tree, Direction::Forward).unwrap();
        let cfg = CacheConfig::paper_default(64);
        let a = simulate_dft(&plan, 1, cfg).unwrap();
        let b = simulate_dft(&plan, 1, cfg).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn inverse_undoes_forward_for_any_tree_pair(
        fwd_tree in arb_tree(9),
        inv_tree in arb_tree(9),
        seed in 0u64..1000,
    ) {
        let n = fwd_tree.size();
        let fwd = DftPlan::new(fwd_tree, Direction::Forward).unwrap();
        let inv = DftPlan::new(inv_tree, Direction::Inverse).unwrap();
        let x = signal(n, seed);
        let mut f = vec![Complex64::ZERO; n];
        let mut b = vec![Complex64::ZERO; n];
        fwd.try_execute(&x, &mut f).unwrap();
        inv.try_execute(&f, &mut b).unwrap();
        let back: Vec<Complex64> = b.iter().map(|v| v.scale(1.0 / n as f64)).collect();
        prop_assert!(relative_rms_error(&back, &x) < 1e-9);
    }
}
