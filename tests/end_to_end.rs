//! Cross-crate integration tests: plan → compile → execute → verify,
//! across planners, strategies, directions and transforms.

use dynamic_data_layout::kernels::iterative::fft_radix2;
use dynamic_data_layout::kernels::{naive_dft, naive_wht};
use dynamic_data_layout::num::relative_rms_error;
use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::{noise_complex, noise_real, tone_mixture, Tone};

fn check_dft_tree(tree: &Tree) {
    let n = tree.size();
    let plan = DftPlan::new(tree.clone(), Direction::Forward).unwrap();
    let x = noise_complex(n, 1.0, n as u64);
    let mut y = vec![Complex64::ZERO; n];
    plan.try_execute(&x, &mut y).unwrap();
    let want = if n <= 2048 {
        naive_dft(&x, Direction::Forward)
    } else {
        fft_radix2(&x, Direction::Forward)
    };
    let err = relative_rms_error(&y, &want);
    assert!(err < 1e-9, "tree {tree}: err {err:e}");
}

#[test]
fn planned_dfts_match_references_across_sizes() {
    for cfg in [
        PlannerConfig::sdl_analytical(),
        PlannerConfig::ddl_analytical(),
    ] {
        for log_n in [4u32, 7, 10, 13, 16, 18] {
            let out = try_plan_dft(1 << log_n, &cfg).unwrap();
            check_dft_tree(&out.tree);
        }
    }
}

#[test]
fn every_grammar_tree_shape_executes_correctly() {
    for expr in [
        "ct(2, ct(2^7, ct(2^7, 2)))",
        "ct(ct(2, ct(2^7, 2^7)), 2)",
        "ctddl(ct(2^4, 2^4), ct(2^4, 2^4))",
        "ct(ctddl(ct(2, 32), ct(32, 2)), ct(16, 16))",
        "ctddl(ddl(64), ct(64, ctddl(32, 2)))",
    ] {
        let tree = parse_tree(expr).unwrap();
        check_dft_tree(&tree);
    }
}

#[test]
fn sdl_and_ddl_trees_agree_numerically() {
    let n = 1 << 16;
    let sdl = try_plan_dft(n, &PlannerConfig::sdl_analytical()).unwrap();
    let ddl = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();
    let x = tone_mixture(n, &[Tone::at_bin(513, n, 1.0), Tone::at_bin(9000, n, 2.0)]);
    let run = |tree: &Tree| {
        let plan = DftPlan::new(tree.clone(), Direction::Forward).unwrap();
        let mut y = vec![Complex64::ZERO; n];
        plan.try_execute(&x, &mut y).unwrap();
        y
    };
    let a = run(&sdl.tree);
    let b = run(&ddl.tree);
    assert!(relative_rms_error(&a, &b) < 1e-11);
}

#[test]
fn forward_inverse_round_trip_with_different_trees() {
    // Use a DDL tree forward and an unrelated SDL tree backward: the
    // transforms are inverse as linear operators regardless of tree.
    let n = 1 << 12;
    let fwd_tree = parse_tree("ctddl(2^6, 2^6)").unwrap();
    let inv_tree = Tree::rightmost(n, 8);
    let fwd = DftPlan::new(fwd_tree, Direction::Forward).unwrap();
    let inv = DftPlan::new(inv_tree, Direction::Inverse).unwrap();
    let x = noise_complex(n, 2.0, 5);
    let mut f = vec![Complex64::ZERO; n];
    let mut b = vec![Complex64::ZERO; n];
    fwd.try_execute(&x, &mut f).unwrap();
    inv.try_execute(&f, &mut b).unwrap();
    let back: Vec<Complex64> = b.iter().map(|v| v.scale(1.0 / n as f64)).collect();
    assert!(relative_rms_error(&back, &x) < 1e-10);
}

#[test]
fn planned_whts_match_reference() {
    let wht_model = CacheModel::from_geometry(512 * 1024, 64, 8);
    let cfg = PlannerConfig {
        strategy: Strategy::Ddl,
        backend: CostBackend::Analytical(wht_model),
        max_leaf: 64,
        cache_points: wht_model.capacity_points,
    };
    for log_n in [4u32, 8, 12] {
        let n = 1usize << log_n;
        let out = try_plan_wht(n, &cfg).unwrap();
        let plan = WhtPlan::new(out.tree.clone()).unwrap();
        let x = noise_real(n, 1.0, log_n as u64);
        let mut data = x.clone();
        plan.try_execute(&mut data).unwrap();
        let want = naive_wht(&x);
        for j in 0..n {
            assert!(
                (data[j] - want[j]).abs() < 1e-7 * want[j].abs().max(1.0),
                "n={n} j={j}"
            );
        }
    }
}

#[test]
fn wisdom_persists_plans_between_sessions() {
    let dir = std::env::temp_dir().join(format!("ddl-integration-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wisdom.json");

    // session 1: plan and store
    let n = 1 << 14;
    let out = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();
    let mut w = Wisdom::new();
    w.put("dft", n, Strategy::Ddl, &out.tree, out.cost, "integration");
    w.save(&path).unwrap();

    // session 2: load and execute without replanning
    let loaded = Wisdom::load(&path).unwrap();
    let (tree, _) = loaded.get("dft", n, Strategy::Ddl).unwrap();
    check_dft_tree(&tree);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grammar_round_trips_planner_output() {
    for cfg in [
        PlannerConfig::sdl_analytical(),
        PlannerConfig::ddl_analytical(),
    ] {
        let out = try_plan_dft(1 << 18, &cfg).unwrap();
        let expr = print_dft(&out.tree);
        let back = parse_tree(&expr).unwrap();
        assert_eq!(back, out.tree, "round trip failed for {expr}");
    }
}

#[test]
fn batch_parallel_matches_single_threaded() {
    let n = 1 << 10;
    let tree = try_plan_dft(n, &PlannerConfig::ddl_analytical())
        .unwrap()
        .tree;
    let plan = DftPlan::new(tree, Direction::Forward).unwrap();
    let batch = 9;
    let inputs = noise_complex(batch * n, 1.0, 77);
    let mut seq = vec![Complex64::ZERO; batch * n];
    let mut par = vec![Complex64::ZERO; batch * n];
    for (out, threads) in [(&mut seq, 1), (&mut par, 4)] {
        let opts = BatchOptions::with_threads(threads);
        let report = try_execute_dft_batch(&plan, &inputs, out, &opts).unwrap();
        assert!(report.all_ok());
    }
    assert_eq!(seq, par);
}

#[test]
fn simulated_ddl_beats_sdl_above_cache_size() {
    // The paper's Fig. 9 in one assertion: above the cache size, the
    // DDL-planned tree's simulated miss rate is lower than the SDL one's.
    let n = 1 << 18;
    let cache = CacheConfig::paper_default(64);
    let sdl = try_plan_dft(n, &PlannerConfig::sdl_analytical()).unwrap();
    let ddl = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();
    let sdl_stats = simulate_dft(
        &DftPlan::new(sdl.tree, Direction::Forward).unwrap(),
        1,
        cache,
    )
    .unwrap();
    let ddl_stats = simulate_dft(
        &DftPlan::new(ddl.tree, Direction::Forward).unwrap(),
        1,
        cache,
    )
    .unwrap();
    assert!(
        ddl_stats.miss_rate() < sdl_stats.miss_rate(),
        "ddl {:.4} !< sdl {:.4}",
        ddl_stats.miss_rate(),
        sdl_stats.miss_rate()
    );
    // access overhead of reorganization stays small (paper: < 3%)
    assert!(
        (ddl_stats.accesses as f64) < 1.30 * sdl_stats.accesses as f64,
        "reorganization access overhead too large: {} vs {}",
        ddl_stats.accesses,
        sdl_stats.accesses
    );
}

#[test]
fn below_cache_sdl_and_ddl_plans_coincide() {
    // Paper Section V-B: "for small problems … our search algorithm
    // selects the same tree as the tree used in the SDL approach."
    for log_n in [8u32, 10, 12] {
        let n = 1 << log_n;
        let sdl = try_plan_dft(n, &PlannerConfig::sdl_analytical()).unwrap();
        let ddl = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();
        assert_eq!(ddl.tree.reorg_count(), 0, "n = 2^{log_n}");
        assert_eq!(
            ddl.tree.without_reorgs(),
            sdl.tree,
            "trees diverged below cache at n = 2^{log_n}"
        );
    }
}
