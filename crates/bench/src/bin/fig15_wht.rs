//! Fig. 15 — WHT performance: time per point, DDL vs SDL.
//!
//! The paper's Fig. 15 plots execution time per data point of the CMU
//! WHT package (WHT SDL) against the DDL-modified version across sizes
//! on four platforms. Data points are `f64` (8 bytes). Both series come
//! from measured DP sweeps, exactly like the FFT figure.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin fig15_wht [--max-log-n 22] [--quick] [--metrics-out <path>]
//! ```

use ddl_bench::host;
use ddl_bench::{measure_floor, measured_cfg, parse_sweep_args, wisdom_path, SweepArgs};
use ddl_core::measure::time_per_point_ns;
use ddl_core::obs::{merge_counters, Counter, PlannerRunMetrics};
use ddl_core::planner::{time_wht_tree, try_plan_wht_sweep_with, PlannerConfig, Strategy};
use ddl_core::wisdom::Wisdom;
use ddl_core::{MetricsReport, Recorder, WhtPlan};

fn main() {
    let SweepArgs {
        max_log,
        quick,
        metrics_out,
    } = parse_sweep_args();
    let max_log = if quick { max_log.min(16) } else { max_log };
    let max_n = 1usize << max_log;
    let floor = measure_floor(quick);
    let mut report = MetricsReport::new();

    // WHT points are 8 bytes: the planner threshold doubles in points.
    let wht_cfg = |s: Strategy| PlannerConfig {
        cache_points: host::l2_points(8),
        ..measured_cfg(s, quick)
    };

    // One recorder per planning sweep: its counters become a planner-run
    // entry in the metrics report.
    let mut observed_sweep = |label: Strategy| {
        let cfg = wht_cfg(label);
        let mut rec = Recorder::new();
        let t0 = std::time::Instant::now();
        let out = try_plan_wht_sweep_with(max_n, &cfg, &mut rec).unwrap_or_else(|e| panic!("{e}"));
        let plan_seconds = t0.elapsed().as_secs_f64();
        let best = &out.last().expect("non-empty sweep").1;
        report.planner.push(PlannerRunMetrics {
            transform: "wht".into(),
            n: max_n,
            strategy: label.label().into(),
            backend: cfg.backend.label().into(),
            states: rec.counter_value(Counter::PlannerStates),
            candidates: rec.counter_value(Counter::PlannerCandidates),
            memo_hits: rec.counter_value(Counter::PlannerMemoHits),
            cost: best.cost,
            plan_seconds,
            tree: ddl_core::grammar::print_wht(&best.tree),
        });
        merge_counters(&mut report.counters, &rec);
        out
    };

    eprintln!("planning WHT SDL sweep ...");
    let sdl = observed_sweep(Strategy::Sdl);
    eprintln!("planning WHT DDL sweep ...");
    let ddl = observed_sweep(Strategy::Ddl);

    // share with table5 via the wisdom file
    let path = wisdom_path();
    let mut wisdom = Wisdom::load(&path).unwrap_or_default();
    for (n, o) in sdl.iter() {
        wisdom.put(
            "wht",
            *n,
            Strategy::Sdl,
            &o.tree,
            o.cost,
            "fig15 measured sweep",
        );
    }
    for (n, o) in ddl.iter() {
        wisdom.put(
            "wht",
            *n,
            Strategy::Ddl,
            &o.tree,
            o.cost,
            "fig15 measured sweep",
        );
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    wisdom.save(&path).ok();

    println!("# Fig. 15: WHT time per point (ns), f64 data");
    println!(
        "{:>8} {:>12} {:>12} {:>9}",
        "log2(n)", "SDL ns/pt", "DDL ns/pt", "SDL/DDL"
    );

    for log_n in 10..=max_log {
        let n = 1usize << log_n;
        let sdl_tree = &sdl[(log_n - 1) as usize].1.tree;
        let ddl_tree = &ddl[(log_n - 1) as usize].1.tree;
        let t_sdl = time_wht_tree(sdl_tree, 1, floor, 3).expect("time sdl tree");
        let t_ddl = time_wht_tree(ddl_tree, 1, floor, 3).expect("time ddl tree");

        if metrics_out.is_some() {
            // One instrumented execution per tree: the per-stage
            // (leaf/reorg) breakdown of the WHT recursion.
            for tree in [sdl_tree, ddl_tree] {
                let plan = WhtPlan::new(tree.clone()).expect("planner generated an invalid tree");
                let mut data: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
                match plan.try_profile_with(&mut data, &mut Recorder::new()) {
                    Ok(m) => report.executions.push(m),
                    Err(e) => eprintln!("warning: could not profile n={n}: {e}"),
                }
            }
        }
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>9.2}",
            log_n,
            time_per_point_ns(n, t_sdl),
            time_per_point_ns(n, t_ddl),
            t_sdl / t_ddl
        );
    }

    println!("\n# chosen trees at the largest size:");
    println!(
        "#   SDL: {}",
        ddl_core::grammar::print_wht(&sdl.last().unwrap().1.tree)
    );
    println!(
        "#   DDL: {}",
        ddl_core::grammar::print_wht(&ddl.last().unwrap().1.tree)
    );
    println!("# paper shape: flat time/point below the cache, SDL blowing up above it,");
    println!("# DDL staying flat longer (paper: up to 3.52x on UltraSPARC III)");

    if let Some(path) = metrics_out {
        ddl_bench::write_metrics_report(&report, &path);
    }
}
