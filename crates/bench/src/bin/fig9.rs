//! Fig. 9 — cache miss rate vs FFT size, DDL vs SDL.
//!
//! Reproduces the paper's simulation: a 512 KB direct-mapped cache with a
//! fixed line size, 16-byte complex points, FFT sizes swept across the
//! cache boundary (the cache holds 2^15 points). The SDL and DDL planners
//! both optimize *for the simulated machine* (the simulated cost
//! backend), exactly as the paper's planners optimized for the machines
//! its simulations model; the resulting trees then execute under the
//! trace-driven simulator and their miss rates form the figure's two
//! series. Everything is deterministic.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin fig9 [--max-log-n 20] [--quick]
//! ```

use ddl_bench::{parse_sweep_args, SweepArgs};
use ddl_cachesim::CacheConfig;
use ddl_core::planner::{try_plan_dft_sweep, PlannerConfig};
use ddl_core::traced::simulate_dft;
use ddl_core::DftPlan;
use ddl_num::Direction;

fn main() {
    let SweepArgs { max_log, quick, .. } = parse_sweep_args();
    let max_log = if quick {
        max_log.min(16)
    } else {
        max_log.min(20)
    };
    let cache = CacheConfig::paper_default(64);

    eprintln!("planning SDL sweep against the simulated cache ...");
    let sdl = try_plan_dft_sweep(1 << max_log, &PlannerConfig::sdl_simulated(cache, 16)).unwrap();
    eprintln!("planning DDL sweep against the simulated cache ...");
    let ddl = try_plan_dft_sweep(1 << max_log, &PlannerConfig::ddl_simulated(cache, 16)).unwrap();

    println!("# Fig. 9: miss rate vs FFT size (512 KB direct-mapped, 64 B lines)");
    println!("# cache capacity = 2^15 complex points");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "log2(n)", "SDL miss%", "DDL miss%", "reduction%"
    );

    for log_n in 12..=max_log {
        let idx = (log_n - 1) as usize;
        let sdl_stats = simulate_dft(
            &DftPlan::new(sdl[idx].1.tree.clone(), Direction::Forward).unwrap(),
            1,
            cache,
        )
        .expect("simulate");
        let ddl_stats = simulate_dft(
            &DftPlan::new(ddl[idx].1.tree.clone(), Direction::Forward).unwrap(),
            1,
            cache,
        )
        .expect("simulate");
        let (s, d) = (sdl_stats.miss_rate() * 100.0, ddl_stats.miss_rate() * 100.0);
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12.1}",
            log_n,
            s,
            d,
            if s > 0.0 { (s - d) / s * 100.0 } else { 0.0 }
        );
    }
    println!("\n# paper shape: series coincide below 2^15 points, DDL lower above");
    println!("# (paper reports up to a 25% lower miss rate at 64 B lines)");
}
