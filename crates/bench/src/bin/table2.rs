//! Table II — number of cache accesses and misses for various FFT sizes.
//!
//! Same simulation as Fig. 9, reported as absolute access/miss counts for
//! the SDL and DDL trees, plus the two deltas the paper calls out in the
//! text: the miss reduction (paper: up to 22.07%) and the access overhead
//! added by reorganization (paper: below 3%).
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin table2 [--max-log-n 22] [--quick]
//! ```

use ddl_bench::{parse_sweep_args, SweepArgs};
use ddl_cachesim::CacheConfig;
use ddl_core::planner::{plan_dft_sweep, PlannerConfig};
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

    eprintln!("planning SDL/DDL sweeps against the simulated cache ...");
    let sdl_sweep = plan_dft_sweep(1 << max_log, &PlannerConfig::sdl_simulated(cache, 16));
    let ddl_sweep = plan_dft_sweep(1 << max_log, &PlannerConfig::ddl_simulated(cache, 16));

    println!("# Table II: cache accesses and misses (512 KB direct-mapped, 64 B lines)");
    println!(
        "{:>8} {:>14} {:>12} {:>14} {:>12} {:>10} {:>10}",
        "log2(n)", "SDL access", "SDL miss", "DDL access", "DDL miss", "miss -%", "acc +%"
    );

    for log_n in 12..=max_log {
        let idx = (log_n - 1) as usize;
        let s = simulate_dft(
            &DftPlan::new(sdl_sweep[idx].1.tree.clone(), Direction::Forward).unwrap(),
            1,
            cache,
        )
        .expect("simulate");
        let d = simulate_dft(
            &DftPlan::new(ddl_sweep[idx].1.tree.clone(), Direction::Forward).unwrap(),
            1,
            cache,
        )
        .expect("simulate");
        let miss_red = if s.misses > 0 {
            (s.misses as f64 - d.misses as f64) / s.misses as f64 * 100.0
        } else {
            0.0
        };
        let acc_over = (d.accesses as f64 - s.accesses as f64) / s.accesses as f64 * 100.0;
        println!(
            "{:>8} {:>14} {:>12} {:>14} {:>12} {:>10.2} {:>10.2}",
            log_n, s.accesses, s.misses, d.accesses, d.misses, miss_red, acc_over
        );
    }
    println!("\n# paper shape: DDL cuts misses (up to ~22%) for sizes above the cache");
    println!("# while adding only a small fraction of extra accesses (< 3%)");
}
