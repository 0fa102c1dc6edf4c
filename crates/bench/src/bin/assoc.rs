//! Ablation (beyond the paper): how much does cache associativity alone
//! close the SDL–DDL gap?
//!
//! The paper's analysis assumes direct-mapped or small set-associative
//! caches (its Section III-B) and the hardware trend since has been
//! toward higher associativity. This binary replays the same SDL and DDL
//! execution traces through caches of identical capacity and line size
//! but increasing associativity, quantifying how much of the DDL
//! advantage is conflict misses (removed by associativity) versus
//! spatial-locality loss (not removed).
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin assoc [--max-log-n 18] [--quick]
//! ```

use ddl_bench::{parse_sweep_args, SweepArgs};
use ddl_cachesim::CacheConfig;
use ddl_core::planner::{plan_dft, PlannerConfig};
use ddl_core::traced::simulate_dft;
use ddl_core::DftPlan;
use ddl_num::Direction;

fn main() {
    let SweepArgs { max_log, quick, .. } = parse_sweep_args();
    let log_n = if quick { 16 } else { max_log.min(18) };
    let n = 1usize << log_n;

    let reference = CacheConfig::paper_default(64);
    eprintln!("planning SDL/DDL against the simulated cache ...");
    let sdl = plan_dft(n, &PlannerConfig::sdl_simulated(reference, 16));
    let ddl = plan_dft(n, &PlannerConfig::ddl_simulated(reference, 16));
    let sdl_plan = DftPlan::new(sdl.tree, Direction::Forward).unwrap();
    let ddl_plan = DftPlan::new(ddl.tree, Direction::Forward).unwrap();

    println!("# associativity ablation: 512 KB cache, 64 B lines, n = 2^{log_n}");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "ways", "SDL miss%", "DDL miss%", "gap (pts)"
    );
    for ways in [1usize, 2, 4, 8, 16] {
        let cache = CacheConfig {
            capacity_bytes: 512 * 1024,
            line_bytes: 64,
            associativity: ways,
        };
        let s = simulate_dft(&sdl_plan, 1, cache)
            .expect("simulate")
            .miss_rate()
            * 100.0;
        let d = simulate_dft(&ddl_plan, 1, cache)
            .expect("simulate")
            .miss_rate()
            * 100.0;
        println!("{:>8} {:>12.2} {:>12.2} {:>12.2}", ways, s, d, s - d);
    }
    println!("\n# conflict misses shrink with associativity; the residual gap is the");
    println!("# spatial-locality component that only the layout change removes");
}
