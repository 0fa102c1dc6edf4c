//! Fig. 10 — cache miss rate vs cache line size (fixed FFT size).
//!
//! The paper fixes the FFT size (we use 2^20 points, well above the
//! 2^15-point cache) and sweeps the line size of the simulated 512 KB
//! direct-mapped cache. DDL converts non-unit strides to unit strides,
//! so its advantage *grows* with line size (the paper highlights 25% at
//! 64 B lines); the SDL series improves only slowly because strided
//! accesses waste most of each longer line.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin fig10 [--quick]
//! ```

use ddl_bench::{parse_sweep_args, SweepArgs};
use ddl_cachesim::CacheConfig;
use ddl_core::planner::{plan_dft, PlannerConfig};
use ddl_core::traced::simulate_dft;
use ddl_core::DftPlan;
use ddl_num::Direction;

fn main() {
    let SweepArgs { quick, .. } = parse_sweep_args();
    let log_n = if quick { 16 } else { 20 };
    let n = 1usize << log_n;

    // plan against the simulated machine at the paper's reference line
    // size (64 B); the same trees are then evaluated at every line size
    let reference = CacheConfig::paper_default(64);
    eprintln!("planning SDL/DDL against the simulated cache ...");
    let sdl = plan_dft(n, &PlannerConfig::sdl_simulated(reference, 16));
    let ddl = plan_dft(n, &PlannerConfig::ddl_simulated(reference, 16));
    let sdl_plan = DftPlan::new(sdl.tree, Direction::Forward).unwrap();
    let ddl_plan = DftPlan::new(ddl.tree, Direction::Forward).unwrap();

    println!("# Fig. 10: miss rate vs line size (512 KB direct-mapped, n = 2^{log_n})");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "line B", "SDL miss%", "DDL miss%", "reduction%"
    );
    for line in [16usize, 32, 64, 128, 256] {
        let cache = CacheConfig::paper_default(line);
        let s = simulate_dft(&sdl_plan, 1, cache)
            .expect("simulate")
            .miss_rate()
            * 100.0;
        let d = simulate_dft(&ddl_plan, 1, cache)
            .expect("simulate")
            .miss_rate()
            * 100.0;
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>12.1}",
            line,
            s,
            d,
            if s > 0.0 { (s - d) / s * 100.0 } else { 0.0 }
        );
    }
    println!("\n# paper shape: both series fall with line size; the DDL curve falls");
    println!("# faster (paper: 3.98% vs 2.96% at 64 B — a 25% reduction)");
}
