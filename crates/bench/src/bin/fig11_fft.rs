//! Figs. 11–14 — FFT performance: DDL vs SDL vs the FFTW-proxy.
//!
//! The paper's headline figures plot pseudo-MFLOPS (`5 n log2 n / t_us`)
//! of FFT DDL against FFT SDL, and the relative improvement over FFTW,
//! on four platforms. This binary reproduces both series on the host:
//!
//! * **FFT SDL** — tree from the size-only measured DP (the CMU-package
//!   baseline the paper modifies);
//! * **FFT DDL** — tree from the (size, stride) measured DP with
//!   reorganizations (the paper's system);
//! * **FFTW-proxy** — a fixed right-most radix-64 recursion, standing in
//!   for FFTW 2.1.3 (not buildable here; see DESIGN.md substitutions) as
//!   a static-layout cache-oblivious divide-and-conquer baseline.
//!
//! Planning uses one DP sweep per strategy (`plan_dft_sweep`), so the
//! whole figure costs two searches plus the final measurements.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin fig11_fft [--max-log-n 22] [--quick] [--metrics-out <path>]
//! ```

use ddl_bench::{measure_floor, measured_cfg, parse_sweep_args, wisdom_path, SweepArgs};
use ddl_core::measure::fft_mflops;
use ddl_core::obs::{merge_counters, PlannerRunMetrics};
use ddl_core::planner::{time_dft_tree, try_plan_dft_sweep_with, Strategy};
use ddl_core::tree::Tree;
use ddl_core::wisdom::Wisdom;
use ddl_core::{DftPlan, PlanRecord, Recorder, Report};
use ddl_num::{Complex64, Direction};

fn main() {
    let SweepArgs {
        max_log,
        quick,
        metrics_out,
    } = parse_sweep_args();
    let max_log = if quick { max_log.min(16) } else { max_log };
    let max_n = 1usize << max_log;
    let floor = measure_floor(quick);
    let mut report = Report::new("fig11_fft");

    // One recorder per planning sweep: its counters become the planner
    // section of the largest size's plan record.
    let mut searches = Vec::new();
    let mut observed_sweep = |label: Strategy| {
        let cfg = measured_cfg(label, quick);
        let mut rec = Recorder::new();
        let t0 = std::time::Instant::now();
        let out = try_plan_dft_sweep_with(max_n, &cfg, &mut rec).unwrap_or_else(|e| panic!("{e}"));
        let plan_seconds = t0.elapsed().as_secs_f64();
        let best = &out.last().expect("non-empty sweep").1;
        searches.push(PlannerRunMetrics::from_recorder(
            cfg.backend.label(),
            best.cost,
            plan_seconds,
            &rec,
        ));
        merge_counters(&mut report.counters, &rec);
        out
    };

    eprintln!("planning SDL sweep (measured DP, one pass) ...");
    let sdl = observed_sweep(Strategy::Sdl);
    eprintln!("planning DDL sweep (measured DP, one pass) ...");
    let ddl = observed_sweep(Strategy::Ddl);

    // share the planning results with the other binaries (table6)
    let path = wisdom_path();
    let mut wisdom = Wisdom::load(&path).unwrap_or_default();
    for (n, o) in sdl.iter() {
        wisdom.put(
            "dft",
            *n,
            Strategy::Sdl,
            &o.tree,
            o.cost,
            "fig11 measured sweep",
        );
    }
    for (n, o) in ddl.iter() {
        wisdom.put(
            "dft",
            *n,
            Strategy::Ddl,
            &o.tree,
            o.cost,
            "fig11 measured sweep",
        );
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    wisdom.save(&path).ok();

    println!("# Figs. 11-14: FFT pseudo-MFLOPS = 5 n log2(n) / t_us");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "log2(n)", "SDL", "DDL", "FFTWpxy", "DDL/SDL", "DDL/pxy"
    );

    for log_n in 10..=max_log {
        let n = 1usize << log_n;
        let sdl_tree = &sdl[(log_n - 1) as usize].1.tree;
        let ddl_tree = &ddl[(log_n - 1) as usize].1.tree;
        let proxy_tree = Tree::rightmost(n, 64);

        let t_sdl = time_dft_tree(sdl_tree, 1, floor, 3).expect("time sdl tree");
        let t_ddl = time_dft_tree(ddl_tree, 1, floor, 3).expect("time ddl tree");
        let t_proxy = time_dft_tree(&proxy_tree, 1, floor, 3).expect("time proxy tree");

        println!(
            "{:>8} {:>10.1} {:>10.1} {:>10.1} {:>9.2} {:>9.2}",
            log_n,
            fft_mflops(n, t_sdl),
            fft_mflops(n, t_ddl),
            fft_mflops(n, t_proxy),
            t_sdl / t_ddl,
            t_proxy / t_ddl,
        );
    }

    println!("\n# chosen trees at the largest size:");
    println!("#   SDL: {}", sdl.last().unwrap().1.tree);
    println!("#   DDL: {}", ddl.last().unwrap().1.tree);
    println!("# paper shape: DDL tracks SDL below the cache crossover and wins above");
    println!("# it (paper: up to 2.2x over FFT SDL, up to ~2x over FFTW)");

    if let Some(path) = metrics_out {
        // One record per tree with one instrumented execution: the
        // per-stage (leaf/twiddle/reorg) breakdown of Eq. (2)/(3). The
        // largest size's records also carry their search, even when the
        // table above stops short of 2^10.
        for log_n in max_log.min(10)..=max_log {
            let n = 1usize << log_n;
            for (strategy, sweep, search) in [
                (Strategy::Sdl, &sdl, &searches[0]),
                (Strategy::Ddl, &ddl, &searches[1]),
            ] {
                let plan = DftPlan::new(
                    sweep[(log_n - 1) as usize].1.tree.clone(),
                    Direction::Forward,
                )
                .expect("planner generated an invalid tree");
                let input = vec![Complex64::ONE; n];
                let mut output = vec![Complex64::ZERO; n];
                let mut record = PlanRecord::dft(&plan, strategy.label());
                record.planner = (n == max_n).then(|| search.clone());
                match plan.try_profile_with(&input, &mut output, &mut Recorder::new()) {
                    Ok(m) => record.measured = Some(m),
                    Err(e) => eprintln!("warning: could not profile n={n}: {e}"),
                }
                report.plans.push(record);
            }
        }
        ddl_bench::write_report(&report, &path);
    }
}
