//! The paper's experiments and the ablations beyond it, one function per
//! `bench_suite` subcommand.
//!
//! The simulated experiments (Figs. 9–10, Table II, `assoc` and
//! `tlb_ablation`) reproduce the paper's simulation: a 512 KB
//! direct-mapped cache and 16-byte complex points, so the cache holds
//! 2^15 points. The SDL and DDL planners both optimize *for the
//! simulated machine*, exactly as the paper's planners optimized for the
//! machines its simulations model, and the resulting trees execute under
//! the trace-driven simulator. Everything they print is deterministic.
//!
//! The measured experiments (Table I, Figs. 11–15, Tables V–VI) plan
//! with the measured cost backend and time on the host.

#![expect(clippy::disallowed_types, reason = "times each planner sweep")]

use crate::cli::{Args, Outcome, Usage, MAX_LOG_N};
use crate::Transform::{self, Dft, Wht};
use crate::{host, load_wisdom, measure_floor, plan_cached, remember, wisdom_path, write_report};
use ddl_analyze::annotate_static;
use ddl_cachesim::{CacheConfig, CacheStats, HierarchyConfig};
use ddl_core::attrib::{attribute_dft_hier, AttributionRun, HierarchyAttribution};
use ddl_core::grammar::{parse, print_dft};
use ddl_core::measure::{fft_mflops, time_per_point_ns};
use ddl_core::obs::{merge_counters, PlannerRunMetrics};
use ddl_core::planner::{try_plan_dft, try_plan_dft_sweep, PlannerConfig, Strategy};
use ddl_core::traced::simulate_dft;
use ddl_core::{kendall_tau_b, CacheModel, DftPlan, PlanRecord, Recorder, Report, Tree};
use ddl_num::{DdlError, Direction};
use std::error::Error;
use std::fmt::Write;
use std::ops::RangeInclusive;
use std::path::Path;

/// The paper's simulated cache: 512 KB direct-mapped with 64 B lines.
fn paper_cache() -> CacheConfig {
    CacheConfig::paper_default(64)
}

/// The SDL and DDL planners of the simulated experiments, both planning
/// against [`paper_cache`].
fn simulated_cfgs() -> [PlannerConfig; 2] {
    let cache = paper_cache();
    [
        PlannerConfig::sdl_simulated(cache, 16),
        PlannerConfig::ddl_simulated(cache, 16),
    ]
}

/// Simulates one forward execution of `tree` on `cache`.
fn simulate(tree: &Tree, cache: CacheConfig) -> Result<CacheStats, DdlError> {
    simulate_dft(&DftPlan::new(tree.clone(), Direction::Forward)?, 1, cache)
}

/// How much lower `after` is than `before`, in percent of `before`.
fn reduction(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        (before - after) / before * 100.0
    } else {
        0.0
    }
}

/// The sweep Fig. 9, Table II and the TLB ablation share: one simulated
/// DP sweep per strategy up to `2^max_log`, and the SDL and DDL trees of
/// each size from `2^first`.
fn simulated_sweep(first: u32, max_log: u32) -> Result<Vec<(u32, [Tree; 2])>, DdlError> {
    eprintln!("planning SDL/DDL sweeps against the simulated cache ...");
    let [sdl, ddl] = simulated_cfgs().map(|cfg| try_plan_dft_sweep(1 << max_log, &cfg));
    let (sdl, ddl) = (sdl?, ddl?);
    let trees = |log_n: u32| {
        let i = log_n as usize - 1;
        (log_n, [sdl[i].1.tree.clone(), ddl[i].1.tree.clone()])
    };
    Ok((first..=max_log).map(trees).collect())
}

/// Fig. 9's and Table II's rows: the SDL and DDL statistics on the paper
/// cache of each size of the simulated sweep from 2^12 (to 2^16 with
/// `--quick`, 2^20 without).
fn simulated_rows(args: &Args) -> Result<Vec<(u32, CacheStats, CacheStats)>, DdlError> {
    let mut rows = Vec::new();
    for (log_n, [sdl, ddl]) in simulated_sweep(12, args.max_log(16, 20))? {
        rows.push((
            log_n,
            simulate(&sdl, paper_cache())?,
            simulate(&ddl, paper_cache())?,
        ));
    }
    Ok(rows)
}

/// Fig. 9 — cache miss rate vs FFT size, DDL vs SDL.
pub fn fig9(args: &Args) -> Outcome {
    let rows = simulated_rows(args)?;
    println!("# Fig. 9: miss rate vs FFT size (512 KB direct-mapped, 64 B lines)");
    println!("# cache capacity = 2^15 complex points");
    println!(" log2(n)    SDL miss%    DDL miss%   reduction%");
    for (log_n, s, d) in rows {
        let (s, d) = (s.miss_rate() * 100.0, d.miss_rate() * 100.0);
        println!("{log_n:>8} {s:>12.2} {d:>12.2} {:>12.1}", reduction(s, d));
    }
    println!("\n# paper shape: series coincide below 2^15 points, DDL lower above");
    println!("# (paper reports up to a 25% lower miss rate at 64 B lines)");
    Ok(())
}

/// Table II — cache accesses and misses per FFT size, plus the two deltas
/// the paper calls out in the text: the miss reduction (paper: up to
/// 22.07%) and the access overhead added by reorganization (paper: below
/// 3%).
pub fn table2(args: &Args) -> Outcome {
    let rows = simulated_rows(args)?;
    println!("# Table II: cache accesses and misses (512 KB direct-mapped, 64 B lines)");
    println!(
        " log2(n)     SDL access     SDL miss     DDL access     DDL miss    miss -%     acc +%"
    );
    for (log_n, s, d) in rows {
        let miss_red = reduction(s.misses as f64, d.misses as f64);
        let acc_over = (d.accesses as f64 - s.accesses as f64) / s.accesses as f64 * 100.0;
        println!(
            "{:>8} {:>14} {:>12} {:>14} {:>12} {:>10.2} {:>10.2}",
            log_n, s.accesses, s.misses, d.accesses, d.misses, miss_red, acc_over
        );
    }
    println!("\n# paper shape: DDL cuts misses (up to ~22%) for sizes above the cache");
    println!("# while adding only a small fraction of extra accesses (< 3%)");
    Ok(())
}

/// Miss rates (%) of the SDL and DDL trees of size `2^log_n`, planned
/// against the paper cache, when run on each of `caches`.
fn miss_rates(log_n: u32, caches: &[CacheConfig]) -> Result<Vec<[f64; 2]>, DdlError> {
    eprintln!("planning SDL/DDL against the simulated cache ...");
    let [sdl, ddl] = simulated_cfgs().map(|cfg| try_plan_dft(1 << log_n, &cfg));
    let (sdl, ddl) = (sdl?.tree, ddl?.tree);
    let rate = |tree, cache| simulate(tree, cache).map(|s| s.miss_rate() * 100.0);
    caches
        .iter()
        .map(|&cache| Ok([rate(&sdl, cache)?, rate(&ddl, cache)?]))
        .collect()
}

/// Fig. 10 — cache miss rate vs line size at a fixed FFT size (2^20,
/// well above the 2^15-point cache; 2^16 with `--quick`). Both trees are
/// planned at the paper's 64 B reference line. DDL converts non-unit
/// strides to unit strides, so its advantage *grows* with line size; the
/// SDL series improves only slowly because strided accesses waste most
/// of each longer line.
pub fn fig10(args: &Args) -> Outcome {
    let log_n = if args.quick { 16 } else { 20 };
    let lines = [16, 32, 64, 128, 256];
    let rates = miss_rates(log_n, &lines.map(CacheConfig::paper_default))?;
    println!("# Fig. 10: miss rate vs line size (512 KB direct-mapped, n = 2^{log_n})");
    println!("    line B    SDL miss%    DDL miss%   reduction%");
    for (line, [s, d]) in lines.into_iter().zip(rates) {
        println!("{line:>10} {s:>12.2} {d:>12.2} {:>12.1}", reduction(s, d));
    }
    println!("\n# paper shape: both series fall with line size; the DDL curve falls");
    println!("# faster (paper: 3.98% vs 2.96% at 64 B — a 25% reduction)");
    Ok(())
}

/// Ablation (beyond the paper): how much does cache associativity alone
/// close the SDL–DDL gap? The paper's analysis assumes direct-mapped or
/// small set-associative caches (its Section III-B), and hardware has
/// since moved to higher associativity. The same SDL and DDL traces run
/// through caches of identical capacity and line size but increasing
/// associativity, separating conflict misses (removed by associativity)
/// from spatial-locality loss (not removed).
pub fn assoc(args: &Args) -> Outcome {
    let log_n = args.max_log(16, 18);
    let ways = [1, 2, 4, 8, 16];
    let caches = ways.map(|associativity| CacheConfig {
        capacity_bytes: 512 * 1024,
        line_bytes: 64,
        associativity,
    });
    let rates = miss_rates(log_n, &caches)?;
    println!("# associativity ablation: 512 KB cache, 64 B lines, n = 2^{log_n}");
    println!("    ways    SDL miss%    DDL miss%    gap (pts)");
    for (ways, [s, d]) in ways.into_iter().zip(rates) {
        println!("{ways:>8} {s:>12.2} {d:>12.2} {:>12.2}", s - d);
    }
    println!("\n# conflict misses shrink with associativity; the residual gap is the");
    println!("# spatial-locality component that only the layout change removes");
    Ok(())
}

/// Smallest TLB ablation row: below 2^14 both layouts fit every level on
/// the simulated geometry and the rows are identical noise.
const TLB_FIRST_LOG: u32 = 14;

/// Ablation (beyond the paper): TLB behaviour of SDL vs DDL trees.
///
/// The paper sets TLB misses aside ("not critical to the performance for
/// the small sized transforms obtained after factorization", Section
/// III-B) — true for its machines, but on modern hosts page-granular
/// strides exhaust the dTLB long before a multi-megabyte L2 fills.
///
/// The table is derived from a `ddl-report` artifact, not from ad-hoc
/// counters: each plan of the simulated sweep is attributed once against
/// the paper cache and an L1/L2/d-TLB hierarchy, the records are written
/// to `--artifact` (default `target/tlb-ablation.json`), and the table is
/// rendered from the artifact read back. It goes to `--out` when given,
/// to stdout otherwise.
pub fn tlb_ablation(args: &Args) -> Outcome {
    let artifact = args.artifact.as_deref();
    let artifact = artifact.unwrap_or(Path::new("target/tlb-ablation.json"));
    let (cache, logs) = (paper_cache(), TLB_FIRST_LOG..=args.max_log(16, 20));
    if logs.is_empty() {
        let (k, first) = (logs.end(), TLB_FIRST_LOG);
        let msg = format!("tlb_ablation needs --max-log-n {first} or more, got {k}");
        return Err(Usage(msg).into());
    }
    let hier = HierarchyConfig::typical(cache);
    let mut report = Report::new("tlb-ablation");
    for (log_n, trees) in simulated_sweep(*logs.start(), *logs.end())? {
        for (name, tree) in ["sdl", "ddl"].into_iter().zip(trees) {
            let plan = DftPlan::new(tree, Direction::Forward)?;
            let mut run = attribute_dft_hier(&plan, 1, cache, hier)?;
            annotate_static(&mut run);
            let mut record = PlanRecord::dft(&plan, name);
            record.sim = Some(run);
            report.plans.push(record);
            eprintln!("attributed {name} 2^{log_n}");
        }
    }
    report.write(artifact)?;
    let records = report.plans.len();
    eprintln!(
        "report written to {} ({records} plan records)",
        artifact.display()
    );
    let table = render_tlb_table(artifact, logs)?;
    match &args.out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).ok();
            }
            std::fs::write(path, &table).map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("table written to {}", path.display());
        }
        None => print!("{table}"),
    }
    Ok(())
}

/// The `strategy` DFT record of size `n` in the TLB ablation artifact:
/// its cache attribution and its hierarchy attribution.
fn tlb_record<'a>(
    report: &'a Report,
    strategy: &str,
    n: usize,
) -> Result<(&'a AttributionRun, &'a HierarchyAttribution), String> {
    let run = report.find("dft", n, strategy).and_then(|p| p.sim.as_ref());
    run.and_then(|run| Some((run, run.hierarchy.as_ref()?)))
        .ok_or_else(|| format!("artifact has no hierarchy-attributed {strategy} dft at n={n}"))
}

/// Reads the TLB ablation artifact back (the parse re-verifies node-sum
/// conservation and L2/L1 coupling at every level) and renders the rows
/// for sizes `2^logs` purely from the stored counters.
fn render_tlb_table(path: &Path, logs: RangeInclusive<u32>) -> Result<String, Box<dyn Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let report = Report::parse(&text)?;
    // The d-TLB geometry in the header comes from the artifact, so the
    // title can never drift from what was actually simulated.
    let geometry = tlb_record(&report, "sdl", 1 << logs.start())?.1.config;
    let mut out = format!(
        "# TLB ablation: {}-entry {}-way dTLB, {} KiB pages, + paper cache\n",
        geometry.tlb_entries,
        geometry.tlb_ways,
        geometry.tlb_page_bytes / 1024
    );
    out.push_str(" log2(n)   SDL tlb-m%   DDL tlb-m%   SDL cache-m%   DDL cache-m%\n");
    for log_n in logs {
        let (s, s_hier) = tlb_record(&report, "sdl", 1 << log_n)?;
        let (d, d_hier) = tlb_record(&report, "ddl", 1 << log_n)?;
        let [s_tlb, d_tlb] = [s_hier, d_hier].map(|h| h.totals.tlb.miss_rate() * 100.0);
        let [s_cache, d_cache] = [s, d].map(|r| r.totals.miss_rate() * 100.0);
        writeln!(
            out,
            "{log_n:>8} {s_tlb:>12.2} {d_tlb:>12.2} {s_cache:>14.2} {d_cache:>14.2}"
        )?;
    }
    out.push_str("\n# DDL's unit-stride conversion helps the TLB for the same reason it\n");
    out.push_str("# helps lines: fewer pages touched per unit of useful data\n");
    Ok(out)
}

/// Table I's smallest size: its right-most candidates
/// `ct(64,ct(64,ct(a,b)))` need `n >= 2^14`.
const TABLE1_MIN_LOG: u32 = 14;

/// Rounds Table I times every tree in, in turn: each tree's time is the
/// median of its rounds, so host drift hits all trees alike.
const TABLE1_ROUNDS: usize = 7;

/// Trees beyond the paper's shapes that Table I also measures at `2^p`:
/// the alternatives to the analytical planner's choices that were timed
/// against them when the host model was introduced (EXPERIMENTS.md).
fn table1_pinned(p: u32) -> &'static [&'static str] {
    match p {
        16 => &[
            "ctddl(16,ct(64,64))",
            "ctddl(64,ct(16,64))",
            "ctddl(16,ctddl(64,64))",
            "ctddl(64,ct(64,16))",
            "ctddl(64,ctddl(16,64))",
            "ctddl(32,ctddl(32,64))",
            "ctddl(32,ct(32,64))",
            "ct(4,ctddl(16,ct(16,64)))",
            "ctddl(ct(4,16),ct(16,64))",
        ],
        18 => &[
            "ctddl(64,ct(64,64))",
            "ctddl(64,ctddl(64,64))",
            "ctddl(16,ct(16,ct(16,64)))",
            "ctddl(64,ct(64,ct(4,16)))",
            "ctddl(16,ctddl(16,ct(16,64)))",
            "ctddl(64,ctddl(16,ct(4,64)))",
        ],
        20 => &[
            "ctddl(32,ct(8,ct(64,64)))",
            "ctddl(32,ct(8,ctddl(64,64)))",
            "ctddl(32,ctddl(32,ct(16,64)))",
            "ctddl(64,ct(16,ct(16,64)))",
            "ctddl(32,ctddl(8,ct(64,64)))",
            "ctddl(64,ctddl(16,ct(16,64)))",
        ],
        _ => &[],
    }
}

/// Representative tree expressions for size `2^p`, mirroring the paper's
/// Table I structure: right-most, balanced, and DDL variants with one or
/// two reorganized nodes, then the pinned alternatives of
/// [`table1_pinned`]. Needs `p >= TABLE1_MIN_LOG`.
fn table1_candidates(p: u32) -> Vec<String> {
    let n = 1u64 << p;
    let a = 1u64 << ((p - 12) / 2);
    let tail = format!("ct({a},{})", n / 64 / 64 / a);
    let quarter = 1u64 << (p / 4);
    let left = format!("{quarter},{}", (1u64 << (p / 2)) / quarter);
    let right = format!("{quarter},{}", (n >> (p / 2)) / quarter);
    let mut out = vec![
        // right-most SDL and its root-DDL variant
        format!("ct(64,ct(64,{tail}))"),
        format!("ctddl(64,ct(64,{tail}))"),
        // balanced SDL and DDL variants
        format!("ct(ct({left}),ct({right}))"),
        format!("ctddl(ct({left}),ct({right}))"),
        // reorganization applied at two nodes (the paper's double-ctddl rows)
        format!("ctddl(ctddl({left}),ct({right}))"),
        format!("ctddl(ctddl({left}),ctddl({right}))"),
    ];
    for expr in table1_pinned(p) {
        if !out.iter().any(|e| e == expr) {
            out.push(expr.to_string());
        }
    }
    out
}

/// Table I — alternate factorization trees: SDL vs DDL, measured vs
/// estimated.
///
/// The paper's Table I lists hand-picked factorization trees of a 2^20
/// point FFT on Alpha 21264 with measured SDL and DDL times and the time
/// the cost model of Eq. (3) *estimates*, validating that the model ranks
/// trees like reality does. The host run measures a spread of
/// representative trees, plus the analytical planner's own, in
/// [`TABLE1_ROUNDS`] interleaved rounds, and prints each tree's median
/// time beside the host model's estimate ([`CacheModel::host`]), then the
/// Kendall τ-b between the two orders and the planned tree's gap to the
/// fastest.
pub fn table1(args: &Args) -> Outcome {
    let p = args.max_log(18, 20);
    if p < TABLE1_MIN_LOG {
        let msg = format!("table1 needs --max-log-n {TABLE1_MIN_LOG} or more, got {p}");
        return Err(Usage(msg).into());
    }
    let floor = measure_floor(args.quick);
    let model = CacheModel::host();
    let planned = try_plan_dft(1 << p, &PlannerConfig::ddl_analytical())?.tree;
    let mut trees = table1_candidates(p)
        .iter()
        .map(|e| parse(e))
        .collect::<Result<Vec<Tree>, _>>()?;
    if !trees.contains(&planned) {
        trees.push(planned.clone());
    }
    let mut times = vec![Vec::new(); trees.len()];
    for _ in 0..TABLE1_ROUNDS {
        for (tree, t) in trees.iter().zip(&mut times) {
            t.push(Dft.time(tree, floor)?);
        }
    }
    let rows: Vec<(f64, f64, &Tree)> = trees
        .iter()
        .zip(&mut times)
        .map(|(tree, t)| {
            t.sort_by(f64::total_cmp);
            (t[t.len() / 2], model.tree_cost_ns(tree, 1) * 1e-9, tree)
        })
        .collect();
    println!("# Table I: alternate factorization trees for a 2^{p}-point FFT");
    println!(" measured ms      est. ms   reorgs | tree");
    let best_measured = rows.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    for &(measured, estimated, tree) in &rows {
        let mut marker = String::new();
        if measured == best_measured {
            marker += " <- best";
        }
        if *tree == planned {
            marker += " <- planned";
        }
        println!(
            "{:>12.3} {:>12.3} {:>8} | {}{}",
            measured * 1e3,
            estimated * 1e3,
            tree.reorg_count(),
            print_dft(tree),
            marker
        );
    }
    // Rank agreement between model and measurement (the point of the
    // paper's estimated column); ties go to the earlier row.
    let fastest = |key: fn(&(f64, f64, &Tree)) -> f64| {
        let best = rows.iter().min_by(|a, b| key(a).total_cmp(&key(b)));
        best.map(|r| print_dft(r.2)).unwrap_or_default()
    };
    let [measured, estimated] = [0, 1].map(|i| {
        rows.iter()
            .map(|r| if i == 0 { r.0 } else { r.1 })
            .collect::<Vec<_>>()
    });
    let planned_ms = rows.iter().find(|r| *r.2 == planned).map_or(0.0, |r| r.0);
    println!(
        "
# fastest tree by measurement: {}",
        fastest(|r| r.0)
    );
    println!("# fastest tree by model:       {}", fastest(|r| r.1));
    println!(
        "# planned tree: {} ({:+.1}% against the fastest)",
        print_dft(&planned),
        (planned_ms / best_measured - 1.0) * 100.0
    );
    println!(
        "# Kendall tau-b, model against measurement: {:.3}",
        kendall_tau_b(&estimated, &measured)
    );
    println!("# paper shape: the estimate tracks measurement closely enough to rank");
    println!("# trees (Table I validates Eq. (3) the same way)");
    Ok(())
}

/// Seconds `probe` times each tree for: long enough for a 2^22-point
/// tree to settle.
const PROBE_FLOOR_SECS: f64 = 0.5;

/// Developer probe (not one of the paper's artifacts): for each DFT tree
/// expression, the measured time and pseudo-MFLOPS, the cost model's
/// estimate, and the simulated misses on the paper cache — for exploring
/// how specific tree shapes behave when interpreting the planner's
/// choices.
pub fn probe(args: &Args) -> Outcome {
    let mut trees = Vec::new();
    for expr in &args.positional {
        let tree = parse(expr).map_err(|e| Usage(format!("{expr}: {e}")))?;
        if tree.size() > 1 << MAX_LOG_N {
            return Err(Usage(format!("{expr} is larger than 2^{MAX_LOG_N} points")).into());
        }
        trees.push(tree);
    }
    println!("        ms    MFLOPS    est. ms   miss%     misses   accesses | tree");
    for tree in &trees {
        let secs = Dft.time(tree, PROBE_FLOOR_SECS)?;
        let estimated = CacheModel::host().tree_cost_ns(tree, 1) * 1e-9;
        let sim = simulate(tree, paper_cache())?;
        println!(
            "{:>10.3} {:>9.1} {:>10.3} {:>7.2} {:>10} {:>10} | {}",
            secs * 1e3,
            fft_mflops(tree.size(), secs),
            estimated * 1e3,
            sim.miss_rate() * 100.0,
            sim.misses,
            sim.accesses,
            print_dft(tree)
        );
    }
    Ok(())
}

/// Figs. 11–14 (DFT) and Fig. 15 (WHT): SDL vs DDL performance across
/// sizes, from one measured DP sweep per strategy plus the final timings.
///
/// * **SDL** — the size-only measured DP (the CMU packages the paper
///   modifies);
/// * **DDL** — the (size, stride) measured DP with reorganizations (the
///   paper's system);
/// * **FFTW-proxy** (DFT only) — a fixed right-most radix-64 recursion,
///   standing in for FFTW 2.1.3 (not buildable here; see DESIGN.md
///   substitutions) as a static-layout cache-oblivious baseline.
///
/// The DFT table is pseudo-MFLOPS (`5 n log2 n / t_us`), the WHT table
/// time per `f64` point. Both sweeps go to the wisdom file, where `table5`
/// and `table6` find them. `--metrics-out` writes one plan record per
/// tree from 2^10 with one profiled execution; the largest size's
/// records also carry their search.
pub fn measured_sweep(args: &Args, transform: Transform) -> Outcome {
    let max_log = args.max_log(16, MAX_LOG_N);
    let mut report = Report::new(match transform {
        Dft => "fig11_fft",
        Wht => "fig15_wht",
    });
    let mut search = |strategy: Strategy| -> Result<_, DdlError> {
        eprintln!(
            "planning {} {} sweep (measured DP, one pass) ...",
            transform.name(),
            strategy.label()
        );
        let cfg = transform.measured_cfg(strategy, args.quick);
        let mut rec = Recorder::new();
        let t0 = std::time::Instant::now();
        let sweep = transform.plan_sweep(1 << max_log, &cfg, &mut rec)?;
        let plan_seconds = t0.elapsed().as_secs_f64();
        let cost = sweep.last().map_or(0.0, |(_, o)| o.cost);
        let metrics =
            PlannerRunMetrics::from_recorder(cfg.backend.label(), cost, plan_seconds, &rec);
        merge_counters(&mut report.counters, &rec);
        let path = wisdom_path();
        remember(&path, load_wisdom(&path), transform, &cfg, &sweep);
        Ok((strategy, sweep, metrics))
    };
    let sweeps = [search(Strategy::Sdl)?, search(Strategy::Ddl)?];
    let tree = |s: usize, log_n: u32| &sweeps[s].1[log_n as usize - 1].1.tree;

    let floor = measure_floor(args.quick);
    match transform {
        Dft => {
            println!("# Figs. 11-14: FFT pseudo-MFLOPS = 5 n log2(n) / t_us");
            println!(" log2(n)        SDL        DDL    FFTWpxy   DDL/SDL   DDL/pxy");
        }
        Wht => {
            println!("# Fig. 15: WHT time per point (ns), f64 data");
            println!(" log2(n)    SDL ns/pt    DDL ns/pt   SDL/DDL");
        }
    }
    for log_n in 10..=max_log {
        let n = 1usize << log_n;
        let t_sdl = transform.time(tree(0, log_n), floor)?;
        let t_ddl = transform.time(tree(1, log_n), floor)?;
        match transform {
            Dft => {
                let t_proxy = Dft.time(&Tree::rightmost(n, 64), floor)?;
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
            Wht => println!(
                "{:>8} {:>12.3} {:>12.3} {:>9.2}",
                log_n,
                time_per_point_ns(n, t_sdl),
                time_per_point_ns(n, t_ddl),
                t_sdl / t_ddl
            ),
        }
    }

    println!("\n# chosen trees at the largest size:");
    println!("#   SDL: {}", transform.print(tree(0, max_log)));
    println!("#   DDL: {}", transform.print(tree(1, max_log)));
    match transform {
        Dft => {
            println!("# paper shape: DDL tracks SDL below the cache crossover and wins above");
            println!("# it (paper: up to 2.2x over FFT SDL, up to ~2x over FFTW)");
        }
        Wht => {
            println!("# paper shape: flat time/point below the cache, SDL blowing up above it,");
            println!("# DDL staying flat longer (paper: up to 3.52x on UltraSPARC III)");
        }
    }

    if let Some(path) = &args.metrics_out {
        for log_n in max_log.min(10)..=max_log {
            for (s, (strategy, _, metrics)) in sweeps.iter().enumerate() {
                let mut record = transform.profiled_record(tree(s, log_n), strategy.label())?;
                record.planner = (log_n == max_log).then(|| metrics.clone());
                report.plans.push(record);
            }
        }
        write_report(&report, path);
    }
    Ok(())
}

/// Tables V (WHT) and VI (DFT): the trees the SDL and DDL measured
/// searches choose at each size from 2^8. Below the cache they coincide;
/// above it the DDL trees apply reorganizations while the SDL trees stay
/// close to right-most shapes. Trees come through [`plan_cached`], which
/// reuses the wisdom `fig11_fft` and `fig15_wht` write, so running the
/// harness end to end plans only once.
pub fn optimal_trees(args: &Args, transform: Transform) -> Outcome {
    let (table, family) = match transform {
        Dft => ("VI", "FFT"),
        Wht => ("V", "WHT"),
    };
    println!("# Table {table}: optimal {family} factorizations (dynamic programming output)");
    for log_n in 8..=args.max_log(16, MAX_LOG_N) {
        let plan = |s| {
            plan_cached(
                transform,
                1 << log_n,
                &transform.measured_cfg(s, args.quick),
            )
        };
        let (s, d) = (plan(Strategy::Sdl)?, plan(Strategy::Ddl)?);
        println!("n = 2^{log_n}");
        println!("  SDL: {}", transform.print(&s));
        println!(
            "  DDL: {}   ({} reorg node(s))",
            transform.print(&d),
            d.reorg_count()
        );
    }
    match transform {
        Dft => println!("\n# paper shape: identical below the cache; ctddl nodes above it"),
        Wht => {
            println!("\n# paper shape: identical trees below the cache size; splitddl nodes");
            println!("# appearing above it, with DDL trees more balanced than SDL's");
        }
    }
    Ok(())
}

/// Tables III/IV analogue: the platform the reproduction runs on, where
/// the paper tabulates each platform's clock, cache hierarchy, compiler
/// and flags.
pub fn platform(_: &Args) -> Outcome {
    println!("== Platform parameters (paper Tables III/IV analogue) ==\n");
    println!("CPU:          {}", host::cpu_model());
    println!(
        "cores:        {}",
        std::thread::available_parallelism()
            .map(|n| n.get().to_string())
            .unwrap_or_else(|_| "unknown".into())
    );

    println!("\ndata caches:");
    println!(
        "  {:<6} {:>12} {:>10} {:>8} {:>16} {:>16}",
        "level", "size", "line", "ways", "complex points", "f64 points"
    );
    for (level, size, line, ways) in host::caches() {
        println!(
            "  L{:<5} {:>12} {:>10} {:>8} {:>16} {:>16}",
            level,
            format!("{} KiB", size / 1024),
            format!("{line} B"),
            ways,
            size / 16,
            size / 8
        );
    }

    let fit = ddl_core::HostFit::committed();
    let matches = host::caches().iter().any(|&(level, size, line, ways)| {
        level == 1
            && (size, line, ways) == {
                let l1 = fit.levels[0];
                (l1.capacity_bytes, l1.line_bytes, l1.ways)
            }
    });
    println!(
        "\nhost cost model: fitted on {} (L1 {} KiB {}-way, L2 {} KiB {}-way, {} B pages); {}",
        fit.cpu,
        fit.levels[0].capacity_bytes / 1024,
        fit.levels[0].ways,
        fit.levels[1].capacity_bytes / 1024,
        fit.levels[1].ways,
        fit.page_bytes,
        if matches {
            "this host's L1 matches"
        } else {
            "this host's L1 differs: refit with `bench_suite fit --out crates/core/data/host-fit.json`"
        }
    );

    println!("\ntoolchain:");
    println!("  compiler:   rustc (see `rustc --version` of the build)");
    println!("  profile:    release, opt-level=3, codegen-units=1, lto=thin");
    println!("  note:       the paper's Table IV lists `cc -O5`/`-Ofast` etc.; the");
    println!("              equivalent here is the workspace release profile above.");

    println!("\npaper platforms for comparison (Table III):");
    println!("  UltraSPARC III  750 MHz, L2 8 MB     (64 B lines)");
    println!("  Alpha 21264     500 MHz, L2 2 MB     (64 B lines)");
    println!("  MIPS R10000     195 MHz, L2 1 MB     (32 B lines)");
    println!("  Pentium 4       1.5 GHz, L2 256 KB   (64 B lines)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_candidates_parse_at_every_accepted_size() {
        for p in TABLE1_MIN_LOG..=20 {
            for expr in table1_candidates(p) {
                let tree = parse(&expr).unwrap_or_else(|e| panic!("2^{p}: {expr}: {e}"));
                assert_eq!(tree.size(), 1 << p, "{expr}");
            }
        }
    }

    #[test]
    fn table1_keeps_the_committed_trees_at_2_20() {
        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/table1.txt"
        ))
        .unwrap();
        for expr in table1_candidates(20) {
            assert!(committed.contains(&format!("| {expr}")), "{expr}");
        }
    }
}
