//! Explore the planner: optimal trees, strides and simulated cache
//! behaviour per size.
//!
//! Run with:
//! ```sh
//! cargo run --release --example plan_explorer [max_log_n] [--trace-out <path>]
//! ```
//!
//! For each size the explorer prints the SDL- and DDL-optimal trees in
//! the paper's grammar (compare the paper's Tables V/VI), the largest
//! leaf stride of each (the quantity that drives Case III conflicts), and
//! the simulated miss rate of both on the paper's 512 KB direct-mapped
//! cache — a compact view of everything the optimization does.
//!
//! After the table it profiles the largest DDL plan with the span
//! recorder and prints a per-node breakdown — which `(size, stride)`
//! invocations the execution time actually went to. With
//! `--trace-out <path>` the same timeline is exported as Chrome
//! trace-event JSON (open in Perfetto or chrome://tracing).
//!
//! Finally it renders the per-node hierarchy scorecard of the SDL and
//! DDL plans side by side: every node of the executed tree annotated
//! with its simulated (exclusive) misses, its exclusive L1/L2/d-TLB
//! miss rates from the simultaneous hierarchy attribution, and the
//! three independent Case III verdicts — empirical, analytical model,
//! static conflict analysis — so you can see *which* subtree the misses
//! live in, at *which* level of the memory hierarchy, and whether the
//! three methods agree on why.

use dynamic_data_layout::analyze::annotate_static;
use dynamic_data_layout::core::attrib::NodeAttribution;
use dynamic_data_layout::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn main() {
    let mut max_log: u32 = 20;
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    args.next().expect("--trace-out needs a path"),
                ));
            }
            other => max_log = other.parse().expect("max_log_n must be an integer"),
        }
    }
    let cache = CacheConfig::paper_default(64);

    println!("cache: 512 KB direct-mapped, 64 B lines (paper simulation config)");
    println!("DDL considered for working sets >= 2^15 complex points\n");
    println!(
        "{:>6} | {:>8} {:>8} | {:>9} {:>9} | {:>7} {:>7} | trees",
        "n", "sdl-strd", "ddl-strd", "sdl-miss%", "ddl-miss%", "reorgs", "states"
    );

    for log_n in (10..=max_log).step_by(2) {
        let n = 1usize << log_n;
        let sdl = try_plan_dft(n, &PlannerConfig::sdl_analytical()).unwrap();
        let ddl = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();

        let sdl_plan = DftPlan::new(sdl.tree.clone(), Direction::Forward).unwrap();
        let ddl_plan = DftPlan::new(ddl.tree.clone(), Direction::Forward).unwrap();
        let sdl_stats = simulate_dft(&sdl_plan, 1, cache).unwrap();
        let ddl_stats = simulate_dft(&ddl_plan, 1, cache).unwrap();

        println!(
            "{:>6} | {:>8} {:>8} | {:>9.2} {:>9.2} | {:>7} {:>7} | sdl={} ddl={}",
            format!("2^{log_n}"),
            sdl.tree.max_leaf_stride(1),
            ddl.tree.max_leaf_stride(1),
            sdl_stats.miss_rate() * 100.0,
            ddl_stats.miss_rate() * 100.0,
            ddl.tree.reorg_count(),
            ddl.states,
            compress(&print_dft(&sdl.tree)),
            compress(&print_dft(&ddl.tree)),
        );
    }

    println!("\nreading the table:");
    println!("- below 2^15 points the two searches agree (no reorganizations);");
    println!("- above it, DDL trees cap the leaf stride and cut the simulated miss rate.");

    span_breakdown(max_log.min(16), trace_out.as_deref());
    attribution_trees(max_log.min(16), cache);
}

/// Attributes simulated cache misses per plan node for the SDL and DDL
/// plans at `2^log_n` — simultaneously against the paper cache and a
/// typical L1/L2/d-TLB hierarchy — and renders the annotated trees as
/// hierarchy scorecards.
fn attribution_trees(log_n: u32, cache: CacheConfig) {
    let n = 1usize << log_n;
    for (name, cfg) in [
        ("sdl", PlannerConfig::sdl_analytical()),
        ("ddl", PlannerConfig::ddl_analytical()),
    ] {
        let plan = DftPlan::new(try_plan_dft(n, &cfg).unwrap().tree, Direction::Forward).unwrap();
        let mut run = attribute_dft_hier(&plan, 1, cache, HierarchyConfig::typical(cache)).unwrap();
        annotate_static(&mut run);
        let h = run.hierarchy.as_ref().unwrap();
        println!(
            "\nper-node hierarchy scorecard ({name} plan at 2^{log_n}, paper cache; \
             total miss rate {:.2}%, L1 {:.2}%, L2 {:.2}%, TLB {:.2}%):",
            run.totals.miss_rate() * 100.0,
            h.totals.l1.miss_rate() * 100.0,
            h.totals.l2.miss_rate() * 100.0,
            h.totals.tlb.miss_rate() * 100.0
        );
        println!(
            "{:<32} {:>6} {:>12} {:>7} | {:>7} {:>7} {:>7} | {:>9} {:>9} {:>10}",
            "node",
            "calls",
            "self-misses",
            "miss%",
            "l1-m%",
            "l2-m%",
            "tlb-m%",
            "empirical",
            "model",
            "static"
        );
        for root in &run.roots {
            render_node(root, 0);
        }
    }
    println!(
        "\n(empirical: simulated exclusive miss rate; model: the paper's Case I/II vs III \
         closed form; static: conflict-degree analysis. Agreement across all three \
         corroborates the Case III diagnosis; `-` means the class does not apply. \
         l1/l2/tlb: exclusive per-node miss rates from the simultaneous hierarchy \
         attribution — the TLB is just a cache whose line is the 4 KiB page.)"
    );
}

/// Renders one attributed node (and its children) as an indented row.
fn render_node(node: &NodeAttribution, depth: usize) {
    let class = |c: Option<CaseClass>| c.map_or("-".to_string(), |c| c.to_string());
    let stat = match (node.static_pathological, node.static_degree) {
        (Some(true), Some(d)) => format!("conflict:{d}"),
        (Some(false), _) => "clean".to_string(),
        _ => "-".to_string(),
    };
    let level = |s: &CacheStats| {
        if s.line_lookups == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", s.miss_rate() * 100.0)
        }
    };
    let (l1, l2, tlb) = match &node.levels {
        Some(l) => (level(&l.l1), level(&l.l2), level(&l.tlb)),
        None => ("-".to_string(), "-".to_string(), "-".to_string()),
    };
    let name = format!(
        "{:indent$}{}:{}@{}{}",
        "",
        node.label,
        node.size,
        node.stride,
        if node.reorg { " [reorg]" } else { "" },
        indent = depth * 2
    );
    println!(
        "{name:<32} {:>6} {:>12} {:>7.2} | {l1:>7} {l2:>7} {tlb:>7} | {:>9} {:>9} {:>10}",
        node.calls,
        node.stats.misses,
        node.stats.miss_rate() * 100.0,
        class(node.empirical),
        class(node.model),
        stat
    );
    for child in &node.children {
        render_node(child, depth + 1);
    }
}

/// Profiles the DDL plan at `2^log_n` with the span recorder and prints
/// where the execution time went, node by node.
fn span_breakdown(log_n: u32, trace_out: Option<&std::path::Path>) {
    let n = 1usize << log_n;
    let ddl = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();
    let plan = DftPlan::new(ddl.tree, Direction::Forward).unwrap();
    let input: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i % 7) as f64, (i % 3) as f64 * 0.5))
        .collect();
    let mut output = vec![Complex64::ZERO; n];
    let mut recorder = Recorder::new();
    plan.try_profile_with(&input, &mut output, &mut recorder)
        .unwrap();

    // Replay the balanced Begin/End timeline, aggregating inclusive time
    // per (size, stride, reorg) node shape.
    let mut stack: Vec<(SpanInfo, u64)> = Vec::new();
    let mut agg: BTreeMap<(usize, usize, bool), (u64, u64)> = BTreeMap::new();
    for event in recorder.trace_events() {
        match event {
            TraceEvent::Begin { info, ts_ns } => stack.push((*info, *ts_ns)),
            TraceEvent::End { ts_ns, .. } => {
                if let Some((info, t0)) = stack.pop() {
                    if matches!(info.kind, SpanKind::Node) {
                        let e = agg.entry((info.size, info.stride, info.reorg)).or_default();
                        e.0 += 1;
                        e.1 += ts_ns.saturating_sub(t0);
                    }
                }
            }
            TraceEvent::Stage { .. } => {}
        }
    }

    println!("\nper-node span breakdown of the DDL plan at 2^{log_n}:");
    println!(
        "{:>8} {:>8} {:>6} | {:>6} {:>14} {:>12}",
        "size", "stride", "reorg", "calls", "inclusive-ns", "ns/call"
    );
    for ((size, stride, reorg), (calls, total_ns)) in agg.iter().rev() {
        println!(
            "{size:>8} {stride:>8} {:>6} | {calls:>6} {total_ns:>14} {:>12.0}",
            if *reorg { "yes" } else { "" },
            *total_ns as f64 / (*calls).max(1) as f64
        );
    }
    println!("(inclusive time: children are counted inside their parents)");

    if let Some(path) = trace_out {
        write_chrome_trace(&recorder, path).unwrap();
        println!(
            "trace with {} events written to {} (load in Perfetto / chrome://tracing)",
            recorder.trace_events().len(),
            path.display()
        );
    }
}

/// Abbreviates long tree expressions for table display.
fn compress(expr: &str) -> String {
    if expr.len() <= 48 {
        expr.to_string()
    } else {
        format!("{}…{}", &expr[..30], &expr[expr.len() - 14..])
    }
}
