//! The execution layout a compiled plan exports, held against the
//! executor it describes.
//!
//! The static analyzer proves `plan.layout(stride)`, per-node attribution
//! reads its records, and the simulation harness sizes its regions from
//! it. These tests pin that the layout *is* the executor's: on every tree
//! the planner emits at 2^1..2^12, under both strategies and the
//! analyzer's five reorganization thresholds, at root strides 1 and 7,
//! the layout counts the accesses a traced run counts, every attributed
//! node entered `calls` times has a layout record with the same identity
//! and call count, and every leaf record's write view is the points the
//! executor's last instance of that leaf writes. They also pin that a
//! root stride whose spans overflow the address space is a typed error
//! everywhere a layout is built.

use dynamic_data_layout::analyze::{analyze_dft_plan, analyze_wht_plan, AnalysisReport};
use dynamic_data_layout::cachesim::MemoryTracer;
use dynamic_data_layout::core::attrib::NodeAttribution;
use dynamic_data_layout::core::layout::{PlanLayout, Region};
use dynamic_data_layout::core::obs::Candidate;
use dynamic_data_layout::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The analyzer's reorganization thresholds, in points.
fn thresholds() -> [usize; 5] {
    [
        1,
        1 << 6,
        1 << 10,
        CacheModel::paper_default().capacity_points,
        usize::MAX,
    ]
}

/// Every distinct tree the analytical planner emits for `plan`-kind
/// sizes 2^1..2^12 under both strategies and every threshold, then the
/// hand-written `extra` trees. At these sizes the planner reorganizes
/// nothing, so `extra` covers every reorganizing node shape.
fn planned_trees(
    plan: fn(usize, &PlannerConfig) -> Result<Tree, DdlError>,
    extra: &[&str],
) -> Vec<Tree> {
    let mut seen = BTreeSet::new();
    let mut trees: Vec<Tree> = extra.iter().map(|e| parse_tree(e).unwrap()).collect();
    for k in 1..=12 {
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            for cache_points in thresholds() {
                let mut cfg = match strategy {
                    Strategy::Sdl => PlannerConfig::sdl_analytical(),
                    Strategy::Ddl => PlannerConfig::ddl_analytical(),
                };
                cfg.cache_points = cache_points;
                let tree = plan(1 << k, &cfg).unwrap();
                if seen.insert(tree.to_string()) {
                    trees.push(tree);
                }
            }
        }
    }
    trees
}

/// A node span's identity: size, input stride, reorganization flag.
type SpanKey = (usize, usize, bool);

/// An observer keeping, per path of open node spans (root first), the
/// point indices the path's last span wrote outside its child spans.
/// Runs leave the simulated region addresses at zero, so a written
/// address is the point's index in its region times the point size.
struct LastWrites {
    point_bytes: u64,
    path: Vec<SpanKey>,
    open: Vec<Vec<usize>>,
    last: HashMap<Vec<SpanKey>, Vec<usize>>,
}

impl LastWrites {
    fn new(point_bytes: usize) -> LastWrites {
        LastWrites {
            point_bytes: point_bytes as u64,
            path: Vec::new(),
            open: Vec::new(),
            last: HashMap::new(),
        }
    }
}

impl MemoryTracer for LastWrites {
    fn read(&mut self, _addr: u64, _bytes: u32) {}

    fn write(&mut self, addr: u64, _bytes: u32) {
        if let Some(writes) = self.open.last_mut() {
            writes.push((addr / self.point_bytes) as usize);
        }
    }
}

impl Sink for LastWrites {
    const ENABLED: bool = true;

    fn counter(&mut self, _counter: Counter, _delta: u64) {}

    fn stage(&mut self, _stage: Stage, _nanos: u64, _points: u64) {}

    fn candidate(&mut self, _candidate: Candidate) {}

    fn span_begin(&mut self, info: SpanInfo) {
        self.path.push((info.size, info.stride, info.reorg));
        self.open.push(Vec::new());
    }

    fn span_end(&mut self) {
        let writes = self.open.pop().unwrap();
        self.last.insert(self.path.clone(), writes);
        self.path.pop();
    }
}

/// What one DFT run at `stride` wrote, per span path.
fn dft_writes(plan: &DftPlan, layout: &PlanLayout, stride: usize) -> LastWrites {
    let x = vec![Complex64::new(1.0, -1.0); layout.region_len(Region::Input)];
    let mut y = vec![Complex64::ZERO; layout.region_len(Region::Output)];
    let mut scratch = vec![Complex64::ZERO; layout.region_len(Region::Scratch)];
    let mut obs = LastWrites::new(layout.point_bytes);
    let views = DftViews::new(&x, &mut y).input_at(0, stride);
    plan.try_run(views, &mut scratch, &mut obs).unwrap();
    obs
}

/// What one WHT run on a view of `stride` wrote, per span path.
fn wht_writes(plan: &WhtPlan, layout: &PlanLayout, stride: usize) -> LastWrites {
    let mut data = vec![1.5; layout.region_len(Region::Data)];
    let mut scratch = vec![0.0; layout.region_len(Region::Scratch)];
    let mut obs = LastWrites::new(layout.point_bytes);
    let view = WhtView::new(&mut data).at(0, stride);
    plan.try_run(view, &mut scratch, &mut obs).unwrap();
    obs
}

/// Asserts attributed node `node`, at span path `path`, is layout record
/// `rec` entered as many times and, for a leaf, that the record's write
/// view is what the leaf's last span wrote last; recurses and returns
/// the records matched.
fn assert_calls(
    layout: &PlanLayout,
    rec: usize,
    node: &NodeAttribution,
    writes: &LastWrites,
    path: &mut Vec<SpanKey>,
    what: &str,
) -> usize {
    let r = &layout.nodes[rec];
    assert_eq!(
        (node.size, node.stride, node.reorg, node.calls),
        (r.size, r.read.stride, r.reorg, r.calls),
        "{what}: node {} against layout record {rec}",
        node.path_segment()
    );
    path.push((node.size, node.stride, node.reorg));
    if r.leaf {
        // A leaf's codelet (or a gathering WHT leaf's scatter) stores
        // its output last; a lane batch's last lane is the record's.
        let written = &writes.last[path.as_slice()];
        let expected: Vec<usize> = (0..r.size)
            .map(|i| r.write.base + i * r.write.stride)
            .collect();
        assert_eq!(
            written[written.len() - r.size..],
            expected[..],
            "{what}: writes of leaf record {rec} ({:?})",
            r.write
        );
    }
    let records: Vec<(usize, _)> = layout.children(rec).collect();
    assert_eq!(
        records.len(),
        node.children.len(),
        "{what}: children of {}",
        node.path_segment()
    );
    let mut matched = 1;
    for child in &node.children {
        let key = (child.size, child.stride, child.reorg);
        let Some(&(c, _)) = records
            .iter()
            .find(|(_, c)| (c.size, c.read.stride, c.reorg) == key)
        else {
            panic!("{what}: {} has no layout record", child.path_segment());
        };
        matched += assert_calls(layout, c, child, writes, path, what);
    }
    path.pop();
    matched
}

fn assert_layout_is_the_executor(
    layout: &PlanLayout,
    accesses: u64,
    run: &AttributionRun,
    writes: &LastWrites,
    what: &str,
) {
    assert_eq!(layout.accesses(), accesses, "{what}: access count");
    assert_eq!(run.roots.len(), 1, "{what}");
    let matched = assert_calls(layout, 0, &run.roots[0], writes, &mut Vec::new(), what);
    assert_eq!(matched, layout.nodes.len(), "{what}: unattributed records");
}

#[test]
fn dft_layouts_match_the_executor_on_every_planned_tree() {
    let cache = CacheConfig::paper_default(64);
    let trees = planned_trees(
        |n, cfg| try_plan_dft(n, cfg).map(|o| o.tree),
        &[
            "ct(4, 4)",
            "ct(ddl(4), 4)",
            "ct(ddl(8), ct(8, 4))",
            "ctddl(ctddl(8, 8), ct(8, 8))",
            "ct(ctddl(4, 8), ddl(8))",
            "ctddl(ddl(64), ct(ddl(16), 16))",
            "ctddl(40, 6)",
        ],
    );
    for tree in trees {
        let plan = DftPlan::new(tree.clone(), Direction::Forward).unwrap();
        for stride in [1, 7] {
            let what = format!("dft {tree} at stride {stride}");
            let layout = plan.layout(stride).unwrap();
            let sim = simulate_dft(&plan, stride, cache).unwrap();
            let run = attribute_dft(&plan, stride, cache).unwrap();
            let writes = dft_writes(&plan, &layout, stride);
            assert_layout_is_the_executor(&layout, sim.accesses, &run, &writes, &what);
        }
    }
}

#[test]
fn wht_layouts_match_the_executor_on_every_planned_tree() {
    let cache = CacheConfig::paper_default(64);
    let trees = planned_trees(
        |n, cfg| try_plan_wht(n, cfg).map(|o| o.tree),
        &[
            "split(8, 8)",
            "split(ddl(8), split(8, 4))",
            "splitddl(splitddl(8, 8), split(4, 4))",
            "split(splitddl(16, 32), 16)",
            "splitddl(ddl(64), split(ddl(16), 16))",
        ],
    );
    let mut lane_batched = false;
    for tree in trees {
        let plan = WhtPlan::new(tree.clone()).unwrap();
        for stride in [1, 7] {
            let what = format!("wht {tree} at stride {stride}");
            let layout = plan.layout(stride).unwrap();
            // A lane batch is one call of a leaf record whose codelet
            // family runs once per lane.
            lane_batched |= layout
                .nodes
                .iter()
                .any(|node| node.steps.iter().any(|step| step.calls > node.calls));
            let sim = simulate_wht(&plan, stride, cache).unwrap();
            let run = attribute_wht(&plan, stride, cache).unwrap();
            let writes = wht_writes(&plan, &layout, stride);
            assert_layout_is_the_executor(&layout, sim.accesses, &run, &writes, &what);
        }
    }
    assert!(lane_batched, "no planned tree ran a lane batch");
}

#[test]
fn huge_root_strides_are_typed_errors() {
    let stride = usize::MAX / 2;
    let cache = CacheConfig::paper_default(64);
    let hier = HierarchyConfig::typical(cache);
    let invalid = |r: Result<(), DdlError>, what: &str| {
        assert!(
            matches!(r, Err(DdlError::InvalidStride { .. })),
            "{what}: {r:?}"
        );
    };
    // At 2 points the span fits in points but not in bytes; at 16 it
    // overflows in points.
    for (dft, wht) in [("2", "2"), ("ctddl(ddl(4), 4)", "splitddl(ddl(4), 4)")] {
        let dft = DftPlan::from_expr(dft, Direction::Forward).unwrap();
        let wht = WhtPlan::from_expr(wht).unwrap();
        invalid(dft.layout(stride).map(drop), "dft layout");
        invalid(wht.layout(stride).map(drop), "wht layout");
        invalid(simulate_dft(&dft, stride, cache).map(drop), "simulate_dft");
        invalid(simulate_wht(&wht, stride, cache).map(drop), "simulate_wht");
        invalid(
            attribute_dft(&dft, stride, cache).map(drop),
            "attribute_dft",
        );
        invalid(
            attribute_wht(&wht, stride, cache).map(drop),
            "attribute_wht",
        );
        invalid(
            attribute_dft_hier(&dft, stride, cache, hier).map(drop),
            "attribute_dft_hier",
        );
        invalid(
            attribute_wht_hier(&wht, stride, cache, hier).map(drop),
            "attribute_wht_hier",
        );

        let mut report = AnalysisReport::new();
        assert!(analyze_dft_plan(&dft, stride, "dft", &mut report).is_none());
        assert!(analyze_wht_plan(&wht, stride, "wht", &mut report).is_none());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["plan/out-of-bounds"; 2], "{:?}", report.findings);
        assert_eq!(report.error_count(), 2);
    }
}
