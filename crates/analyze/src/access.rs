//! Static footprint proofs over a plan's execution layout.
//!
//! `ddl-core` exports, per plan and root stride, the layout its executor
//! runs on ([`ddl_core::layout`]): each tree node's read and write views,
//! scratch intervals and primitive step families (a twiddle pass reads
//! its table), built from the compiled nodes `exec` itself reads. This
//! module proves that layout without executing it:
//!
//! * **in-bounds**: every view, scratch interval and step set fits its
//!   region (its last point, computed without overflow, lies inside);
//!   for the scratch region this is the scratch discipline — every
//!   interval a node carves lies inside the plan's declared scratch;
//! * **non-aliasing**: each step that is not in place reads and writes
//!   disjoint sets, and each node's scratch intervals are disjoint from
//!   one another and from the node's read and write views — exact
//!   arithmetic-progression intersection, not a range heuristic.
//!
//! A node that runs `calls` times is recorded by its last, highest-base
//! instance, so one proof per set covers every instance (a transpose
//! family records its first tile row; the node's `t2` and `t` intervals
//! bound every row): the analysis is `O(nodes)`, which is what lets CI
//! prove every plan at `2^1..2^16`. A
//! root stride whose spans overflow the address space has no layout and
//! is an error finding.

use crate::findings::{AnalysisReport, Severity};
use crate::stride;
use ddl_core::layout::{AccessSet, PlanLayout};
use ddl_core::{DdlError, DftPlan, WhtPlan};

/// Proves the layout of `plan` run out of place with its input read at
/// `root_stride` (buffers of the minimal spans, the tightest case).
/// Emits findings into `report` under `subject` and returns the layout,
/// or `None` when the plan has none at that stride.
pub fn analyze_dft_plan(
    plan: &DftPlan,
    root_stride: usize,
    subject: &str,
    report: &mut AnalysisReport,
) -> Option<PlanLayout> {
    prove_layout(plan.layout(root_stride), subject, report)
}

/// Proves the layout of `plan` run in place on a view of `root_stride`.
pub fn analyze_wht_plan(
    plan: &WhtPlan,
    root_stride: usize,
    subject: &str,
    report: &mut AnalysisReport,
) -> Option<PlanLayout> {
    prove_layout(plan.layout(root_stride), subject, report)
}

/// Proves one layout (see the module docs), counting one subject.
fn prove_layout(
    layout: Result<PlanLayout, DdlError>,
    subject: &str,
    report: &mut AnalysisReport,
) -> Option<PlanLayout> {
    report.subject();
    let layout = match layout {
        Ok(layout) => layout,
        Err(e) => {
            report.check();
            report.push(
                "plan/out-of-bounds",
                Severity::Error,
                subject,
                format!("no execution layout: {e}"),
            );
            return None;
        }
    };
    let mut proof = Proof {
        layout: &layout,
        subject,
        report,
    };
    for (i, node) in layout.nodes.iter().enumerate() {
        let views = [("read view", node.read), ("write view", node.write)];
        // An in-place node (the WHT) reads and writes one view.
        let views = &views[..if node.write == node.read { 1 } else { 2 }];
        for &(what, view) in views {
            proof.fits(i, what, view);
        }
        for (k, &(name, interval)) in node.scratch.iter().enumerate() {
            proof.fits(i, name, interval);
            for &(what, view) in views {
                proof.disjoint(i, &format!("{what} / {name}"), view, interval);
            }
            for &(other, set) in &node.scratch[k + 1..] {
                proof.disjoint(i, &format!("{name} / {other}"), interval, set);
            }
        }
        for step in &node.steps {
            let what = format!("{:?} step", step.kind);
            proof.fits(i, &what, step.read);
            if step.write != step.read {
                proof.fits(i, &what, step.write);
                proof.disjoint(i, &what, step.read, step.write);
            }
        }
    }
    Some(layout)
}

/// The proof obligations over one layout.
struct Proof<'a> {
    layout: &'a PlanLayout,
    subject: &'a str,
    report: &'a mut AnalysisReport,
}

impl Proof<'_> {
    /// Proves `set` fits its region: its last point, `base + (len-1) *
    /// max(stride, 1)`, lies inside. An empty set fits anywhere; one
    /// whose last point overflows `usize` fits nowhere.
    fn fits(&mut self, node: usize, what: &str, set: AccessSet) {
        self.report.check();
        let buf_len = self.layout.region_len(set.region);
        if !stride::fits(set.base, set.stride.max(1), set.len, buf_len) {
            self.report.push(
                "plan/out-of-bounds",
                Severity::Error,
                self.subject,
                format!(
                    "node {node} {what}: view (base {}, stride {}, len {}) exceeds {} region of \
                     {buf_len} points",
                    set.base,
                    set.stride,
                    set.len,
                    set.region.label(),
                ),
            );
        }
    }

    /// Proves two sets one node touches together share no point.
    fn disjoint(&mut self, node: usize, what: &str, a: AccessSet, b: AccessSet) {
        self.report.check();
        if a.intersects(&b) {
            self.report.push(
                "plan/aliasing",
                Severity::Error,
                self.subject,
                format!(
                    "node {node} {what}: (base {}, stride {}, len {} in {}) aliases (base {}, \
                     stride {}, len {} in {})",
                    a.base,
                    a.stride,
                    a.len,
                    a.region.label(),
                    b.base,
                    b.stride,
                    b.len,
                    b.region.label()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddl_core::layout::Region;
    use ddl_num::Direction;

    #[test]
    fn golden_trees_prove_clean() {
        for expr in [
            "ct(4,4)",
            "ct(2^5, 2^5)",
            "ctddl(ctddl(8, 8), ct(8, 8))",
            "ct(ddl(8), ct(8, 4))",
            "ct(ctddl(4, 8), ddl(8))",
        ] {
            let plan = DftPlan::from_expr(expr, Direction::Forward).unwrap();
            let mut report = AnalysisReport::new();
            for stride in [1usize, 2, 7] {
                assert!(analyze_dft_plan(&plan, stride, expr, &mut report).is_some());
            }
            assert!(report.passes(), "{expr}: {:?}", report.findings);
            assert!(report.checks > 0);
        }
        for expr in ["split(8, 8)", "splitddl(splitddl(8, 8), split(4, 4))"] {
            let plan = WhtPlan::from_expr(expr).unwrap();
            let mut report = AnalysisReport::new();
            for stride in [1usize, 2, 7] {
                assert!(analyze_wht_plan(&plan, stride, expr, &mut report).is_some());
            }
            assert!(report.passes(), "{expr}: {:?}", report.findings);
        }
    }

    #[test]
    fn doctored_layouts_are_caught() {
        let plan = DftPlan::from_expr("ctddl(ddl(8), 8)", Direction::Forward).unwrap();
        let layout = plan.layout(2).unwrap();
        let rules = |layout: PlanLayout| {
            let mut report = AnalysisReport::new();
            let _ = prove_layout(Ok(layout), "doctored", &mut report);
            let mut rules: Vec<String> = report.findings.into_iter().map(|f| f.rule).collect();
            rules.dedup();
            rules
        };
        assert!(rules(layout.clone()).is_empty());

        // A stage-2 write one point past the output buffer.
        let mut past = layout.clone();
        past.nodes[2].write.base += 1;
        assert_eq!(rules(past), ["plan/out-of-bounds"]);

        // A write whose last point overflows `usize`: out of bounds, not
        // a panic.
        let mut huge = layout.clone();
        huge.nodes[2].write.stride = usize::MAX / 2;
        huge.nodes[2].write.len = 3;
        assert_eq!(rules(huge), ["plan/out-of-bounds"]);

        // An empty write fits anywhere.
        let mut empty = layout.clone();
        empty.nodes[2].write.base = usize::MAX;
        empty.nodes[2].write.len = 0;
        assert!(rules(empty).is_empty());

        // The root's t overlapping its t2.
        let mut overlap = layout.clone();
        overlap.nodes[0].scratch[1].1.base -= 1;
        assert_eq!(rules(overlap), ["plan/aliasing"]);

        // A scratch region one point short of the carving.
        let mut short = layout;
        short.regions[2].1 -= 1;
        assert!(rules(short).contains(&"plan/out-of-bounds".to_string()));

        // A leaf gather writing into its own input.
        let wht = WhtPlan::from_expr("split(ddl(8), 8)").unwrap();
        let mut layout = wht.layout(1).unwrap();
        let gather = &mut layout.nodes[2].steps[0];
        gather.write = AccessSet::new(Region::Data, gather.read.base, 1, 8);
        assert!(rules(layout).contains(&"plan/aliasing".to_string()));
    }

    #[test]
    fn unrepresentable_strides_are_one_error() {
        let plan = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let mut report = AnalysisReport::new();
        assert!(analyze_dft_plan(&plan, usize::MAX / 2, "huge", &mut report).is_none());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].rule, "plan/out-of-bounds");
    }
}
