//! Static enrichment and three-way cross-check of attribution runs.
//!
//! `ddl-core`'s attribution layer classifies every leaf empirically
//! (simulated exclusive miss rate) and analytically (`CacheModel`).
//! This module adds the third, *static* verdict — [`conflict_degree`]
//! over the leaf's read and write access families under the run's own
//! cache geometry — and then cross-checks all three. The three methods
//! share no code paths: the simulator replays real addresses through an
//! LRU cache, the model applies the paper's Sec. III-B closed form, and
//! the analyzer counts set residues of arithmetic progressions. Where
//! they agree, the Case III story is corroborated three independent
//! ways; where they disagree, [`crosscheck`] reports the node by path
//! instead of dropping it.

use crate::conflict::{conflict_degree, CacheGeometry};
use ddl_core::attrib::{AttributionRun, CaseClass, NodeAttribution};

/// One node where the three classification methods split, at one
/// geometry level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement {
    /// `/`-joined node path (`label:size@stride` segments).
    pub path: String,
    /// Which geometry disagreed: `"line"` (the run's cache) or `"page"`
    /// (the TLB viewed as a cache with page-sized lines).
    pub level: &'static str,
    /// Empirical class from the simulated exclusive miss rate.
    pub empirical: Option<CaseClass>,
    /// Analytical `CacheModel` class.
    pub model: Option<CaseClass>,
    /// Static conflict-analyzer verdict.
    pub static_pathological: Option<bool>,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: empirical {:?}, model {:?}, static pathological {:?}",
            self.path, self.level, self.empirical, self.model, self.static_pathological
        )
    }
}

/// The static verdict for one leaf's read/write streams under one
/// geometry: worst conflict degree and whether either stream is
/// pathological.
fn static_verdict(geom: &CacheGeometry, point_bytes: usize, node: &NodeAttribution) -> (bool, u64) {
    let mut degree = 0usize;
    let mut pathological = false;
    let mut streams = vec![node.stride];
    if let Some(ws) = node.write_stride {
        streams.push(ws);
    }
    for stride in streams {
        let info = conflict_degree(geom, 0, stride * point_bytes, point_bytes, node.size);
        degree = degree.max(info.degree);
        pathological |= info.is_pathological(geom);
    }
    (pathological, degree as u64)
}

/// Fills `static_pathological`/`static_degree` on every annotated leaf of
/// the run, from [`conflict_degree`] over both the read stream (span
/// stride) and the write stream (`write_stride`, from the plan's layout
/// record). A base address of 0 is representative: for the line-multiple
/// strides that matter the degree is base-invariant.
///
/// On hierarchy-attributed runs (v2) the same analysis additionally runs
/// against the TLB's page geometry — the TLB is a cache whose line is
/// the page — filling the `static_*_page` twins.
pub fn annotate_static(run: &mut AttributionRun) {
    let geom = CacheGeometry::from_config(&run.cache);
    let page_geom = run
        .hierarchy
        .as_ref()
        .map(|h| CacheGeometry::from_config(&h.config.tlb_as_cache()));
    let point_bytes = run.point_bytes;
    run.walk_mut(&mut |node, _| {
        // Leaves only: the conflict model, like the paper's, describes a
        // leaf's access families, not a split's twiddle pass.
        if node.model.is_none() {
            return;
        }
        let (pathological, degree) = static_verdict(&geom, point_bytes, node);
        node.static_pathological = Some(pathological);
        node.static_degree = Some(degree);
        if let Some(pg) = &page_geom {
            let (pathological, degree) = static_verdict(pg, point_bytes, node);
            node.static_pathological_page = Some(pathological);
            node.static_degree_page = Some(degree);
        }
    });
}

fn check_level(
    out: &mut Vec<Disagreement>,
    path: &str,
    level: &'static str,
    empirical: Option<CaseClass>,
    model: Option<CaseClass>,
    stat: Option<bool>,
) {
    let (Some(model), Some(stat)) = (model, stat) else {
        return;
    };
    let verdicts = [
        empirical.map(|e| e == CaseClass::Case3),
        Some(model == CaseClass::Case3),
        Some(stat),
    ];
    let reference = verdicts[1];
    if verdicts.iter().any(|v| *v != reference) {
        out.push(Disagreement {
            path: path.to_string(),
            level,
            empirical,
            model: Some(model),
            static_pathological: Some(stat),
        });
    }
}

/// Compares the three Case III verdicts on every leaf that has all three
/// (run [`annotate_static`] first). Agreement is boolean — "is this leaf
/// Case III?" — because the static analyzer has no intermediate class.
/// On hierarchy-attributed runs the comparison repeats at page geometry
/// against the `*_page` twins. Returns every disagreeing node with its
/// path and level; an empty vector means the methods tell one story at
/// every granularity.
pub fn crosscheck(run: &AttributionRun) -> Vec<Disagreement> {
    let mut out = Vec::new();
    run.walk(&mut |node, path| {
        check_level(
            &mut out,
            path,
            "line",
            node.empirical,
            node.model,
            node.static_pathological,
        );
        check_level(
            &mut out,
            path,
            "page",
            node.empirical_page,
            node.model_page,
            node.static_pathological_page,
        );
    });
    out
}

/// Convenience: leaves of the run in depth-first order, with paths.
pub fn annotated_leaves(run: &AttributionRun) -> Vec<(String, NodeAttribution)> {
    let mut out = Vec::new();
    run.walk(&mut |node, path| {
        if node.model.is_some() {
            out.push((path.to_string(), node.clone()));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddl_cachesim::{CacheConfig, HierarchyConfig};
    use ddl_core::attrib::{attribute_dft, attribute_dft_hier};
    use ddl_core::DftPlan;
    use ddl_num::Direction;

    fn small_cache() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 16 * 1024,
            line_bytes: 64,
            associativity: 1,
        }
    }

    fn small_hier() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                capacity_bytes: 4 * 1024,
                line_bytes: 64,
                associativity: 1,
            },
            l2: small_cache(),
            tlb_entries: 64,
            tlb_page_bytes: 4096,
            tlb_ways: 4,
        }
    }

    #[test]
    fn static_annotation_fills_every_leaf() {
        let plan = DftPlan::from_expr("ctddl(64, 32)", Direction::Forward).unwrap();
        let mut run = attribute_dft(&plan, 64, small_cache()).unwrap();
        annotate_static(&mut run);
        let leaves = annotated_leaves(&run);
        assert!(!leaves.is_empty());
        for (path, leaf) in &leaves {
            assert!(leaf.static_pathological.is_some(), "{path}");
            assert!(leaf.static_degree.is_some(), "{path}");
        }
    }

    #[test]
    fn crosscheck_reports_injected_disagreements_with_paths() {
        let plan = DftPlan::from_expr("ct(64, 32)", Direction::Forward).unwrap();
        let mut run = attribute_dft(&plan, 64, small_cache()).unwrap();
        annotate_static(&mut run);
        assert!(crosscheck(&run).is_empty(), "golden pair should agree");

        // Flip one leaf's static verdict: the disagreement must surface
        // with that node's path, not vanish.
        let mut flipped_path = String::new();
        run.walk_mut(&mut |node, path| {
            if node.model.is_some() && flipped_path.is_empty() {
                node.static_pathological = Some(false);
                flipped_path = path.to_string();
            }
        });
        let disagreements = crosscheck(&run);
        assert_eq!(disagreements.len(), 1);
        assert_eq!(disagreements[0].path, flipped_path);
        assert_eq!(disagreements[0].level, "line");
        assert!(disagreements[0].to_string().contains(&flipped_path));
    }

    #[test]
    fn page_static_annotation_fills_hierarchy_leaves_only() {
        let plan = DftPlan::from_expr("ctddl(64, 32)", Direction::Forward).unwrap();
        let mut run = attribute_dft_hier(&plan, 64, small_cache(), small_hier()).unwrap();
        annotate_static(&mut run);
        let leaves = annotated_leaves(&run);
        assert!(!leaves.is_empty());
        for (path, leaf) in &leaves {
            assert!(leaf.static_pathological_page.is_some(), "{path}");
            assert!(leaf.static_degree_page.is_some(), "{path}");
        }

        // A line-only (v1-style) run must not grow page verdicts.
        let mut line_run = attribute_dft(&plan, 64, small_cache()).unwrap();
        annotate_static(&mut line_run);
        for (path, leaf) in annotated_leaves(&line_run) {
            assert!(leaf.static_pathological_page.is_none(), "{path}");
            assert!(leaf.static_degree_page.is_none(), "{path}");
        }
    }

    #[test]
    fn crosscheck_reports_page_level_disagreements() {
        let plan = DftPlan::from_expr("ct(64, 32)", Direction::Forward).unwrap();
        let mut run = attribute_dft_hier(&plan, 64, small_cache(), small_hier()).unwrap();
        annotate_static(&mut run);
        let at_page = |ds: &[Disagreement], path: &str| {
            ds.iter().any(|d| d.level == "page" && d.path == path)
        };

        // Flipping one leaf's *page* verdict must toggle that node's
        // page-level disagreement, tagged with the page level.
        let mut flipped_path = String::new();
        run.walk_mut(&mut |node, path| {
            if node.model_page.is_some() && flipped_path.is_empty() {
                flipped_path = path.to_string();
            }
        });
        assert!(!flipped_path.is_empty(), "no page-classified leaf found");
        let before = at_page(&crosscheck(&run), &flipped_path);
        run.walk_mut(&mut |node, path| {
            if path == flipped_path {
                let old = node.static_pathological_page.unwrap_or(false);
                node.static_pathological_page = Some(!old);
            }
        });
        let after = at_page(&crosscheck(&run), &flipped_path);
        assert_ne!(before, after, "page flip did not change the crosscheck");
    }
}
