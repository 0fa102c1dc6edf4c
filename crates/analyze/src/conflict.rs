//! Closed-form cache-set conflict degrees for strided access families.
//!
//! The paper's Case III analysis is the heart of the DDL argument: an
//! `n`-point leaf reading at stride `s` touches line addresses
//! `base + i·s`, and when the stride is a multiple of the line size
//! those lines land in only `S / gcd(S, s/L)` of the cache's `S` sets.
//! Once the number of lines per set exceeds the associativity the leaf
//! thrashes — every iteration of the surrounding loop nest evicts the
//! lines the next one needs.
//!
//! This module computes that degree *statically and exactly* from the
//! cache geometry, in closed form for the two regimes that matter
//! (dense accesses, and line-aligned strides) with an exact enumeration
//! fallback for irregular geometries. It is the static counterpart to
//! `ddl-cachesim`: the tests in this crate check that ranking plans by
//! the static conflict summary agrees with ranking them by simulated
//! non-compulsory misses.

use crate::findings::{AnalysisReport, Severity};
use ddl_cachesim::CacheConfig;
use ddl_core::layout::PlanLayout;
use std::collections::{HashMap, HashSet};

/// Cache geometry the static analysis needs: line size, set count and
/// associativity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct CacheGeometry {
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Number of sets.
    pub sets: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheGeometry {
    /// Derives the geometry from a `ddl-cachesim` configuration, so the
    /// static analyzer and the simulator always describe the same cache.
    pub fn from_config(config: &CacheConfig) -> CacheGeometry {
        CacheGeometry {
            line_bytes: config.line_bytes,
            sets: config.sets(),
            associativity: config.associativity,
        }
    }
}

/// Conflict profile of one strided access family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct ConflictInfo {
    /// Distinct cache lines the family touches.
    pub lines: usize,
    /// Distinct sets those lines occupy.
    pub distinct_sets: usize,
    /// Maximum number of distinct lines mapping to one set — the
    /// family thrashes when this exceeds the associativity.
    pub degree: usize,
}

impl ConflictInfo {
    /// True when the family's layout — not its size — causes set
    /// conflicts (paper Case III).
    ///
    /// Touching `L` distinct lines on `S` sets forces a degree of at
    /// least `ceil(L/S)` no matter how the lines are laid out (a dense
    /// walk achieves exactly that packing bound, and its misses are
    /// plain capacity misses). A family is pathological only when its
    /// degree exceeds both that unavoidable bound and the
    /// associativity: the excess is line aliasing induced by the
    /// stride, the thrashing the DDL reorganizations exist to remove.
    #[must_use]
    pub fn is_pathological(&self, geom: &CacheGeometry) -> bool {
        let packing = self.lines.div_ceil(geom.sets.max(1)).max(1);
        self.degree > geom.associativity.max(packing)
    }
}

/// Computes the exact conflict profile of the access family
/// `{ base_bytes + i·stride_bytes : 0 <= i < n }`, each access
/// `point_bytes` wide.
///
/// Uses closed forms for the dense regime (`stride <= line`) and the
/// line-aligned strided regime (`stride % line == 0`, accesses not
/// straddling lines); falls back to exact enumeration otherwise. The
/// two paths provably agree (see the tests).
pub fn conflict_degree(
    geom: &CacheGeometry,
    base_bytes: usize,
    stride_bytes: usize,
    point_bytes: usize,
    n: usize,
) -> ConflictInfo {
    if n == 0 || point_bytes == 0 {
        return ConflictInfo {
            lines: 0,
            distinct_sets: 0,
            degree: 0,
        };
    }
    let line = geom.line_bytes;
    let sets = geom.sets;
    if stride_bytes <= line {
        // Dense regime: consecutive accesses advance by at most one
        // line, so every line between the first and last byte touched
        // is touched, and touched lines are consecutive. Consecutive
        // lines round-robin across sets.
        let first = base_bytes / line;
        let last = (base_bytes + (n - 1) * stride_bytes + point_bytes - 1) / line;
        let lines = last - first + 1;
        return ConflictInfo {
            lines,
            distinct_sets: lines.min(sets),
            degree: lines.div_ceil(sets),
        };
    }
    if stride_bytes.is_multiple_of(line) && (base_bytes % line) + point_bytes <= line {
        // Line-aligned strided regime (the paper's pathological case):
        // each access touches exactly one line, line indices form the
        // progression first + i·step with step = stride/line >= 1, so
        // the occupied sets are the residues of that progression —
        // `sets / gcd(step, sets)` of them, filled evenly.
        let step = stride_bytes / line;
        let period = sets / gcd(step % sets.max(1), sets).max(1);
        let period = period.max(1);
        return ConflictInfo {
            lines: n,
            distinct_sets: n.min(period),
            degree: n.div_ceil(period),
        };
    }
    enumerate_conflicts(geom, base_bytes, stride_bytes, point_bytes, n)
}

/// Exact enumeration of lines-per-set for irregular geometries.
fn enumerate_conflicts(
    geom: &CacheGeometry,
    base_bytes: usize,
    stride_bytes: usize,
    point_bytes: usize,
    n: usize,
) -> ConflictInfo {
    let mut per_set: HashMap<usize, HashSet<usize>> = HashMap::new();
    let mut all_lines: HashSet<usize> = HashSet::new();
    for i in 0..n {
        let lo = (base_bytes + i * stride_bytes) / geom.line_bytes;
        let hi = (base_bytes + i * stride_bytes + point_bytes - 1) / geom.line_bytes;
        for l in lo..=hi {
            all_lines.insert(l);
            per_set.entry(l % geom.sets).or_default().insert(l);
        }
    }
    ConflictInfo {
        lines: all_lines.len(),
        distinct_sets: per_set.len(),
        degree: per_set.values().map(HashSet::len).max().unwrap_or(0),
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The conflict-heaviest family of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct WorstFamily {
    /// Points per execution.
    pub n: usize,
    /// Stride in points.
    pub stride: usize,
    /// Its conflict profile.
    pub info: ConflictInfo,
}

/// Plan-level conflict summary: the worst per-family degree plus an
/// access-weighted count of pathological traffic, the static analogue of
/// conflict misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct ConflictSummary {
    /// Largest conflict degree over every access family.
    pub max_degree: usize,
    /// `Σ calls·n` over the read/write sets that are pathological
    /// (degree beyond both the associativity and the dense packing
    /// bound): the number of point accesses made through a thrashing
    /// pattern. Ranking plans by this weight matches ranking them by
    /// simulated non-compulsory misses.
    pub pathological_accesses: u64,
    /// The heaviest family: pathological families outrank benign ones,
    /// then higher degree wins. `None` only for plans with no families.
    pub worst: Option<WorstFamily>,
}

/// Computes the conflict summary of a plan layout's step families under
/// a cache geometry.
///
/// Region base addresses are taken as 0: for line-multiple strides the
/// degree is invariant under shifting the whole family (all line indices
/// shift by a constant, permuting sets), so a representative base is
/// exact for the regimes that matter.
pub fn conflict_summary(layout: &PlanLayout, geom: &CacheGeometry) -> ConflictSummary {
    let point_bytes = layout.point_bytes;
    let mut summary = ConflictSummary::default();
    for family in layout.steps() {
        for set in [&family.read, &family.write] {
            let info = conflict_degree(
                geom,
                set.base * point_bytes,
                set.stride * point_bytes,
                point_bytes,
                set.len,
            );
            summary.max_degree = summary.max_degree.max(info.degree);
            let outranks = match summary.worst {
                None => true,
                Some(w) => {
                    (info.is_pathological(geom), info.degree)
                        > (w.info.is_pathological(geom), w.info.degree)
                }
            };
            if outranks {
                summary.worst = Some(WorstFamily {
                    n: set.len,
                    stride: set.stride,
                    info,
                });
            }
            if info.is_pathological(geom) {
                summary.pathological_accesses += family.calls * set.len as u64;
            }
        }
    }
    summary
}

/// [`conflict_summary`] that also reports pathological families as
/// `warning`-level findings (they are performance hazards, not
/// correctness errors, so they never gate CI).
pub fn conflict_findings(
    layout: &PlanLayout,
    geom: &CacheGeometry,
    subject: &str,
    report: &mut AnalysisReport,
) -> ConflictSummary {
    let summary = conflict_summary(layout, geom);
    report.check();
    if let Some(worst) = summary.worst {
        if worst.info.is_pathological(geom) {
            report.push(
                "plan/cache-conflict",
                Severity::Warning,
                subject,
                format!(
                    "leaf family (n {}, stride {}) maps {} lines onto {} sets (degree {}, \
                     associativity {}): Case III thrashing; {} accesses through pathological \
                     patterns",
                    worst.n,
                    worst.stride,
                    worst.info.lines,
                    worst.info.distinct_sets,
                    worst.info.degree,
                    geom.associativity,
                    summary.pathological_accesses
                ),
            );
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(capacity: usize, line: usize, assoc: usize) -> CacheGeometry {
        CacheGeometry::from_config(&CacheConfig {
            capacity_bytes: capacity,
            line_bytes: line,
            associativity: assoc,
        })
    }

    #[test]
    fn closed_forms_match_enumeration() {
        let geometries = [
            geom(16 * 1024, 64, 1),
            geom(16 * 1024, 64, 2),
            geom(512 * 1024, 32, 1),
            geom(4 * 1024, 16, 4),
        ];
        for g in geometries {
            for &stride in &[8usize, 16, 32, 64, 96, 128, 256, 1024, 4096, 16384] {
                for &n in &[1usize, 2, 7, 16, 64, 257] {
                    for &base in &[0usize, 60, 64, 4096] {
                        let fast = conflict_degree(&g, base, stride, 16, n);
                        let slow = enumerate_conflicts(&g, base, stride, 16, n);
                        assert_eq!(fast, slow, "geom {g:?} base {base} stride {stride} n {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn contiguous_access_is_benign() {
        // 16-byte points at unit stride in a 16KB direct-mapped cache:
        // 64 points span 16 lines over 256 sets — degree 1.
        let g = geom(16 * 1024, 64, 1);
        let info = conflict_degree(&g, 0, 16, 16, 64);
        assert_eq!(info.lines, 16);
        assert_eq!(info.degree, 1);
        assert!(!info.is_pathological(&g));
    }

    #[test]
    fn power_of_two_stride_is_pathological() {
        // The paper's Case III: stride 2^k points. 16KB direct-mapped,
        // 64B lines => 256 sets. Stride 1024 points = 16KB = exactly the
        // cache size: every access maps to the *same* set.
        let g = geom(16 * 1024, 64, 1);
        let info = conflict_degree(&g, 0, 1024 * 16, 16, 16);
        assert_eq!(info.distinct_sets, 1);
        assert_eq!(info.degree, 16);
        assert!(info.is_pathological(&g));
        // Associativity absorbs small degrees.
        let g8 = geom(16 * 1024 * 16, 64, 16);
        let info8 = conflict_degree(&g8, 0, 1024 * 16, 16, 16);
        assert!(!info8.is_pathological(&g8));
    }

    #[test]
    fn dense_capacity_wrap_is_not_pathological() {
        // A dense walk over 4x the cache touches 1024 consecutive lines
        // on 256 sets: degree 4, but that is the packing bound — pure
        // capacity traffic, not Case III conflicts.
        let g = geom(16 * 1024, 64, 1);
        let info = conflict_degree(&g, 0, 16, 16, 4096);
        assert_eq!(info.degree, 4);
        assert!(!info.is_pathological(&g));
        // The same degree from a *strided* family touching only 64
        // lines IS pathological: the packing bound there is 1.
        let strided = conflict_degree(&g, 0, 64 * 16, 16, 64);
        assert_eq!(strided.lines, 64);
        assert_eq!(strided.degree, 4);
        assert!(strided.is_pathological(&g));
    }

    #[test]
    fn degree_is_base_invariant_for_line_multiple_strides() {
        let g = geom(16 * 1024, 64, 1);
        for base in [0usize, 64, 128, 8192] {
            let info = conflict_degree(&g, base, 2048, 16, 64);
            assert_eq!(info.degree, conflict_degree(&g, 0, 2048, 16, 64).degree);
        }
    }
}
