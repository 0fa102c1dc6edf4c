//! The execution layout of a compiled plan.
//!
//! [`DftPlan::layout`](crate::DftPlan::layout) and
//! [`WhtPlan::layout`](crate::WhtPlan::layout) describe, for one root
//! stride, where every stage of one execution reads, writes and keeps
//! scratch. They are built from the compiled nodes the executors run on
//! (the scratch carving and twiddle offsets fixed when the plan was
//! built, and the executors' own stride and gather rules), so every
//! consumer reads one description instead of re-deriving the executor's
//! walk:
//!
//! * `ddl-analyze` proves each layout in bounds, alias-free and inside its
//!   scratch, and ranks its step families by cache-set conflicts;
//! * per-node miss attribution ([`crate::attrib`]) takes each node's write
//!   stride and model class from its record;
//! * the simulation harness ([`crate::traced`]) sizes its regions from it.
//!
//! A DFT layout describes the traced executor, the paper's schedule. An
//! untraced run of a reorganizing split adds one store inside regions
//! the layout already carves: its output transpose from the node's `t2`
//! into its write view (`dft.rs` module docs, *Observation*).
//!
//! A layout holds one [`NodeLayout`] per tree node, in executor order: a
//! node before its subtree, DFT children left (stage 1) then right (stage
//! 2), WHT children right (stage A) then left (stage B). A node that runs
//! `calls` times is described by its last instance, the one at the
//! highest bases: every other instance is the same sets shifted down, so
//! the last one is the bounds-critical one. The transpose step families
//! are the exception: they record the first tile row of that instance,
//! the row the conflict ranking prices, and the node's `t2` and `t`
//! scratch intervals bound every row.
//!
//! Spans are checked once, at the root: a region's length and byte size
//! must fit the address space, or the layout is a
//! [`DdlError::InvalidStride`]. Every view of the walk lies inside its
//! root region, so the recursion's index arithmetic cannot overflow.

use ddl_num::DdlError;

/// Tile edge (in points) of the DFT reorganization transpose: 32 complex
/// points = 512 B per tile row, a few KiB per tile — resident in any L1.
pub const REORG_TILE: usize = 32;

/// Which buffer of one execution an access set lives in. Regions are
/// disjoint address ranges (the simulation harness lays them out
/// page-aligned), so sets in different regions never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// DFT input buffer `x`.
    Input,
    /// DFT output buffer `y`.
    Output,
    /// Scratch buffer (DFT intermediates / WHT reorganization buffer).
    Scratch,
    /// Twiddle-factor tables.
    Twiddle,
    /// The WHT's single in-place data buffer.
    Data,
}

impl Region {
    /// Stable lowercase name used in findings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Region::Input => "input",
            Region::Output => "output",
            Region::Scratch => "scratch",
            Region::Twiddle => "twiddle",
            Region::Data => "data",
        }
    }
}

/// An arithmetic progression of point indices within one region:
/// `{ base + i·stride : 0 <= i < len }`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct AccessSet {
    /// Buffer the indices refer to.
    pub region: Region,
    /// First point index.
    pub base: usize,
    /// Step between consecutive points.
    pub stride: usize,
    /// Number of points.
    pub len: usize,
}

impl AccessSet {
    /// A new access set.
    pub fn new(region: Region, base: usize, stride: usize, len: usize) -> AccessSet {
        AccessSet {
            region,
            base,
            stride,
            len,
        }
    }

    /// Points `first`, `first + step`, … of this set, `len` of them: the
    /// view of one sub-transform instance (the paper's Property 1).
    pub fn sub(self, first: usize, step: usize, len: usize) -> AccessSet {
        let base = self.base + first * self.stride;
        AccessSet::new(self.region, base, step * self.stride, len)
    }

    /// Exact intersection test: do the two index sets share any point?
    /// Sets in different regions never intersect.
    #[must_use]
    pub fn intersects(&self, other: &AccessSet) -> bool {
        self.region == other.region
            && progressions_intersect(
                self.base,
                self.stride,
                self.len,
                other.base,
                other.stride,
                other.len,
            )
    }
}

/// Exact intersection of two finite arithmetic progressions
/// `{b1 + i·s1 : i < n1}` and `{b2 + j·s2 : j < n2}`, solved as a linear
/// Diophantine equation (no enumeration, no overflow: `i128` throughout).
#[must_use]
pub fn progressions_intersect(
    b1: usize,
    s1: usize,
    n1: usize,
    b2: usize,
    s2: usize,
    n2: usize,
) -> bool {
    if n1 == 0 || n2 == 0 {
        return false;
    }
    // Degenerate progressions (single point, or stride 0 which repeats
    // the base) reduce to membership tests.
    if n1 == 1 || s1 == 0 {
        return contains_point(b2, s2, n2, b1);
    }
    if n2 == 1 || s2 == 0 {
        return contains_point(b1, s1, n1, b2);
    }
    let (b1, s1, n1) = (b1 as i128, s1 as i128, n1 as i128);
    let (b2, s2, n2) = (b2 as i128, s2 as i128, n2 as i128);
    // Solve b1 + i*s1 = b2 + j*s2  =>  i*s1 - j*s2 = b2 - b1.
    let d = b2 - b1;
    let (g, x, _y) = egcd(s1, s2);
    if d % g != 0 {
        return false;
    }
    // One solution: i0 = x * (d/g); the full family is
    // i = i0 + (s2/g)*t, and j follows from the line equation.
    let i0 = x * (d / g);
    let step_i = s2 / g;
    // Clamp t so that 0 <= i < n1.
    let (t_lo_i, t_hi_i) = t_range(i0, step_i, n1);
    // j = (b1 + i*s1 - b2)/s2 = (i*s1 - d)/s2; as a function of t:
    // j = j0 + (s1/g)*t with j0 = (i0*s1 - d)/s2.
    let j0 = (i0 * s1 - d) / s2;
    let step_j = s1 / g;
    let (t_lo_j, t_hi_j) = t_range(j0, step_j, n2);
    t_lo_i.max(t_lo_j) <= t_hi_i.min(t_hi_j)
}

/// Is `p` a member of `{b + i·s : 0 <= i < n}`?
fn contains_point(b: usize, s: usize, n: usize, p: usize) -> bool {
    if n == 0 {
        return false;
    }
    if s == 0 || n == 1 {
        return p == b;
    }
    p >= b && (p - b).is_multiple_of(s) && (p - b) / s < n
}

/// Extended gcd: returns `(g, x, y)` with `a*x + b*y = g`, `g > 0`.
fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Range of `t` with `0 <= v0 + step*t <= vmax - 1`, as inclusive bounds
/// (`step != 0`). Returns an empty range as `(1, 0)` when impossible.
fn t_range(v0: i128, step: i128, vmax: i128) -> (i128, i128) {
    let lo = -v0;
    let hi = vmax - 1 - v0;
    if step > 0 {
        (div_ceil(lo, step), div_floor(hi, step))
    } else {
        (div_ceil(hi, step), div_floor(lo, step))
    }
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// The primitive a [`Step`] family executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A leaf codelet: loads its read set, stores its write set (the same
    /// set for the in-place WHT).
    Leaf,
    /// A DFT leaf's gather of its strided input into contiguous scratch.
    Gather,
    /// A WHT node's gather into contiguous scratch and scatter back: both
    /// directions between the same two sets.
    GatherScatter,
    /// The twiddle pass: per point, one table load and a read-modify-write
    /// of the stage-1 buffer.
    Twiddle,
    /// One tile row of the reorganization transpose: a contiguous read
    /// and a stride-`n2` write of up to [`REORG_TILE`] points. The family
    /// records row 0 of `t2`, the first tile row of the node's last
    /// instance, not its highest-index one.
    TransposeRow,
}

/// `calls` executions of one primitive, the last reading `read` and
/// writing `write` (the others differ by a base shift); a
/// [`StepKind::TransposeRow`] family records its first tile row instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct Step {
    /// The primitive.
    pub kind: StepKind,
    /// Executions in one plan run.
    pub calls: u64,
    /// Read set of the last execution (the first tile row of a transpose
    /// family).
    pub read: AccessSet,
    /// Write set of the same execution.
    pub write: AccessSet,
}

impl Step {
    /// Point loads and stores of all `calls` executions, as the executor
    /// traces them.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        let per_point = match self.kind {
            StepKind::Leaf | StepKind::Gather | StepKind::TransposeRow => 2,
            StepKind::Twiddle => 3,
            StepKind::GatherScatter => 4,
        };
        self.calls * per_point * self.read.len as u64
    }
}

/// One tree node of a [`PlanLayout`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeLayout {
    /// Points the node transforms.
    pub size: usize,
    /// The node's reorganization flag.
    pub reorg: bool,
    /// True for a leaf of the tree.
    pub leaf: bool,
    /// Index of the parent record; `None` for the root.
    pub parent: Option<usize>,
    /// Times one execution enters the node, as its node spans count them
    /// (a WHT lane batch is one call for all its lanes).
    pub calls: u64,
    /// The last instance's input view; its stride is the node span's.
    pub read: AccessSet,
    /// The last instance's output view (`read` itself for the WHT, which
    /// runs in place).
    pub write: AccessSet,
    /// Named scratch intervals the node carves: `t2` (DFT reorganizing
    /// split), `t` (DFT split), `r` (gather target) and `rest` (what its
    /// children carve from).
    pub scratch: Vec<(&'static str, AccessSet)>,
    /// The node's own primitive step families, in execution order (its
    /// children's are in their records).
    pub steps: Vec<Step>,
}

impl NodeLayout {
    /// A record with no scratch or steps yet.
    pub(crate) fn new(
        size: usize,
        reorg: bool,
        leaf: bool,
        parent: Option<usize>,
        calls: u64,
        read: AccessSet,
        write: AccessSet,
    ) -> NodeLayout {
        NodeLayout {
            size,
            reorg,
            leaf,
            parent,
            calls,
            read,
            write,
            scratch: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Adds a step family.
    pub(crate) fn step(&mut self, kind: StepKind, calls: u64, read: AccessSet, write: AccessSet) {
        self.steps.push(Step {
            kind,
            calls,
            read,
            write,
        });
    }

    /// Adds the scratch interval `[off, off + len)` under `name`; an
    /// empty interval is left out.
    pub(crate) fn carve(&mut self, name: &'static str, off: usize, len: usize) -> AccessSet {
        let set = AccessSet::new(Region::Scratch, off, 1, len);
        if len > 0 {
            self.scratch.push((name, set));
        }
        set
    }
}

/// The execution layout of one plan run at one root stride.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanLayout {
    /// Bytes per data point (16 for the complex DFT, 8 for the WHT).
    pub point_bytes: usize,
    /// Each region's length in points, in the order the simulation
    /// harness allocates them: input, output, scratch and twiddle tables
    /// for the DFT; data and scratch for the WHT.
    pub regions: Vec<(Region, usize)>,
    /// One record per tree node, in executor order.
    pub nodes: Vec<NodeLayout>,
}

impl PlanLayout {
    /// An empty layout over `regions`, refused with
    /// [`DdlError::InvalidStride`] unless every region, at least one point
    /// each, fits one allocation (`isize::MAX` bytes) together.
    pub(crate) fn new(
        point_bytes: usize,
        regions: Vec<(Region, usize)>,
    ) -> Result<PlanLayout, DdlError> {
        let bytes = regions.iter().try_fold(0usize, |total, &(_, len)| {
            len.max(1)
                .checked_mul(point_bytes)
                .and_then(|b| b.checked_add(total))
                .filter(|&b| b <= isize::MAX as usize)
        });
        if bytes.is_none() {
            return Err(DdlError::InvalidStride {
                detail: format!(
                    "layout regions {regions:?} of {point_bytes}-byte points exceed the address space"
                ),
            });
        }
        Ok(PlanLayout {
            point_bytes,
            regions,
            nodes: Vec::new(),
        })
    }

    /// Length of `region` in points (zero for a region the plan lacks).
    #[must_use]
    pub fn region_len(&self, region: Region) -> usize {
        self.regions
            .iter()
            .find(|(r, _)| *r == region)
            .map_or(0, |&(_, len)| len)
    }

    /// Every step family of the run, in executor order.
    pub fn steps(&self) -> impl Iterator<Item = &Step> {
        self.nodes.iter().flat_map(|node| &node.steps)
    }

    /// Point loads and stores of one run — what a traced run counts.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.steps().map(Step::accesses).sum()
    }

    /// The records whose parent is record `parent`, with their indices.
    pub fn children(&self, parent: usize) -> impl Iterator<Item = (usize, &NodeLayout)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, node)| node.parent == Some(parent))
    }
}

/// Points an `n`-point view at `stride` spans from its first index:
/// `(n - 1)·stride + 1`, or [`DdlError::InvalidStride`] when that
/// overflows or a multi-point view has stride 0.
pub(crate) fn span(n: usize, stride: usize) -> Result<usize, DdlError> {
    n.saturating_sub(1)
        .checked_mul(stride)
        .and_then(|s| s.checked_add(1))
        .filter(|_| n < 2 || stride > 0)
        .ok_or_else(|| DdlError::InvalidStride {
            detail: format!(
                "a {n}-point view at stride {stride} overflows the address space or aliases \
                 every point"
            ),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_intersect(b1: usize, s1: usize, n1: usize, b2: usize, s2: usize, n2: usize) -> bool {
        let a: std::collections::HashSet<usize> = (0..n1).map(|i| b1 + i * s1).collect();
        (0..n2).any(|j| a.contains(&(b2 + j * s2)))
    }

    #[test]
    fn progression_intersection_is_exact() {
        // Exhaustive small-parameter sweep against brute force.
        for b1 in 0..4 {
            for s1 in 0..5 {
                for n1 in 1..5 {
                    for b2 in 0..6 {
                        for s2 in 0..5 {
                            for n2 in 1..5 {
                                assert_eq!(
                                    progressions_intersect(b1, s1, n1, b2, s2, n2),
                                    brute_intersect(b1, s1, n1, b2, s2, n2),
                                    "({b1},{s1},{n1}) vs ({b2},{s2},{n2})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_progressions_do_not_intersect() {
        // Even indices vs odd indices, large and offset.
        assert!(!progressions_intersect(0, 2, 1000, 1, 2, 1000));
        assert!(progressions_intersect(0, 3, 100, 27, 9, 10));
        assert!(!progressions_intersect(0, 4, 100, 2, 4, 100));
        let a = AccessSet::new(Region::Scratch, 0, 2, 8);
        assert!(a.intersects(&AccessSet::new(Region::Scratch, 4, 3, 4)));
        assert!(!a.intersects(&AccessSet::new(Region::Scratch, 1, 2, 8)));
        assert!(!a.intersects(&AccessSet::new(Region::Input, 0, 2, 8)));
    }

    #[test]
    fn spans_are_checked() {
        assert_eq!(span(16, 3).unwrap(), 46);
        assert_eq!(span(1, 0).unwrap(), 1);
        assert!(span(2, 0).is_err());
        assert!(span(16, usize::MAX / 2).is_err());
        // The point span of a 2-point view fits; its bytes do not.
        let points = span(2, usize::MAX / 2).unwrap();
        assert!(PlanLayout::new(16, vec![(Region::Data, points)]).is_err());
        assert!(PlanLayout::new(16, vec![(Region::Data, 1 << 20)]).is_ok());
    }
}
