//! `bench_suite fit`: measures the host cost model's per-point costs.
//!
//! The analytical planner prices trees with [`CacheModel::host`]
//! (`ddl_core::model`, *The host model*), whose data this subcommand
//! measures once on the host and writes as the `fit` section of a
//! `ddl-report` record. `ddl-core` compiles the committed copy
//! (`crates/core/data/host-fit.json`) into the binary, so planning reads
//! no clock and no file.
//!
//! Each cost is the lower quartile of [`ROUNDS`] interleaved timings, in
//! nanoseconds per point, of the kernel the executor runs:
//!
//! * a DFT leaf for each size, read-stride class and write-stride class:
//!   a batch of leaves laid out as one stage of a split lays them out
//!   (successive leaves one point apart at a non-unit stride, `n` apart
//!   at unit stride), at a power-of-two stride of the class;
//! * a WHT leaf for each size and class (in place, one stride), and a
//!   stage-B lane batch for each size and class of its rows;
//! * the DFT twiddle pass and tiled transpose, and the WHT gather plus
//!   scatter-back, with their working set in L1, in L2 and in memory.
//!
//! A class a leaf size cannot reach (a 2-point leaf never conflicts in a
//! 12-way L1) takes the cost of the class below it.
//!
//! [`CacheModel::host`]: ddl_core::CacheModel::host

use crate::cli::{Args, Outcome, Usage};
use crate::host;
use ddl_core::dft::{run_leaf, run_transpose, run_twiddle_pass};
use ddl_core::measure::time_per_call;
use ddl_core::model::{CacheLevel, HostFit, RESIDENCY_LEVELS, STRIDE_CLASSES};
use ddl_core::{PlanRecord, Report, DFT_POINT_BYTES, WHT_POINT_BYTES};
use ddl_kernels::{wht_lanes, wht_leaf_strided, MAX_LEAF_DFT, MAX_LEAF_WHT, WHT_LANES};
use ddl_num::{Complex64, Direction, TwiddleTable};

/// Timings per cost; the lower quartile is kept.
const ROUNDS: usize = 11;
/// Largest buffer a leaf batch spans, in points.
const MAX_SPAN: usize = 1 << 21;

/// `fit`: measures and prints the host model's data, and writes it as a
/// `ddl-report` with `--out`; `--check <path>` only parses and validates
/// a written fit.
pub fn fit(args: &Args) -> Outcome {
    if let Some(path) = &args.check {
        if args.out.is_some() {
            return Err(Usage("fit --check reads a fit; it takes no --out".into()).into());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let fit = HostFit::from_report(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "ok: {}: host fit for {} (L1 {} KiB {}-way, L2 {} KiB {}-way)",
            path.display(),
            fit.cpu,
            fit.levels[0].capacity_bytes / 1024,
            fit.levels[0].ways,
            fit.levels[1].capacity_bytes / 1024,
            fit.levels[1].ways
        );
        return Ok(());
    }
    let fit = measure()?;
    print!("{}", render(&fit));
    if let Some(path) = &args.out {
        let mut report = Report::new("host-fit");
        report.plans.push(PlanRecord::host_fit(fit));
        report.write(path)?;
        eprintln!("fit written to {}", path.display());
    }
    Ok(())
}

/// This host's L1 and L2 data caches, from sysfs.
fn levels() -> Result<[CacheLevel; 2], String> {
    let caches = host::caches();
    let level = |want: u32| {
        caches
            .iter()
            .find(|&&(level, ..)| level == want)
            .map(|&(_, capacity_bytes, line_bytes, ways)| CacheLevel {
                capacity_bytes,
                line_bytes,
                ways,
            })
            .ok_or_else(|| format!("no L{want} data cache found"))
    };
    Ok([level(1)?, level(2)?])
}

/// One measurement: given a timing floor in seconds, allocates its
/// buffers and returns nanoseconds per point.
type Probe = Box<dyn Fn(f64) -> f64>;

/// Nanoseconds per point of `run`, which processes `points`, timed for
/// at least `floor` seconds after one warm-up call.
fn ns_per_point(points: usize, floor: f64, mut run: impl FnMut()) -> f64 {
    time_per_call(&mut run, floor, 2) * 1e9 / points as f64
}

/// The lower quartile of each probe over [`ROUNDS`] rounds, every round
/// running every probe once in turn, so a stretch of load from other
/// tenants slows all probes alike instead of the few that ran during it.
/// Load only ever adds time, so the low end of the samples is the most
/// repeatable estimate of what a kernel costs.
fn interleaved(probes: &[Probe], floor: f64) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(ROUNDS); probes.len()];
    for _ in 0..ROUNDS {
        for (probe, s) in probes.iter().zip(&mut samples) {
            s.push(probe(floor));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 4]
        })
        .collect()
}

/// Whether a batch of `class` has its successive calls a line or more
/// apart (model docs, classes 7 and 8).
fn scattered(class: usize) -> bool {
    class >= 7
}

/// The stride a batch of `n`-point leaves of `class` is timed at, or
/// `None` when no power-of-two stride (up to a batch span of
/// [`MAX_SPAN`]) reaches the class: 1 for class 0; the largest stride of
/// class 1 and the smallest of class 2, either side of where L1
/// conflicts set in, where trees meet them most (a 4,096-point node's
/// 64-point leaves run at stride 64); the largest of class 7, whose
/// calls are then as far apart as a strided parent's in an L2-sized
/// node; the middle stride of every other class (beyond L2, a batch of
/// about 2^20 points).
fn class_stride(fit: &HostFit, point_bytes: usize, n: usize, class: usize) -> Option<usize> {
    if class == 0 {
        return Some(1);
    }
    let offset = if scattered(class) { 1 << 20 } else { 1 };
    let strides: Vec<usize> = (1..)
        .map(|k| 1usize << k)
        .take_while(|&s| n * s <= MAX_SPAN)
        .filter(|&s| fit.stride_class(point_bytes, n, s, offset) == class)
        .collect();
    let pick = match class {
        1 | 7 => strides.len().saturating_sub(1),
        2 => 0,
        _ => strides.len() / 2,
    };
    strides.get(pick).copied()
}

/// Sibling size a scattered batch is timed under: a strided parent's
/// calls start `stride / SCATTER_SIBLING` apart.
const SCATTER_SIBLING: usize = 16;

/// Base of leaf `i` of a batch at `stride`: `n` apart at unit stride;
/// else in blocks of `stride` leaves, one point apart, or, when
/// `scattered`, the same leaves in the order a strided parent's calls
/// visit them: [`SCATTER_SIBLING`] calls `stride / SCATTER_SIBLING`
/// apart, then the next point.
fn leaf_base(i: usize, n: usize, stride: usize, scattered: bool) -> usize {
    if stride == 1 {
        return i * n;
    }
    let (block, mut p) = (i / stride, i % stride);
    if scattered && stride >= 2 * SCATTER_SIBLING {
        let apart = stride / SCATTER_SIBLING;
        p = (p % SCATTER_SIBLING) * apart + p / SCATTER_SIBLING;
    }
    block * n * stride + p
}

/// A batch of `n`-point DFT leaves reading at `rs` and writing at `ws`,
/// each side adjacent or scattered (model docs).
fn dft_leaf_probe(n: usize, [rs, ws]: [usize; 2], [rsc, wsc]: [bool; 2]) -> Probe {
    Box::new(move |floor| {
        let leaves = rs.max(ws).max(16);
        let x: Vec<Complex64> = (0..leaves * n)
            .map(|i| Complex64::new((i % 7) as f64, -((i % 5) as f64)))
            .collect();
        let mut y = vec![Complex64::ZERO; leaves * n];
        ns_per_point(leaves * n, floor, || {
            for i in 0..leaves {
                let (xb, yb) = (leaf_base(i, n, rs, rsc), leaf_base(i, n, ws, wsc));
                run_leaf(n, Direction::Forward, &x, xb, rs, &mut y, yb, ws);
            }
            std::hint::black_box(&mut y);
        })
    })
}

/// A batch of in-place `n`-point WHT leaves at stride `s`.
fn wht_leaf_probe(n: usize, s: usize, scattered: bool) -> Probe {
    Box::new(move |floor| {
        let leaves = s.max(16);
        let mut data: Vec<f64> = (0..leaves * n).map(|i| (i % 11) as f64 - 5.0).collect();
        ns_per_point(leaves * n, floor, || {
            for i in 0..leaves {
                wht_leaf_strided(n, &mut data, leaf_base(i, n, s, scattered), s);
            }
            std::hint::black_box(&mut data);
        })
    })
}

/// One WHT stage B in lane batches: `n1` rows at stride `n2`.
fn wht_lanes_probe(n1: usize, n2: usize) -> Probe {
    Box::new(move |floor| {
        let mut data: Vec<f64> = (0..n1 * n2).map(|i| (i % 13) as f64 - 6.0).collect();
        ns_per_point(n1 * n2, floor, || {
            for b in (0..n2).step_by(WHT_LANES) {
                wht_lanes(n1, &mut data, b, n2);
            }
            std::hint::black_box(&mut data);
        })
    })
}

/// Points of a pass whose `2n`-point working set of `point_bytes`-byte
/// points lies in level `level` (0 = L1, 1 = L2, 2 = memory), as the
/// nodes of planned trees have them: a quarter of L1; the geometric
/// middle of L1 and L2; eight times L2 (a 2^20-point root).
fn pass_points(levels: &[CacheLevel; 2], level: usize, point_bytes: usize) -> usize {
    let [l1, l2] = levels.map(|l| l.capacity_bytes);
    let bytes = match level {
        0 => l1 / 4,
        1 => ((l1 as f64) * (l2 as f64)).sqrt() as usize,
        _ => l2 * 8,
    };
    (bytes / (2 * point_bytes)).next_power_of_two() / 2
}

/// The DFT twiddle pass over `n` points.
fn twiddle_probe(n: usize) -> Probe {
    Box::new(move |floor| {
        let rows = 1usize << (n.trailing_zeros() / 2);
        let tw = TwiddleTable::new(rows, n / rows, Direction::Forward);
        let mut buf: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, i as f64)).collect();
        ns_per_point(n, floor, || {
            run_twiddle_pass(&mut buf, &tw);
            std::hint::black_box(&mut buf);
        })
    })
}

/// The DFT tiled transpose of `n` points.
fn transpose_probe(n: usize) -> Probe {
    Box::new(move |floor| {
        let rows = 1usize << (n.trailing_zeros() / 2);
        let src: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, i as f64)).collect();
        let mut dst = vec![Complex64::ZERO; n];
        ns_per_point(n, floor, || {
            run_transpose(&src, &mut dst, rows, n / rows);
            std::hint::black_box(&mut dst);
        })
    })
}

/// The WHT gather and scatter-back of `m` points at stride 8 (one point
/// per line).
fn wht_reorg_probe(m: usize) -> Probe {
    Box::new(move |floor| {
        let stride = 8;
        let mut data: Vec<f64> = (0..m * stride).map(|i| i as f64).collect();
        let mut r = vec![0.0; m];
        ns_per_point(m, floor, || {
            for (i, ri) in r.iter_mut().enumerate() {
                *ri = data[i * stride];
            }
            std::hint::black_box(&mut r);
            for (i, ri) in r.iter().enumerate() {
                data[i * stride] = *ri;
            }
            std::hint::black_box(&mut data);
        })
    })
}

/// Fills the classes a size cannot reach from the class below.
fn fill_down(row: [Option<f64>; STRIDE_CLASSES]) -> [f64; STRIDE_CLASSES] {
    let mut out = [0.0; STRIDE_CLASSES];
    for c in 0..STRIDE_CLASSES {
        out[c] = row[c].unwrap_or(if c > 0 { out[c - 1] } else { f64::NAN });
    }
    out
}

/// Where each probe's lower quartile goes.
enum Slot {
    DftLeaf(usize, usize, usize),
    WhtLeaf(usize, usize),
    WhtLanes(usize, usize),
    Twiddle(usize),
    Transpose(usize),
    WhtReorg(usize),
}

/// Every kernel and pass probe of `fit`'s geometry, with its slot.
fn probes(fit: &HostFit) -> Vec<(Slot, Probe)> {
    let mut out: Vec<(Slot, Probe)> = Vec::new();
    let sizes = |max: usize| (1..=max.trailing_zeros() as usize).map(|k| (k - 1, 1usize << k));
    let classes = 0..STRIDE_CLASSES;
    for (k, n) in sizes(MAX_LEAF_DFT) {
        let stride = |c| class_stride(fit, DFT_POINT_BYTES, n, c);
        for rc in classes.clone() {
            for wc in classes.clone() {
                if let (Some(rs), Some(ws)) = (stride(rc), stride(wc)) {
                    let probe = dft_leaf_probe(n, [rs, ws], [scattered(rc), scattered(wc)]);
                    out.push((Slot::DftLeaf(k, rc, wc), probe));
                }
            }
        }
    }
    for (k, n) in sizes(MAX_LEAF_WHT) {
        for c in classes.clone() {
            if let Some(s) = class_stride(fit, WHT_POINT_BYTES, n, c) {
                out.push((Slot::WhtLeaf(k, c), wht_leaf_probe(n, s, scattered(c))));
            }
            // Lane batches run only on adjacent rows at a stride of at
            // least a lane batch.
            let rows = class_stride(fit, WHT_POINT_BYTES, n, c).filter(|&s| s >= WHT_LANES);
            if let Some(n2) = rows.filter(|_| !scattered(c)) {
                out.push((Slot::WhtLanes(k, c), wht_lanes_probe(n, n2)));
            }
        }
    }
    for level in 0..RESIDENCY_LEVELS {
        let n = pass_points(&fit.levels, level, DFT_POINT_BYTES);
        out.push((Slot::Twiddle(level), twiddle_probe(n)));
        out.push((Slot::Transpose(level), transpose_probe(n)));
        let m = pass_points(&fit.levels, level, WHT_POINT_BYTES) / 8;
        out.push((Slot::WhtReorg(level), wht_reorg_probe(m)));
    }
    out
}

/// Timing floor of one probe call, in seconds.
const FLOOR: f64 = 1e-2;

/// Measures every cost of the host model on this host: the kernel and
/// pass probes, all in the same interleaved rounds.
pub fn measure() -> Result<HostFit, String> {
    // The stride classes need only the geometry.
    let mut fit = HostFit {
        cpu: host::cpu_model(),
        levels: levels()?,
        page_bytes: host::page_bytes(),
        dft_leaf: vec![
            [[0.0; STRIDE_CLASSES]; STRIDE_CLASSES];
            MAX_LEAF_DFT.trailing_zeros() as usize
        ],
        wht_leaf: vec![[0.0; STRIDE_CLASSES]; MAX_LEAF_WHT.trailing_zeros() as usize],
        wht_lanes: vec![[0.0; STRIDE_CLASSES]; MAX_LEAF_WHT.trailing_zeros() as usize],
        twiddle: [0.0; RESIDENCY_LEVELS],
        transpose: [0.0; RESIDENCY_LEVELS],
        wht_reorg: [0.0; RESIDENCY_LEVELS],
    };
    let (slots, probes): (Vec<Slot>, Vec<Probe>) = probes(&fit).into_iter().unzip();
    let mut dft = vec![[[None; STRIDE_CLASSES]; STRIDE_CLASSES]; fit.dft_leaf.len()];
    let mut wht = vec![[None; STRIDE_CLASSES]; fit.wht_leaf.len()];
    let mut lanes = vec![[None; STRIDE_CLASSES]; fit.wht_lanes.len()];
    for (slot, ns) in slots.into_iter().zip(interleaved(&probes, FLOOR)) {
        match slot {
            Slot::DftLeaf(k, rc, wc) => dft[k][rc][wc] = Some(ns),
            Slot::WhtLeaf(k, c) => wht[k][c] = Some(ns),
            Slot::WhtLanes(k, c) => lanes[k][c] = Some(ns),
            Slot::Twiddle(l) => fit.twiddle[l] = ns,
            Slot::Transpose(l) => fit.transpose[l] = ns,
            Slot::WhtReorg(l) => fit.wht_reorg[l] = ns,
        }
    }
    for (out, rows) in fit.dft_leaf.iter_mut().zip(dft) {
        // An unreachable read class copies the row below; each row fills
        // its unreachable write classes.
        for rc in 0..STRIDE_CLASSES {
            out[rc] = if rc > 0 && rows[rc].iter().all(Option::is_none) {
                out[rc - 1]
            } else {
                fill_down(rows[rc])
            };
        }
    }
    for (out, row) in fit.wht_leaf.iter_mut().zip(wht) {
        *out = fill_down(row);
    }
    for (out, mut row) in fit.wht_lanes.iter_mut().zip(lanes) {
        // lane batches never run at unit stride: class 0 is class 1's
        row[0] = row[1];
        *out = fill_down(row);
    }
    fit.validate()?;
    Ok(fit)
}

/// The fit as text: geometry, then one table per cost family.
pub fn render(fit: &HostFit) -> String {
    let mut out = format!("# host cost model fit: {}\n", fit.cpu);
    for (i, l) in fit.levels.iter().enumerate() {
        out += &format!(
            "# L{}: {} KiB, {} B lines, {}-way\n",
            i + 1,
            l.capacity_bytes / 1024,
            l.line_bytes,
            l.ways
        );
    }
    out += "\n# DFT leaf ns/point: rows n x read class, columns write class 0..8\n";
    for (k, m) in fit.dft_leaf.iter().enumerate() {
        for (rc, row) in m.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| format!("{c:>7.3}")).collect();
            out += &format!("{:>4} r{rc} {}\n", 2usize << k, cells.join(" "));
        }
    }
    let table = |name: &str, rows: &[[f64; STRIDE_CLASSES]]| {
        let mut t = format!("\n# {name} ns/point: rows n, columns class 0..8\n");
        for (k, row) in rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| format!("{c:>7.3}")).collect();
            t += &format!("{:>4}    {}\n", 2usize << k, cells.join(" "));
        }
        t
    };
    out += &table("WHT leaf", &fit.wht_leaf);
    out += &table("WHT lane batch", &fit.wht_lanes);
    out += "\n# passes ns/point: L1 L2 memory\n";
    for (name, row) in [
        ("dft twiddle", fit.twiddle),
        ("dft transpose", fit.transpose),
        ("wht gather+scatter", fit.wht_reorg),
    ] {
        out += &format!(
            "{name:<20} {:>7.3} {:>7.3} {:>7.3}\n",
            row[0], row[1], row[2]
        );
    }
    out
}
