//! Walsh–Hadamard transform kernels.
//!
//! The WHT factorizes as `WHT_{2^n} = (WHT_{2^{n1}} ⊗ I)(I ⊗ WHT_{2^{n2}})`
//! with *no* twiddle factors and no reordering, which is why the paper uses
//! it as the second member of its "class of signal transforms": the DDL
//! machinery applies unchanged while the arithmetic is plain `f64`
//! (8-byte points, as in the paper's Section V-B experiments).
//!
//! Kernels here are in-place — the CMU WHT package the paper modifies
//! computes in place, and the factorized stages of a WHT read and write
//! the same strided locations.
//!
//! One butterfly loop serves every transform above 8 points but strided
//! leaves above [`MAX_LEAF_WHT`], over rows of `[f64; W]`: one transform
//! (`W = 1`) or [`WHT_LANES`] side by side (FFTW's vector loop). It is
//! slice iteration only, so LLVM vectorizes it, and every kernel applies
//! the same butterflies in the same order, so all agree bit for bit.

use ddl_num::DdlError;

/// Largest WHT leaf the composite kernel and the planners use.
pub const MAX_LEAF_WHT: usize = 64;

/// Transforms per lane batch ([`wht_lanes`]): one 64-byte cache line of
/// 8-byte points.
pub const WHT_LANES: usize = 8;

/// The in-place fast WHT of `W` transforms side by side, one point of
/// each per row (`W = 1` is a single transform): butterfly spans 1, 2,
/// 4, … in turn, each pairing the two halves of every block.
#[inline]
fn butterflies<const W: usize>(rows: &mut [[f64; W]]) {
    let mut span = 1;
    while span < rows.len() {
        for block in rows.chunks_exact_mut(2 * span) {
            let (lo, hi) = block.split_at_mut(span);
            for (a, b) in lo.iter_mut().zip(hi) {
                let (x, y) = (*a, *b);
                *a = std::array::from_fn(|j| x[j] + y[j]);
                *b = std::array::from_fn(|j| x[j] - y[j]);
            }
        }
        span *= 2;
    }
}

/// Reference `O(n^2)` WHT: `y[j] = Σ_i x[i] · (-1)^{popcount(i & j)}`.
///
/// This is the Hadamard (natural) ordering produced by the iterated
/// butterfly algorithm. Panics on a non-power-of-two length; see
/// [`try_naive_wht`] for the fallible form.
pub fn naive_wht(x: &[f64]) -> Vec<f64> {
    match try_naive_wht(x) {
        Ok(y) => y,
        // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`naive_wht`].
pub fn try_naive_wht(x: &[f64]) -> Result<Vec<f64>, DdlError> {
    let n = x.len();
    if !(n.is_power_of_two() || n <= 1) {
        return Err(DdlError::invalid_size(
            "naive_wht",
            n,
            "length must be a power of two",
        ));
    }
    let mut y = vec![0.0; n];
    for (j, yj) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            if (i & j).count_ones() % 2 == 0 {
                acc += xi;
            } else {
                acc -= xi;
            }
        }
        *yj = acc;
    }
    Ok(y)
}

/// Unrolled in-place 2-point WHT at `(base, stride)`.
#[inline(always)]
pub fn wht2(data: &mut [f64], base: usize, stride: usize) {
    let a = data[base];
    let b = data[base + stride];
    data[base] = a + b;
    data[base + stride] = a - b;
}

/// Unrolled in-place 4-point WHT at `(base, stride)`.
#[inline(always)]
pub fn wht4(data: &mut [f64], base: usize, stride: usize) {
    let x0 = data[base];
    let x1 = data[base + stride];
    let x2 = data[base + 2 * stride];
    let x3 = data[base + 3 * stride];
    let a0 = x0 + x1;
    let a1 = x0 - x1;
    let a2 = x2 + x3;
    let a3 = x2 - x3;
    data[base] = a0 + a2;
    data[base + stride] = a1 + a3;
    data[base + 2 * stride] = a0 - a2;
    data[base + 3 * stride] = a1 - a3;
}

/// Unrolled in-place 8-point WHT at `(base, stride)`.
#[inline]
pub fn wht8(data: &mut [f64], base: usize, stride: usize) {
    let mut v = [0.0f64; 8];
    for (i, vi) in v.iter_mut().enumerate() {
        *vi = data[base + i * stride];
    }
    // three butterfly stages on locals
    for span in [1usize, 2, 4] {
        let mut i = 0;
        while i < 8 {
            for k in 0..span {
                let a = v[i + k];
                let b = v[i + k + span];
                v[i + k] = a + b;
                v[i + k + span] = a - b;
            }
            i += span * 2;
        }
    }
    for (i, &vi) in v.iter().enumerate() {
        data[base + i * stride] = vi;
    }
}

/// In-place fast WHT on a contiguous slice (any power-of-two length).
///
/// The no-twiddle butterfly cascade; needs no bit reversal because the
/// Hadamard matrix is invariant under it. Panics on a non-power-of-two
/// length; see [`try_fwht_inplace`] for the fallible form.
pub fn fwht_inplace(data: &mut [f64]) {
    if let Err(e) = try_fwht_inplace(data) {
        // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
        panic!("{e}");
    }
}

/// Fallible form of [`fwht_inplace`].
pub fn try_fwht_inplace(data: &mut [f64]) -> Result<(), DdlError> {
    let n = data.len();
    if n <= 1 {
        return Ok(());
    }
    if !n.is_power_of_two() {
        return Err(DdlError::invalid_size(
            "fwht_inplace",
            n,
            "length must be a power of two",
        ));
    }
    butterflies(data.as_chunks_mut::<1>().0);
    Ok(())
}

/// In-place leaf WHT of `n` points at `(base, stride)`.
///
/// `n ∈ {1, 2, 4, 8}` run unrolled directly on the strided locations.
/// Larger leaves at unit stride run the butterflies in place; strided
/// `16..=64` load once into a stack buffer (strided loads), transform, and
/// store back (strided stores) — the same codelet memory model as the DFT
/// leaves; larger strided powers of two run strided butterflies in place.
///
/// Panics on a non-power-of-two size; see [`try_wht_leaf_strided`] for
/// the fallible form.
pub fn wht_leaf_strided(n: usize, data: &mut [f64], base: usize, stride: usize) {
    if let Err(e) = try_wht_leaf_strided(n, data, base, stride) {
        // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
        panic!("{e}");
    }
}

/// Fallible form of [`wht_leaf_strided`].
pub fn try_wht_leaf_strided(
    n: usize,
    data: &mut [f64],
    base: usize,
    stride: usize,
) -> Result<(), DdlError> {
    match n {
        0 | 1 => {}
        2 => wht2(data, base, stride),
        4 => wht4(data, base, stride),
        8 => wht8(data, base, stride),
        _ if !n.is_power_of_two() => {
            return Err(DdlError::invalid_size(
                "wht_leaf_strided",
                n,
                "size must be a power of two",
            ));
        }
        _ if stride == 1 => butterflies(data[base..base + n].as_chunks_mut::<1>().0),
        _ if n <= MAX_LEAF_WHT => {
            let mut buf = [0.0f64; MAX_LEAF_WHT];
            let mut idx = base;
            for b in buf[..n].iter_mut() {
                *b = data[idx];
                idx += stride;
            }
            butterflies(buf[..n].as_chunks_mut::<1>().0);
            let mut idx = base;
            for &b in buf[..n].iter() {
                data[idx] = b;
                idx += stride;
            }
        }
        _ => {
            // strided butterfly cascade, no local buffer
            let mut span = 1;
            while span < n {
                let step = span * 2;
                let mut blk = 0;
                while blk < n {
                    for k in 0..span {
                        let ia = base + (blk + k) * stride;
                        let ib = base + (blk + k + span) * stride;
                        let a = data[ia];
                        let b = data[ib];
                        data[ia] = a + b;
                        data[ib] = a - b;
                    }
                    blk += step;
                }
                span = step;
            }
        }
    }
    Ok(())
}

/// [`WHT_LANES`] in-place `n`-point WHTs side by side: transform `j`
/// runs on the points `data[base + j + i·stride]`, `i < n`, so its `n`
/// rows are each `WHT_LANES` adjacent points. Up to [`MAX_LEAF_WHT`]
/// points the rows are copied into a stack tile of at most 4 KiB,
/// transformed together, and copied back, so each row is fetched once
/// for all its lanes however the strided rows collide in the cache;
/// larger sizes run lane by lane. Bit-identical to [`wht_leaf_strided`]
/// on each lane, and like it panics on a non-power-of-two `n`.
pub fn wht_lanes(n: usize, data: &mut [f64], base: usize, stride: usize) {
    match n {
        2 => lane_tile::<2>(data, base, stride),
        4 => lane_tile::<4>(data, base, stride),
        8 => lane_tile::<8>(data, base, stride),
        16 => lane_tile::<16>(data, base, stride),
        32 => lane_tile::<32>(data, base, stride),
        64 => lane_tile::<64>(data, base, stride),
        _ => (0..WHT_LANES).for_each(|j| wht_leaf_strided(n, data, base + j, stride)),
    }
}

/// [`wht_lanes`] for `N` rows; the tile is built from the rows, never
/// zero-filled first.
#[inline]
fn lane_tile<const N: usize>(data: &mut [f64], base: usize, stride: usize) {
    let row = |i: usize| base + i * stride..base + i * stride + WHT_LANES;
    let mut tile: [[f64; WHT_LANES]; N] = std::array::from_fn(|i| {
        let mut r = [0.0; WHT_LANES];
        r.copy_from_slice(&data[row(i)]);
        r
    });
    butterflies(&mut tile);
    for (i, r) in tile.iter().enumerate() {
        data[row(i)].copy_from_slice(r);
    }
}

/// Estimated arithmetic operations of one `n`-point WHT leaf: the fast
/// transform's `n log2 n` additions/subtractions. An accounting estimate
/// for observability reports, not an instruction count.
pub fn wht_leaf_ops_est(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let nf = n as u64;
    nf * nf.ilog2() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 0.5)
            .collect()
    }

    fn check_leaf(n: usize, base: usize, stride: usize) {
        let total = base + n * stride + 3;
        let mut data = sample(total);
        let orig = data.clone();
        wht_leaf_strided(n, &mut data, base, stride);
        let input: Vec<f64> = (0..n).map(|i| orig[base + i * stride]).collect();
        let want = naive_wht(&input);
        for j in 0..n {
            let got = data[base + j * stride];
            assert!(
                (got - want[j]).abs() < 1e-9,
                "n={n} stride={stride} j={j}: {got} vs {}",
                want[j]
            );
        }
        // off-view elements untouched (spot check around the view)
        if stride > 1 {
            assert_eq!(data[base + 1], orig[base + 1]);
        }
        assert_eq!(data[total - 1], orig[total - 1]);
    }

    #[test]
    fn all_leaf_sizes_match_naive() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            for &stride in &[1usize, 3, 16] {
                check_leaf(n, 2, stride);
            }
        }
    }

    #[test]
    fn fwht_matches_naive() {
        for log_n in 0..10u32 {
            let n = 1usize << log_n;
            let x = sample(n);
            let mut data = x.clone();
            fwht_inplace(&mut data);
            let want = naive_wht(&x);
            for j in 0..n {
                assert!((data[j] - want[j]).abs() < 1e-9, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn wht_is_self_inverse_up_to_n() {
        let n = 64;
        let x = sample(n);
        let mut data = x.clone();
        fwht_inplace(&mut data);
        fwht_inplace(&mut data);
        for j in 0..n {
            assert!((data[j] / n as f64 - x[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn wht_of_constant_concentrates_at_zero() {
        let mut data = vec![2.5; 32];
        fwht_inplace(&mut data);
        assert!((data[0] - 80.0).abs() < 1e-12);
        for v in &data[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_for_wht() {
        let x = sample(128);
        let y = naive_wht(&x);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        assert!((ey - 128.0 * ex).abs() < 1e-8 * ey.abs());
    }

    #[test]
    fn unrolled_kernels_match_fwht() {
        for &n in &[2usize, 4, 8] {
            let x = sample(n);
            let mut a = x.clone();
            let mut b = x.clone();
            wht_leaf_strided(n, &mut a, 0, 1);
            fwht_inplace(&mut b);
            for j in 0..n {
                assert!((a[j] - b[j]).abs() < 1e-12, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn lanes_match_leaf_at_a_time_bit_for_bit() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
            let (base, stride) = (3, WHT_LANES + 5);
            let orig = sample(base + n * stride);
            let mut lanes = orig.clone();
            wht_lanes(n, &mut lanes, base, stride);
            let mut leaves = orig.clone();
            for j in 0..WHT_LANES {
                wht_leaf_strided(n, &mut leaves, base + j, stride);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lanes), bits(&leaves), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn naive_rejects_non_pow2() {
        naive_wht(&[1.0, 2.0, 3.0]);
    }
}
