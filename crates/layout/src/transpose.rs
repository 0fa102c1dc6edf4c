//! Matrix transposes and the stride permutation `L^N_s`.
//!
//! The Cooley–Tukey identity (Eq. (1) of the paper) contains the stride
//! permutation matrix `L^{rs}_r`: the permutation that reads a length-`rs`
//! vector as an `r × s` row-major matrix and writes it out column-major.
//! Applying `L` is therefore a matrix transpose, and the full-array DDL
//! reorganization of Fig. 5 — converting stride-`s` access into unit-stride
//! access for a whole stage — is one transpose before the stage and one
//! after.
//!
//! Three out-of-place algorithms are provided because the reorganization
//! cost `Dr` in the paper's cost model is itself cache-sensitive:
//!
//! * [`try_transpose`] — naive double loop; the baseline.
//! * [`try_transpose_blocked`] — tiled for spatial locality; both source lines
//!   and destination lines stay resident while a `B × B` tile moves.
//! * [`try_transpose_recursive`] — cache-oblivious divide-and-conquer.
//!
//! plus an in-place square transpose used when the factorization is
//! balanced (`n1 == n2`), which avoids the scratch buffer entirely.

use ddl_num::DdlError;

fn check_matrix<T>(
    op: &'static str,
    src: &[T],
    dst: &[T],
    rows: usize,
    cols: usize,
) -> Result<(), DdlError> {
    let n = rows.checked_mul(cols).ok_or_else(|| {
        DdlError::invalid_size(op, rows, format!("rows*cols overflows usize (cols={cols})"))
    })?;
    if src.len() != n {
        return Err(DdlError::InvalidLayout {
            detail: format!("{op}: src size mismatch: need {n}, got {}", src.len()),
        });
    }
    if dst.len() != n {
        return Err(DdlError::InvalidLayout {
            detail: format!("{op}: dst size mismatch: need {n}, got {}", dst.len()),
        });
    }
    Ok(())
}

/// Naive out-of-place transpose of a `rows × cols` row-major matrix.
///
/// `dst` receives the `cols × rows` transpose. Panics on size mismatch;
/// see [`try_transpose`] for the fallible form.
pub fn try_transpose<T: Copy>(
    src: &[T],
    dst: &mut [T],
    rows: usize,
    cols: usize,
) -> Result<(), DdlError> {
    check_matrix("transpose", src, dst, rows, cols)?;
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    Ok(())
}

/// Tiled out-of-place transpose with `tile × tile` blocks.
///
/// A tile of 8 complex points is 128 B — two lines on most machines — so
/// the default tile of 32 keeps a working set of a few KiB regardless of
/// the matrix size.
pub fn try_transpose_blocked<T: Copy>(
    src: &[T],
    dst: &mut [T],
    rows: usize,
    cols: usize,
    tile: usize,
) -> Result<(), DdlError> {
    check_matrix("transpose_blocked", src, dst, rows, cols)?;
    if tile == 0 {
        return Err(DdlError::InvalidLayout {
            detail: "transpose_blocked: tile must be positive".into(),
        });
    }
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + tile).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + tile).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
    Ok(())
}

/// Cache-oblivious recursive transpose.
///
/// Splits the larger dimension in half until the sub-matrix fits in a small
/// base case, achieving `O(rc/B)` misses on an ideal cache without knowing
/// `B` — the cache-oblivious counterpoint (FFTW's design point, per the
/// paper's Section I) to the explicitly blocked version.
pub fn try_transpose_recursive<T: Copy>(
    src: &[T],
    dst: &mut [T],
    rows: usize,
    cols: usize,
) -> Result<(), DdlError> {
    check_matrix("transpose_recursive", src, dst, rows, cols)?;
    run_recursive(src, dst, rows, cols);
    Ok(())
}

fn run_recursive<T: Copy>(src: &[T], dst: &mut [T], rows: usize, cols: usize) {
    rec(src, dst, rows, cols, 0, rows, 0, cols);

    #[allow(clippy::too_many_arguments)] // private recursion carrying the tile bounds
    fn rec<T: Copy>(
        src: &[T],
        dst: &mut [T],
        rows: usize,
        cols: usize,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) {
        const BASE: usize = 16;
        let dr = r1 - r0;
        let dc = c1 - c0;
        if dr <= BASE && dc <= BASE {
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        } else if dr >= dc {
            let rm = r0 + dr / 2;
            rec(src, dst, rows, cols, r0, rm, c0, c1);
            rec(src, dst, rows, cols, rm, r1, c0, c1);
        } else {
            let cm = c0 + dc / 2;
            rec(src, dst, rows, cols, r0, r1, c0, cm);
            rec(src, dst, rows, cols, r0, r1, cm, c1);
        }
    }
}

/// In-place transpose of a square `n × n` row-major matrix.
pub fn try_transpose_in_place_square<T: Copy>(data: &mut [T], n: usize) -> Result<(), DdlError> {
    let want = n.checked_mul(n).ok_or_else(|| {
        DdlError::invalid_size("transpose_in_place_square", n, "n*n overflows usize")
    })?;
    if data.len() != want {
        return Err(DdlError::InvalidLayout {
            detail: format!(
                "transpose_in_place_square: size mismatch: need {want}, got {}",
                data.len()
            ),
        });
    }
    for r in 0..n {
        for c in (r + 1)..n {
            data.swap(r * n + c, c * n + r);
        }
    }
    Ok(())
}

/// Applies the stride permutation `L^N_s` out of place: the output at index
/// `j` is `src[perm_source(j)]` where the length-`N` vector is read as an
/// `(N/s) × s` row-major matrix and written column-major.
///
/// Equivalently `dst[c * (N/s) + r] = src[r * s + c]`. This is the matrix
/// form used in Eq. (1); `try_stride_permutation(x, y, N, s).unwrap()` makes elements
/// previously at stride `s` contiguous in `y`.
pub fn try_stride_permutation<T: Copy>(
    src: &[T],
    dst: &mut [T],
    n: usize,
    s: usize,
) -> Result<(), DdlError> {
    if s == 0 || !n.is_multiple_of(s) {
        return Err(DdlError::InvalidStride {
            detail: format!("stride_permutation: s must divide n (n={n}, s={s})"),
        });
    }
    if src.len() != n {
        return Err(DdlError::shape(
            "stride_permutation: src size mismatch",
            n,
            src.len(),
        ));
    }
    if dst.len() != n {
        return Err(DdlError::shape(
            "stride_permutation: dst size mismatch",
            n,
            dst.len(),
        ));
    }
    // rows = n/s, cols = s; transpose with blocking for large arrays.
    let rows = n / s;
    if n >= 4096 {
        try_transpose_blocked(src, dst, rows, s, 32)
    } else {
        try_transpose(src, dst, rows, s)
    }
}

/// In-place `L^N_s` for the balanced case `s == sqrt(N)`.
pub fn try_stride_permutation_in_place_square<T: Copy>(
    data: &mut [T],
    n: usize,
    s: usize,
) -> Result<(), DdlError> {
    if s.checked_mul(s) != Some(n) {
        return Err(DdlError::InvalidStride {
            detail: format!("in-place stride permutation requires s^2 == n (n={n}, s={s})"),
        });
    }
    try_transpose_in_place_square(data, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Vec<u64> {
        (0..rows * cols).map(|i| i as u64 * 7 + 3).collect()
    }

    fn reference_transpose(src: &[u64], rows: usize, cols: usize) -> Vec<u64> {
        let mut dst = vec![0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
        dst
    }

    #[test]
    fn naive_matches_reference() {
        let src = sample(5, 7);
        let mut dst = vec![0; 35];
        try_transpose(&src, &mut dst, 5, 7).unwrap();
        assert_eq!(dst, reference_transpose(&src, 5, 7));
    }

    #[test]
    fn blocked_matches_reference_nonsquare() {
        for (r, c, t) in [
            (8, 8, 4),
            (33, 17, 8),
            (1, 64, 16),
            (64, 1, 16),
            (40, 24, 7),
        ] {
            let src = sample(r, c);
            let mut dst = vec![0; r * c];
            try_transpose_blocked(&src, &mut dst, r, c, t).unwrap();
            assert_eq!(dst, reference_transpose(&src, r, c), "r={r} c={c} t={t}");
        }
    }

    #[test]
    fn recursive_matches_reference() {
        for (r, c) in [(3, 3), (17, 64), (128, 128), (100, 37)] {
            let src = sample(r, c);
            let mut dst = vec![0; r * c];
            try_transpose_recursive(&src, &mut dst, r, c).unwrap();
            assert_eq!(dst, reference_transpose(&src, r, c), "r={r} c={c}");
        }
    }

    #[test]
    fn in_place_square_matches_out_of_place() {
        for n in [1usize, 2, 3, 8, 31] {
            let src = sample(n, n);
            let mut inplace = src.clone();
            try_transpose_in_place_square(&mut inplace, n).unwrap();
            assert_eq!(inplace, reference_transpose(&src, n, n), "n={n}");
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let src = sample(12, 20);
        let mut once = vec![0; 240];
        let mut twice = vec![0; 240];
        try_transpose(&src, &mut once, 12, 20).unwrap();
        try_transpose(&once, &mut twice, 20, 12).unwrap();
        assert_eq!(twice, src);
    }

    #[test]
    fn stride_permutation_makes_strided_contiguous() {
        // n = 12, s = 3: elements 0,3,6,9 should become the first row.
        let src: Vec<u64> = (0..12).collect();
        let mut dst = vec![0; 12];
        try_stride_permutation(&src, &mut dst, 12, 3).unwrap();
        assert_eq!(&dst[0..4], &[0, 3, 6, 9]);
        assert_eq!(&dst[4..8], &[1, 4, 7, 10]);
        assert_eq!(&dst[8..12], &[2, 5, 8, 11]);
    }

    #[test]
    fn stride_permutation_large_uses_blocked_path() {
        let n = 8192;
        let s = 64;
        let src: Vec<u64> = (0..n as u64).collect();
        let mut dst = vec![0; n];
        try_stride_permutation(&src, &mut dst, n, s).unwrap();
        // spot-check: output position c*(n/s)+r must hold src[r*s+c]
        for &(r, c) in &[(0usize, 0usize), (5, 17), (127, 63), (64, 1)] {
            assert_eq!(dst[c * (n / s) + r], src[r * s + c]);
        }
    }

    #[test]
    fn inverse_stride_permutation_is_l_n_over_s() {
        // L^n_s followed by L^n_{n/s} is the identity.
        let n = 24;
        let s = 4;
        let src: Vec<u64> = (100..124).collect();
        let mut mid = vec![0; n];
        let mut back = vec![0; n];
        try_stride_permutation(&src, &mut mid, n, s).unwrap();
        try_stride_permutation(&mid, &mut back, n, n / s).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn square_in_place_stride_permutation() {
        let n = 16;
        let s = 4;
        let src: Vec<u64> = (0..16).collect();
        let mut a = src.clone();
        try_stride_permutation_in_place_square(&mut a, n, s).unwrap();
        let mut b = vec![0; n];
        try_stride_permutation(&src, &mut b, n, s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn stride_permutation_rejects_nondivisor() {
        let src = vec![0u8; 10];
        let mut dst = vec![0u8; 10];
        try_stride_permutation(&src, &mut dst, 10, 3).unwrap();
    }
}
