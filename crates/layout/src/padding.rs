//! Array padding — the classic *static* mitigation the paper contrasts
//! with (its references [13], [14]).
//!
//! Padding perturbs a power-of-two stride so that consecutive elements of
//! a strided walk land in different cache sets, trading memory for
//! conflict-freedom. The paper argues padding is hard to apply to
//! factorized transforms because "the overhead of the index computation
//! needed to access the array is high since data elements are not stored
//! contiguously" (Section II-A); this module exists to make that
//! comparison concrete — the `padding` tests and the cache-simulator
//! ablations can measure both sides of the trade.

use ddl_num::DdlError;

/// Chooses a padded stride `>= stride` such that walking `count` elements
/// at the padded stride touches `min(count, sets)` distinct cache sets of
/// a direct-mapped cache with `sets` sets of `line` bytes each (element
/// size `elem` bytes).
///
/// The classic recipe: make the stride in lines coprime with the set
/// count by adding one line when the power-of-two stride would alias.
pub fn try_conflict_free_stride(
    stride: usize,
    elem: usize,
    line: usize,
    sets: usize,
) -> Result<usize, DdlError> {
    if !line.is_power_of_two() || !sets.is_power_of_two() {
        return Err(DdlError::InvalidLayout {
            detail: format!(
                "conflict_free_stride: line ({line}) and sets ({sets}) must be powers of two"
            ),
        });
    }
    if elem == 0 || stride == 0 {
        return Err(DdlError::InvalidLayout {
            detail: format!(
                "conflict_free_stride: elem ({elem}) and stride ({stride}) must be positive"
            ),
        });
    }
    let stride_bytes = stride * elem;
    if stride_bytes < line {
        // sub-line strides share lines; no set conflicts to fix
        return Ok(stride);
    }
    let stride_lines = stride_bytes / line;
    // gcd with the set count is a power of two; odd line-strides are
    // coprime with any power-of-two set count
    if stride_lines % 2 == 1 && stride_bytes.is_multiple_of(line) {
        return Ok(stride);
    }
    // round the stride up to a whole number of lines, plus one line
    let padded_bytes = stride_bytes.div_ceil(line) * line + line;
    Ok(padded_bytes / elem + usize::from(!padded_bytes.is_multiple_of(elem)))
}

/// Copies `count` rows of `row_len` elements from a compact layout into a
/// padded layout with `padded_stride >= row_len` elements between row
/// starts. Returns the required destination length.
pub fn try_pad_rows<T: Copy + Default>(
    src: &[T],
    row_len: usize,
    count: usize,
    padded_stride: usize,
) -> Result<Vec<T>, DdlError> {
    if padded_stride < row_len {
        return Err(DdlError::InvalidLayout {
            detail: format!(
                "padding cannot shrink rows: stride {padded_stride} < row length {row_len}"
            ),
        });
    }
    let need = row_len.checked_mul(count).ok_or_else(|| {
        DdlError::invalid_size(
            "pad_rows",
            row_len,
            format!("row_len*count overflows (count={count})"),
        )
    })?;
    if src.len() < need {
        return Err(DdlError::shape(
            "pad_rows: source too short",
            need,
            src.len(),
        ));
    }
    let mut dst = vec![T::default(); padded_stride * count];
    for r in 0..count {
        dst[r * padded_stride..r * padded_stride + row_len]
            .copy_from_slice(&src[r * row_len..(r + 1) * row_len]);
    }
    Ok(dst)
}

/// Inverse of [`try_pad_rows`].
pub fn try_unpad_rows<T: Copy + Default>(
    src: &[T],
    row_len: usize,
    count: usize,
    padded_stride: usize,
) -> Result<Vec<T>, DdlError> {
    if padded_stride < row_len {
        return Err(DdlError::InvalidLayout {
            detail: format!(
                "padding cannot shrink rows: stride {padded_stride} < row length {row_len}"
            ),
        });
    }
    let need = padded_stride.checked_mul(count).ok_or_else(|| {
        DdlError::invalid_size(
            "unpad_rows",
            padded_stride,
            format!("padded_stride*count overflows (count={count})"),
        )
    })?;
    if src.len() < need {
        return Err(DdlError::shape(
            "unpad_rows: source too short",
            need,
            src.len(),
        ));
    }
    let mut dst = vec![T::default(); row_len * count];
    for r in 0..count {
        dst[r * row_len..(r + 1) * row_len]
            .copy_from_slice(&src[r * padded_stride..r * padded_stride + row_len]);
    }
    Ok(dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_strides_get_padded() {
        // 4096-point stride of 16-byte points on a 8192-set, 64 B cache:
        // 64 KiB stride = 1024 lines (even) -> must change
        let s = try_conflict_free_stride(4096, 16, 64, 8192).unwrap();
        assert_ne!(s, 4096);
        let stride_lines = s * 16 / 64;
        assert_eq!(stride_lines % 2, 1, "padded stride should be odd in lines");
    }

    #[test]
    fn already_coprime_strides_are_kept() {
        // 5 lines of stride: odd -> untouched (stride = 20 points of 16 B
        // with 64 B lines = 5 lines)
        let s = try_conflict_free_stride(20, 16, 64, 1024).unwrap();
        assert_eq!(s, 20);
    }

    #[test]
    fn sub_line_strides_are_kept() {
        assert_eq!(try_conflict_free_stride(2, 16, 64, 1024).unwrap(), 2);
        assert_eq!(try_conflict_free_stride(1, 8, 64, 512).unwrap(), 1);
    }

    #[test]
    fn padded_walk_covers_many_sets() {
        // simulate set indices of a 64-element walk before/after padding
        let (elem, line, sets) = (16usize, 64usize, 8192usize);
        let stride = 4096usize; // points
        let padded = try_conflict_free_stride(stride, elem, line, sets).unwrap();
        let distinct = |s: usize| {
            let mut seen = std::collections::HashSet::new();
            for i in 0..64usize {
                let set = (i * s * elem / line) % sets;
                seen.insert(set);
            }
            seen.len()
        };
        assert!(distinct(stride) <= 8, "unpadded should alias heavily");
        assert_eq!(distinct(padded), 64, "padded walk should spread fully");
    }

    #[test]
    fn pad_unpad_round_trip() {
        let src: Vec<u32> = (0..60).collect();
        let padded = try_pad_rows(&src, 12, 5, 17).unwrap();
        assert_eq!(padded.len(), 85);
        // padding gaps are default-initialized
        assert_eq!(padded[12], 0);
        assert_eq!(padded[16], 0);
        assert_eq!(padded[17], 12);
        let back = try_unpad_rows(&padded, 12, 5, 17).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn pad_rejects_shrinking() {
        let src = [0u8; 10];
        try_pad_rows(&src, 5, 2, 4).unwrap();
    }
}
