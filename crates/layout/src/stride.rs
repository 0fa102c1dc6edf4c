//! Strided gather/scatter — the per-node DDL reorganization.
//!
//! A leaf node `(n, s)` of a factorization tree reads `n` points at stride
//! `s`. The DDL reorganization `Dr(n, s→1)` copies those points into a
//! contiguous buffer (one pass of `2n` memory operations, the cost the
//! paper's Eq. (2) charges as `O(n/L)` cache-line transfers), and the
//! reverse reorganization `Dr(n, 1→s)` writes results back.

use ddl_num::DdlError;

/// A read-only strided view over a slice: elements `base, base+stride, …`.
///
/// This is the addressing scheme of a factorized-transform leaf: the
/// `j`-th of the `m` size-`n` sub-DFTs of a `N = n·m` node views the input
/// as `StridedView::try_new(j, m, n, x.len())`.
#[derive(Clone, Copy, Debug)]
pub struct StridedView {
    /// Index of the first element.
    pub base: usize,
    /// Distance between consecutive elements, in points.
    pub stride: usize,
    /// Number of elements in the view.
    pub len: usize,
}

impl StridedView {
    /// Creates a view and checks that it stays in bounds of a buffer of
    /// `buf_len` points; an out-of-bounds view is a
    /// [`DdlError::InvalidStride`].
    pub fn try_new(
        base: usize,
        stride: usize,
        len: usize,
        buf_len: usize,
    ) -> Result<Self, DdlError> {
        let v = StridedView { base, stride, len };
        if v.fits(buf_len) {
            Ok(v)
        } else {
            Err(DdlError::InvalidStride {
                detail: format!(
                    "StridedView out of bounds: base={base} stride={stride} len={len} buf={buf_len}"
                ),
            })
        }
    }

    /// True when every element index is `< buf_len`.
    pub fn fits(&self, buf_len: usize) -> bool {
        if self.len == 0 {
            return true;
        }
        // last index = base + (len-1)*stride
        match (self.len - 1)
            .checked_mul(self.stride)
            .and_then(|o| o.checked_add(self.base))
        {
            Some(last) => last < buf_len,
            None => false,
        }
    }

    /// The buffer index of element `i`.
    #[inline(always)]
    pub fn index(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.base + i * self.stride
    }
}

/// Gathers `dst.len()` elements from `src` starting at `base` with the given
/// stride into the contiguous `dst`. This is the forward reorganization
/// `Dr(n, s→1)`.
#[inline]
pub fn try_gather_stride<T: Copy>(
    src: &[T],
    base: usize,
    stride: usize,
    dst: &mut [T],
) -> Result<(), DdlError> {
    let view = StridedView::try_new(base, stride, dst.len(), src.len())?;
    if dst.is_empty() {
        return Ok(());
    }
    if stride == 1 {
        dst.copy_from_slice(&src[base..base + dst.len()]);
        return Ok(());
    }
    let mut idx = view.base;
    for d in dst.iter_mut() {
        *d = src[idx];
        idx += stride;
    }
    Ok(())
}

/// Scatters the contiguous `src` into `dst` starting at `base` with the
/// given stride. This is the reverse reorganization `Dr(n, 1→s)`.
#[inline]
pub fn try_scatter_stride<T: Copy>(
    src: &[T],
    dst: &mut [T],
    base: usize,
    stride: usize,
) -> Result<(), DdlError> {
    let view = StridedView::try_new(base, stride, src.len(), dst.len())?;
    if src.is_empty() {
        return Ok(());
    }
    if stride == 1 {
        dst[base..base + src.len()].copy_from_slice(src);
        return Ok(());
    }
    let mut idx = view.base;
    for &s in src.iter() {
        dst[idx] = s;
        idx += stride;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_unit_stride_is_copy() {
        let src: Vec<u32> = (0..16).collect();
        let mut dst = [0u32; 4];
        try_gather_stride(&src, 3, 1, &mut dst).unwrap();
        assert_eq!(dst, [3, 4, 5, 6]);
    }

    #[test]
    fn gather_strided() {
        let src: Vec<u32> = (0..16).collect();
        let mut dst = [0u32; 4];
        try_gather_stride(&src, 1, 4, &mut dst).unwrap();
        assert_eq!(dst, [1, 5, 9, 13]);
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let payload = [10u32, 20, 30, 40];
        let mut buf = vec![0u32; 32];
        try_scatter_stride(&payload, &mut buf, 2, 7).unwrap();
        let mut back = [0u32; 4];
        try_gather_stride(&buf, 2, 7, &mut back).unwrap();
        assert_eq!(back, payload);
        // untouched positions remain zero
        assert_eq!(buf[0], 0);
        assert_eq!(buf[3], 0);
    }

    #[test]
    fn scatter_unit_stride_is_copy() {
        let payload = [1u8, 2, 3];
        let mut buf = vec![9u8; 6];
        try_scatter_stride(&payload, &mut buf, 1, 1).unwrap();
        assert_eq!(buf, vec![9, 1, 2, 3, 9, 9]);
    }

    #[test]
    fn empty_view_always_fits() {
        let v = StridedView {
            base: 100,
            stride: 50,
            len: 0,
        };
        assert!(v.fits(0));
        let src: [u8; 0] = [];
        let mut dst: [u8; 0] = [];
        try_gather_stride(&src, 100, 50, &mut dst).unwrap(); // must not panic
    }

    #[test]
    fn view_index_arithmetic() {
        let v = StridedView::try_new(5, 3, 4, 32).unwrap();
        assert_eq!(v.index(0), 5);
        assert_eq!(v.index(3), 14);
    }

    #[test]
    fn fits_detects_overflow() {
        let v = StridedView {
            base: 1,
            stride: usize::MAX / 2,
            len: 3,
        };
        assert!(!v.fits(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_gather_panics() {
        let src = [0u8; 8];
        let mut dst = [0u8; 4];
        try_gather_stride(&src, 0, 3, &mut dst).unwrap(); // last index 9 > 7
    }
}
