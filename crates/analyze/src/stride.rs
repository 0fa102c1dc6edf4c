//! The in-bounds test of a strided view: the `len` points `base, base +
//! stride, …` of a region.

/// True when every point of the view `(base, stride, len)` lies inside a
/// region of `region_len` points, i.e. its last point, `base + (len-1) *
/// stride`, does. An empty view fits anywhere; one whose last point
/// overflows `usize` fits nowhere.
pub(crate) fn fits(base: usize, stride: usize, len: usize, region_len: usize) -> bool {
    len == 0
        || (len - 1)
            .checked_mul(stride)
            .and_then(|offset| offset.checked_add(base))
            .is_some_and(|last| last < region_len)
}

#[cfg(test)]
mod tests {
    use super::fits;

    #[test]
    fn empty_view_always_fits() {
        assert!(fits(100, 50, 0, 0));
        assert!(fits(usize::MAX, usize::MAX, 0, 0));
        // One point: the base alone must lie inside.
        assert!(fits(9, 50, 1, 10));
        assert!(!fits(10, 50, 1, 10));
    }

    #[test]
    fn fits_detects_overflow() {
        // Last point 1 + 2 * (usize::MAX / 2) = usize::MAX: outside any
        // region.
        assert!(!fits(1, usize::MAX / 2, 3, usize::MAX));
        // Last point past usize::MAX: the offset overflows.
        assert!(!fits(2, usize::MAX / 2, 3, usize::MAX));
        assert!(!fits(0, usize::MAX, 3, usize::MAX));
        // Last point 5 + 3 * 3 = 14.
        assert!(fits(5, 3, 4, 15));
        assert!(!fits(5, 3, 4, 14));
    }
}
