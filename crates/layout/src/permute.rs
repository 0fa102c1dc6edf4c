//! General permutations.
//!
//! The stride permutations of `transpose` cover the reorganizations the
//! planner chooses, but tests, the cache simulator's synthetic traces, and
//! the grammar round-trip checks all need arbitrary permutations and their
//! inverses; the in-place cycle-following variant also demonstrates the
//! allocation trade-off the paper mentions for `Dr` (one scratch buffer vs.
//! one bitmap).

use ddl_num::DdlError;

/// Applies `perm` out of place: `dst[i] = src[perm[i]]`.
///
/// `perm` must be a permutation of `0..n`; this is checked in debug builds
/// only (callers in hot paths pass planner-generated permutations).
pub fn try_apply_permutation<T: Copy>(
    src: &[T],
    dst: &mut [T],
    perm: &[usize],
) -> Result<(), DdlError> {
    if src.len() != perm.len() {
        return Err(DdlError::shape(
            "apply_permutation: perm length mismatch",
            perm.len(),
            src.len(),
        ));
    }
    if dst.len() != perm.len() {
        return Err(DdlError::shape(
            "apply_permutation: dst length mismatch",
            perm.len(),
            dst.len(),
        ));
    }
    debug_assert!(is_permutation(perm));
    for (d, &p) in dst.iter_mut().zip(perm.iter()) {
        *d = *src.get(p).ok_or_else(|| DdlError::InvalidLayout {
            detail: format!(
                "apply_permutation: index {p} out of range for length {}",
                perm.len()
            ),
        })?;
    }
    Ok(())
}

/// Applies `perm` in place by following cycles, using a visited bitmap
/// instead of a full scratch buffer: `data` becomes
/// `[data[perm[0]], data[perm[1]], …]`.
///
/// A length mismatch or a non-permutation is an error. The permutation
/// check here is unconditional, since cycle-following on a
/// non-permutation would loop or corrupt data.
pub fn try_apply_permutation_in_place<T: Copy>(
    data: &mut [T],
    perm: &[usize],
) -> Result<(), DdlError> {
    if data.len() != perm.len() {
        return Err(DdlError::shape(
            "apply_permutation_in_place: length mismatch",
            perm.len(),
            data.len(),
        ));
    }
    if !is_permutation(perm) {
        return Err(DdlError::InvalidLayout {
            detail: "apply_permutation_in_place: not a permutation".into(),
        });
    }
    let n = data.len();
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] || perm[start] == start {
            visited[start] = true;
            continue;
        }
        // Walk the cycle containing `start`. Position i must receive the
        // value originally at perm[i]; walking i -> perm[i] and shifting
        // values backwards implements dst[i] = src[perm[i]] with one saved
        // temporary per cycle.
        let mut i = start;
        let saved = data[start];
        loop {
            visited[i] = true;
            let next = perm[i];
            if next == start {
                data[i] = saved;
                break;
            }
            data[i] = data[next];
            i = next;
        }
    }
    Ok(())
}

/// Returns the inverse permutation: `inv[perm[i]] == i`.
pub fn try_invert_permutation(perm: &[usize]) -> Result<Vec<usize>, DdlError> {
    if !is_permutation(perm) {
        return Err(DdlError::InvalidLayout {
            detail: "invert_permutation: not a permutation".into(),
        });
    }
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    Ok(inv)
}

/// True when `perm` contains each of `0..perm.len()` exactly once.
pub fn is_permutation(perm: &[usize]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_place_matches_definition() {
        let src = [10u8, 20, 30, 40];
        let perm = [2usize, 0, 3, 1];
        let mut dst = [0u8; 4];
        try_apply_permutation(&src, &mut dst, &perm).unwrap();
        assert_eq!(dst, [30, 10, 40, 20]);
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let src: Vec<u32> = (0..12).map(|i| i * i).collect();
        let perm = [5usize, 3, 0, 8, 11, 1, 2, 10, 4, 7, 9, 6];
        let mut expected = vec![0u32; 12];
        try_apply_permutation(&src, &mut expected, &perm).unwrap();
        let mut data = src.clone();
        try_apply_permutation_in_place(&mut data, &perm).unwrap();
        assert_eq!(data, expected);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let perm: Vec<usize> = (0..8).collect();
        let mut data: Vec<u8> = (0..8).collect();
        try_apply_permutation_in_place(&mut data, &perm).unwrap();
        assert_eq!(data, (0..8).collect::<Vec<u8>>());
    }

    #[test]
    fn single_big_cycle() {
        // perm[i] = (i+1) mod n: dst[i] = src[i+1] — a rotation.
        let n = 7;
        let perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        let mut data: Vec<usize> = (0..n).collect();
        try_apply_permutation_in_place(&mut data, &perm).unwrap();
        assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 0]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let perm = [3usize, 1, 4, 0, 2];
        let inv = try_invert_permutation(&perm).unwrap();
        let src = [7u8, 8, 9, 10, 11];
        let mut once = [0u8; 5];
        let mut back = [0u8; 5];
        try_apply_permutation(&src, &mut once, &perm).unwrap();
        try_apply_permutation(&once, &mut back, &inv).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn permutation_validation() {
        assert!(is_permutation(&[0, 1, 2]));
        assert!(is_permutation(&[]));
        assert!(!is_permutation(&[0, 0, 2]));
        assert!(!is_permutation(&[0, 3]));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invert_rejects_invalid() {
        try_invert_permutation(&[1, 1]).unwrap();
    }
}
