//! Bit-reversal permutation.
//!
//! The iterative radix-2 FFT baseline (`ddl-kernels::iterative`) decimates
//! in time, which leaves its butterflies expecting input in bit-reversed
//! order. This module provides the index map and an in-place permutation.

use ddl_num::DdlError;

/// Reverses the low `bits` bits of `i`.
#[inline]
pub fn bit_reverse_index(i: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes `data` (whose length must be a power of two) into bit-reversed
/// order in place. Involution: applying it twice restores the input.
pub fn try_bit_reverse_permute<T>(data: &mut [T]) -> Result<(), DdlError> {
    let n = data.len();
    if n <= 2 {
        return Ok(());
    }
    if !n.is_power_of_two() {
        return Err(DdlError::invalid_size(
            "bit_reverse_permute",
            n,
            "length must be a power of two",
        ));
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse_index(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_reversal_small() {
        // 3 bits: 0b001 -> 0b100
        assert_eq!(bit_reverse_index(1, 3), 4);
        assert_eq!(bit_reverse_index(3, 3), 6);
        assert_eq!(bit_reverse_index(7, 3), 7);
        assert_eq!(bit_reverse_index(0, 3), 0);
    }

    #[test]
    fn zero_bits_is_zero() {
        assert_eq!(bit_reverse_index(123, 0), 0);
    }

    #[test]
    fn index_reversal_is_involution() {
        for bits in 1..12u32 {
            for i in 0..(1usize << bits) {
                assert_eq!(bit_reverse_index(bit_reverse_index(i, bits), bits), i);
            }
        }
    }

    #[test]
    fn permute_length_8() {
        let mut v: Vec<u32> = (0..8).collect();
        try_bit_reverse_permute(&mut v).unwrap();
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn permute_is_involution() {
        let orig: Vec<u32> = (0..64).collect();
        let mut v = orig.clone();
        try_bit_reverse_permute(&mut v).unwrap();
        assert_ne!(v, orig);
        try_bit_reverse_permute(&mut v).unwrap();
        assert_eq!(v, orig);
    }

    #[test]
    fn tiny_lengths_are_noops() {
        let mut a: [u8; 0] = [];
        try_bit_reverse_permute(&mut a).unwrap();
        let mut b = [5u8];
        try_bit_reverse_permute(&mut b).unwrap();
        assert_eq!(b, [5]);
        let mut c = [1u8, 2];
        try_bit_reverse_permute(&mut c).unwrap();
        assert_eq!(c, [1, 2]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_panics() {
        let mut v = [0u8; 6];
        try_bit_reverse_permute(&mut v).unwrap();
    }
}
