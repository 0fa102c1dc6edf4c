//! Data-layout reorganization primitives.
//!
//! The paper's Dynamic Data Layout (DDL) approach inserts explicit data
//! reorganizations between the computation stages of a factorized signal
//! transform so that leaf transforms read at unit stride (Section IV-A).
//! Every reorganization it needs is a special case of one of the
//! operations in this crate:
//!
//! * [`stride`] — gather/scatter between a strided view and a contiguous
//!   buffer: the per-node reorganization `Dr(n, s→1)` and its inverse.
//! * [`transpose`] — out-of-place and in-place matrix transposes (naive,
//!   blocked, and cache-oblivious recursive): the full-array stride
//!   permutation `L^N_{n2}` of the Cooley–Tukey identity, since permuting a
//!   length-`n1·n2` vector by `L` is exactly transposing its `n1 × n2`
//!   row-major matrix view.
//! * [`bitrev`] — bit-reversal permutation used by the iterative radix-2
//!   baseline FFT.
//! * [`permute`] — general permutations, including allocation-free in-place
//!   application by cycle following.
//! * [`padding`] — the classic static mitigation (padded strides) the
//!   paper contrasts DDL with; kept for ablation studies.
//!
//! Everything is generic over `Copy` element types so the same code moves
//! complex points (16 B) for the FFT and real points (8 B) for the WHT.
//!
//! ```
//! // The reorganization at the heart of DDL: a stride permutation makes
//! // previously strided elements contiguous.
//! use ddl_layout::try_stride_permutation;
//! let src: Vec<u32> = (0..16).collect();
//! let mut dst = vec![0u32; 16];
//! try_stride_permutation(&src, &mut dst, 16, 4).unwrap();
//! assert_eq!(&dst[..4], &[0, 4, 8, 12]); // the old stride-4 walk, now unit
//! ```

#![forbid(unsafe_code)]

pub mod bitrev;
pub mod padding;
pub mod permute;
pub mod stride;
pub mod transpose;

pub use bitrev::{bit_reverse_index, try_bit_reverse_permute};
pub use ddl_num::DdlError;
pub use padding::{try_conflict_free_stride, try_pad_rows, try_unpad_rows};
pub use permute::{try_apply_permutation, try_apply_permutation_in_place, try_invert_permutation};
pub use stride::{try_gather_stride, try_scatter_stride, StridedView};
pub use transpose::{
    try_stride_permutation, try_stride_permutation_in_place_square, try_transpose,
    try_transpose_blocked, try_transpose_in_place_square, try_transpose_recursive,
};
