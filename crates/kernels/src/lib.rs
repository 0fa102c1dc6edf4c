//! Leaf transform kernels and reference baselines.
//!
//! A factorization tree bottoms out in *leaf node transforms* (paper,
//! Section III-A): small DFTs/WHTs executed as straight-line code with
//! strided memory access — the analogue of FFTW's *codelets*, which the
//! CMU packages the paper modifies reuse. This crate provides:
//!
//! * [`codelets`] — fully unrolled strided DFTs of size 1, 2, 4, 8, the
//!   building blocks.
//! * [`generated`] — machine-generated straight-line codelets (sizes 3,
//!   5, 7, 16, 32) produced by the `ddl-codegen` crate, the counterpart
//!   of FFTW's genfft output.
//! * [`leaf`] — the leaf dispatcher [`leaf::dft_leaf_strided`]: unrolled
//!   and generated sizes directly, the 64-point composite via a local
//!   (register/stack) buffer and cached constant twiddles, and a naive
//!   fallback for arbitrary sizes. Strided loads/stores are performed
//!   exactly as written so the leaf's cache behaviour matches the
//!   `(size, stride)` model of the paper's Section III-B.
//! * [`twiddle_stage`] — the diagonal twiddle multiplication `T` between
//!   the two stages of a Cooley–Tukey node, priced separately in the
//!   paper's cost model (the `T_tw` term of Eq. (3)).
//! * [`naive`] — `O(n^2)` reference DFT used to validate everything else.
//! * [`iterative`] — classic in-place radix-2 FFT baseline.
//! * [`wht`] — Walsh–Hadamard counterparts (unrolled, leaf dispatcher,
//!   lane batches, naive and iterative references) on `f64` data.

#![forbid(unsafe_code)]

pub mod codelets;
pub mod generated;
pub mod iterative;
pub mod leaf;
pub mod naive;
pub mod twiddle_stage;
pub mod wht;

pub use ddl_num::DdlError;
pub use iterative::{try_fft_radix2, try_fft_radix2_inplace};
pub use leaf::{dft_leaf_flops_est, dft_leaf_strided, MAX_LEAF_DFT};
pub use naive::{naive_dft, naive_dft_strided};
pub use twiddle_stage::{apply_twiddles, twiddle_flops_est};
pub use wht::{
    naive_wht, try_fwht_inplace, try_naive_wht, try_wht_leaf_strided, wht_lanes, wht_leaf_ops_est,
    wht_leaf_strided, MAX_LEAF_WHT, WHT_LANES,
};
