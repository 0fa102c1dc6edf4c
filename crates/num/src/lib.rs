//! Numeric foundations for the dynamic-data-layout transform library.
//!
//! This crate deliberately implements its own small complex type instead of
//! depending on an external numerics crate: the transform executors are
//! generic over memory abstractions (see `ddl-core`) and need a `Copy`,
//! `#[repr(C)]`, 16-byte complex value whose layout we fully control — one
//! data *point* in the paper's terminology is exactly one `Complex64`
//! (16 bytes), which is what the cache-behaviour analysis in Section III-B
//! of the paper is phrased in terms of.
//!
//! Modules:
//! * [`complex`] — the `Complex64` value type and arithmetic.
//! * [`twiddle`] — roots of unity and precomputed twiddle-factor tables for
//!   the Cooley–Tukey factorization.
//! * [`pow2`] — power-of-two helpers used throughout the planner.
//! * [`error`] — error metrics used by tests and examples to compare
//!   transform outputs against references.
//! * [`ddl_error`] — the unified [`DdlError`] type every fallible public
//!   operation in the workspace reports through.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod complex;
pub mod ddl_error;
pub mod error;
pub mod pow2;
pub mod twiddle;

pub use complex::Complex64;
pub use ddl_error::{DdlError, WISDOM_FORMAT_VERSION};
pub use error::{
    linf_error, max_abs, relative_rms_error, rms_error, try_linf_error, try_rms_error,
};
pub use pow2::{ceil_log2, factor_pairs, floor_log2, is_pow2, log2_exact};
pub use twiddle::{root_of_unity, Direction, TwiddleTable};
