//! A genfft-style codelet generator.
//!
//! FFTW's codelets — the straight-line unrolled DFTs the paper's packages
//! use as leaf transforms — are not written by hand: they come from
//! `genfft`, a symbolic generator that unrolls a small DFT into a DAG of
//! arithmetic, simplifies it, and emits scheduled code. This crate
//! implements the same pipeline for this repository:
//!
//! 1. [`expr`] — hash-consed complex-valued expression DAGs.
//! 2. [`dft_gen`] — symbolic Cooley–Tukey recursion producing the output
//!    expressions of an `n`-point DFT over symbolic inputs, with constant
//!    twiddles folded in.
//! 3. [`simplify`] — algebraic simplification (multiplications by `0`,
//!    `±1`, `±i` and other exact constants) and common-subexpression
//!    elimination by construction.
//! 4. [`interp`] — a DAG interpreter used to validate generated networks
//!    against the naive DFT before any code is emitted.
//! 5. [`emit`] — topological scheduling and Rust source emission.
//!
//! The `gen_codelets` binary regenerates
//! `crates/kernels/src/generated.rs`, which is checked in (as FFTW checks
//! in its generated codelets) and dispatched by `ddl-kernels`; a test
//! over there pins the generated code against the naive DFT.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod dft_gen;
pub mod emit;
pub mod expr;
pub mod interp;
pub mod simplify;

pub use dft_gen::generate_dft;
pub use emit::{emit_codelet, emit_module};
pub use expr::{ExprId, Graph, Node};
pub use interp::evaluate;
