//! # dynamic-data-layout
//!
//! A Rust reproduction of *"Dynamic Data Layouts for Cache-Conscious
//! Factorization of DFT"* (N. Park, V. K. Prasanna, IPPS 2000; journal
//! version IEEE TSP 52(7), 2004): cache-conscious FFT and
//! Walsh–Hadamard transforms that **reorganize their data layout between
//! computation stages** so that leaf transforms read at unit stride, plus
//! the dynamic-programming search that decides *where* those
//! reorganizations pay off.
//!
//! This crate re-exports the public API of the workspace:
//!
//! * [`num`] — complex arithmetic and twiddle factors.
//! * [`kernels`] — leaf codelets and reference baselines.
//! * [`cachesim`] — the trace-driven cache simulator used for the paper's
//!   miss-rate experiments.
//! * [`core`] — factorization trees, the `ct`/`ctddl` grammar, executors,
//!   cost models, planners and wisdom.
//! * [`analyze`] — static access/conflict analysis and the three-way
//!   cache-miss attribution cross-check.
//! * [`workloads`] — signal generators for examples and benchmarks.
//! * [`serve`] — the fault-tolerant transform service (`ddl-serve`):
//!   shared engine, bounded admission, each request run on the thread
//!   that read it under an execution permit and a deadline.
//!
//! Every fallible operation is available in a `try_*` form returning
//! `Result<_, DdlError>` (re-exported in the [`prelude`]). Plans execute
//! on their own pooled scratch (`try_execute`) or through the one
//! full-control entry point `try_run` (strided views, explicit scratch,
//! one observer).
//!
//! ## Quickstart
//!
//! ```
//! use dynamic_data_layout::prelude::*;
//!
//! // Plan a 4096-point FFT with the DDL search (analytical backend for
//! // determinism; use PlannerConfig::ddl_measured() for real tuning).
//! let outcome = try_plan_dft(4096, &PlannerConfig::ddl_analytical())?;
//! let plan = DftPlan::new(outcome.tree, Direction::Forward)?;
//!
//! let x = vec![Complex64::new(1.0, 0.0); 4096];
//! let mut y = vec![Complex64::ZERO; 4096];
//! plan.try_execute(&x, &mut y)?;
//!
//! // DFT of a constant concentrates in bin 0.
//! assert!((y[0].re - 4096.0).abs() < 1e-6);
//! # Ok::<(), DdlError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub use ddl_analyze as analyze;
pub use ddl_cachesim as cachesim;
pub use ddl_core as core;
pub use ddl_kernels as kernels;
pub use ddl_num as num;
pub use ddl_serve as serve;
pub use ddl_workloads as workloads;

/// The commonly needed names in one import.
pub mod prelude {
    pub use ddl_cachesim::{
        Cache, CacheConfig, CacheStats, HierStats, HierarchyAttributingCache, HierarchyConfig,
    };
    pub use ddl_core::attrib::{
        attribute_dft, attribute_dft_hier, attribute_rfft, attribute_rfft_hier, attribute_wht,
        attribute_wht_hier, AttributionRun, CaseClass, HierarchyAttribution,
    };
    pub use ddl_core::calibrate::{calibrate_dft, calibrate_wht, CalibrationConfig};
    pub use ddl_core::engine::{Engine, EngineConfig, PlanKey, TransformKind};
    pub use ddl_core::grammar::{parse as parse_tree, print_dft, print_wht};
    pub use ddl_core::measure::{fft_mflops, time_per_call, time_per_point_ns};
    pub use ddl_core::obs::{
        Counter, ExecutionMetrics, NullSink, Observer, PlannerRunMetrics, Recorder, Sink, SpanInfo,
        SpanKind, Stage, StageBreakdown, TraceEvent,
    };
    pub use ddl_core::planner::{try_plan_dft, try_plan_wht, CostBackend, PlannerConfig, Strategy};
    pub use ddl_core::reports::{
        check_report, check_report_text, CheckedReport, PlanRecord, Report,
    };
    pub use ddl_core::trace::{chrome_trace_json, validate_chrome_trace, write_chrome_trace};
    pub use ddl_core::traced::{simulate_dft, simulate_wht};
    pub use ddl_core::tree::Tree;
    pub use ddl_core::wisdom::Wisdom;
    pub use ddl_core::{
        CacheModel, DctPlan, Dft2dPlan, DftPlan, DftViews, RfftPlan, SixStepPlan, WhtPlan, WhtView,
    };
    pub use ddl_num::{Complex64, DdlError, Direction};
    pub use ddl_serve::{Service, ServiceConfig};
}
