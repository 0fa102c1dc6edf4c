//! Cache-conscious factorization of signal transforms with dynamic data
//! layouts — the paper's primary contribution.
//!
//! The pipeline mirrors the paper's Section IV:
//!
//! 1. A transform size is factorized into a [`tree::Tree`] whose nodes are
//!    annotated with *(size, stride)* and optional **reorganization** flags
//!    (the Dynamic Data Layout decision).
//! 2. [`planner`] searches the space of such trees with dynamic
//!    programming (Fig. 8 of the paper): the *SDL* search considers sizes
//!    only (reproducing the FFTW/CMU baseline), the *DDL* search considers
//!    `(size, stride)` states and reorganization, using either measured
//!    execution times (the paper's `Get_time`) or the analytical cache
//!    [`model`].
//! 3. The chosen tree compiles into a [`dft::DftPlan`] or
//!    [`wht::WhtPlan`] with precomputed twiddle tables and scratch
//!    carving, and executes through stride-explicit recursion that can
//!    optionally emit its exact memory-access stream into the
//!    `ddl-cachesim` simulator ([`traced`]). The plan exports the
//!    layout that recursion runs on ([`layout`]) for the static analyzer
//!    and per-node attribution.
//!
//! Supporting modules: [`grammar`] (the `ct`/`ctddl`/`split` tree
//! expression language mirroring the CMU WHT package), [`measure`]
//! (timing), [`wisdom`] (versioned plan persistence with corrupt-entry
//! quarantine), [`json`] (the minimal JSON subset wisdom files use).
//! Transforms built on top of the planned FFT: [`dft2d`], [`rfft`],
//! [`dct`], [`sixstep`]. A compiled plan is immutable and `Sync`, so
//! callers may run one plan from many threads at once; each call takes
//! its own scratch from the plan's pool.
//!
//! Every fallible public operation reports through the workspace-wide
//! [`DdlError`]. A plan executes through one full-control entry point
//! (`try_run`: strided views, explicit scratch, one [`Observer`]) and a
//! few conveniences over it that run on the plan's own scratch.
//!
//! ```
//! use ddl_core::{try_plan_dft, DdlError, DftPlan, PlannerConfig};
//! use ddl_num::{Complex64, Direction};
//!
//! // Search, compile, execute.
//! let outcome = try_plan_dft(1 << 10, &PlannerConfig::ddl_analytical())?;
//! let plan = DftPlan::new(outcome.tree, Direction::Forward)?;
//! let x = vec![Complex64::ONE; 1 << 10];
//! let mut y = vec![Complex64::ZERO; 1 << 10];
//! plan.try_execute(&x, &mut y)?;
//! assert!((y[0].re - 1024.0).abs() < 1e-9); // DC bin of a constant
//! # Ok::<(), DdlError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod attrib;
pub mod calibrate;
pub mod dct;
pub mod dft;
pub mod dft2d;
pub mod engine;
pub mod faultpoint;
pub mod flight;
pub mod grammar;
pub mod histo;
pub mod json;
pub mod layout;
pub mod measure;
pub mod model;
pub mod obs;
pub mod planner;
pub mod reports;
pub mod rfft;
mod scratch;
pub mod sixstep;
pub mod trace;
pub mod traced;
pub mod tree;
pub mod wht;
pub mod wisdom;

pub use attrib::{
    attribute_dft, attribute_wht, classify_empirical, classify_model, AttributionRun, CaseClass,
    NodeAttribution,
};
pub use calibrate::{calibrate_dft, calibrate_wht, kendall_tau_b, CalibrationConfig};
pub use dct::DctPlan;
pub use ddl_num::DdlError;
pub use dft::{kernel_set, kernel_set_for, DftPlan, DftViews};
pub use dft2d::Dft2dPlan;
pub use engine::{Engine, EngineConfig, EngineStats, PlanKey, TransformKind};
pub use flight::{
    next_request_id, FlightDump, FlightRecorder, RequestCapsule, RequestId, FLIGHT_OUT_ENV,
    FLIGHT_SCHEMA, FLIGHT_VERSION,
};
pub use histo::{
    HistogramSet, HistogramSnapshot, LatencyHistogram, TelemetryEntry, TelemetryReport,
    HISTO_BUCKETS, TELEMETRY_SCHEMA, TELEMETRY_VERSION,
};
pub use measure::Deadline;
pub use model::{CacheModel, HostFit, StageCost};
pub use obs::{
    Counter, ExecutionMetrics, NullSink, Observer, PlannerRunMetrics, Recorder, Sink, SpanInfo,
    SpanKind, Stage, StageBreakdown, TraceEvent,
};
pub use planner::{
    try_plan_dft, try_plan_dft_with, try_plan_wht, try_plan_wht_with, CostBackend, PlannerConfig,
    Strategy,
};
pub use reports::{
    check_report, check_report_text, CheckedReport, PlanRecord, Report, REPORT_SCHEMA,
    REPORT_VERSION,
};
pub use rfft::RfftPlan;
pub use sixstep::SixStepPlan;
pub use trace::{
    chrome_trace_json, validate_chrome_trace, write_chrome_trace, TraceSummary, TRACE_SCHEMA,
    TRACE_VERSION,
};
pub use tree::Tree;
pub use wht::{WhtPlan, WhtView};
pub use wisdom::Wisdom;

/// Size of one DFT data point in bytes (double-precision complex), as in
/// the paper's experiments.
pub const DFT_POINT_BYTES: usize = 16;
/// Size of one WHT data point in bytes (double precision).
pub const WHT_POINT_BYTES: usize = 8;
