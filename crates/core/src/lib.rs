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
//!    requirements, and executes through stride-explicit recursion that
//!    can optionally emit its exact memory-access stream into the
//!    `ddl-cachesim` simulator ([`traced`]).
//!
//! Supporting modules: [`grammar`] (the `ct`/`ctddl`/`split` tree
//! expression language mirroring the CMU WHT package), [`measure`]
//! (timing), [`wisdom`] (versioned plan persistence with corrupt-entry
//! quarantine), [`json`] (the minimal JSON subset wisdom files use),
//! [`parallel`] (panic-contained scoped-thread batch execution, an
//! extension beyond the paper's uniprocessor scope). Transforms built on
//! top of the planned FFT: [`dft2d`], [`rfft`], [`dct`], [`sixstep`].
//!
//! Every fallible public operation reports through the workspace-wide
//! [`DdlError`]; the panicking entry points are thin wrappers over the
//! `try_*` forms.
//!
//! ```
//! use ddl_core::{plan_dft, DftPlan, PlannerConfig};
//! use ddl_num::{Complex64, Direction};
//!
//! // Search, compile, execute.
//! let outcome = plan_dft(1 << 10, &PlannerConfig::ddl_analytical());
//! let plan = DftPlan::new(outcome.tree, Direction::Forward).unwrap();
//! let x = vec![Complex64::ONE; 1 << 10];
//! let mut y = vec![Complex64::ZERO; 1 << 10];
//! plan.execute(&x, &mut y);
//! assert!((y[0].re - 1024.0).abs() < 1e-9); // DC bin of a constant
//! ```

#![forbid(unsafe_code)]

pub mod attrib;
pub mod backend;
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
pub mod measure;
pub mod model;
pub mod obs;
pub mod parallel;
pub mod planner;
pub mod reports;
pub mod rfft;
pub mod scheduler;
mod scratch;
pub mod sixstep;
pub mod trace;
pub mod traced;
pub mod tree;
pub mod wht;
pub mod wisdom;

pub use attrib::{
    attribute_dft, attribute_wht, classify_empirical, classify_model, AttributionReport,
    AttributionRun, CaseClass, NodeAttribution, ATTRIBUTION_SCHEMA, ATTRIBUTION_VERSION,
};
pub use backend::{backend_for, simd_active_isa, BackendKind, ExecBackend};
pub use calibrate::{
    calibrate_dft, calibrate_wht, CalibrationCase, CalibrationConfig, CalibrationReport,
    StageCalibration, CALIBRATION_SCHEMA, CALIBRATION_VERSION,
};
pub use dct::DctPlan;
pub use ddl_num::DdlError;
pub use dft::DftPlan;
pub use dft2d::Dft2dPlan;
pub use engine::{Engine, EngineConfig, EngineStats, PlanKey, Session, TransformKind};
pub use flight::{
    next_request_id, FlightDump, FlightRecorder, RequestCapsule, RequestId, FLIGHT_OUT_ENV,
    FLIGHT_SCHEMA, FLIGHT_VERSION,
};
pub use histo::{
    HistogramSet, HistogramSnapshot, LatencyHistogram, TelemetryEntry, TelemetryReport,
    HISTO_BUCKETS, TELEMETRY_SCHEMA, TELEMETRY_VERSION,
};
pub use measure::Deadline;
pub use model::{CacheModel, StageCost};
pub use obs::{
    BatchMetrics, Counter, ExecutionMetrics, MetricsReport, NullSink, PlannerRunMetrics, Recorder,
    Sink, SpanInfo, SpanKind, Stage, StageBreakdown, TraceEvent,
};
pub use parallel::{
    execute_batch_with, execute_dft_batch, execute_wht_batch, try_execute_dft_batch,
    try_execute_dft_batch_opts, try_execute_wht_batch, try_execute_wht_batch_opts, BatchReport,
    ItemTiming,
};
pub use planner::{
    plan_dft, plan_wht, try_plan_dft, try_plan_dft_with, try_plan_wht, try_plan_wht_with,
    CostBackend, PlannerConfig, Strategy,
};
pub use reports::{check_report, check_report_text, CheckedReport};
pub use rfft::RfftPlan;
pub use scheduler::{
    execute_batch_scheduled, scheduler_totals, BatchOptions, CancelToken, SchedulerTotals,
};
pub use sixstep::SixStepPlan;
pub use trace::{
    chrome_trace_json, validate_chrome_trace, write_chrome_trace, TraceSummary, TRACE_SCHEMA,
    TRACE_VERSION,
};
pub use tree::Tree;
pub use wht::WhtPlan;
pub use wisdom::Wisdom;

/// Size of one DFT data point in bytes (double-precision complex), as in
/// the paper's experiments.
pub const DFT_POINT_BYTES: usize = 16;
/// Size of one WHT data point in bytes (double precision).
pub const WHT_POINT_BYTES: usize = 8;
