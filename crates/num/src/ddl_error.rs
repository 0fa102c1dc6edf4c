//! The unified error type for the dynamic-data-layout workspace.
//!
//! Every fallible public operation across the crates — planning, tree
//! construction, grammar parsing, layout reorganization, wisdom
//! persistence, and batch execution — reports failures through
//! [`DdlError`]. The paper's system is an *offline planner + online
//! executor*: plans are persisted and reloaded by long-running services,
//! so a corrupt plan store, an infeasible size, or a poisoned worker
//! thread must surface as a recoverable error the caller can route
//! around, never as a process abort.
//!
//! Legacy panicking entry points are kept as thin wrappers that panic
//! with the error's [`Display`](std::fmt::Display) text, so existing
//! `should_panic` expectations (and callers who prefer the panicking
//! ergonomics) see unchanged messages.

use std::fmt;

/// Highest wisdom-file format version this library understands.
pub const WISDOM_FORMAT_VERSION: u32 = 2;

/// Unified error type for planning, execution, layout, and persistence.
#[derive(Clone, Debug, PartialEq)]
pub enum DdlError {
    /// A transform size is unusable: zero, not a power of two where one
    /// is required, or large enough to overflow addressing arithmetic.
    InvalidSize {
        /// Operation that rejected the size (e.g. `"plan_dft"`).
        context: &'static str,
        /// The offending size.
        n: usize,
        /// Human-readable reason.
        detail: String,
    },
    /// A strided view or layout descriptor does not fit its buffer.
    InvalidStride {
        /// Human-readable description including offset/stride/len.
        detail: String,
    },
    /// A factorization tree failed validation: leaf too small, product
    /// overflow, or structural inconsistency.
    InvalidTree(String),
    /// A grammar expression failed to parse.
    Parse {
        /// Byte offset of the failure in the input.
        pos: usize,
        /// Parser diagnostic.
        msg: String,
    },
    /// Reading or writing a wisdom file failed at the I/O level.
    WisdomIo {
        /// Path of the wisdom file.
        path: String,
        /// Underlying I/O error text.
        detail: String,
    },
    /// A wisdom file is syntactically or structurally invalid
    /// (not JSON, wrong top-level shape, non-object entries...).
    WisdomFormat {
        /// Path of the wisdom file (empty when parsed from memory).
        path: String,
        /// What was wrong.
        detail: String,
    },
    /// A wisdom file declares a format version newer than this library.
    WisdomVersion {
        /// Version found in the file.
        found: u32,
        /// Highest version this library supports.
        supported: u32,
    },
    /// A wisdom entry exists but is corrupt: unparseable expression,
    /// invalid tree, or a tree inconsistent with its key.
    CorruptWisdomEntry {
        /// The wisdom key (e.g. `"dft:1024:ddl"`).
        key: String,
        /// Why the entry was rejected.
        detail: String,
    },
    /// Buffer lengths do not match what the plan or operation requires.
    ShapeMismatch {
        /// Operation and buffer being checked (e.g. `"execute: input"`).
        context: &'static str,
        /// Required length (or multiple).
        want: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A request panicked while it ran; only that request failed.
    WorkerPanic {
        /// Stringified panic payload.
        payload: String,
    },
    /// An OS-level resource was unavailable (e.g. a file write failed).
    Resource(String),
    /// A service shed the request: every execution permit was held and
    /// the line of requests waiting for one was at capacity. Overload is
    /// reported immediately — requests never wait in an unbounded line.
    Overloaded {
        /// Requests already waiting when this one arrived.
        queued: usize,
        /// How many may wait.
        capacity: usize,
    },
    /// A request's deadline expired before (or while) it executed.
    DeadlineExceeded {
        /// Where expiry was detected (e.g. `"serve: queue wait"`).
        context: &'static str,
        /// Nanoseconds the request was past its deadline when detected.
        late_ns: u64,
    },
    /// A report (a `ddl-report` envelope or any other versioned report
    /// document) could not be written or read, did not conform to its
    /// JSON schema, or broke an invariant its parse re-verifies.
    Metrics {
        /// What was wrong (I/O error text or schema diagnostic).
        detail: String,
    },
}

impl DdlError {
    /// Convenience constructor for [`DdlError::InvalidSize`].
    pub fn invalid_size(context: &'static str, n: usize, detail: impl Into<String>) -> Self {
        DdlError::InvalidSize {
            context,
            n,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`DdlError::ShapeMismatch`].
    pub fn shape(context: &'static str, want: usize, got: usize) -> Self {
        DdlError::ShapeMismatch { context, want, got }
    }
}

impl fmt::Display for DdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdlError::InvalidSize { context, n, detail } => {
                write!(f, "{context}: invalid size {n}: {detail}")
            }
            DdlError::InvalidStride { detail } => write!(f, "{detail}"),
            DdlError::InvalidTree(msg) => write!(f, "invalid factorization tree: {msg}"),
            DdlError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            DdlError::WisdomIo { path, detail } => {
                write!(f, "wisdom I/O error for {path}: {detail}")
            }
            DdlError::WisdomFormat { path, detail } => {
                if path.is_empty() {
                    write!(f, "wisdom format error: {detail}")
                } else {
                    write!(f, "wisdom format error in {path}: {detail}")
                }
            }
            DdlError::WisdomVersion { found, supported } => write!(
                f,
                "wisdom format version {found} is newer than supported version {supported}"
            ),
            DdlError::CorruptWisdomEntry { key, detail } => {
                write!(f, "corrupt wisdom entry {key:?}: {detail}")
            }
            DdlError::ShapeMismatch { context, want, got } => {
                write!(f, "{context}: need {want}, got {got}")
            }
            DdlError::WorkerPanic { payload } => write!(f, "request panicked: {payload}"),
            DdlError::Resource(msg) => write!(f, "resource unavailable: {msg}"),
            DdlError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: admission queue at capacity ({queued} queued, capacity {capacity})"
            ),
            DdlError::DeadlineExceeded { context, late_ns } => {
                write!(f, "{context}: deadline exceeded by {late_ns} ns")
            }
            DdlError::Metrics { detail } => write!(f, "metrics error: {detail}"),
        }
    }
}

impl std::error::Error for DdlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DdlError::invalid_size("plan_dft", 0, "size must be at least 1");
        assert!(e.to_string().contains("plan_dft"));
        assert!(e.to_string().contains("size must be at least 1"));

        let e = DdlError::shape("execute: input", 64, 7);
        assert_eq!(e.to_string(), "execute: input: need 64, got 7");

        let e = DdlError::WisdomVersion {
            found: 9,
            supported: WISDOM_FORMAT_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DdlError::Resource("no threads".into()));
    }
}
