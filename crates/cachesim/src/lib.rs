//! Trace-driven cache simulator.
//!
//! The paper validates DDL with cache simulations (Section V-A, using the
//! SUN Shade simulator): a direct-mapped 512 KB cache, 16-byte
//! double-precision complex points, and varying line sizes. Shade is
//! proprietary SPARC tooling, so this crate implements the equivalent
//! simulator: a single-level, configurable (size, line size,
//! associativity) cache with true LRU replacement and write-allocate
//! policy, fed by the *actual* address stream of the transform executors
//! (`ddl-core`'s traced driver).
//!
//! Beyond the paper's configuration it also supports set-associative
//! caches (the paper's analysis notes "direct-mapped or small
//! set-associative" — the simulator lets us check the claim that small
//! associativity does not remove the pathology) and a two-level hierarchy.
//!
//! * [`cache`] — the core [`cache::Cache`] model and [`cache::CacheStats`].
//! * [`trace`] — the [`trace::MemoryTracer`] trait connecting executors to
//!   the simulator, address-space bookkeeping for multi-buffer traces, and
//!   a recording tracer for tests.
//! * [`hierarchy`] — an inclusive two-level L1/L2 wrapper.
//! * [`tlb`] — a data-TLB model (a small, page-granular LRU cache).
//! * [`attrib`] — per-node attribution: an [`attrib::AttributingCache`]
//!   that segments the address stream at executor node boundaries and
//!   charges counter deltas to an arena tree with exact conservation, and
//!   an [`attrib::HierarchyAttributingCache`] that attributes the same
//!   stream to L1, L2 and a d-TLB simultaneously.
//!
//! ```
//! use ddl_cachesim::{Cache, CacheConfig};
//! // The paper's simulated machine: 512 KB direct-mapped, 64 B lines.
//! let mut cache = Cache::new(CacheConfig::paper_default(64));
//! // A pathological power-of-two stride: every access conflicts.
//! for i in 0..64u64 {
//!     cache.read(i * 512 * 1024, 16);
//! }
//! assert_eq!(cache.stats().hits, 0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod attrib;
pub mod cache;
pub mod hierarchy;
pub mod tlb;
pub mod trace;

pub use attrib::{
    AttributedNode, AttributingCache, BucketStats, HierStats, HierarchyAttributingCache,
    HierarchyConfig, NodeKey,
};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::TwoLevelCache;
pub use tlb::{CacheWithTlb, Tlb};
pub use trace::{AddressSpace, CountingTracer, MemoryTracer, NullTracer, RecordingTracer};
