//! Shared compiled-plan store for a long-running transform service.
//!
//! The paper's system is an offline planner feeding an online executor;
//! a service wrapping it wants exactly one copy of each compiled plan
//! (twiddle tables for a 2^20-point DFT are megabytes) shared across
//! every concurrent request. [`Engine`] is that shared,
//! immutable-once-published store: a sharded read-mostly cache of
//! compiled [`PlanArtifact`]s keyed by `(transform, n, strategy)`. Each
//! artifact owns its executor scratch (a pool shared by every request
//! running that plan), so steady-state requests allocate no scratch.
//! Per-request state stays with the caller: `ddl-serve` times each
//! request against its own [`crate::Deadline`].
//!
//! # Fault containment
//!
//! A panic while a shard's write lock is held poisons that shard's
//! `RwLock`. The engine never unwraps a poisoned lock: the shard is
//! marked *quarantined* (an `AtomicBool`), reads and writes to it are
//! skipped from then on, and requests for its keys fall back to
//! compiling a private, uncached plan. The service degrades — those
//! keys lose caching — but never crashes and never blocks. The
//! `engine.shard.poison` fault point (see [`crate::faultpoint`]) is
//! probed before the write lock is taken, and when it fires the insert
//! panics inside the write-guard window, so the chaos suite exercises
//! the real poison path, not a simulation of it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ddl_num::{DdlError, Direction};

use crate::dft::DftPlan;
use crate::faultpoint;
use crate::planner::{try_plan_dft, try_plan_wht, PlannerConfig, Strategy};
use crate::wht::WhtPlan;
use crate::wisdom::Wisdom;

/// Which transform a cached plan computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Complex DFT in the given direction.
    Dft(Direction),
    /// Walsh–Hadamard transform.
    Wht,
}

impl TransformKind {
    /// Stable lowercase name used in stats and wire responses.
    pub fn label(self) -> &'static str {
        match self {
            TransformKind::Dft(Direction::Forward) => "dft",
            TransformKind::Dft(Direction::Inverse) => "idft",
            TransformKind::Wht => "wht",
        }
    }
}

/// Cache key for one compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Transform family (and direction for the DFT).
    pub kind: TransformKind,
    /// Transform size in points.
    pub n: usize,
    /// Planner search strategy that produced the tree.
    pub strategy: Strategy,
}

impl PlanKey {
    /// Forward-DFT key.
    pub fn dft(n: usize, strategy: Strategy) -> PlanKey {
        PlanKey {
            kind: TransformKind::Dft(Direction::Forward),
            n,
            strategy,
        }
    }

    /// WHT key.
    pub fn wht(n: usize, strategy: Strategy) -> PlanKey {
        PlanKey {
            kind: TransformKind::Wht,
            n,
            strategy,
        }
    }

    fn shard_index(&self, shards: usize) -> usize {
        // FNV-1a over the key's fields; cheap and deterministic.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(match self.kind {
            TransformKind::Dft(Direction::Forward) => 1,
            TransformKind::Dft(Direction::Inverse) => 2,
            TransformKind::Wht => 3,
        });
        mix(self.n as u64);
        mix(match self.strategy {
            Strategy::Sdl => 1,
            Strategy::Ddl => 2,
        });
        (h % shards as u64) as usize
    }
}

/// One compiled, immutable, shareable plan.
#[derive(Debug)]
pub enum PlanArtifact {
    /// A compiled DFT plan (twiddle tables precomputed).
    Dft(DftPlan),
    /// A compiled WHT plan.
    Wht(WhtPlan),
}

impl PlanArtifact {
    /// The transform size this artifact computes.
    pub fn n(&self) -> usize {
        match self {
            PlanArtifact::Dft(p) => p.n(),
            PlanArtifact::Wht(p) => p.n(),
        }
    }

    /// The contained DFT plan, if this is one.
    pub fn as_dft(&self) -> Option<&DftPlan> {
        match self {
            PlanArtifact::Dft(p) => Some(p),
            PlanArtifact::Wht(_) => None,
        }
    }

    /// The contained WHT plan, if this is one.
    pub fn as_wht(&self) -> Option<&WhtPlan> {
        match self {
            PlanArtifact::Dft(_) => None,
            PlanArtifact::Wht(p) => Some(p),
        }
    }
}

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of cache shards (clamped to at least 1). More shards mean
    /// less read contention and a smaller blast radius when one is
    /// quarantined.
    pub shards: usize,
    /// Planner configuration used to search trees on cache miss.
    pub planner: PlannerConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 8,
            planner: PlannerConfig::ddl_analytical(),
        }
    }
}

/// Snapshot of engine activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan-cache lookups that found a compiled artifact.
    pub plan_hits: u64,
    /// Lookups that missed (a compile followed).
    pub plan_misses: u64,
    /// Plans compiled (≥ misses only under racing compiles; uncached
    /// compiles against quarantined shards also count here).
    pub plans_compiled: u64,
    /// Shards currently quarantined after lock poisoning.
    pub shards_quarantined: u64,
}

struct Shard {
    plans: RwLock<HashMap<PlanKey, Arc<PlanArtifact>>>,
    quarantined: AtomicBool,
}

struct Inner {
    shards: Vec<Shard>,
    config: EngineConfig,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plans_compiled: AtomicU64,
}

/// Shared, thread-safe compiled-plan store. Cloning is one `Arc` bump;
/// all clones see one cache.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Builds an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        let shard_count = config.shards.max(1);
        let shards = (0..shard_count)
            .map(|_| Shard {
                plans: RwLock::new(HashMap::new()),
                quarantined: AtomicBool::new(false),
            })
            .collect();
        Engine {
            inner: Arc::new(Inner {
                shards,
                config,
                plan_hits: AtomicU64::new(0),
                plan_misses: AtomicU64::new(0),
                plans_compiled: AtomicU64::new(0),
            }),
        }
    }

    /// The planner configuration misses are compiled with.
    pub fn planner_config(&self) -> &PlannerConfig {
        &self.inner.config.planner
    }

    /// Returns the compiled artifact for `key`, compiling and caching it
    /// on miss. Never blocks on — or crashes from — a poisoned shard:
    /// such keys are compiled uncached instead.
    pub fn plan(&self, key: PlanKey) -> Result<Arc<PlanArtifact>, DdlError> {
        self.plan_observed(key).map(|(artifact, _hit)| artifact)
    }

    /// [`Engine::plan`] that also reports whether the artifact came from
    /// the cache, so callers attributing latency per request can label
    /// the plan phase as a hit or a miss without diffing global stats
    /// (which races when requests plan concurrently).
    pub fn plan_observed(&self, key: PlanKey) -> Result<(Arc<PlanArtifact>, bool), DdlError> {
        if let Some(hit) = self.lookup(key) {
            self.inner.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((hit, true));
        }
        self.inner.plan_misses.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(self.compile(key)?);
        self.insert(key, Arc::clone(&artifact));
        Ok((artifact, false))
    }

    /// Seeds the cache from a wisdom store: every entry matching this
    /// engine's strategy set is compiled eagerly. Corrupt entries were
    /// already quarantined by the wisdom loader; compile failures here
    /// are skipped (the key will be planned fresh on demand). Returns
    /// the number of artifacts cached.
    pub fn warm_from_wisdom(&self, wisdom: &Wisdom) -> usize {
        let mut cached = 0;
        for (transform, n, strategy) in wisdom.keys() {
            let kind = match transform.as_str() {
                "dft" => TransformKind::Dft(Direction::Forward),
                "wht" => TransformKind::Wht,
                _ => continue,
            };
            let key = PlanKey { kind, n, strategy };
            let Some((tree, _cost)) = wisdom.get(&transform, n, strategy) else {
                continue;
            };
            let artifact = match kind {
                TransformKind::Dft(dir) => DftPlan::new(tree, dir).map(PlanArtifact::Dft),
                TransformKind::Wht => WhtPlan::new(tree).map(PlanArtifact::Wht),
            };
            if let Ok(artifact) = artifact {
                self.insert(key, Arc::new(artifact));
                cached += 1;
            }
        }
        cached
    }

    /// Current activity counters.
    pub fn stats(&self) -> EngineStats {
        let quarantined = self
            .inner
            .shards
            .iter()
            .filter(|s| s.quarantined.load(Ordering::Acquire))
            .count() as u64;
        EngineStats {
            plan_hits: self.inner.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.inner.plan_misses.load(Ordering::Relaxed),
            plans_compiled: self.inner.plans_compiled.load(Ordering::Relaxed),
            shards_quarantined: quarantined,
        }
    }

    /// Number of shards currently quarantined.
    pub fn quarantined_shards(&self) -> usize {
        self.inner
            .shards
            .iter()
            .filter(|s| s.quarantined.load(Ordering::Acquire))
            .count()
    }

    fn shard(&self, key: PlanKey) -> &Shard {
        let idx = key.shard_index(self.inner.shards.len());
        &self.inner.shards[idx]
    }

    fn lookup(&self, key: PlanKey) -> Option<Arc<PlanArtifact>> {
        let shard = self.shard(key);
        if shard.quarantined.load(Ordering::Acquire) {
            return None;
        }
        match shard.plans.read() {
            Ok(map) => map.get(&key).cloned(),
            Err(_) => {
                shard.quarantined.store(true, Ordering::Release);
                None
            }
        }
    }

    fn insert(&self, key: PlanKey, artifact: Arc<PlanArtifact>) {
        let shard = self.shard(key);
        if shard.quarantined.load(Ordering::Acquire) {
            return;
        }
        // The probe takes the fault registry's lock, so it runs before
        // the write lock; the injected panic itself strikes inside the
        // write-guard window and genuinely poisons the shard — the
        // recovery path below then exercises real quarantine.
        let poison = faultpoint::hit("engine.shard.poison");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(mut map) = shard.plans.write() {
                if poison {
                    faultpoint::panic_at("engine.shard.poison");
                }
                map.insert(key, artifact);
            }
        }));
        if outcome.is_err() || shard.plans.is_poisoned() {
            shard.quarantined.store(true, Ordering::Release);
        }
    }

    fn compile(&self, key: PlanKey) -> Result<PlanArtifact, DdlError> {
        self.inner.plans_compiled.fetch_add(1, Ordering::Relaxed);
        let mut cfg = self.inner.config.planner;
        cfg.strategy = key.strategy;
        match key.kind {
            TransformKind::Dft(dir) => {
                let outcome = try_plan_dft(key.n, &cfg)?;
                DftPlan::new(outcome.tree, dir).map(PlanArtifact::Dft)
            }
            TransformKind::Wht => {
                let outcome = try_plan_wht(key.n, &cfg)?;
                WhtPlan::new(outcome.tree).map(PlanArtifact::Wht)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultpoint::FaultMode;
    use ddl_num::Complex64;
    use std::thread;

    // Planning a miss probes `engine.shard.poison`, so every test that
    // plans holds the fault-point lock: a test that consumed another
    // test's armed fault would quarantine its own shard.

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            shards: 4,
            planner: PlannerConfig::ddl_analytical(),
        })
    }

    #[test]
    fn plan_cache_hits_after_first_compile() {
        let _faults = faultpoint::exclusive();
        let eng = engine();
        let a = eng.plan(PlanKey::dft(256, Strategy::Ddl)).unwrap();
        let b = eng.plan(PlanKey::dft(256, Strategy::Ddl)).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must reuse the artifact"
        );
        let stats = eng.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.plans_compiled, 1);
    }

    /// Plans `n` through `eng` and returns bin 0 of the DFT of ones.
    fn dc_bin(eng: &Engine, n: usize) -> f64 {
        let artifact = eng.plan(PlanKey::dft(n, Strategy::Ddl)).unwrap();
        let x = vec![Complex64::ONE; n];
        let mut y = vec![Complex64::ZERO; n];
        artifact.as_dft().unwrap().try_execute(&x, &mut y).unwrap();
        y[0].re
    }

    #[test]
    fn sessions_share_one_engine_cache() {
        let _faults = faultpoint::exclusive();
        let eng = engine();
        // Each clone stands for one request's handle on the engine.
        for clone in [eng.clone(), eng.clone()] {
            assert!((dc_bin(&clone, 64) - 64.0).abs() < 1e-9);
        }
        let stats = eng.stats();
        assert_eq!(stats.plan_misses, 1, "second clone must hit the cache");
        assert_eq!(stats.plan_hits, 1);
    }

    #[test]
    fn concurrent_sessions_agree_and_cache_once() {
        let _faults = faultpoint::exclusive();
        let eng = engine();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let eng = eng.clone();
                thread::spawn(move || dc_bin(&eng, 128))
            })
            .collect();
        for h in handles {
            assert!((h.join().expect("worker") - 128.0).abs() < 1e-9);
        }
        // Racing compiles may each build the plan, but the cache holds
        // one artifact and subsequent lookups hit.
        let a = eng.plan(PlanKey::dft(128, Strategy::Ddl)).unwrap();
        let b = eng.plan(PlanKey::dft(128, Strategy::Ddl)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn poisoned_shard_quarantines_and_engine_keeps_serving() {
        let _faults = faultpoint::exclusive();
        let eng = engine();
        let key = PlanKey::dft(64, Strategy::Ddl);
        {
            let _fault = faultpoint::arm(7, &[("engine.shard.poison", FaultMode::Once(0))]);
            // First plan: insert panics inside the write guard → shard
            // poisoned → quarantined. The plan call itself still succeeds
            // (the artifact was compiled before insertion).
            let a = eng.plan(key).expect("compile survives injected poison");
            assert_eq!(a.n(), 64);
        }
        assert_eq!(eng.quarantined_shards(), 1, "shard must be quarantined");
        // The key's shard no longer caches, but requests still succeed.
        let b = eng.plan(key).expect("quarantined shard still serves");
        assert_eq!(b.n(), 64);
        let stats = eng.stats();
        assert!(stats.plan_misses >= 2, "quarantined shard cannot hit");
        // Other shards keep caching normally.
        let other = PlanKey::wht(64, Strategy::Sdl);
        if eng.shard(other).quarantined.load(Ordering::Acquire) {
            return; // hashed into the quarantined shard; nothing more to check
        }
        let c1 = eng.plan(other).unwrap();
        let c2 = eng.plan(other).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2));
    }
}
