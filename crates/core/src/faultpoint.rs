//! Deterministic, seed-reproducible fault injection at named points.
//!
//! A long-running transform service has failure modes that unit tests of
//! the happy path never exercise: a worker panics mid-batch, the OS
//! refuses a thread, a deadline expires inside the scheduler, a wisdom
//! file is garbled on disk, an admission queue saturates. This module
//! gives the chaos harness (`tests/chaos.rs`) a way to *force* each of
//! those at will, deterministically, without test-only compilation flags:
//! production code is sprinkled with named **fault points** — cheap
//! `faultpoint::hit("name")` probes that are a single relaxed atomic load
//! when nothing is armed — and a test (or `ddl-serve --faults`) arms
//! rules that decide, per point and per hit index, whether the fault
//! fires.
//!
//! # Determinism
//!
//! Firing decisions depend only on `(seed, point name, hit index)`; the
//! hit index is assigned under the registry lock, so the *set* of fired
//! hit ordinals is identical across runs with the same seed and the same
//! per-point hit counts, regardless of thread interleaving. Probabilistic
//! rules hash the triple through SplitMix64 rather than consulting a
//! shared RNG stream, so concurrent points never perturb each other.
//!
//! # Fault-point catalog
//!
//! The names currently probed by the workspace (see DESIGN.md for the
//! degradation each one exercises):
//!
//! | point                   | effect when fired                          |
//! |-------------------------|--------------------------------------------|
//! | `batch.item.panic`      | batch item panics mid-execution            |
//! | `scheduler.spawn`       | worker thread spawn reports failure        |
//! | `scheduler.deadline`    | item treated as past its deadline          |
//! | `wisdom.load.corrupt`   | wisdom file text garbled after read        |
//! | `wisdom.save.io`        | wisdom save reports an I/O failure         |
//! | `engine.shard.poison`   | plan-cache shard write panics (poisons)    |
//! | `serve.queue.full`      | admission control sheds the request        |
//! | `serve.worker.panic`    | service worker panics on a request         |
//! | `serve.dequeue.slow`    | request's deadline treated as spent in queue |
//!
//! Arming is process-global and last-wins; [`FaultGuard`] disarms on
//! drop. Tests that arm faults must serialize with each other (the chaos
//! harness holds a lock for exactly this).
//!
//! # Probes and locks
//!
//! An armed probe takes the registry lock, and no lock may be taken
//! while another is held (the `ddl-cert` lock rule), so a probe never
//! runs under a guard. A fault that must strike inside a lock's window
//! (`engine.shard.poison`) is probed before the lock is taken, and the
//! guarded code calls [`panic_at`] when the probe fired.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `lock`, recovering the guard when a holder panicked. Every
/// mutex outside tests is taken through this one function: a panic
/// (injected or genuine) poisons the lock it unwinds through, the data
/// behind each lock stays structurally valid, and the next holder
/// carries on instead of cascading the panic.
pub fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How an armed fault point decides whether a given hit fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultMode {
    /// Every hit fires.
    Always,
    /// Exactly one hit fires: the one with this zero-based ordinal.
    Once(u64),
    /// Every `n`-th hit fires (ordinals `n-1, 2n-1, ...`); `Every(1)` is
    /// [`FaultMode::Always`].
    Every(u64),
    /// Each hit fires independently with this probability, decided by a
    /// deterministic hash of `(seed, point, ordinal)`.
    Probability(f64),
}

/// One armed rule with its live counters.
#[derive(Clone, Debug)]
struct RuleState {
    mode: FaultMode,
    hits: u64,
    fired: u64,
}

/// Observed activity of one fault point since arming.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultActivity {
    /// Times the point was probed.
    pub hits: u64,
    /// Times the armed rule fired.
    pub fired: u64,
}

struct Registry {
    armed: AtomicBool,
    state: Mutex<Option<Armed>>,
}

struct Armed {
    seed: u64,
    rules: BTreeMap<String, RuleState>,
}

static REGISTRY: Registry = Registry {
    armed: AtomicBool::new(false),
    state: Mutex::new(None),
};

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The deterministic per-hit coin: a uniform fraction in `[0, 1)` fully
/// determined by `(seed, point, ordinal)`.
fn hit_fraction(seed: u64, point: &str, ordinal: u64) -> f64 {
    let h = splitmix64(seed ^ fnv1a(point) ^ splitmix64(ordinal));
    // 53 high bits -> [0, 1) double, the standard construction.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn mode_fires(mode: FaultMode, seed: u64, point: &str, ordinal: u64) -> bool {
    match mode {
        FaultMode::Always => true,
        FaultMode::Once(at) => ordinal == at,
        FaultMode::Every(n) => n > 0 && (ordinal + 1).is_multiple_of(n),
        FaultMode::Probability(p) => hit_fraction(seed, point, ordinal) < p,
    }
}

/// Probes the fault point `point`: returns `true` when an armed rule
/// decides this hit fires. A single relaxed atomic load when nothing is
/// armed — cheap enough for scheduler hot paths.
pub fn hit(point: &str) -> bool {
    if !REGISTRY.armed.load(Ordering::Relaxed) {
        return false;
    }
    let mut guard = relock(&REGISTRY.state);
    let Some(armed) = guard.as_mut() else {
        return false;
    };
    let seed = armed.seed;
    let Some(rule) = armed.rules.get_mut(point) else {
        return false;
    };
    let ordinal = rule.hits;
    rule.hits += 1;
    let fires = mode_fires(rule.mode, seed, point, ordinal);
    if fires {
        rule.fired += 1;
    }
    fires
}

/// Probes `point` and panics with [`panic_at`] when the fault fires.
pub fn maybe_panic(point: &str) {
    if hit(point) {
        panic_at(point);
    }
}

/// The injected panic at `point`. The payload is prefixed `ddl-fault:`
/// so harness assertions can tell injected panics from genuine ones.
pub fn panic_at(point: &str) -> ! {
    // ddl-lint: allow(no-panics): the whole purpose of this helper is a controlled injected panic for the chaos harness
    panic!("ddl-fault: injected panic at {point}");
}

/// Disarms everything when dropped, restoring the zero-fault state.
#[must_use = "faults disarm when the guard drops"]
#[derive(Debug)]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `rules` under `seed`, replacing any previous arming (last wins).
/// Returns the guard that disarms on drop.
pub fn arm(seed: u64, rules: &[(&str, FaultMode)]) -> FaultGuard {
    *relock(&REGISTRY.state) = Some(Armed {
        seed,
        rules: rules
            .iter()
            .map(|(point, mode)| {
                (
                    point.to_string(),
                    RuleState {
                        mode: *mode,
                        hits: 0,
                        fired: 0,
                    },
                )
            })
            .collect(),
    });
    REGISTRY.armed.store(true, Ordering::Relaxed);
    FaultGuard(())
}

/// Grants exclusive use of the process-global registry. Tests (in this
/// crate or downstream harnesses like `tests/chaos.rs`) that arm fault
/// points must hold this guard for the armed scope so concurrently
/// running tests never observe each other's rules. Poisoning is
/// recovered — a panicking fault-injection test must not wedge the rest
/// of the suite.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    relock(&EXCLUSIVE)
}

/// Disarms every fault point immediately (also done by [`FaultGuard`]).
pub fn disarm() {
    REGISTRY.armed.store(false, Ordering::Relaxed);
    *relock(&REGISTRY.state) = None;
}

/// Activity of every armed point: `point -> (hits, fired)`. Empty when
/// disarmed.
pub fn activity() -> BTreeMap<String, FaultActivity> {
    relock(&REGISTRY.state)
        .as_ref()
        .map(|armed| {
            armed
                .rules
                .iter()
                .map(|(k, r)| {
                    (
                        k.clone(),
                        FaultActivity {
                            hits: r.hits,
                            fired: r.fired,
                        },
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Parses one rule spec: `point=always`, `point=once@K`, `point=every@N`,
/// or `point=pFRACTION` (e.g. `batch.item.panic=p0.25`).
pub fn parse_spec(spec: &str) -> Result<(String, FaultMode), String> {
    let (point, mode_text) = spec
        .split_once('=')
        .ok_or_else(|| format!("fault spec {spec:?}: expected point=mode"))?;
    let point = point.trim();
    if point.is_empty() {
        return Err(format!("fault spec {spec:?}: empty point name"));
    }
    let mode_text = mode_text.trim();
    let mode = if mode_text == "always" {
        FaultMode::Always
    } else if let Some(k) = mode_text.strip_prefix("once@") {
        FaultMode::Once(
            k.parse()
                .map_err(|_| format!("fault spec {spec:?}: bad ordinal {k:?}"))?,
        )
    } else if let Some(n) = mode_text.strip_prefix("every@") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("fault spec {spec:?}: bad period {n:?}"))?;
        if n == 0 {
            return Err(format!("fault spec {spec:?}: period must be positive"));
        }
        FaultMode::Every(n)
    } else if let Some(p) = mode_text.strip_prefix('p') {
        let p: f64 = p
            .parse()
            .map_err(|_| format!("fault spec {spec:?}: bad probability {p:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("fault spec {spec:?}: probability outside [0, 1]"));
        }
        FaultMode::Probability(p)
    } else {
        return Err(format!("fault spec {spec:?}: unknown mode {mode_text:?}"));
    };
    Ok((point.to_string(), mode))
}

/// Parses a `;`-separated list of rule specs (the `ddl-serve --faults`
/// argument format), e.g. `"batch.item.panic=p0.1;scheduler.spawn=always"`.
pub fn parse_specs(text: &str) -> Result<Vec<(String, FaultMode)>, String> {
    text.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_spec)
        .collect()
}

/// Arms from parsed spec strings (owned variant of [`arm`]).
pub fn arm_specs(seed: u64, specs: &[(String, FaultMode)]) -> FaultGuard {
    let borrowed: Vec<(&str, FaultMode)> = specs.iter().map(|(p, m)| (p.as_str(), *m)).collect();
    arm(seed, &borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // Arming is process-global: every test that arms the registry —
    // here, in engine.rs, and in downstream harnesses — serializes on
    // the one shared lock.
    fn serial() -> MutexGuard<'static, ()> {
        exclusive()
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _s = serial();
        disarm();
        assert!(!hit("anything.at.all"));
        assert!(activity().is_empty());
    }

    #[test]
    fn always_and_once_modes() {
        let _s = serial();
        let _g = arm(7, &[("a", FaultMode::Always), ("b", FaultMode::Once(2))]);
        assert!(hit("a") && hit("a"));
        assert!(!hit("b"));
        assert!(!hit("b"));
        assert!(hit("b"));
        assert!(!hit("b"));
        assert!(!hit("unarmed.point"));
        let act = activity();
        assert_eq!(act["a"], FaultActivity { hits: 2, fired: 2 });
        assert_eq!(act["b"], FaultActivity { hits: 4, fired: 1 });
    }

    #[test]
    fn every_mode_fires_periodically() {
        let _s = serial();
        let _g = arm(0, &[("e", FaultMode::Every(3))]);
        let fired: Vec<bool> = (0..9).map(|_| hit("e")).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let _s = serial();
        let run = |seed: u64| -> Vec<bool> {
            let _g = arm(seed, &[("p", FaultMode::Probability(0.5))]);
            (0..64).map(|_| hit("p")).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must reproduce the firing pattern");
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    fn guard_drop_disarms() {
        let _s = serial();
        {
            let _g = arm(0, &[("g", FaultMode::Always)]);
            assert!(hit("g"));
        }
        assert!(!hit("g"));
    }

    #[test]
    fn maybe_panic_panics_only_when_fired() {
        let _s = serial();
        let _g = arm(0, &[("mp", FaultMode::Once(1))]);
        maybe_panic("mp"); // ordinal 0: no fire
        let err = std::panic::catch_unwind(|| maybe_panic("mp")).unwrap_err();
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("ddl-fault"), "{text}");
        maybe_panic("mp"); // ordinal 2: no fire again
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(
            parse_spec("a.b=always").unwrap(),
            ("a.b".into(), FaultMode::Always)
        );
        assert_eq!(
            parse_spec(" x = once@3 ").unwrap(),
            ("x".into(), FaultMode::Once(3))
        );
        assert_eq!(
            parse_spec("x=every@2").unwrap(),
            ("x".into(), FaultMode::Every(2))
        );
        assert_eq!(
            parse_spec("x=p0.25").unwrap(),
            ("x".into(), FaultMode::Probability(0.25))
        );
        for bad in ["x", "x=", "x=p1.5", "x=once@", "x=every@0", "=always"] {
            assert!(parse_spec(bad).is_err(), "{bad}");
        }
        let specs = parse_specs("a=always; b=p0.5;").unwrap();
        assert_eq!(specs.len(), 2);
    }

    #[test]
    fn fraction_is_uniformish() {
        // Sanity: the per-hit coin covers the unit interval.
        let mut lo = 0;
        for i in 0..1000 {
            let f = hit_fraction(9, "u", i);
            assert!((0.0..1.0).contains(&f));
            if f < 0.5 {
                lo += 1;
            }
        }
        assert!((350..=650).contains(&lo), "{lo}/1000 below 0.5");
    }
}
