//! Deterministic chaos suite for the fault-tolerant service layer.
//!
//! Each test arms one class of fault through `ddl_core::faultpoint`
//! (seed-reproducible: the set of fired hit ordinals depends only on
//! `(seed, point, ordinal)`), drives the wisdom store / engine / service
//! through it, and asserts the three robustness invariants:
//!
//! 1. **No deadlock** — the run completes inside a watchdog window.
//! 2. **No lost request** — every admitted request gets exactly one
//!    response, and every permit it took is released.
//! 3. **Report conservation** — the outcome counts partition the total
//!    (`accepted == completed + failed`).
//!
//! Fault classes covered: corrupt wisdom loads, admission saturation,
//! engine shard poisoning, panics while serving a request, and deadline
//! budgets burned entirely while waiting for a permit
//! (`serve.dequeue.slow`).
//!
//! Service fault classes additionally assert the flight recorder: each
//! dump-triggering fault (queue shed, worker panic, queue-wait expiry)
//! must leave a parseable `ddl-flight` capsule naming the faulting
//! request. Dumps go to `$DDL_FLIGHT_OUT` when CI sets it (the uploaded
//! artifact), or to a per-test temp file otherwise.
//!
//! The seed is pinned by `DDL_CHAOS_SEED` (default 42); CI runs with the
//! pinned default so failures replay exactly. When `DDL_CHAOS_REPORT`
//! is set, each test appends one JSONL line describing what it injected
//! and observed — CI uploads the file as the fault-injection artifact.

use dynamic_data_layout::core::engine::{Engine, EngineConfig, PlanKey};
use dynamic_data_layout::core::faultpoint::{self, FaultMode};
use dynamic_data_layout::core::planner::{PlannerConfig, Strategy};
use dynamic_data_layout::core::tree::Tree;
use dynamic_data_layout::core::wisdom::Wisdom;
use dynamic_data_layout::core::FlightDump;
use dynamic_data_layout::serve::{Service, ServiceConfig};
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Pinned chaos seed; override with `DDL_CHAOS_SEED` to explore.
fn seed() -> u64 {
    std::env::var("DDL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Runs `f` on a helper thread and asserts it finishes within a minute:
/// the executable no-deadlock assertion. Returns `f`'s value.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::sync_channel(1);
    let handle = std::thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdogged work");
    let value = rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{name}: deadlocked or lost (watchdog fired)"));
    let _ = handle.join();
    value
}

/// Appends one finding line to `$DDL_CHAOS_REPORT` (no-op when unset).
fn report_line(class: &str, detail: &str) {
    let Ok(path) = std::env::var("DDL_CHAOS_REPORT") else {
        return;
    };
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(
            file,
            "{{\"schema\":\"ddl-chaos\",\"class\":\"{class}\",\"seed\":{},{detail}}}",
            seed()
        );
    }
}

/// Flight-dump destination for a chaos service test: the shared
/// `DDL_FLIGHT_OUT` artifact when CI set one (the recorder already
/// routes there via the environment), a fresh per-test temp file
/// otherwise.
fn flight_out_for(svc: &Service, tag: &str) -> PathBuf {
    match std::env::var("DDL_FLIGHT_OUT") {
        Ok(path) => PathBuf::from(path),
        Err(_) => {
            let path = std::env::temp_dir().join(format!(
                "ddl-chaos-flight-{}-{tag}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            svc.set_flight_out(Some(path.clone()));
            path
        }
    }
}

/// Finds a parseable dump in `path` with the given trigger (and exact
/// capsule detail, when one is given). Every line must parse.
fn find_dump(path: &Path, trigger: &str, detail: Option<&str>) -> FlightDump {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("flight artifact {}: {e}", path.display()));
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let dump = FlightDump::parse(line).expect("every flight dump line parses");
        if dump.trigger == trigger && detail.is_none_or(|d| dump.capsule.detail == d) {
            return dump;
        }
    }
    panic!("no {trigger:?} dump in {}", path.display());
}

/// A service with `workers` permits and `queue` places in line.
fn service(workers: usize, queue: usize) -> Service {
    Service::new(ServiceConfig {
        workers: NonZeroUsize::new(workers).expect("at least one permit"),
        queue_capacity: queue,
        default_deadline: None,
        engine: EngineConfig::default(),
    })
}

/// Spins until exactly `k` requests wait for a permit.
fn until_queued(svc: &Service, k: usize) {
    while svc.stats().queued != k {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Class 1: corrupt wisdom loads quarantine; engine and service degrade.
// ---------------------------------------------------------------------------

#[test]
fn chaos_corrupt_wisdom_is_quarantined_not_fatal() {
    let _x = faultpoint::exclusive();
    let dir = std::env::temp_dir().join(format!("ddl-chaos-wisdom-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wisdom.json");

    let mut wisdom = Wisdom::new();
    wisdom.put(
        "dft",
        64,
        Strategy::Ddl,
        &Tree::split(Tree::leaf(8), Tree::leaf(8)),
        1.0,
        "chaos",
    );
    wisdom.save(&path).expect("seed wisdom");

    let engine = Engine::new(EngineConfig {
        shards: 4,
        planner: PlannerConfig::ddl_analytical(),
    });
    {
        let _g = faultpoint::arm(seed(), &[("wisdom.load.corrupt", FaultMode::Always)]);
        let loaded = Wisdom::load(&path).expect("corrupt entries must not fail the load");
        assert_eq!(loaded.len(), 0, "damaged entries must not survive");
        assert_eq!(loaded.quarantined().len(), 1, "damage lands in quarantine");
        assert_eq!(
            engine.warm_from_wisdom(&loaded),
            0,
            "nothing valid to warm from"
        );
    }
    // Degraded, not dead: the engine plans the key from scratch.
    let artifact = engine
        .plan(PlanKey::dft(64, Strategy::Ddl))
        .expect("cold planning still works");
    assert_eq!(artifact.n(), 64);

    std::fs::remove_dir_all(&dir).ok();
    report_line(
        "wisdom.load.corrupt",
        "\"entries\":1,\"quarantined\":1,\"crashed\":false",
    );
}

// ---------------------------------------------------------------------------
// Class 2: admission saturation sheds with Overloaded.
// ---------------------------------------------------------------------------

#[test]
fn chaos_queue_saturation_sheds_and_conserves() {
    let _x = faultpoint::exclusive();
    let svc = service(1, 4);
    let flight_out = flight_out_for(&svc, "queue-saturation");

    // The one permit is held, so four requests wait for it and every
    // further one finds the line full.
    let svc2 = svc.clone();
    let (responses, shed) = with_watchdog("drain", move || {
        let held = svc2.permit().expect("the only permit");
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..4)
                .map(|_| s.spawn(|| svc2.handle("exec dft 64 sdl")))
                .collect();
            until_queued(&svc2, 4);
            let mut shed = 0usize;
            for _ in 0..8 {
                let line = svc2.handle("exec dft 64 sdl");
                assert!(
                    line.starts_with("err overloaded:"),
                    "only Overloaded may shed, got {line}"
                );
                assert!(line.contains("(4 queued, capacity 4)"), "got {line}");
                shed += 1;
            }
            drop(held);
            let responses: Vec<String> = waiters
                .into_iter()
                .map(|w| w.join().expect("waiter"))
                .collect();
            (responses, shed)
        })
    });
    assert_eq!(responses.len(), 4, "exactly capacity admitted");
    assert_eq!(shed, 8, "everything else shed immediately");
    for line in &responses {
        assert!(line.starts_with("ok exec dft n=64"), "got {line}");
    }
    let s = svc.stats();
    assert_eq!(s.accepted, 4);
    assert_eq!(s.shed, 8);
    assert_eq!(s.accepted, s.completed + s.failed, "conservation");
    assert_eq!((s.queued, s.in_flight), (0, 0));

    // Each shed request left a flight capsule behind.
    let dump = find_dump(&flight_out, "queue_shed", Some("exec dft 64 sdl"));
    assert_eq!(dump.capsule.outcome, "overloaded");
    assert!(dump.capsule.id > 0, "shed request still has an id");
    report_line(
        "serve.queue.full",
        "\"submitted\":12,\"accepted\":4,\"shed\":8",
    );
}

// ---------------------------------------------------------------------------
// Class 3: a poisoned plan-cache shard quarantines; service keeps going.
// ---------------------------------------------------------------------------

#[test]
fn chaos_poisoned_shard_quarantines_not_crashes() {
    let _x = faultpoint::exclusive();
    let engine = Engine::new(EngineConfig {
        shards: 4,
        planner: PlannerConfig::ddl_analytical(),
    });
    let key = PlanKey::dft(128, Strategy::Ddl);
    {
        let _g = faultpoint::arm(seed(), &[("engine.shard.poison", FaultMode::Once(0))]);
        let shared = engine.clone();
        let artifact = with_watchdog("poison", move || shared.plan(key).map(|a| a.n()));
        assert_eq!(artifact, Ok(128), "the poisoning request itself succeeds");
    }
    assert_eq!(engine.quarantined_shards(), 1);
    // Repeated requests for the quarantined key still succeed, uncached.
    for _ in 0..3 {
        assert_eq!(engine.plan(key).map(|a| a.n()), Ok(128));
    }
    assert_eq!(engine.quarantined_shards(), 1, "no quarantine spread");
    report_line(
        "engine.shard.poison",
        "\"quarantined_shards\":1,\"requests_served_after\":3",
    );
}

// ---------------------------------------------------------------------------
// Class 4: randomized panics while serving requests.
// ---------------------------------------------------------------------------

#[test]
fn chaos_service_worker_panics_conserve_responses() {
    let _x = faultpoint::exclusive();
    let run = || {
        let _g = faultpoint::arm(
            seed(),
            &[("serve.worker.panic", FaultMode::Probability(0.4))],
        );
        let svc = service(2, 32);
        let flight_out = flight_out_for(&svc, "panic-storm");
        let svc2 = svc.clone();
        let responses = with_watchdog("panic-storm", move || {
            (0..20)
                .map(|i| svc2.handle(&format!("exec dft {} sdl", 32 << (i % 3))))
                .collect::<Vec<_>>()
        });
        (responses, svc, flight_out)
    };

    let (responses, svc, flight_out) = run();
    let stats = svc.stats();
    assert_eq!(responses.len(), 20, "every request answered exactly once");
    let panics = responses
        .iter()
        .filter(|r| r.starts_with("err worker-panic:"))
        .count();
    let oks = responses.iter().filter(|r| r.starts_with("ok ")).count();
    assert_eq!(panics + oks, 20, "responses partition into ok and panic");
    assert!(panics > 0, "probability 0.4 over 20 requests fired nothing");
    assert!(oks > 0, "service must survive the storm");
    assert_eq!(stats.accepted, 20);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed,
        "conservation"
    );
    assert_eq!(stats.worker_panics as usize, panics);

    // No permit leaked: none is held, and both can be held at once
    // without waiting.
    assert_eq!(stats.in_flight, 0, "a panicking request kept its permit");
    with_watchdog("permits-free", move || {
        let both = [svc.permit(), svc.permit()];
        assert!(both.iter().all(Result::is_ok));
    });

    // Every contained panic dumped a flight capsule with the faulting
    // request's id and span breakdown.
    let dump = find_dump(&flight_out, "panic", None);
    assert_eq!(dump.capsule.outcome, "panicked");
    assert!(dump.capsule.id > 0);
    assert!(dump.capsule.detail.starts_with("exec dft"));

    // Deterministic replay: same seed, same request order, same fates.
    let (replay, _, _) = run();
    let fates = |rs: &[String]| -> Vec<bool> { rs.iter().map(|r| r.starts_with("ok ")).collect() };
    assert_eq!(
        fates(&responses),
        fates(&replay),
        "seeded replay must match"
    );
    report_line(
        "serve.worker.panic",
        &format!("\"requests\":20,\"worker_panics\":{panics},\"replay_matched\":true"),
    );
}

// ---------------------------------------------------------------------------
// Class 5: the whole deadline budget burns before the permit is granted.
// ---------------------------------------------------------------------------

#[test]
fn chaos_slow_dequeue_expires_deadline_during_queue_wait() {
    let _x = faultpoint::exclusive();
    let svc = service(1, 8);
    let flight_out = flight_out_for(&svc, "slow-dequeue");

    // An hour of budget: only the injected late grant can expire it,
    // proving the check measures from the admission anchor rather than
    // re-reading the clock per phase.
    let line = "exec dft 64 sdl deadline_ms=3600000";
    let resp = {
        let _g = faultpoint::arm(seed(), &[("serve.dequeue.slow", FaultMode::Once(0))]);
        let svc2 = svc.clone();
        with_watchdog("slow-dequeue", move || svc2.handle(line))
    };
    assert!(resp.starts_with("err deadline:"), "got {resp}");
    assert!(
        resp.contains("queue wait"),
        "expiry must blame the wait for a permit, not execution: {resp}"
    );
    let s = svc.stats();
    assert_eq!((s.failed, s.deadline_expired), (1, 1));
    assert_eq!(s.accepted, s.completed + s.failed, "conservation");

    // The flight capsule attributes the whole loss to the wait.
    let dump = find_dump(&flight_out, "deadline", Some(line));
    assert!(dump.capsule.id > 0);
    assert_eq!(dump.capsule.outcome, "deadline_expired");
    assert_eq!(dump.capsule.plan_ns, 0, "request never reached planning");
    assert_eq!(dump.capsule.execute_ns, 0, "request never executed");
    assert!(dump.capsule.total_ns >= dump.capsule.queue_ns);

    // Disarmed, the same request sails through well inside its budget.
    assert!(svc.handle(line).starts_with("ok exec dft n=64"));
    report_line(
        "serve.dequeue.slow",
        "\"requests\":1,\"deadline_expired\":1,\"phase\":\"queue-wait\"",
    );
}
