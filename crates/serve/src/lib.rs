//! Fault-tolerant transform service over the `ddl-core` engine.
//!
//! The paper's planner/executor split naturally extends to a service:
//! plans are expensive to search and compile but cheap to share, so a
//! long-running process should plan once and execute many times on
//! behalf of clients. This crate provides that process: a [`Service`]
//! owning one shared [`Engine`](ddl_core::Engine), whose
//! [`Service::handle`] runs each request on the thread that read it
//! under one of a bounded number of execution permits, and a
//! line-oriented wire protocol reusing the workspace's
//! factorization-tree grammar.
//!
//! # Wire protocol
//!
//! One request per line, one response line per request:
//!
//! ```text
//! plan dft 1024 ddl                     → ok plan dft n=1024 strategy=ddl cached=… backend=… tree=ct(…)
//! exec dft 1024 ddl [deadline_ms=50]    → ok exec dft n=1024 dc=1024 backend=… wall_ns=…
//! exec dft ct(16, ct(16, 16)) [deadline_ms=50]
//!                                       → ok exec dft n=4096 dc=4096 backend=… wall_ns=…
//! exec wht 256 sdl                      → ok exec wht n=256 dc=256 backend=… wall_ns=…
//! stats                                 → ok stats accepted=… shed=… …
//! telemetry                             → ok telemetry {"schema":"ddl-telemetry",…}
//! telemetry text                        → Prometheus-style text exposition
//! ```
//!
//! The `backend=` field of a reply names the kernel set that ran the
//! transform ([`ddl_core::kernel_set_for`]): `avx2` for the DFT on an
//! AVX2+FMA host, else `scalar`; `scalar` for the WHT. No request chooses it, so a line carrying a `backend=` token
//! is refused at admission.
//!
//! Executions run over an all-ones synthetic input and report the DC
//! bin, so a client can verify the transform end to end without
//! shipping data. Failures are one `err <code>: <detail>` line; `code`
//! is stable (`overloaded`, `deadline`, `parse`, `worker-panic`, …).
//!
//! # Overload and fault policy
//!
//! * **Admission is bounded.** At most `workers` requests execute at
//!   once, each holding a [`Permit`]; at most `queue_capacity` more wait
//!   for one, served in arrival order. Any further request fails
//!   *immediately* with [`DdlError::Overloaded`]. Malformed requests are
//!   rejected before admission and take neither a permit nor a place in
//!   line.
//! * **Panics are contained.** A panic while serving a request
//!   (including those injected via the `serve.worker.panic` fault
//!   point) turns into an `err worker-panic:` response for that request
//!   only; its permit is released and the connection keeps serving.
//! * **Deadlines are checked when the permit is granted and again after
//!   execution, and report as typed errors.**
//! * **Every accepted request gets exactly one response** — the
//!   conservation invariant the chaos suite asserts:
//!   `accepted == completed + failed` once nothing waits or runs.
//!
//! # Telemetry
//!
//! Every admitted request gets a [`RequestId`] and is timed against a
//! single monotonic clock captured at admission
//! ([`Deadline`](ddl_core::Deadline)): the wait for a permit, planning
//! and execution all draw from the same budget. Latency lands in a
//! labeled [`HistogramSet`] — per wire op, transform kind, backend and
//! outcome — and a bounded [`FlightRecorder`] ring keeps each request's
//! span capsule. Panic containment, deadline expiry, shard quarantine
//! and shed requests each dump a `ddl-flight` JSONL line (when an output
//! path is configured via [`Service::set_flight_out`] or
//! `DDL_FLIGHT_OUT`). The `telemetry` wire op snapshots everything as a
//! versioned `ddl-telemetry` document whose conservation law — outcome
//! histogram sums exactly partition `accepted`/`shed` on a quiescent
//! snapshot — is machine-checked by `ddl_core::check_report`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![expect(clippy::disallowed_types, reason = "request deadlines and latencies")]

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ddl_core::engine::{PlanKey, TransformKind};
use ddl_core::histo::OUTCOME_OVERLOADED;
use ddl_core::{
    faultpoint::{self, relock},
    grammar, kernel_set_for, next_request_id, DdlError, Deadline, DftPlan, DftViews, Engine,
    EngineConfig, FlightRecorder, HistogramSet, NullSink, RequestCapsule, RequestId, Strategy,
    TelemetryReport, WhtPlan, WhtView,
};
use ddl_num::{Complex64, Direction};

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Execution permits: at most this many requests execute at once.
    pub workers: NonZeroUsize,
    /// Requests that may wait for a permit; beyond them a request sheds
    /// with [`DdlError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Engine (plan cache + planner) configuration.
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: NonZeroUsize::new(2).unwrap_or(NonZeroUsize::MIN),
            queue_capacity: 64,
            default_deadline: None,
            engine: EngineConfig::default(),
        }
    }
}

/// One parsed wire request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Search (or fetch) a plan and cache it in the engine.
    Plan {
        /// Transform family.
        kind: TransformKind,
        /// Transform size.
        n: usize,
        /// Search strategy.
        strategy: Strategy,
    },
    /// Execute over a synthetic all-ones input via an engine-cached plan.
    ExecPlanned {
        /// Transform family.
        kind: TransformKind,
        /// Transform size.
        n: usize,
        /// Search strategy.
        strategy: Strategy,
        /// Per-request deadline override.
        deadline: Option<Duration>,
    },
    /// Execute an explicit factorization-tree expression.
    ExecExpr {
        /// Transform family.
        kind: TransformKind,
        /// Tree expression in the workspace grammar.
        expr: String,
        /// Per-request deadline override.
        deadline: Option<Duration>,
    },
    /// Report service and engine counters.
    Stats,
    /// Snapshot the versioned telemetry document (`text` selects the
    /// Prometheus exposition instead of JSON).
    Telemetry {
        /// Render as Prometheus text instead of one JSON line.
        text: bool,
    },
}

/// `(op, kind, backend)` histogram labels for a request; `-` marks a
/// dimension the op does not have.
fn request_labels(request: &Request) -> (&'static str, String, String) {
    match request {
        Request::Plan { kind, .. } => ("plan", kind.label().into(), kernel_set_for(*kind).into()),
        Request::ExecPlanned { kind, .. } | Request::ExecExpr { kind, .. } => {
            ("exec", kind.label().into(), kernel_set_for(*kind).into())
        }
        Request::Stats => ("meta", "stats".into(), "-".into()),
        Request::Telemetry { .. } => ("meta", "telemetry".into(), "-".into()),
    }
}

fn parse_err(pos: usize, msg: impl Into<String>) -> DdlError {
    DdlError::Parse {
        pos,
        msg: msg.into(),
    }
}

fn parse_kind(tok: &str) -> Result<TransformKind, DdlError> {
    match tok {
        "dft" => Ok(TransformKind::Dft(Direction::Forward)),
        "idft" => Ok(TransformKind::Dft(Direction::Inverse)),
        "wht" => Ok(TransformKind::Wht),
        other => Err(parse_err(0, format!("unknown transform {other:?}"))),
    }
}

fn parse_strategy(tok: &str) -> Result<Strategy, DdlError> {
    match tok {
        "sdl" => Ok(Strategy::Sdl),
        "ddl" => Ok(Strategy::Ddl),
        other => Err(parse_err(0, format!("unknown strategy {other:?}"))),
    }
}

/// Parses one wire line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, DdlError> {
    let line = line.trim();
    let mut toks: Vec<&str> = line.split_whitespace().collect();
    match toks.first().copied() {
        Some("stats") => Ok(Request::Stats),
        Some("telemetry") => match toks.as_slice() {
            ["telemetry"] => Ok(Request::Telemetry { text: false }),
            ["telemetry", "text"] => Ok(Request::Telemetry { text: true }),
            _ => Err(parse_err(0, "usage: telemetry [text]")),
        },
        Some("plan") => {
            if toks.len() != 4 {
                return Err(parse_err(0, "usage: plan <dft|wht> <n> <sdl|ddl>"));
            }
            let kind = parse_kind(toks[1])?;
            let n: usize = toks[2]
                .parse()
                .map_err(|_| parse_err(0, format!("bad size {:?}", toks[2])))?;
            let strategy = parse_strategy(toks[3])?;
            Ok(Request::Plan { kind, n, strategy })
        }
        Some("exec") => {
            if toks.len() < 3 {
                return Err(parse_err(
                    0,
                    "usage: exec <dft|wht> (<n> <sdl|ddl> | <tree-expr>) [deadline_ms=K]",
                ));
            }
            let kind = parse_kind(toks[1])?;
            let deadline = match toks.last() {
                Some(last) if last.starts_with("deadline_ms=") => {
                    let ms: u64 = last["deadline_ms=".len()..]
                        .parse()
                        .map_err(|_| parse_err(0, format!("bad deadline {last:?}")))?;
                    toks.pop();
                    Some(Duration::from_millis(ms))
                }
                _ => None,
            };
            let rest = &toks[2..];
            if rest.is_empty() {
                return Err(parse_err(0, "exec: missing size or tree expression"));
            }
            // `exec dft 1024 ddl` — planned form; anything else is a
            // tree expression (which may contain spaces: `ct(16, 16)`).
            if rest.len() == 2 {
                if let Ok(n) = rest[0].parse::<usize>() {
                    let strategy = parse_strategy(rest[1])?;
                    return Ok(Request::ExecPlanned {
                        kind,
                        n,
                        strategy,
                        deadline,
                    });
                }
            }
            let expr = rest.join(" ");
            // Validate at admission so malformed trees never consume a
            // queue slot.
            grammar::parse(&expr)?;
            Ok(Request::ExecExpr {
                kind,
                expr,
                deadline,
            })
        }
        Some(other) => Err(parse_err(0, format!("unknown command {other:?}"))),
        None => Err(parse_err(0, "empty request")),
    }
}

/// Stable one-token code for an error's wire response.
pub fn error_code(e: &DdlError) -> &'static str {
    match e {
        DdlError::Overloaded { .. } => "overloaded",
        DdlError::DeadlineExceeded { .. } => "deadline",
        DdlError::Parse { .. } => "parse",
        DdlError::WorkerPanic { .. } => "worker-panic",
        DdlError::InvalidSize { .. } => "invalid-size",
        DdlError::InvalidTree(_) => "invalid-tree",
        DdlError::ShapeMismatch { .. } => "shape",
        DdlError::Resource(_) => "resource",
        _ => "error",
    }
}

fn wire_err(e: &DdlError) -> String {
    format!("err {}: {e}", error_code(e))
}

/// Point-in-time service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted: granted a permit, waiting for one, or answered
    /// without one (`stats`, `telemetry`).
    pub accepted: u64,
    /// Requests shed at admission (wait line full or injected shed).
    pub shed: u64,
    /// Requests answered with an `ok` response.
    pub completed: u64,
    /// Requests answered with an `err` response after admission.
    pub failed: u64,
    /// Failed requests whose cause was a contained panic.
    pub worker_panics: u64,
    /// Failed requests whose cause was deadline expiry.
    pub deadline_expired: u64,
    /// Requests waiting for a permit.
    pub queued: usize,
    /// Permits held: requests executing, plus any permit a caller holds
    /// through [`Service::permit`].
    pub in_flight: u64,
}

/// The execution permits: a count under one lock, never a held guard, so
/// no lock is held while a request runs. Every admitted arrival takes
/// the next place in line and waits until its place is the oldest
/// ungranted one and a permit is free, so waiters are served in arrival
/// order.
struct Gate {
    permits: usize,
    capacity: usize,
    state: Mutex<GateState>,
    turn: Condvar,
}

#[derive(Default)]
struct GateState {
    held: usize,
    /// Places in line handed out, and places granted a permit; the
    /// difference waits.
    issued: u64,
    granted: u64,
}

impl GateState {
    fn waiting(&self) -> usize {
        (self.issued - self.granted) as usize
    }
}

impl Gate {
    /// Grants a permit at once while one is free and nobody waits, else
    /// after every earlier arrival, behind at most `capacity` waiters;
    /// otherwise (or when `forced_full`) sheds at once. `admitted` runs
    /// under the lock when the caller is admitted, so a counter it bumps
    /// counts a waiter from the moment it waits.
    fn acquire(&self, forced_full: bool, admitted: impl FnOnce()) -> Result<Permit<'_>, DdlError> {
        let mut s = relock(&self.state);
        let waiting = s.waiting();
        let free_now = waiting == 0 && s.held < self.permits;
        if forced_full || (!free_now && waiting >= self.capacity) {
            return Err(DdlError::Overloaded {
                queued: waiting,
                capacity: self.capacity,
            });
        }
        admitted();
        let place = s.issued;
        s.issued += 1;
        while s.granted != place || s.held == self.permits {
            s = self.turn.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.granted += 1;
        s.held += 1;
        // Another permit may be free for the next place in line.
        let wake = s.waiting() > 0 && s.held < self.permits;
        drop(s);
        if wake {
            self.turn.notify_all();
        }
        Ok(Permit { gate: self })
    }

    fn release(&self) {
        let wake = {
            let mut s = relock(&self.state);
            s.held -= 1;
            s.waiting() > 0
        };
        // Every waiter rechecks its place; only the oldest proceeds.
        if wake {
            self.turn.notify_all();
        }
    }

    /// `(waiting, held)`, read together.
    fn counts(&self) -> (usize, usize) {
        let s = relock(&self.state);
        (s.waiting(), s.held)
    }
}

/// One execution permit. Dropping it releases the permit on every path,
/// unwinding included, and wakes the waiters.
#[must_use = "the permit is released when dropped"]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// Per-phase latency attribution for one request, filled in by
/// [`run_request`] as the phases run.
#[derive(Clone, Copy, Default)]
struct Phases {
    plan_ns: u64,
    execute_ns: u64,
    plan_cache_hit: Option<bool>,
}

struct ServiceInner {
    engine: Engine,
    default_deadline: Option<Duration>,
    gate: Gate,
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    deadline_expired: AtomicU64,
    histos: HistogramSet,
    flight: FlightRecorder,
}

/// The service: one shared engine and its execution permits. It starts
/// no thread; each request runs on the thread that calls
/// [`Service::handle`]. Cloning shares the same service.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Builds the service.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            inner: Arc::new(ServiceInner {
                engine: Engine::new(config.engine),
                default_deadline: config.default_deadline,
                gate: Gate {
                    permits: config.workers.get(),
                    capacity: config.queue_capacity,
                    state: Mutex::new(GateState::default()),
                    turn: Condvar::new(),
                },
                accepted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                worker_panics: AtomicU64::new(0),
                deadline_expired: AtomicU64::new(0),
                histos: HistogramSet::new(),
                flight: FlightRecorder::from_env(64),
            }),
        }
    }

    /// The shared engine (plan cache).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Takes one execution permit the way a request does, in the same
    /// line, but counts as no request. Holding permits reserves execution
    /// capacity; the tests fill the service this way.
    pub fn permit(&self) -> Result<Permit<'_>, DdlError> {
        self.inner.gate.acquire(false, || {})
    }

    /// Serves one wire line on the calling thread and returns its
    /// response line. Malformed lines fail with a parse error and are
    /// never admitted; `stats` and `telemetry` are answered without a
    /// permit; every other request waits for one (or sheds) and runs
    /// under it.
    pub fn handle(&self, line: &str) -> String {
        let admitted = Instant::now();
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => return wire_err(&e),
        };
        let inner = &*self.inner;
        if let Request::Stats | Request::Telemetry { .. } = request {
            // Reads. Their counters and histogram sample land *before*
            // the response is built, so a telemetry snapshot always
            // accounts for the request that asked for it.
            inner.accepted.fetch_add(1, Ordering::Relaxed);
            inner.completed.fetch_add(1, Ordering::Relaxed);
            let (op, kind, backend) = request_labels(&request);
            let ns = admitted.elapsed().as_nanos() as u64;
            inner.histos.record(op, &kind, &backend, "ok", ns);
            return match request {
                Request::Telemetry { text: true } => self.telemetry_text(),
                Request::Telemetry { text: false } => self.telemetry_line(),
                _ => self.stats_line(),
            };
        }
        let id = next_request_id();
        let detail = line.trim();
        // The probe takes the fault registry's lock, so it runs before
        // the gate's lock (and so counts every admission).
        let forced_full = faultpoint::hit("serve.queue.full");
        let permit = inner.gate.acquire(forced_full, || {
            inner.accepted.fetch_add(1, Ordering::Relaxed);
        });
        let permit = match permit {
            Ok(permit) => permit,
            Err(e) => {
                inner.shed.fetch_add(1, Ordering::Relaxed);
                let (op, kind, backend) = request_labels(&request);
                let capsule = RequestCapsule {
                    id: id.get(),
                    op: op.into(),
                    kind,
                    backend,
                    outcome: OUTCOME_OVERLOADED.into(),
                    detail: detail.to_string(),
                    total_ns: admitted.elapsed().as_nanos() as u64,
                    ..Default::default()
                }
                .truncate_detail();
                inner.flight.record(capsule.clone());
                let _ = inner.flight.dump("queue_shed", &capsule);
                inner.histos.record(
                    op,
                    &capsule.kind,
                    &capsule.backend,
                    OUTCOME_OVERLOADED,
                    capsule.total_ns,
                );
                return wire_err(&e);
            }
        };
        let response = serve(inner, id, detail, &request, admitted);
        // Released only after `serve` recorded the histogram sample, so a
        // snapshot that reads no held permit misses no request it counted.
        drop(permit);
        response
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        let (queued, in_flight) = self.inner.gate.counts();
        ServiceStats {
            accepted: self.inner.accepted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            worker_panics: self.inner.worker_panics.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            queued,
            in_flight: in_flight as u64,
        }
    }

    /// The `ok stats …` wire line.
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        let e = self.inner.engine.stats();
        format!(
            "ok stats accepted={} shed={} completed={} failed={} worker_panics={} \
             deadline_expired={} queued={} plan_hits={} plan_misses={} \
             plans_compiled={} shards_quarantined={}",
            s.accepted,
            s.shed,
            s.completed,
            s.failed,
            s.worker_panics,
            s.deadline_expired,
            s.queued,
            e.plan_hits,
            e.plan_misses,
            e.plans_compiled,
            e.shards_quarantined
        )
    }

    /// A point-in-time `ddl-telemetry` snapshot.
    ///
    /// The `serve.snapshot_quiesced` counter is 1 exactly when the
    /// snapshot provably covers every admitted request: nothing waiting,
    /// no permit held, the accepted counter stable across the histogram
    /// read, and the outcome sums matching the admission counters.
    /// [`TelemetryReport::parse`] enforces exact conservation only on
    /// such snapshots (the inequalities always hold).
    pub fn telemetry(&self) -> TelemetryReport {
        let (queued, in_flight) = self.inner.gate.counts();
        let accepted_before = self.inner.accepted.load(Ordering::Relaxed);
        let entries = self.inner.histos.entries();
        let accepted = self.inner.accepted.load(Ordering::Relaxed);
        let shed = self.inner.shed.load(Ordering::Relaxed);
        let mut report = TelemetryReport {
            entries,
            counters: BTreeMap::new(),
        };
        let (admitted_sum, shed_sum) = report.outcome_totals();
        let quiesced = queued == 0
            && in_flight == 0
            && accepted_before == accepted
            && admitted_sum == accepted
            && shed_sum == shed;
        let e = self.inner.engine.stats();
        let c = &mut report.counters;
        c.insert("serve.accepted".into(), accepted);
        c.insert("serve.shed".into(), shed);
        c.insert(
            "serve.completed".into(),
            self.inner.completed.load(Ordering::Relaxed),
        );
        c.insert(
            "serve.failed".into(),
            self.inner.failed.load(Ordering::Relaxed),
        );
        c.insert(
            "serve.worker_panics".into(),
            self.inner.worker_panics.load(Ordering::Relaxed),
        );
        c.insert(
            "serve.deadline_expired".into(),
            self.inner.deadline_expired.load(Ordering::Relaxed),
        );
        c.insert("serve.queued".into(), queued as u64);
        c.insert("serve.in_flight".into(), in_flight as u64);
        c.insert("serve.snapshot_quiesced".into(), u64::from(quiesced));
        c.insert("engine.plan_hits".into(), e.plan_hits);
        c.insert("engine.plan_misses".into(), e.plan_misses);
        c.insert("engine.plans_compiled".into(), e.plans_compiled);
        c.insert("engine.shards_quarantined".into(), e.shards_quarantined);
        c.insert("flight.capsules".into(), self.inner.flight.recorded());
        c.insert("flight.dumps".into(), self.inner.flight.dumps());
        report
    }

    /// The `ok telemetry <json>` wire line (one compact JSON document).
    pub fn telemetry_line(&self) -> String {
        format!("ok telemetry {}", self.telemetry().to_json().compact())
    }

    /// Prometheus-style text exposition of the current snapshot.
    pub fn telemetry_text(&self) -> String {
        self.telemetry().render_prometheus()
    }

    /// Routes flight-recorder dumps to `path` (`None` disables them).
    /// Overrides the `DDL_FLIGHT_OUT` environment default.
    pub fn set_flight_out(&self, path: Option<PathBuf>) {
        self.inner.flight.set_out(path);
    }

    /// Writes the current telemetry snapshot to `path` as pretty JSON.
    pub fn write_telemetry(&self, path: &Path) -> Result<(), DdlError> {
        let text = self.telemetry().to_json().pretty();
        std::fs::write(path, text)
            .map_err(|e| DdlError::Resource(format!("writing {}: {e}", path.display())))
    }
}

/// Serves one admitted request under its permit: the deadline check at
/// the grant (against the admission anchor), panic-contained execution,
/// the deadline re-check, then counters, flight capsule (plus trigger
/// dumps) and histogram sample, in that order. Returns the response.
fn serve(
    inner: &ServiceInner,
    id: RequestId,
    detail: &str,
    request: &Request,
    admitted: Instant,
) -> String {
    let queue_ns = admitted.elapsed().as_nanos() as u64;
    let deadline = match request {
        Request::ExecPlanned { deadline, .. } | Request::ExecExpr { deadline, .. } => *deadline,
        _ => None,
    }
    .or(inner.default_deadline)
    .map(|limit| Deadline::from_admission(admitted, limit));
    // Expiry at the grant measures against the admission anchor: budget
    // spent waiting is as gone as budget spent executing. The
    // `serve.dequeue.slow` fault point simulates a grant so late the
    // whole budget burned in the wait.
    let queue_expired = deadline.and_then(|d| {
        if faultpoint::hit("serve.dequeue.slow") {
            Some(d.limit().as_nanos() as u64)
        } else {
            d.expired()
        }
    });
    let mut phases = Phases::default();
    let mut quarantine_grew = false;
    let result = if let Some(late_ns) = queue_expired {
        Err(DdlError::DeadlineExceeded {
            context: "serve: queue wait",
            late_ns,
        })
    } else {
        let quarantined_before = inner.engine.stats().shards_quarantined;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_request(inner, request, &mut phases)
        }));
        quarantine_grew = inner.engine.stats().shards_quarantined > quarantined_before;
        match outcome {
            // The same anchor is re-checked after execution: finishing
            // late is expiry even when every phase *started* in budget.
            Ok(Ok(line)) => match deadline.and_then(|d| d.expired()) {
                Some(late_ns) => Err(DdlError::DeadlineExceeded {
                    context: "serve: execute",
                    late_ns,
                }),
                None => Ok(line),
            },
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(DdlError::WorkerPanic {
                payload: payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string()),
            }),
        }
    };
    let (line, outcome) = match result {
        Ok(line) => (line, "ok"),
        Err(e) => {
            let outcome = match e {
                DdlError::DeadlineExceeded { .. } => "deadline_expired",
                DdlError::WorkerPanic { .. } => "panicked",
                _ => "error",
            };
            (wire_err(&e), outcome)
        }
    };
    match outcome {
        "ok" => {
            inner.completed.fetch_add(1, Ordering::Relaxed);
        }
        "deadline_expired" => {
            inner.failed.fetch_add(1, Ordering::Relaxed);
            inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
        "panicked" => {
            inner.failed.fetch_add(1, Ordering::Relaxed);
            inner.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            inner.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    let total_ns = admitted.elapsed().as_nanos() as u64;
    let (op, kind, backend) = request_labels(request);
    let capsule = RequestCapsule {
        id: id.get(),
        op: op.into(),
        kind,
        backend,
        outcome: outcome.into(),
        detail: detail.to_string(),
        queue_ns,
        plan_ns: phases.plan_ns,
        execute_ns: phases.execute_ns,
        total_ns,
        plan_cache_hit: phases.plan_cache_hit,
    }
    .truncate_detail();
    inner.flight.record(capsule.clone());
    match outcome {
        "panicked" => {
            let _ = inner.flight.dump("panic", &capsule);
        }
        "deadline_expired" => {
            let _ = inner.flight.dump("deadline", &capsule);
        }
        _ => {}
    }
    if quarantine_grew {
        let _ = inner.flight.dump("shard_quarantine", &capsule);
    }
    inner
        .histos
        .record(op, &capsule.kind, &capsule.backend, outcome, total_ns);
    line
}

fn run_request(
    inner: &ServiceInner,
    request: &Request,
    phases: &mut Phases,
) -> Result<String, DdlError> {
    faultpoint::maybe_panic("serve.worker.panic");
    match request {
        // Both answered by `handle` without a permit.
        Request::Stats | Request::Telemetry { .. } => Ok(String::new()),
        Request::Plan { kind, n, strategy } => {
            let key = PlanKey {
                kind: *kind,
                n: *n,
                strategy: *strategy,
            };
            let plan_started = Instant::now();
            let (artifact, cached) = inner.engine.plan_observed(key)?;
            phases.plan_ns = plan_started.elapsed().as_nanos() as u64;
            phases.plan_cache_hit = Some(cached);
            let tree = match (kind, artifact.as_dft(), artifact.as_wht()) {
                (_, Some(p), _) => grammar::print_dft(p.tree()),
                (_, _, Some(p)) => grammar::print_wht(p.tree()),
                _ => String::new(),
            };
            Ok(format!(
                "ok plan {} n={n} strategy={} cached={} backend={} tree={tree}",
                kind.label(),
                strategy.label(),
                cached,
                kernel_set_for(*kind)
            ))
        }
        Request::ExecPlanned {
            kind, n, strategy, ..
        } => {
            let key = PlanKey {
                kind: *kind,
                n: *n,
                strategy: *strategy,
            };
            let plan_started = Instant::now();
            let (artifact, cached) = inner.engine.plan_observed(key)?;
            phases.plan_ns = plan_started.elapsed().as_nanos() as u64;
            phases.plan_cache_hit = Some(cached);
            let started = Instant::now();
            let dc = match (artifact.as_dft(), artifact.as_wht()) {
                (Some(plan), _) => exec_dft_ones(plan)?,
                (_, Some(plan)) => exec_wht_ones(plan)?,
                _ => return Err(DdlError::Resource("unknown artifact kind".into())),
            };
            phases.execute_ns = started.elapsed().as_nanos() as u64;
            Ok(format!(
                "ok exec {} n={n} dc={dc} backend={} wall_ns={}",
                kind.label(),
                kernel_set_for(*kind),
                phases.execute_ns
            ))
        }
        Request::ExecExpr { kind, expr, .. } => {
            // Parsing and compiling the explicit tree is this form's
            // plan phase; it never consults the engine cache.
            let plan_started = Instant::now();
            let tree = grammar::parse(expr)?;
            let n = tree.size();
            enum Compiled {
                Dft(DftPlan),
                Wht(WhtPlan),
            }
            let compiled = match kind {
                TransformKind::Dft(dir) => Compiled::Dft(DftPlan::new(tree, *dir)?),
                TransformKind::Wht => Compiled::Wht(WhtPlan::new(tree)?),
            };
            phases.plan_ns = plan_started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let dc = match &compiled {
                Compiled::Dft(plan) => exec_dft_ones(plan)?,
                Compiled::Wht(plan) => exec_wht_ones(plan)?,
            };
            phases.execute_ns = started.elapsed().as_nanos() as u64;
            Ok(format!(
                "ok exec {} n={n} dc={dc} backend={} wall_ns={}",
                kind.label(),
                kernel_set_for(*kind),
                phases.execute_ns
            ))
        }
    }
}

// Both executors take per-request scratch rather than the plan's own
// pool: cached plans live as long as the engine, and a pool keeps up to
// one scratch buffer per concurrent request alive between requests for
// every cached plan. On the serve-mix load (two permits) that retention
// raised the server's peak RSS by 4-5% over freeing scratch per request.
fn exec_dft_ones(plan: &DftPlan) -> Result<f64, DdlError> {
    let n = plan.n();
    let x = vec![Complex64::ONE; n];
    let mut y = vec![Complex64::ZERO; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    plan.try_run(DftViews::new(&x, &mut y), &mut scratch, &mut NullSink)?;
    Ok(y[0].re)
}

fn exec_wht_ones(plan: &WhtPlan) -> Result<f64, DdlError> {
    let mut data = vec![1.0f64; plan.n()];
    let mut scratch = vec![0.0f64; plan.scratch_len()];
    plan.try_run(WhtView::new(&mut data), &mut scratch, &mut NullSink)?;
    Ok(data[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddl_core::faultpoint::FaultMode;

    // Admitting, granting, executing and planning all pass fault points
    // (`serve.queue.full`, `serve.dequeue.slow`, `serve.worker.panic`,
    // `engine.shard.poison`), so every test that serves a request holds
    // the fault-point lock: otherwise it can consume a one-shot fault
    // another test armed, and both fail.

    fn small(workers: usize, capacity: usize) -> ServiceConfig {
        ServiceConfig {
            workers: NonZeroUsize::new(workers).expect("at least one permit"),
            queue_capacity: capacity,
            default_deadline: None,
            engine: EngineConfig::default(),
        }
    }

    /// Spins until exactly `k` requests wait for a permit.
    fn until_queued(svc: &Service, k: usize) {
        while svc.stats().queued != k {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parse_covers_the_grammar() {
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(
            parse_request("plan dft 1024 ddl"),
            Ok(Request::Plan {
                kind: TransformKind::Dft(Direction::Forward),
                n: 1024,
                strategy: Strategy::Ddl,
            })
        );
        assert_eq!(
            parse_request("exec wht 256 sdl deadline_ms=50"),
            Ok(Request::ExecPlanned {
                kind: TransformKind::Wht,
                n: 256,
                strategy: Strategy::Sdl,
                deadline: Some(Duration::from_millis(50)),
            })
        );
        match parse_request("exec dft ct(16, 16)") {
            Ok(Request::ExecExpr { expr, .. }) => assert_eq!(expr, "ct(16, 16)"),
            other => panic!("want ExecExpr, got {other:?}"),
        }
        assert!(matches!(
            parse_request("exec dft ct(16,"),
            Err(DdlError::Parse { .. })
        ));
        assert!(matches!(
            parse_request("frobnicate"),
            Err(DdlError::Parse { .. })
        ));
        assert!(matches!(parse_request(""), Err(DdlError::Parse { .. })));
    }

    #[test]
    fn backend_token_is_refused() {
        // The kernel set is the host's, not the request's: a line that
        // still names one fails the `plan` token count or, for `exec`,
        // the tree grammar.
        for line in [
            "plan dft 256 sdl backend=simd",
            "exec dft 64 ddl backend=simd",
        ] {
            assert!(
                matches!(parse_request(line), Err(DdlError::Parse { .. })),
                "line {line:?}"
            );
        }
    }

    #[test]
    fn saturated_queue_sheds_with_typed_overload() {
        // Two permits held and one place in line: a third request waits,
        // a fourth sheds at once, and a released permit serves the waiter.
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(2, 1));
        let mut held = vec![
            svc.permit().expect("permit 1"),
            svc.permit().expect("permit 2"),
        ];
        std::thread::scope(|s| {
            let waiter = s.spawn(|| svc.handle("exec dft 64 sdl"));
            until_queued(&svc, 1);
            match svc.permit() {
                Err(DdlError::Overloaded { queued, capacity }) => {
                    assert_eq!((queued, capacity), (1, 1));
                }
                Err(other) => panic!("want Overloaded, got {other:?}"),
                Ok(_) => panic!("a permit was granted past the bound"),
            }
            let line = svc.handle("exec dft 64 sdl");
            assert!(line.starts_with("err overloaded:"), "got {line}");
            assert!(line.contains("(1 queued, capacity 1)"), "got {line}");
            let s = svc.stats();
            assert_eq!((s.accepted, s.shed, s.queued, s.in_flight), (1, 1, 1, 2));
            held.pop();
            let line = waiter.join().expect("waiter");
            assert!(line.starts_with("ok exec dft n=64"), "got {line}");
        });
        // The freed place in line admits again.
        assert!(svc
            .handle("exec dft 64 sdl")
            .starts_with("ok exec dft n=64"));
        let s = svc.stats();
        assert_eq!(
            (s.accepted, s.completed, s.queued, s.in_flight),
            (2, 2, 0, 1)
        );
    }

    #[test]
    fn waiters_are_served_in_arrival_order() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 2));
        let held = svc.permit().expect("the only permit");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let waiters: Vec<_> = ["first", "second"]
                .into_iter()
                .enumerate()
                .map(|(k, name)| {
                    let (svc, order) = (&svc, &order);
                    let waiter = s.spawn(move || {
                        let _permit = svc.permit().expect("admitted");
                        order.lock().expect("order").push(name);
                    });
                    until_queued(svc, k + 1);
                    waiter
                })
                .collect();
            drop(held);
            for waiter in waiters {
                waiter.join().expect("waiter");
            }
        });
        assert_eq!(order.into_inner().expect("order"), ["first", "second"]);
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        let held = svc.permit().expect("the only permit");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| svc.handle("exec dft 64 sdl deadline_ms=0"));
            until_queued(&svc, 1);
            // A zero budget is spent by the time the permit is granted.
            drop(held);
            let line = waiter.join().expect("waiter");
            assert!(line.starts_with("err deadline:"), "got {line}");
        });
        let s = svc.stats();
        assert_eq!((s.failed, s.deadline_expired), (1, 1));
    }

    #[test]
    fn malformed_requests_never_take_a_queue_slot() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 1));
        let held = svc.permit().expect("the only permit");
        assert!(svc.handle("exec dft ct(").starts_with("err parse:"));
        assert!(svc.handle("plan dft ten ddl").starts_with("err parse:"));
        assert_eq!(svc.stats().queued, 0);
        // The one place in line is still free.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| svc.handle("exec dft 32 sdl"));
            until_queued(&svc, 1);
            drop(held);
            let line = waiter.join().expect("waiter");
            assert!(line.starts_with("ok exec dft n=32"), "got {line}");
        });
    }

    #[test]
    fn injected_worker_panic_is_contained() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        {
            let _g = faultpoint::arm(3, &[("serve.worker.panic", FaultMode::Once(0))]);
            let line = svc.handle("exec dft 64 sdl");
            assert!(line.starts_with("err worker-panic:"), "got {line}");
            // The reply names the request, not a batch item.
            assert!(
                !line.contains("batch") && !line.contains("item"),
                "got {line}"
            );
        }
        // The service keeps serving after the contained panic.
        assert!(svc
            .handle("exec dft 64 sdl")
            .starts_with("ok exec dft n=64"));
        let s = svc.stats();
        assert_eq!((s.worker_panics, s.completed), (1, 1));
        assert_eq!(s.accepted, s.completed + s.failed, "conservation");
        assert_eq!(s.in_flight, 0, "the panicking request released its permit");
    }

    #[test]
    fn injected_queue_full_sheds_even_when_empty() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        let _g = faultpoint::arm(11, &[("serve.queue.full", FaultMode::Once(0))]);
        let line = svc.handle("exec dft 64 sdl");
        assert!(line.starts_with("err overloaded:"), "got {line}");
        assert!(line.contains("(0 queued, capacity 8)"), "got {line}");
        assert!(svc.handle("exec dft 64 sdl").starts_with("ok "));
    }

    #[test]
    fn worker_pool_serves_and_conserves() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(2, 32));
        std::thread::scope(|s| {
            for t in 0..4 {
                let svc = &svc;
                s.spawn(move || {
                    for i in 0..4 {
                        let n = 32 << ((t + i) % 3);
                        let line = svc.handle(&format!("exec dft {n} ddl"));
                        assert!(line.starts_with("ok exec dft"), "got {line}");
                    }
                });
            }
        });
        let s = svc.stats();
        assert_eq!(s.accepted, 16);
        assert_eq!(s.completed, 16);
        assert_eq!(s.failed, 0);
        assert_eq!(s.accepted, s.completed + s.failed, "conservation");
        assert_eq!((s.queued, s.in_flight), (0, 0), "every permit released");
    }

    #[test]
    fn plan_command_caches_in_the_engine() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        let first = svc.handle("plan dft 256 ddl");
        assert!(first.contains("cached=false"), "got {first}");
        assert!(first.contains("tree="), "got {first}");
        let second = svc.handle("plan dft 256 ddl");
        assert!(second.contains("cached=true"), "got {second}");
    }

    #[test]
    fn exec_expr_runs_the_given_tree() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        let line = svc.handle("exec dft ct(16, ct(16, 16))");
        assert!(line.starts_with("ok exec dft n=4096 dc=4096"), "got {line}");
    }

    #[test]
    fn telemetry_parses_and_is_covered_by_the_grammar() {
        assert_eq!(
            parse_request("telemetry"),
            Ok(Request::Telemetry { text: false })
        );
        assert_eq!(
            parse_request("telemetry text"),
            Ok(Request::Telemetry { text: true })
        );
        assert!(matches!(
            parse_request("telemetry json"),
            Err(DdlError::Parse { .. })
        ));
    }

    #[test]
    fn telemetry_snapshot_conserves_outcomes_when_quiesced() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        for line in ["plan dft 64 sdl", "exec dft 64 sdl", "exec wht 32 sdl"] {
            assert!(svc.handle(line).starts_with("ok "), "line {line:?}");
        }
        let report = svc.telemetry();
        assert_eq!(report.counters.get("serve.snapshot_quiesced"), Some(&1));
        let (admitted, shed) = report.outcome_totals();
        assert_eq!(Some(&admitted), report.counters.get("serve.accepted"));
        assert_eq!(Some(&shed), report.counters.get("serve.shed"));
        // The wire line round-trips through the strict parser, which
        // re-enforces the quiesced conservation law.
        let line = svc.handle("telemetry");
        let json = line.strip_prefix("ok telemetry ").expect("wire prefix");
        let back = TelemetryReport::parse(json).expect("valid snapshot");
        assert_eq!(back.counters.get("serve.snapshot_quiesced"), Some(&1));
        // The text form exposes the same families.
        let text = svc.handle("telemetry text");
        assert!(text.contains("ddl_serve_accepted"), "got:\n{text}");
        assert!(text.contains("_bucket"), "got:\n{text}");
    }

    #[test]
    fn telemetry_reports_no_scheduler_counters() {
        // The service runs no scheduler and no worker threads, so such a
        // counter in its snapshot could only ever read a constant.
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        assert!(svc.handle("exec dft 64 sdl").starts_with("ok "));
        let report = svc.telemetry();
        let keys: Vec<&String> = report.counters.keys().collect();
        assert!(report.counters.contains_key("serve.accepted"), "{keys:?}");
        assert!(
            !keys
                .iter()
                .any(|k| k.starts_with("scheduler.") || *k == "serve.workers"),
            "{keys:?}"
        );
    }

    #[test]
    fn shed_requests_land_in_the_overloaded_histogram() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        let _g = faultpoint::arm(17, &[("serve.queue.full", FaultMode::Once(0))]);
        assert!(svc.handle("exec dft 64 sdl").starts_with("err overloaded:"));
        let report = svc.telemetry();
        let (admitted, shed) = report.outcome_totals();
        assert_eq!((admitted, shed), (0, 1));
        assert_eq!(report.counters.get("serve.shed"), Some(&1));
        assert_eq!(report.counters.get("serve.snapshot_quiesced"), Some(&1));
    }

    #[test]
    fn flight_capsules_attribute_phases_to_the_request() {
        let _x = faultpoint::exclusive();
        let svc = Service::new(small(1, 8));
        let dir = std::env::temp_dir().join(format!("ddl-serve-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join("flight.jsonl");
        svc.set_flight_out(Some(out.clone()));
        {
            let _g = faultpoint::arm(5, &[("serve.worker.panic", FaultMode::Once(0))]);
            assert!(svc
                .handle("exec dft 64 sdl")
                .starts_with("err worker-panic:"));
        }
        let text = std::fs::read_to_string(&out).expect("dump written");
        let dump = ddl_core::FlightDump::parse(text.lines().next().expect("one line"))
            .expect("parseable dump");
        assert_eq!(dump.trigger, "panic");
        assert_eq!(dump.capsule.outcome, "panicked");
        assert!(dump.capsule.id > 0, "request id propagated");
        assert_eq!(dump.capsule.detail, "exec dft 64 sdl");
        assert!(
            dump.capsule.total_ns >= dump.capsule.queue_ns,
            "total covers the queue phase"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
