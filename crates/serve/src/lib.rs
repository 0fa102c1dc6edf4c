//! Fault-tolerant transform service over the `ddl-core` engine.
//!
//! The paper's planner/executor split naturally extends to a service:
//! plans are expensive to search and compile but cheap to share, so a
//! long-running process should plan once and execute many times on
//! behalf of clients. This crate provides that process: a [`Service`]
//! owning one shared [`Engine`](ddl_core::Engine) plus a pool of worker
//! threads behind a **bounded** admission queue, and a line-oriented
//! wire protocol reusing the workspace's factorization-tree grammar.
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
//! is stable (`overloaded`, `deadline`, `cancelled`, `parse`,
//! `worker-panic`, …).
//!
//! # Overload and fault policy
//!
//! * **Admission is bounded.** [`Service::submit`] either enqueues or
//!   fails *immediately* with [`DdlError::Overloaded`] — requests are
//!   never queued unboundedly and callers are never blocked waiting for
//!   queue space. Malformed requests are rejected at admission and
//!   consume no queue slot.
//! * **Worker panics are contained.** A panic while serving a request
//!   (including those injected via the `serve.worker.panic` fault
//!   point) turns into an `err worker-panic:` response for that request
//!   only; the worker thread survives and keeps serving.
//! * **Deadlines are honored at dequeue and report as typed errors.**
//! * **Every accepted request gets exactly one response** — the
//!   conservation invariant the chaos suite asserts:
//!   `accepted == completed + failed` once the queue drains.
//!
//! # Telemetry
//!
//! Every admitted request gets a [`RequestId`] and is timed against a
//! single monotonic clock captured at admission
//! ([`Deadline`](ddl_core::Deadline)): queue wait, planning and
//! execution all draw from the same budget. Latency lands in a labeled
//! [`HistogramSet`] — per wire op, transform kind, backend and outcome —
//! and a bounded [`FlightRecorder`] ring keeps each request's span
//! capsule. Panic containment, deadline expiry, shard quarantine and
//! queue shed each dump a `ddl-flight` JSONL line (when an output path
//! is configured via [`Service::set_flight_out`] or `DDL_FLIGHT_OUT`).
//! The `telemetry` wire op snapshots everything as a versioned
//! `ddl-telemetry` document whose conservation law — outcome histogram
//! sums exactly partition `accepted`/`shed` on a quiescent snapshot —
//! is machine-checked by `ddl_core::check_report`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![expect(clippy::disallowed_types, reason = "request deadlines and latencies")]

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
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
    /// Worker threads serving the queue. `0` is allowed: requests are
    /// then served inline by [`Service::handle`] (degraded mode, also
    /// what the service falls back to when every spawn fails).
    pub workers: usize,
    /// Admission queue capacity; submissions beyond it shed with
    /// [`DdlError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Engine (plan cache + planner) configuration.
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
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
        DdlError::Cancelled { .. } => "cancelled",
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
    /// Requests admitted to the queue (or served inline).
    pub accepted: u64,
    /// Requests shed at admission (queue full or injected shed).
    pub shed: u64,
    /// Requests answered with an `ok` response.
    pub completed: u64,
    /// Requests answered with an `err` response after admission.
    pub failed: u64,
    /// Failed requests whose cause was a contained worker panic.
    pub worker_panics: u64,
    /// Failed requests whose cause was deadline expiry.
    pub deadline_expired: u64,
    /// Requests currently queued.
    pub queued: usize,
    /// Requests dequeued but not yet answered.
    pub in_flight: u64,
    /// Worker threads currently running.
    pub workers: usize,
}

struct Job {
    id: RequestId,
    /// The wire line, kept for the flight capsule's detail field.
    line: String,
    request: Request,
    /// The admission instant — the single monotonic anchor every phase
    /// (queue wait, plan, execute) and the deadline measure from.
    submitted: Instant,
    deadline: Option<Duration>,
    reply: SyncSender<String>,
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
    config: ServiceConfig,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
    workers_live: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    deadline_expired: AtomicU64,
    /// Requests popped from the queue but not yet finished. Incremented
    /// while the queue lock is held (a request is never in neither
    /// place) and decremented only after its histogram sample lands, so
    /// `queued == 0 && in_flight == 0` implies the histograms cover
    /// every admitted request.
    in_flight: AtomicU64,
    histos: HistogramSet,
    flight: FlightRecorder,
}

/// A pending response for one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<String>,
    deadline: Option<Duration>,
}

impl Ticket {
    /// Waits for the response. Never blocks unboundedly: gives up after
    /// the request deadline plus grace (or 30 s without one) with an
    /// `err` line.
    pub fn wait(self) -> String {
        let limit = self
            .deadline
            .map(|d| d + Duration::from_secs(5))
            .unwrap_or(Duration::from_secs(30));
        match self.rx.recv_timeout(limit) {
            Ok(line) => line,
            Err(RecvTimeoutError::Timeout) => {
                wire_err(&DdlError::Resource("response timed out".into()))
            }
            Err(RecvTimeoutError::Disconnected) => wire_err(&DdlError::Resource(
                "worker dropped the response channel".into(),
            )),
        }
    }
}

/// The service: one shared engine, a bounded queue, a worker pool.
/// Cloning shares the same service.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
    // Join handles live outside `inner` so clones stay cheap; only the
    // handle returned by `start` can join.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Service {
    /// Builds the service and spawns its worker pool. Spawn failures
    /// degrade: the service still works with fewer (or zero) workers,
    /// serving inline through [`Service::handle`].
    pub fn start(config: ServiceConfig) -> Service {
        let svc = Service::without_workers(config);
        let mut handles = Vec::new();
        for i in 0..config.workers {
            // `scheduler.spawn` injects spawn failure here too, so chaos
            // runs exercise the degraded (fewer-workers) path.
            if faultpoint::hit("scheduler.spawn") {
                continue;
            }
            let inner = Arc::clone(&svc.inner);
            let spawned = std::thread::Builder::new()
                .name(format!("ddl-serve-{i}"))
                .spawn(move || worker_loop(&inner));
            if let Ok(h) = spawned {
                svc.inner.workers_live.fetch_add(1, Ordering::Release);
                handles.push(h);
            }
        }
        *relock(&svc.workers) = handles;
        svc
    }

    /// Builds the service with no worker threads. Tests use this to
    /// drive the queue deterministically ([`Service::process_one`]);
    /// production reaches the same state when every spawn fails.
    pub fn without_workers(config: ServiceConfig) -> Service {
        Service {
            inner: Arc::new(ServiceInner {
                engine: Engine::new(config.engine),
                config,
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
                workers_live: AtomicUsize::new(0),
                accepted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                worker_panics: AtomicU64::new(0),
                deadline_expired: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                histos: HistogramSet::new(),
                flight: FlightRecorder::from_env(64),
            }),
            workers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The shared engine (plan cache).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Parses and admits one request line. Returns a [`Ticket`] for the
    /// response, or fails immediately — malformed lines with a parse
    /// error, a full queue with [`DdlError::Overloaded`]. Never blocks.
    pub fn submit(&self, line: &str) -> Result<Ticket, DdlError> {
        let admitted = Instant::now();
        let request = parse_request(line)?;
        // `stats` and `telemetry` are reads; answer inline without a
        // queue slot. Their counters and histogram sample land *before*
        // the response is built, so a telemetry snapshot always
        // accounts for the request that asked for it.
        match &request {
            Request::Stats | Request::Telemetry { .. } => {
                self.inner.accepted.fetch_add(1, Ordering::Relaxed);
                self.inner.completed.fetch_add(1, Ordering::Relaxed);
                let (op, kind, backend) = request_labels(&request);
                self.inner.histos.record(
                    op,
                    &kind,
                    &backend,
                    "ok",
                    admitted.elapsed().as_nanos() as u64,
                );
                let body = match request {
                    Request::Telemetry { text: true } => self.telemetry_text(),
                    Request::Telemetry { text: false } => self.telemetry_line(),
                    _ => self.stats_line(),
                };
                let (tx, rx) = mpsc::sync_channel(1);
                let _ = tx.send(body);
                return Ok(Ticket { rx, deadline: None });
            }
            _ => {}
        }
        let deadline = match &request {
            Request::ExecPlanned { deadline, .. } | Request::ExecExpr { deadline, .. } => {
                deadline.or(self.inner.config.default_deadline)
            }
            _ => self.inner.config.default_deadline,
        };
        let id = next_request_id();
        let labels = request_labels(&request);
        let (tx, rx) = mpsc::sync_channel(1);
        // The probe takes the fault registry's lock, so it runs before
        // the queue lock (and so counts every admission).
        let forced_full = faultpoint::hit("serve.queue.full");
        let shed_at = {
            let mut q = relock(&self.inner.queue);
            let capacity = self.inner.config.queue_capacity;
            if forced_full || q.len() >= capacity {
                Some((q.len(), capacity))
            } else {
                q.push_back(Job {
                    id,
                    line: line.trim().to_string(),
                    request,
                    submitted: admitted,
                    deadline,
                    reply: tx,
                });
                None
            }
        };
        if let Some((queued, capacity)) = shed_at {
            // Shed accounting runs after the queue guard drops — the
            // flight recorder and histogram set take their own locks.
            self.inner.shed.fetch_add(1, Ordering::Relaxed);
            let (op, kind, backend) = labels;
            let capsule = RequestCapsule {
                id: id.get(),
                op: op.into(),
                kind,
                backend,
                outcome: OUTCOME_OVERLOADED.into(),
                detail: line.trim().to_string(),
                total_ns: admitted.elapsed().as_nanos() as u64,
                ..Default::default()
            }
            .truncate_detail();
            self.inner.flight.record(capsule.clone());
            let _ = self.inner.flight.dump("queue_shed", &capsule);
            self.inner.histos.record(
                op,
                &capsule.kind,
                &capsule.backend,
                OUTCOME_OVERLOADED,
                capsule.total_ns,
            );
            return Err(DdlError::Overloaded { queued, capacity });
        }
        self.inner.accepted.fetch_add(1, Ordering::Relaxed);
        self.inner.ready.notify_one();
        Ok(Ticket { rx, deadline })
    }

    /// Submits and waits: the one-call entry point connection handlers
    /// use. With zero live workers (degraded mode) the request is served
    /// inline on this thread.
    pub fn handle(&self, line: &str) -> String {
        match self.submit(line) {
            Ok(ticket) => {
                if self.inner.workers_live.load(Ordering::Acquire) == 0 {
                    self.process_one();
                }
                ticket.wait()
            }
            Err(e) => wire_err(&e),
        }
    }

    /// Dequeues and serves at most one job on the calling thread.
    /// Returns whether a job was served. Tests and degraded mode use
    /// this; worker threads run the same path in a loop.
    pub fn process_one(&self) -> bool {
        let job = {
            let mut q = relock(&self.inner.queue);
            let job = q.pop_front();
            if job.is_some() {
                // In flight while the queue lock is still held: the
                // request is never in neither place.
                self.inner.in_flight.fetch_add(1, Ordering::Relaxed);
            }
            job
        };
        match job {
            Some(job) => {
                serve_job(&self.inner, job);
                true
            }
            None => false,
        }
    }

    /// Signals workers to exit once the queue drains and joins them.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.ready.notify_all();
        let handles = std::mem::take(&mut *relock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.inner.accepted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            worker_panics: self.inner.worker_panics.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            queued: relock(&self.inner.queue).len(),
            in_flight: self.inner.in_flight.load(Ordering::Acquire),
            workers: self.inner.workers_live.load(Ordering::Acquire),
        }
    }

    /// The `ok stats …` wire line.
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        let e = self.inner.engine.stats();
        format!(
            "ok stats accepted={} shed={} completed={} failed={} worker_panics={} \
             deadline_expired={} queued={} workers={} plan_hits={} plan_misses={} \
             plans_compiled={} shards_quarantined={}",
            s.accepted,
            s.shed,
            s.completed,
            s.failed,
            s.worker_panics,
            s.deadline_expired,
            s.queued,
            s.workers,
            e.plan_hits,
            e.plan_misses,
            e.plans_compiled,
            e.shards_quarantined
        )
    }

    /// A point-in-time `ddl-telemetry` snapshot.
    ///
    /// The `serve.snapshot_quiesced` counter is 1 exactly when the
    /// snapshot provably covers every admitted request: queue empty,
    /// nothing in flight, the accepted counter stable across the
    /// histogram read, and the outcome sums matching the admission
    /// counters. [`TelemetryReport::parse`] enforces exact conservation
    /// only on such snapshots (the inequalities always hold).
    pub fn telemetry(&self) -> TelemetryReport {
        let queued = relock(&self.inner.queue).len() as u64;
        let in_flight = self.inner.in_flight.load(Ordering::Acquire);
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
        c.insert("serve.queued".into(), queued);
        c.insert("serve.in_flight".into(), in_flight);
        c.insert(
            "serve.workers".into(),
            self.inner.workers_live.load(Ordering::Acquire) as u64,
        );
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

fn worker_loop(inner: &Arc<ServiceInner>) {
    loop {
        let job = {
            let mut q = relock(&inner.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    inner.in_flight.fetch_add(1, Ordering::Relaxed);
                    break Some(j);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _timeout) = inner
                    .ready
                    .wait_timeout(q, Duration::from_millis(25))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        match job {
            Some(job) => serve_job(inner, job),
            None => {
                inner.workers_live.fetch_sub(1, Ordering::Release);
                return;
            }
        }
    }
}

/// Serves one job: queue-wait deadline check against the admission
/// anchor, panic-contained execution, post-execution deadline re-check,
/// then exactly one pass through [`finish`].
fn serve_job(inner: &ServiceInner, job: Job) {
    let queue_ns = job.submitted.elapsed().as_nanos() as u64;
    let deadline = job
        .deadline
        .map(|limit| Deadline::from_admission(job.submitted, limit));
    // Queue-wait expiry measures against the admission anchor: budget
    // spent waiting is as gone as budget spent executing. The
    // `serve.dequeue.slow` fault point simulates a dequeue so late the
    // whole budget burned in the queue.
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
            run_request(inner, &job.request, &mut phases)
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
            Err(payload) => {
                let text = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(DdlError::WorkerPanic {
                    item: 0,
                    payload: text,
                })
            }
        }
    };
    finish(inner, job, result, phases, queue_ns, quarantine_grew);
}

/// The single exit path for a dequeued job: counters, flight capsule
/// (plus trigger dumps), histogram sample, reply — in that order. The
/// `in_flight` gauge drops only after the histogram sample lands, so a
/// quiescent telemetry snapshot can never miss a request it counted.
fn finish(
    inner: &ServiceInner,
    job: Job,
    result: Result<String, DdlError>,
    phases: Phases,
    queue_ns: u64,
    quarantine_grew: bool,
) {
    let (line, outcome) = match &result {
        Ok(line) => (line.clone(), "ok"),
        Err(e) => {
            let outcome = match e {
                DdlError::DeadlineExceeded { .. } => "deadline_expired",
                DdlError::WorkerPanic { .. } => "panicked",
                _ => "error",
            };
            (wire_err(e), outcome)
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
    let total_ns = job.submitted.elapsed().as_nanos() as u64;
    let (op, kind, backend) = request_labels(&job.request);
    let capsule = RequestCapsule {
        id: job.id.get(),
        op: op.into(),
        kind,
        backend,
        outcome: outcome.into(),
        detail: job.line,
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
    // Release pairs with the telemetry snapshot's acquire read: once it
    // observes `in_flight == 0`, every histogram sample above is
    // visible to it.
    inner.in_flight.fetch_sub(1, Ordering::Release);
    let _ = job.reply.send(line);
}

fn run_request(
    inner: &ServiceInner,
    request: &Request,
    phases: &mut Phases,
) -> Result<String, DdlError> {
    faultpoint::maybe_panic("serve.worker.panic");
    match request {
        // Both answered at admission; a queue slot never sees them.
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
// one scratch buffer per concurrent worker alive between requests for
// every cached plan. On the serve-mix load (two workers) that retention
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

    // Submitting, dequeuing, executing and planning all pass fault points
    // (`serve.queue.full`, `serve.dequeue.slow`, `serve.worker.panic`,
    // `engine.shard.poison`, `scheduler.spawn`), so every test that
    // serves a request holds the fault-point lock: otherwise it can
    // consume a one-shot fault another test armed, and both fail.

    fn small(workers: usize, capacity: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_capacity: capacity,
            default_deadline: None,
            engine: EngineConfig::default(),
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
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 2));
        let t1 = svc.submit("exec dft 64 sdl").expect("slot 1");
        let t2 = svc.submit("exec dft 64 sdl").expect("slot 2");
        match svc.submit("exec dft 64 sdl") {
            Err(DdlError::Overloaded { queued, capacity }) => {
                assert_eq!((queued, capacity), (2, 2));
            }
            other => panic!("want Overloaded, got {other:?}"),
        }
        let s = svc.stats();
        assert_eq!((s.accepted, s.shed, s.queued), (2, 1, 2));
        // Draining frees slots again.
        assert!(svc.process_one());
        assert!(svc.process_one());
        assert!(t1.wait().starts_with("ok exec dft n=64"));
        assert!(t2.wait().starts_with("ok exec dft n=64"));
        assert!(svc.submit("exec dft 64 sdl").is_ok());
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        let t = svc
            .submit("exec dft 64 sdl deadline_ms=0")
            .expect("admitted");
        std::thread::sleep(Duration::from_millis(2));
        assert!(svc.process_one());
        let line = t.wait();
        assert!(line.starts_with("err deadline:"), "got {line}");
        let s = svc.stats();
        assert_eq!((s.failed, s.deadline_expired), (1, 1));
    }

    #[test]
    fn malformed_requests_never_take_a_queue_slot() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 1));
        assert!(svc.submit("exec dft ct(").is_err());
        assert!(svc.submit("plan dft ten ddl").is_err());
        assert_eq!(svc.stats().queued, 0);
        assert!(svc.submit("exec dft 32 sdl").is_ok());
    }

    #[test]
    fn injected_worker_panic_is_contained() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        {
            let _g = faultpoint::arm(3, &[("serve.worker.panic", FaultMode::Once(0))]);
            let t = svc.submit("exec dft 64 sdl").expect("admitted");
            assert!(svc.process_one());
            let line = t.wait();
            assert!(line.starts_with("err worker-panic:"), "got {line}");
        }
        // The service keeps serving after the contained panic.
        let t = svc.submit("exec dft 64 sdl").expect("admitted");
        assert!(svc.process_one());
        assert!(t.wait().starts_with("ok exec dft n=64"));
        let s = svc.stats();
        assert_eq!((s.worker_panics, s.completed), (1, 1));
        assert_eq!(s.accepted, s.completed + s.failed, "conservation");
    }

    #[test]
    fn injected_queue_full_sheds_even_when_empty() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        let _g = faultpoint::arm(11, &[("serve.queue.full", FaultMode::Once(0))]);
        match svc.submit("exec dft 64 sdl") {
            Err(DdlError::Overloaded { queued, .. }) => assert_eq!(queued, 0),
            other => panic!("want Overloaded, got {other:?}"),
        }
        assert!(svc.submit("exec dft 64 sdl").is_ok());
    }

    #[test]
    fn worker_pool_serves_and_conserves() {
        let _x = faultpoint::exclusive();
        let svc = Service::start(small(2, 32));
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| {
                let n = 32 << (i % 3);
                svc.submit(&format!("exec dft {n} ddl")).expect("admitted")
            })
            .collect();
        for t in tickets {
            let line = t.wait();
            assert!(line.starts_with("ok exec dft"), "got {line}");
        }
        svc.shutdown();
        let s = svc.stats();
        assert_eq!(s.accepted, 16);
        assert_eq!(s.completed, 16);
        assert_eq!(s.failed, 0);
        assert_eq!(s.accepted, s.completed + s.failed, "conservation");
        assert_eq!(s.workers, 0, "workers joined");
    }

    #[test]
    fn degraded_zero_worker_mode_serves_inline() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        let line = svc.handle("exec wht 128 sdl");
        assert!(line.starts_with("ok exec wht n=128 dc=128"), "got {line}");
        let line = svc.handle("stats");
        assert!(line.starts_with("ok stats "), "got {line}");
    }

    #[test]
    fn plan_command_caches_in_the_engine() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        let first = svc.handle("plan dft 256 ddl");
        assert!(first.contains("cached=false"), "got {first}");
        assert!(first.contains("tree="), "got {first}");
        let second = svc.handle("plan dft 256 ddl");
        assert!(second.contains("cached=true"), "got {second}");
    }

    #[test]
    fn exec_expr_runs_the_given_tree() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
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
        let svc = Service::without_workers(small(0, 8));
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
        // The service never runs a scheduled batch, so a scheduler total
        // in its snapshot could only ever read 0.
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        assert!(svc.handle("exec dft 64 sdl").starts_with("ok "));
        let report = svc.telemetry();
        let keys: Vec<&String> = report.counters.keys().collect();
        assert!(report.counters.contains_key("serve.accepted"), "{keys:?}");
        assert!(
            !keys.iter().any(|k| k.starts_with("scheduler.")),
            "{keys:?}"
        );
    }

    #[test]
    fn shed_requests_land_in_the_overloaded_histogram() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        let _g = faultpoint::arm(17, &[("serve.queue.full", FaultMode::Once(0))]);
        assert!(svc.submit("exec dft 64 sdl").is_err());
        let report = svc.telemetry();
        let (admitted, shed) = report.outcome_totals();
        assert_eq!((admitted, shed), (0, 1));
        assert_eq!(report.counters.get("serve.shed"), Some(&1));
        assert_eq!(report.counters.get("serve.snapshot_quiesced"), Some(&1));
    }

    #[test]
    fn flight_capsules_attribute_phases_to_the_request() {
        let _x = faultpoint::exclusive();
        let svc = Service::without_workers(small(0, 8));
        let dir = std::env::temp_dir().join(format!("ddl-serve-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join("flight.jsonl");
        svc.set_flight_out(Some(out.clone()));
        {
            let _g = faultpoint::arm(5, &[("serve.worker.panic", FaultMode::Once(0))]);
            let t = svc.submit("exec dft 64 sdl").expect("admitted");
            assert!(svc.process_one());
            assert!(t.wait().starts_with("err worker-panic:"));
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
