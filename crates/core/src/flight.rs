//! Request identities and the service flight recorder (DESIGN.md §13).
//!
//! Post-morteming a production failure needs the context that was live
//! when it happened, not just a counter that went up. The flight
//! recorder keeps a fixed-size ring of [`RequestCapsule`]s — one small
//! plain-data record per completed request carrying the request id and
//! its wait/plan/execute span breakdown — and, when a trigger fires
//! (panic containment, deadline expiry, shard quarantine, queue shed),
//! appends one `ddl-flight` v1 JSONL line holding the faulting capsule
//! plus the recent ring contents. The ring is preallocated and bounded:
//! once warm, recording is a pop + push under a short mutex, and an
//! idle service pays nothing.
//!
//! The dump destination is a file path configured explicitly or through
//! the `DDL_FLIGHT_OUT` environment variable; with no path set the ring
//! still records (it is cheap) but triggers are inert. Dumps are
//! validated by [`crate::check_report`], and `tests/chaos.rs` asserts
//! that each service fault class produces a parseable capsule.

use crate::faultpoint::relock;
use crate::json::{self, Json};
use ddl_num::DdlError;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema identifier of one flight-recorder dump line.
pub const FLIGHT_SCHEMA: &str = "ddl-flight";
/// Current flight schema version; readers refuse newer lines.
pub const FLIGHT_VERSION: u32 = 1;

/// Environment variable naming the default dump destination.
pub const FLIGHT_OUT_ENV: &str = "DDL_FLIGHT_OUT";

/// How many trailing ring capsules a dump line carries besides the
/// faulting one: enough to see what the service was doing just before.
const DUMP_RECENT: usize = 8;

/// Longest request detail string a capsule stores (bytes); wire lines
/// are operator input and must not bloat the ring.
const DETAIL_MAX: usize = 128;

fn flight_err(detail: String) -> DdlError {
    DdlError::Metrics { detail }
}

/// Process-unique identity of one admitted service request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw numeric id.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r-{}", self.0)
    }
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates the next process-unique request id.
pub fn next_request_id() -> RequestId {
    RequestId(NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// The bounded per-request span capsule: outcome plus the phase
/// breakdown (permit wait, plan, execute) attributed to one request id.
/// Plain data — cloning or serializing one never touches the service.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestCapsule {
    /// Request id ([`RequestId::get`]).
    pub id: u64,
    /// Wire operation (`plan` | `exec` | `meta`).
    pub op: String,
    /// Transform kind, `-` when the op has none.
    pub kind: String,
    /// Kernel-set label ([`crate::kernel_set_for`] its transform),
    /// `-` when the op has none.
    pub backend: String,
    /// Outcome label (`ok` | `overloaded` | `deadline_expired` |
    /// `panicked` | `error`).
    pub outcome: String,
    /// The wire line, truncated to a bounded length.
    pub detail: String,
    /// Nanoseconds from admission until the request was granted an
    /// execution permit (parsing included).
    pub queue_ns: u64,
    /// Nanoseconds spent planning (cache miss compile or lookup).
    pub plan_ns: u64,
    /// Nanoseconds spent executing the transform.
    pub execute_ns: u64,
    /// Admission-to-reply wall nanoseconds (one monotonic clock).
    pub total_ns: u64,
    /// Whether the plan came from the engine cache; `None` when the
    /// request never consulted it.
    pub plan_cache_hit: Option<bool>,
}

impl RequestCapsule {
    /// Clamps the detail string to the stored bound (on a char
    /// boundary).
    pub fn truncate_detail(mut self) -> RequestCapsule {
        if self.detail.len() > DETAIL_MAX {
            let mut end = DETAIL_MAX;
            while !self.detail.is_char_boundary(end) {
                end -= 1;
            }
            self.detail.truncate(end);
        }
        self
    }

    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("id".into(), Json::Num(self.id as f64));
        m.insert("op".into(), Json::Str(self.op.clone()));
        m.insert("kind".into(), Json::Str(self.kind.clone()));
        m.insert("backend".into(), Json::Str(self.backend.clone()));
        m.insert("outcome".into(), Json::Str(self.outcome.clone()));
        m.insert("detail".into(), Json::Str(self.detail.clone()));
        m.insert("queue_ns".into(), Json::Num(self.queue_ns as f64));
        m.insert("plan_ns".into(), Json::Num(self.plan_ns as f64));
        m.insert("execute_ns".into(), Json::Num(self.execute_ns as f64));
        m.insert("total_ns".into(), Json::Num(self.total_ns as f64));
        if let Some(hit) = self.plan_cache_hit {
            m.insert("plan_cache_hit".into(), Json::Bool(hit));
        }
        Json::Obj(m)
    }

    fn from_json(path: &str, v: &Json) -> Result<RequestCapsule, DdlError> {
        let m = v
            .as_obj()
            .ok_or_else(|| flight_err(format!("flight: {path}: not an object")))?;
        let s = |key: &str| -> Result<String, DdlError> {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| flight_err(format!("flight: {path}.{key}: missing or non-string")))
        };
        let u = |key: &str| -> Result<u64, DdlError> {
            m.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| flight_err(format!("flight: {path}.{key}: missing or bad")))
        };
        let plan_cache_hit = match m.get("plan_cache_hit") {
            None => None,
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => {
                return Err(flight_err(format!(
                    "flight: {path}.plan_cache_hit: not a boolean"
                )))
            }
        };
        let capsule = RequestCapsule {
            id: u("id")?,
            op: s("op")?,
            kind: s("kind")?,
            backend: s("backend")?,
            outcome: s("outcome")?,
            detail: s("detail")?,
            queue_ns: u("queue_ns")?,
            plan_ns: u("plan_ns")?,
            execute_ns: u("execute_ns")?,
            total_ns: u("total_ns")?,
            plan_cache_hit,
        };
        if capsule.id == 0 {
            return Err(flight_err(format!("flight: {path}.id: must be non-zero")));
        }
        if capsule.outcome.is_empty() {
            return Err(flight_err(format!("flight: {path}.outcome: empty")));
        }
        Ok(capsule)
    }
}

/// One flight-recorder dump: the faulting capsule, the trigger that
/// fired, and the recent ring contents at that moment. Serialized as a
/// single compact JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDump {
    /// What fired the dump (`panic` | `deadline` | `queue_shed` |
    /// `shard_quarantine`).
    pub trigger: String,
    /// Monotone per-recorder dump ordinal (1-based).
    pub seq: u64,
    /// The faulting request.
    pub capsule: RequestCapsule,
    /// Most recent ring capsules (oldest first), bounded.
    pub recent: Vec<RequestCapsule>,
}

impl FlightDump {
    /// Serializes as one compact JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Json::Str(FLIGHT_SCHEMA.into()));
        m.insert("version".into(), Json::Num(FLIGHT_VERSION as f64));
        m.insert("trigger".into(), Json::Str(self.trigger.clone()));
        m.insert("seq".into(), Json::Num(self.seq as f64));
        m.insert("capsule".into(), self.capsule.to_json());
        m.insert(
            "recent".into(),
            Json::Arr(self.recent.iter().map(RequestCapsule::to_json).collect()),
        );
        Json::Obj(m).compact()
    }

    /// Parses and validates one dump line.
    pub fn parse(text: &str) -> Result<FlightDump, DdlError> {
        let doc = json::parse(text).map_err(|e| flight_err(format!("flight: {e}")))?;
        let m = doc
            .as_obj()
            .ok_or_else(|| flight_err("flight: not an object".into()))?;
        match m.get("schema").and_then(Json::as_str) {
            Some(s) if s == FLIGHT_SCHEMA => {}
            Some(s) => {
                return Err(flight_err(format!(
                    "flight: expected schema {FLIGHT_SCHEMA:?}, got {s:?}"
                )))
            }
            None => return Err(flight_err("flight: missing schema".into())),
        }
        match m.get("version").and_then(Json::as_u64) {
            Some(v) if v <= FLIGHT_VERSION as u64 => {}
            Some(v) => {
                return Err(flight_err(format!(
                    "flight: version {v} is newer than supported {FLIGHT_VERSION}"
                )))
            }
            None => return Err(flight_err("flight: missing version".into())),
        }
        let trigger = m
            .get("trigger")
            .and_then(Json::as_str)
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .ok_or_else(|| flight_err("flight: missing trigger".into()))?;
        let seq = m
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| flight_err("flight: missing seq".into()))?;
        let capsule = RequestCapsule::from_json(
            "capsule",
            m.get("capsule")
                .ok_or_else(|| flight_err("flight: missing capsule".into()))?,
        )?;
        let mut recent = Vec::new();
        match m.get("recent") {
            Some(Json::Arr(items)) => {
                for (i, item) in items.iter().enumerate() {
                    recent.push(RequestCapsule::from_json(&format!("recent[{i}]"), item)?);
                }
            }
            Some(_) => return Err(flight_err("flight: recent: not an array".into())),
            None => return Err(flight_err("flight: missing recent".into())),
        }
        Ok(FlightDump {
            trigger,
            seq,
            capsule,
            recent,
        })
    }
}

/// The flight recorder: a bounded ring of recent request capsules plus
/// the dump machinery. All interior mutability — services hold it as a
/// plain field and record through `&self`.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<RequestCapsule>>,
    capacity: usize,
    out: Mutex<Option<PathBuf>>,
    recorded: AtomicU64,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` capsules (minimum 1). The
    /// ring is preallocated: pushes never grow it.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            out: Mutex::new(None),
            recorded: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    /// A recorder whose dump destination comes from [`FLIGHT_OUT_ENV`]
    /// (unset or empty means no dumps).
    pub fn from_env(capacity: usize) -> FlightRecorder {
        let recorder = FlightRecorder::new(capacity);
        if let Ok(path) = std::env::var(FLIGHT_OUT_ENV) {
            if !path.is_empty() {
                *relock(&recorder.out) = Some(PathBuf::from(path));
            }
        }
        recorder
    }

    /// Overrides the dump destination (`None` disables dumping).
    pub fn set_out(&self, path: Option<PathBuf>) {
        *relock(&self.out) = path;
    }

    /// The configured dump destination, if any.
    pub fn out(&self) -> Option<PathBuf> {
        relock(&self.out).clone()
    }

    /// Capsules recorded into the ring over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Dump lines successfully written.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Records one completed-request capsule into the ring, evicting
    /// the oldest entry when full (no allocation once warm).
    pub fn record(&self, capsule: RequestCapsule) {
        let capsule = capsule.truncate_detail();
        let mut ring = relock(&self.ring);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(capsule);
        drop(ring);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Fires a dump trigger for `capsule`: appends one `ddl-flight`
    /// JSONL line (faulting capsule + recent ring) to the configured
    /// destination. Returns whether a line was written; with no
    /// destination configured the trigger is inert. Write errors are
    /// swallowed — the flight recorder must never take the service down.
    pub fn dump(&self, trigger: &str, capsule: &RequestCapsule) -> bool {
        let Some(path) = self.out() else {
            return false;
        };
        let recent: Vec<RequestCapsule> = {
            let ring = relock(&self.ring);
            let skip = ring.len().saturating_sub(DUMP_RECENT);
            ring.iter().skip(skip).cloned().collect()
        };
        let dump = FlightDump {
            trigger: trigger.to_string(),
            seq: self.dumps.load(Ordering::Relaxed) + 1,
            capsule: capsule.clone().truncate_detail(),
            recent,
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", dump.to_line()))
            .is_ok();
        if written {
            self.dumps.fetch_add(1, Ordering::Relaxed);
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capsule(id: u64, outcome: &str) -> RequestCapsule {
        RequestCapsule {
            id,
            op: "exec".into(),
            kind: "dft".into(),
            backend: "scalar".into(),
            outcome: outcome.into(),
            detail: format!("exec dft {id}"),
            queue_ns: 10,
            plan_ns: 20,
            execute_ns: 30,
            total_ns: 60,
            plan_cache_hit: Some(true),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ddl-flight-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn request_ids_are_unique_and_display() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert_eq!(format!("{a}"), format!("r-{}", a.get()));
    }

    #[test]
    fn dump_line_round_trips() {
        let dump = FlightDump {
            trigger: "panic".into(),
            seq: 3,
            capsule: capsule(7, "panicked"),
            recent: vec![capsule(5, "ok"), capsule(6, "ok")],
        };
        let line = dump.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(FlightDump::parse(&line).unwrap(), dump);
    }

    #[test]
    fn malformed_dumps_are_rejected() {
        for (text, needle) in [
            ("[]", "not an object"),
            (r#"{"version": 1}"#, "missing schema"),
            (r#"{"schema": "ddl-flight"}"#, "missing version"),
            (r#"{"schema": "ddl-flight", "version": 99}"#, "newer"),
            (
                r#"{"schema": "ddl-flight", "version": 1, "seq": 1,
                   "capsule": {"id": 1, "op": "exec", "kind": "dft",
                   "backend": "s", "outcome": "ok", "detail": "",
                   "queue_ns": 0, "plan_ns": 0, "execute_ns": 0,
                   "total_ns": 0}, "recent": []}"#,
                "missing trigger",
            ),
            (
                r#"{"schema": "ddl-flight", "version": 1, "trigger": "panic",
                   "seq": 1, "capsule": {"id": 0, "op": "exec", "kind": "dft",
                   "backend": "s", "outcome": "ok", "detail": "",
                   "queue_ns": 0, "plan_ns": 0, "execute_ns": 0,
                   "total_ns": 0}, "recent": []}"#,
                "non-zero",
            ),
        ] {
            let err = FlightDump::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn ring_is_bounded_and_dump_carries_recent() {
        let path = temp_path("ring");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new(4);
        rec.set_out(Some(path.clone()));
        for i in 1..=10u64 {
            rec.record(capsule(i, "ok"));
        }
        assert_eq!(rec.recorded(), 10);
        assert!(rec.dump("deadline", &capsule(11, "deadline_expired")));
        assert_eq!(rec.dumps(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let dump = FlightDump::parse(text.trim()).unwrap();
        assert_eq!(dump.trigger, "deadline");
        assert_eq!(dump.capsule.id, 11);
        // Ring capacity 4: only ids 7..=10 survive, oldest first.
        let ids: Vec<u64> = dump.recent.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dump_without_destination_is_inert() {
        let rec = FlightRecorder::new(4);
        rec.record(capsule(1, "ok"));
        assert!(!rec.dump("panic", &capsule(1, "panicked")));
        assert_eq!(rec.dumps(), 0);
    }

    #[test]
    fn detail_is_truncated_to_the_bound() {
        let rec = FlightRecorder::new(2);
        let mut c = capsule(1, "ok");
        c.detail = "x".repeat(1000);
        rec.record(c);
        let path = temp_path("trunc");
        let _ = std::fs::remove_file(&path);
        rec.set_out(Some(path.clone()));
        let mut big = capsule(2, "error");
        big.detail = "y".repeat(1000);
        assert!(rec.dump("queue_shed", &big));
        let text = std::fs::read_to_string(&path).unwrap();
        let dump = FlightDump::parse(text.trim()).unwrap();
        assert_eq!(dump.capsule.detail.len(), 128);
        assert_eq!(dump.recent[0].detail.len(), 128);
        std::fs::remove_file(&path).unwrap();
    }
}
