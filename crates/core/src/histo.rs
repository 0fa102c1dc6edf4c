//! Log-bucketed, mergeable latency histograms and the versioned
//! `ddl-telemetry` snapshot they aggregate into (DESIGN.md §13).
//!
//! The service needs to answer "what is the p99 of `exec dft` requests
//! that hit their deadline" without locking the hot
//! path. The histogram here is the standard log2-bucketed fixed layout:
//! 64 buckets, bucket `i >= 1` covering `[2^i, 2^(i+1))` nanoseconds
//! and bucket 0 covering `{0, 1}`, so every `u64` latency maps to
//! exactly one bucket with two instructions (`leading_zeros` + index).
//! All cells are relaxed atomics: recording is wait-free, reading never
//! blocks a writer, and a snapshot is just 66 relaxed loads. The price
//! is quantile *resolution*, not correctness: a quantile estimate is
//! the upper bound of the bucket holding the true rank, so it can
//! overshoot by at most the bucket width — `true <= est <= 2*true + 1`,
//! a bound the proptest suite pins (`tests/telemetry.rs`).
//!
//! Merging two histograms is exact bucket-wise addition, which makes
//! per-shard or per-thread histograms aggregate without error: the
//! merged quantiles equal the quantiles of the concatenated stream
//! (also proptest-pinned). Snapshots serialize into the versioned
//! `ddl-telemetry` report validated by [`crate::check_report`].

use crate::faultpoint::relock;
use crate::json::{self, Json};
use ddl_num::DdlError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets; covers every `u64` nanosecond value.
pub const HISTO_BUCKETS: usize = 64;

/// Schema identifier of the telemetry snapshot document.
pub const TELEMETRY_SCHEMA: &str = "ddl-telemetry";
/// Current telemetry schema version; readers refuse newer documents.
pub const TELEMETRY_VERSION: u32 = 1;

/// The outcome label recorded for requests shed at admission. Entries
/// with this outcome sit outside the `serve.accepted` conservation sum.
pub const OUTCOME_OVERLOADED: &str = "overloaded";

fn telemetry_err(detail: String) -> DdlError {
    DdlError::Metrics { detail }
}

/// Bucket index for a recorded value: 0 for `{0, 1}`, else
/// `floor(log2(value))`. Total over `u64`.
#[inline]
pub const fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: the largest value that maps to
/// it. Saturates at `u64::MAX` for the top bucket.
#[inline]
pub const fn bucket_upper(i: usize) -> u64 {
    if i >= HISTO_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A fixed-layout latency histogram with wait-free recording and
/// lock-free reads. All counters are relaxed atomics: per-cell counts
/// are never lost (fetch-add), though a concurrent snapshot may observe
/// a record "in flight" (count updated, sum not yet) — snapshots taken
/// at quiescence are exact, which is what the conservation checks use.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one latency sample (nanoseconds). Wait-free.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current cell values out. Never blocks a writer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a histogram's cells: what merges, serializes,
/// and answers quantile queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTO_BUCKETS],
    /// Total samples; equals the bucket sum in a quiescent snapshot.
    pub count: u64,
    /// Sum of all recorded values (nanoseconds).
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Exact merge: bucket-wise addition. Quantiles of the result equal
    /// quantiles of the concatenated sample streams.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            // The recorder's `fetch_add` wraps, so the merged sum is
            // conserved modulo 2^64 under the same arithmetic.
            sum_ns: self.sum_ns.wrapping_add(other.sum_ns),
        }
    }

    /// Sum of the bucket cells (the count the buckets actually conserve).
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) as the inclusive upper bound
    /// of the bucket containing the true rank, or `None` when empty.
    /// For a true quantile value `v` the estimate `e` satisfies
    /// `v <= e <= 2*v + 1`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.bucket_total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the order statistic the quantile names.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(bucket_upper(HISTO_BUCKETS - 1))
    }
}

/// Registry of histograms keyed by the four label dimensions the
/// service records: wire op, transform kind, backend, outcome. The map
/// lookup takes a short internal mutex; the recording itself is on the
/// shared [`LatencyHistogram`] after the guard is dropped, so the lock
/// hold window never contains user work.
#[derive(Debug, Default)]
pub struct HistogramSet {
    inner: Mutex<BTreeMap<[String; 4], Arc<LatencyHistogram>>>,
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> HistogramSet {
        HistogramSet::default()
    }

    /// The histogram for one label combination, creating it on first
    /// use. Callers on a hot path may cache the returned handle.
    pub fn handle(
        &self,
        op: &str,
        kind: &str,
        backend: &str,
        outcome: &str,
    ) -> Arc<LatencyHistogram> {
        let key = [
            op.to_string(),
            kind.to_string(),
            backend.to_string(),
            outcome.to_string(),
        ];
        let mut map = relock(&self.inner);
        Arc::clone(map.entry(key).or_default())
    }

    /// Records one sample under the given labels.
    pub fn record(&self, op: &str, kind: &str, backend: &str, outcome: &str, ns: u64) {
        self.handle(op, kind, backend, outcome).record(ns);
    }

    /// Snapshots every histogram in label order.
    pub fn entries(&self) -> Vec<TelemetryEntry> {
        let map = relock(&self.inner);
        map.iter()
            .map(|(key, h)| TelemetryEntry {
                op: key[0].clone(),
                kind: key[1].clone(),
                backend: key[2].clone(),
                outcome: key[3].clone(),
                snap: h.snapshot(),
            })
            .collect()
    }
}

/// One labeled histogram inside a telemetry snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryEntry {
    /// Wire operation (`plan` | `exec` | `meta`).
    pub op: String,
    /// Transform kind (`dft` | `idft` | `wht`), `-` for ops without one.
    pub kind: String,
    /// Backend label, `-` for ops without one.
    pub backend: String,
    /// Request outcome (`ok` | `overloaded` | `deadline_expired` |
    /// `panicked` | `error`).
    pub outcome: String,
    /// The histogram cells.
    pub snap: HistogramSnapshot,
}

/// A versioned `ddl-telemetry` snapshot: every labeled histogram plus
/// the scalar counters (service, engine, flight recorder).
///
/// [`TelemetryReport::parse`] enforces the structural invariants —
/// including the conservation the acceptance gate relies on: when the
/// document declares itself quiescent (`serve.snapshot_quiesced == 1`),
/// the non-overloaded outcome counts must sum exactly to
/// `serve.accepted` and the overloaded counts exactly to `serve.shed`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Labeled histograms, sorted by label.
    pub entries: Vec<TelemetryEntry>,
    /// Scalar counters (`serve.*`, `engine.*`, `flight.*`).
    pub counters: BTreeMap<String, u64>,
}

impl TelemetryReport {
    /// Sum of entry counts split into (non-overloaded, overloaded):
    /// the two sides of the admission conservation law.
    pub fn outcome_totals(&self) -> (u64, u64) {
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for e in &self.entries {
            if e.outcome == OUTCOME_OVERLOADED {
                shed += e.snap.count;
            } else {
                admitted += e.snap.count;
            }
        }
        (admitted, shed)
    }

    /// Serializes into the versioned JSON document.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Json::Str(TELEMETRY_SCHEMA.into()));
        m.insert("version".into(), Json::Num(TELEMETRY_VERSION as f64));
        m.insert(
            "entries".into(),
            Json::Arr(
                self.entries
                    .iter()
                    .map(|e| {
                        let mut em = BTreeMap::new();
                        em.insert("op".into(), Json::Str(e.op.clone()));
                        em.insert("kind".into(), Json::Str(e.kind.clone()));
                        em.insert("backend".into(), Json::Str(e.backend.clone()));
                        em.insert("outcome".into(), Json::Str(e.outcome.clone()));
                        em.insert("count".into(), Json::Num(e.snap.count as f64));
                        em.insert("sum_ns".into(), Json::Num(e.snap.sum_ns as f64));
                        em.insert(
                            "buckets".into(),
                            Json::Obj(
                                e.snap
                                    .buckets
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, &c)| c > 0)
                                    .map(|(i, &c)| (format!("{i:02}"), Json::Num(c as f64)))
                                    .collect(),
                            ),
                        );
                        Json::Obj(em)
                    })
                    .collect(),
            ),
        );
        m.insert(
            "counters".into(),
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                    .collect(),
            ),
        );
        Json::Obj(m)
    }

    /// Parses and validates a telemetry document.
    pub fn parse(text: &str) -> Result<TelemetryReport, DdlError> {
        let doc = json::parse(text).map_err(|e| telemetry_err(format!("telemetry: {e}")))?;
        let m = doc
            .as_obj()
            .ok_or_else(|| telemetry_err("telemetry: not an object".into()))?;
        match m.get("schema").and_then(Json::as_str) {
            Some(s) if s == TELEMETRY_SCHEMA => {}
            Some(s) => {
                return Err(telemetry_err(format!(
                    "telemetry: expected schema {TELEMETRY_SCHEMA:?}, got {s:?}"
                )))
            }
            None => return Err(telemetry_err("telemetry: missing schema".into())),
        }
        match m.get("version").and_then(Json::as_u64) {
            Some(v) if v <= TELEMETRY_VERSION as u64 => {}
            Some(v) => {
                return Err(telemetry_err(format!(
                    "telemetry: version {v} is newer than supported {TELEMETRY_VERSION}"
                )))
            }
            None => return Err(telemetry_err("telemetry: missing version".into())),
        }
        let mut report = TelemetryReport::default();
        let entries = match m.get("entries") {
            Some(Json::Arr(items)) => items,
            _ => return Err(telemetry_err("telemetry: missing entries array".into())),
        };
        for (i, item) in entries.iter().enumerate() {
            let em = item
                .as_obj()
                .ok_or_else(|| telemetry_err(format!("telemetry: entries[{i}]: not an object")))?;
            let s = |key: &str| -> Result<String, DdlError> {
                em.get(key)
                    .and_then(Json::as_str)
                    .filter(|v| !v.is_empty())
                    .map(str::to_string)
                    .ok_or_else(|| {
                        telemetry_err(format!("telemetry: entries[{i}].{key}: missing or empty"))
                    })
            };
            let u = |key: &str| -> Result<u64, DdlError> {
                em.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| telemetry_err(format!("telemetry: entries[{i}].{key}: bad")))
            };
            let mut snap = HistogramSnapshot {
                count: u("count")?,
                sum_ns: u("sum_ns")?,
                ..HistogramSnapshot::default()
            };
            match em.get("buckets") {
                Some(Json::Obj(cells)) => {
                    for (idx, v) in cells {
                        let b: usize = idx.parse().map_err(|_| {
                            telemetry_err(format!(
                                "telemetry: entries[{i}].buckets: bad index {idx:?}"
                            ))
                        })?;
                        if b >= HISTO_BUCKETS {
                            return Err(telemetry_err(format!(
                                "telemetry: entries[{i}].buckets: index {b} out of range"
                            )));
                        }
                        snap.buckets[b] = v.as_u64().ok_or_else(|| {
                            telemetry_err(format!(
                                "telemetry: entries[{i}].buckets[{idx}]: bad count"
                            ))
                        })?;
                    }
                }
                _ => {
                    return Err(telemetry_err(format!(
                        "telemetry: entries[{i}]: missing buckets object"
                    )))
                }
            }
            if snap.bucket_total() != snap.count {
                return Err(telemetry_err(format!(
                    "telemetry: entries[{i}]: bucket sum {} != count {}",
                    snap.bucket_total(),
                    snap.count
                )));
            }
            report.entries.push(TelemetryEntry {
                op: s("op")?,
                kind: s("kind")?,
                backend: s("backend")?,
                outcome: s("outcome")?,
                snap,
            });
        }
        match m.get("counters") {
            Some(Json::Obj(cs)) => {
                for (k, v) in cs {
                    let val = v.as_u64().ok_or_else(|| {
                        telemetry_err(format!("telemetry: counters[{k:?}]: bad value"))
                    })?;
                    report.counters.insert(k.clone(), val);
                }
            }
            _ => return Err(telemetry_err("telemetry: missing counters object".into())),
        }
        report.validate_conservation()?;
        Ok(report)
    }

    /// The admission conservation law. Always: outcome sums never exceed
    /// the counters they partition (`serve.accepted` / `serve.shed`). On
    /// a snapshot that declares quiescence (`serve.snapshot_quiesced ==
    /// 1`) the sums must match *exactly* — every admitted request is in
    /// exactly one outcome bucket, every shed request in `overloaded`.
    fn validate_conservation(&self) -> Result<(), DdlError> {
        let (admitted, shed) = self.outcome_totals();
        let quiesced = self.counters.get("serve.snapshot_quiesced") == Some(&1);
        if let Some(&accepted) = self.counters.get("serve.accepted") {
            if admitted > accepted {
                return Err(telemetry_err(format!(
                    "telemetry: outcome histogram sum {admitted} exceeds serve.accepted {accepted}"
                )));
            }
            if quiesced && admitted != accepted {
                return Err(telemetry_err(format!(
                    "telemetry: quiesced snapshot but outcome histogram sum {admitted} != \
                     serve.accepted {accepted}"
                )));
            }
        }
        if let Some(&shed_counter) = self.counters.get("serve.shed") {
            if shed > shed_counter {
                return Err(telemetry_err(format!(
                    "telemetry: overloaded histogram sum {shed} exceeds serve.shed {shed_counter}"
                )));
            }
            if quiesced && shed != shed_counter {
                return Err(telemetry_err(format!(
                    "telemetry: quiesced snapshot but overloaded histogram sum {shed} != \
                     serve.shed {shed_counter}"
                )));
            }
        }
        Ok(())
    }

    /// Renders a Prometheus-style text exposition: one cumulative
    /// `_bucket`/`_sum`/`_count` family per labeled histogram plus every
    /// scalar counter (`.` in names becomes `_`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP ddl_request_duration_ns Request latency by op/kind/backend/outcome.\n",
        );
        out.push_str("# TYPE ddl_request_duration_ns histogram\n");
        for e in &self.entries {
            let labels = format!(
                "op=\"{}\",kind=\"{}\",backend=\"{}\",outcome=\"{}\"",
                e.op, e.kind, e.backend, e.outcome
            );
            let mut cum = 0u64;
            for (i, &c) in e.snap.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                out.push_str(&format!(
                    "ddl_request_duration_ns_bucket{{{labels},le=\"{}\"}} {cum}\n",
                    bucket_upper(i)
                ));
            }
            out.push_str(&format!(
                "ddl_request_duration_ns_bucket{{{labels},le=\"+Inf\"}} {}\n",
                e.snap.count
            ));
            out.push_str(&format!(
                "ddl_request_duration_ns_sum{{{labels}}} {}\n",
                e.snap.sum_ns
            ));
            out.push_str(&format!(
                "ddl_request_duration_ns_count{{{labels}}} {}\n",
                e.snap.count
            ));
        }
        for (k, v) in &self.counters {
            out.push_str(&format!("ddl_{} {v}\n", k.replace('.', "_")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 5, 100, 1 << 20, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i));
            if i > 0 {
                assert!(v > bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn quantile_estimate_stays_within_bound() {
        let h = LatencyHistogram::new();
        let samples = [3u64, 7, 7, 90, 1500, 1500, 1501, 40_000];
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.bucket_total(), samples.len() as u64);
        let mut sorted = samples;
        sorted.sort_unstable();
        for (q, idx) in [(0.0, 0usize), (0.5, 3), (1.0, 7)] {
            let v = sorted[idx];
            let est = snap.quantile(q).unwrap();
            assert!(v <= est && est <= 2 * v + 1, "q={q}: v={v} est={est}");
        }
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn merge_is_exact_bucketwise_addition() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for &s in &[1u64, 10, 100] {
            a.record(s);
            both.record(s);
        }
        for &s in &[5u64, 50, 5000, 50_000] {
            b.record(s);
            both.record(s);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), both.snapshot().quantile(q));
        }
    }

    #[test]
    fn set_records_under_labels_and_snapshots_sorted() {
        let set = HistogramSet::new();
        set.record("exec", "dft", "scalar", "ok", 100);
        set.record("exec", "dft", "scalar", "ok", 200);
        set.record("plan", "wht", "-", "error", 10);
        let entries = set.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].op, "exec");
        assert_eq!(entries[0].snap.count, 2);
        assert_eq!(entries[1].op, "plan");
        assert_eq!(entries[1].outcome, "error");
    }

    fn sample_report() -> TelemetryReport {
        let set = HistogramSet::new();
        set.record("exec", "dft", "scalar", "ok", 1000);
        set.record("exec", "dft", "scalar", "ok", 2000);
        set.record("plan", "dft", "-", "deadline_expired", 700);
        set.record("exec", "wht", "simd", OUTCOME_OVERLOADED, 50);
        let mut counters = BTreeMap::new();
        counters.insert("serve.accepted".into(), 3);
        counters.insert("serve.shed".into(), 1);
        counters.insert("serve.snapshot_quiesced".into(), 1);
        TelemetryReport {
            entries: set.entries(),
            counters,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = TelemetryReport::parse(&text).unwrap();
        assert_eq!(back, report);
        // Compact form parses identically (what the wire returns).
        assert_eq!(
            TelemetryReport::parse(&report.to_json().compact()).unwrap(),
            report
        );
    }

    #[test]
    fn quiesced_conservation_violations_are_rejected() {
        let mut report = sample_report();
        *report.counters.get_mut("serve.accepted").unwrap() = 5;
        let err = TelemetryReport::parse(&report.to_json().compact())
            .unwrap_err()
            .to_string();
        assert!(err.contains("serve.accepted"), "{err}");

        // Without the quiesced marker a deficit is fine (requests in
        // flight), but an excess never is.
        let mut report = sample_report();
        report.counters.remove("serve.snapshot_quiesced");
        *report.counters.get_mut("serve.accepted").unwrap() = 5;
        assert!(TelemetryReport::parse(&report.to_json().compact()).is_ok());
        *report.counters.get_mut("serve.accepted").unwrap() = 2;
        let err = TelemetryReport::parse(&report.to_json().compact())
            .unwrap_err()
            .to_string();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for (text, needle) in [
            ("[]", "not an object"),
            (r#"{"version": 1}"#, "missing schema"),
            (r#"{"schema": "ddl-telemetry"}"#, "missing version"),
            (r#"{"schema": "ddl-telemetry", "version": 99}"#, "newer"),
            (
                r#"{"schema": "ddl-telemetry", "version": 1}"#,
                "missing entries",
            ),
            (
                r#"{"schema": "ddl-telemetry", "version": 1, "entries": [
                    {"op":"exec","kind":"dft","backend":"s","outcome":"ok",
                     "count":2,"sum_ns":10,"buckets":{"03":1}}],
                  "counters": {}}"#,
                "bucket sum",
            ),
            (
                r#"{"schema": "ddl-telemetry", "version": 1, "entries": [
                    {"op":"exec","kind":"dft","backend":"s","outcome":"ok",
                     "count":1,"sum_ns":10,"buckets":{"64":1}}],
                  "counters": {}}"#,
                "out of range",
            ),
        ] {
            let err = TelemetryReport::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let report = sample_report();
        let text = report.render_prometheus();
        assert!(text.contains("# TYPE ddl_request_duration_ns histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("ddl_serve_accepted 3"));
        // Cumulative: the +Inf bucket equals the count line.
        let ok_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("outcome=\"ok\"") && l.contains("le="))
            .collect();
        assert!(!ok_lines.is_empty());
    }
}
