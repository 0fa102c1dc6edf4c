//! Service telemetry integration tests.
//!
//! Three layers, matching DESIGN.md §13:
//!
//! 1. **Histogram laws** (property-based): merging two histograms is
//!    exactly the histogram of the concatenated streams, quantile
//!    estimates respect the log-bucket relative-error bound
//!    (`v <= estimate <= 2v + 1`), and concurrent recording never loses
//!    a count.
//! 2. **Wire conservation**: a scripted service session's telemetry
//!    snapshot partitions every request into exactly one outcome bucket
//!    (`sum(outcome buckets) == accepted` on a quiescent snapshot),
//!    cross-checked against the wire-level response tally.
//! 3. **Deadline anchoring**: the per-request budget is measured from
//!    one monotonic clock captured at admission, so a budget burned
//!    waiting for a permit expires the request even though execution
//!    never ran (pinned with the `serve.dequeue.slow` fault point).

use dynamic_data_layout::core::engine::EngineConfig;
use dynamic_data_layout::core::faultpoint::{self, FaultMode};
use dynamic_data_layout::core::{
    check_report, CheckedReport, FlightDump, HistogramSnapshot, LatencyHistogram, TelemetryReport,
};
use dynamic_data_layout::serve::{Service, ServiceConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// The exact quantile of a value stream under the histogram's rank
/// convention (`rank = ceil(q*n)`, clamped to `[1, n]`).
fn true_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    /// Merge is exact: merging per-shard histograms and histogramming
    /// the concatenated stream are the same object, so every quantile
    /// agrees — the property that makes per-thread histograms safe to
    /// aggregate without re-recording.
    #[test]
    fn merged_quantiles_equal_concatenated_stream_quantiles(
        a in prop::collection::vec(any::<u64>(), 1..120),
        b in prop::collection::vec(any::<u64>(), 1..120),
        q in 0.0f64..=1.0,
    ) {
        let merged = hist_of(&a).merge(&hist_of(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let whole = hist_of(&both);
        prop_assert_eq!(&merged, &whole, "merge must be bucket-exact");
        for probe in [0.0, 0.5, 0.9, 0.99, 1.0, q] {
            prop_assert_eq!(merged.quantile(probe), whole.quantile(probe));
        }
    }

    /// Log-bucketed quantiles overestimate by at most one power of two:
    /// `v <= estimate <= 2v + 1` against the exact stream quantile.
    #[test]
    fn quantile_estimates_respect_the_bucket_error_bound(
        values in prop::collection::vec(any::<u64>(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let snap = hist_of(&values);
        let est = snap.quantile(q).expect("non-empty histogram");
        let exact = true_quantile(&values, q);
        prop_assert!(est >= exact, "estimate {est} below exact {exact}");
        // The bucket holding `exact` spans [2^i, 2^(i+1)-1]; its upper
        // edge is at most 2*exact + 1 (saturating at u64::MAX).
        let bound = exact.saturating_mul(2).saturating_add(1);
        prop_assert!(est <= bound, "estimate {est} above bound {bound} for exact {exact}");
    }
}

#[test]
fn concurrent_recording_conserves_every_sample() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let h = LatencyHistogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // A spread of magnitudes so many buckets contend.
                    h.record((t * PER_THREAD + i) << (i % 17));
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD, "no sample lost");
    assert_eq!(
        snap.bucket_total(),
        snap.count,
        "buckets partition the count"
    );
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t * PER_THREAD + i) << (i % 17)))
        .fold(0u64, u64::wrapping_add);
    assert_eq!(snap.sum_ns, expected_sum, "sum is conserved");
}

fn one_permit_service() -> Service {
    Service::new(ServiceConfig {
        workers: NonZeroUsize::MIN,
        queue_capacity: 16,
        default_deadline: None,
        engine: EngineConfig::default(),
    })
}

#[test]
fn quiesced_snapshot_counts_equal_the_wire_tally() {
    let _x = faultpoint::exclusive();
    let svc = one_permit_service();
    let script = [
        "plan dft 64 sdl",
        "exec dft 64 sdl",
        "exec dft 64 sdl",
        "exec wht 32 sdl",
        "exec dft ct(8, 8)",
        "stats",
        "exec dft 64 sdl deadline_ms=0", // expires before its permit
        "not a command",                 // rejected at parse, never admitted
    ];
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut rejected = 0u64;
    for line in script {
        let resp = svc.handle(line);
        if resp.starts_with("ok ") {
            ok += 1;
        } else if resp.starts_with("err parse:") {
            rejected += 1;
        } else {
            failed += 1;
        }
    }
    assert_eq!(rejected, 1, "only the malformed line is rejected");

    let report = svc.telemetry();
    assert_eq!(
        report.counters.get("serve.snapshot_quiesced"),
        Some(&1),
        "a service with no request in flight must declare quiescence"
    );
    let (admitted_sum, shed_sum) = report.outcome_totals();
    assert_eq!(Some(&admitted_sum), report.counters.get("serve.accepted"));
    assert_eq!(Some(&shed_sum), report.counters.get("serve.shed"));
    assert_eq!(admitted_sum, ok + failed, "histograms equal the wire tally");

    let count_for = |outcome: &str| -> u64 {
        report
            .entries
            .iter()
            .filter(|e| e.outcome == outcome)
            .map(|e| e.snap.count)
            .sum()
    };
    assert_eq!(count_for("ok"), ok);
    assert_eq!(count_for("deadline_expired"), failed);

    // The wire snapshot re-parses under the strict checker, which
    // re-derives exactly this conservation law.
    let line = svc.handle("telemetry");
    let json = line.strip_prefix("ok telemetry ").expect("wire prefix");
    TelemetryReport::parse(json).expect("snapshot passes the strict parser");
}

#[test]
fn deadline_budget_burned_in_the_queue_expires_the_request() {
    let _x = faultpoint::exclusive();
    let svc = one_permit_service();
    let dir = std::env::temp_dir().join(format!("ddl-telemetry-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("flight.jsonl");
    svc.set_flight_out(Some(out.clone()));

    // A huge budget that only the injected late grant can spend: the
    // expiry must be attributed to the wait for a permit, proving the
    // deadline is anchored at admission rather than re-read per phase.
    let resp = {
        let _g = faultpoint::arm(7, &[("serve.dequeue.slow", FaultMode::Once(0))]);
        svc.handle("exec dft 64 sdl deadline_ms=3600000")
    };
    assert!(resp.starts_with("err deadline:"), "got {resp}");
    assert!(resp.contains("queue wait"), "got {resp}");
    let s = svc.stats();
    assert_eq!(s.deadline_expired, 1, "fires during the wait");

    // The flight dump carries the request id and the phase breakdown.
    match check_report(&out).expect("flight artifact validates") {
        CheckedReport::Flight(dump) => {
            assert_eq!(dump.trigger, "deadline");
            assert!(dump.capsule.id > 0);
            assert_eq!(dump.capsule.outcome, "deadline_expired");
            assert_eq!(dump.capsule.execute_ns, 0, "never executed");
            assert_eq!(dump.capsule.plan_ns, 0, "never planned");
            assert!(dump.capsule.total_ns >= dump.capsule.queue_ns);
        }
        other => panic!("wrong dispatch: {}", other.schema()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_and_flight_artifacts_pass_the_report_checker() {
    let _x = faultpoint::exclusive();
    let svc = one_permit_service();
    let dir = std::env::temp_dir().join(format!("ddl-telemetry-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let flight = dir.join("flight.jsonl");
    svc.set_flight_out(Some(flight.clone()));

    assert!(svc.handle("exec dft 64 sdl").starts_with("ok "));
    {
        let _g = faultpoint::arm(9, &[("serve.worker.panic", FaultMode::Once(0))]);
        assert!(svc
            .handle("exec dft 64 sdl")
            .starts_with("err worker-panic:"));
    }

    let telemetry = dir.join("telemetry.json");
    svc.write_telemetry(&telemetry).expect("snapshot written");
    match check_report(&telemetry).expect("telemetry validates") {
        CheckedReport::Telemetry(report) => {
            assert_eq!(report.counters.get("serve.snapshot_quiesced"), Some(&1));
            assert!(report.counters.get("flight.dumps") >= Some(&1));
        }
        other => panic!("wrong dispatch: {}", other.schema()),
    }
    match check_report(&flight).expect("flight artifact validates") {
        CheckedReport::Flight(dump) => {
            let parsed = FlightDump::parse(
                std::fs::read_to_string(&flight)
                    .expect("readable")
                    .lines()
                    .last()
                    .expect("one line"),
            )
            .expect("line parses standalone");
            assert_eq!(*dump, parsed, "checker returns the last line");
        }
        other => panic!("wrong dispatch: {}", other.schema()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
