//! `serve-mix`: a closed-loop load against a spawned `ddl-serve` on
//! loopback, over its line protocol.

use crate::mirror::Mirror;
use crate::stats::{median, peak_rss_mib, quantile, Rng};
use crate::trace::Spans;
use crate::{Opts, Outcome};
use ddl_core::Recorder;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One request class: label, wire line, share of the mix, transform size.
struct Class {
    label: &'static str,
    line: &'static str,
    share: f64,
    n: usize,
}

/// The seeded request mix. The tree-expression class is parsed and
/// compiled on every request; the others hit the engine's plan cache.
/// Ordered by round trip, the classes cover 0-30%, 30-70%, 70-80% and
/// 80-100% of requests, so p50 and p90 each fall well inside one class
/// rather than where a small shift of the latencies moves them to the
/// next.
const MIX: [Class; 4] = [
    Class {
        label: "dft1024",
        line: "exec dft 1024 ddl",
        share: 0.30,
        n: 1024,
    },
    Class {
        label: "wht4096",
        line: "exec wht 4096 sdl",
        share: 0.40,
        n: 4096,
    },
    Class {
        label: "dftexpr",
        line: "exec dft ct(16, ct(16, 16))",
        share: 0.10,
        n: 4096,
    },
    Class {
        label: "dft16384",
        line: "exec dft 16384 ddl",
        share: 0.20,
        n: 16384,
    },
];

/// Closed-loop clients: one per core of the host the numbers were taken on.
const CONNECTIONS: usize = 2;
/// Worker threads of `ddl-serve` and of the mirror.
const WORKERS: usize = 2;
const QUEUE: &str = "64";
/// Servers are set up (and killed) for this long, and at least
/// `SETUP_MIN_REPS` times; the median is reported and the last one takes
/// the first part of the load.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_MIN_REPS: usize = 3;
/// Servers the timed phase is split across, one after another. The median
/// of their peak RSS is reported: one server's peak depends on how its
/// threads' requests happened to overlap.
const LOAD_SERVERS: usize = 5;
/// Requests timed with the client's delayed ACK left on, in a traced run.
const DELAYED_ACK_REQUESTS: usize = 10;
/// A reply later than this counts as a failed request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A spawned server; dropping it kills the process and waits for it.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path) -> Result<Server, String> {
        // Bind port 0 to have the kernel pick a free port, then release it
        // for the server.
        let port = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("picking a free port: {e}"))?
            .port();
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        let child = Command::new(bin)
            .args([
                "--listen",
                &addr.to_string(),
                "--workers",
                &WORKERS.to_string(),
                "--queue",
                QUEUE,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        Ok(Server { child, addr })
    }

    /// Connects, retrying until the server listens.
    fn connect(&mut self) -> Result<Conn, String> {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect_timeout(&self.addr, Duration::from_millis(200)) {
                Ok(s) => return Conn::new(s),
                Err(e) if Instant::now() > give_up => {
                    return Err(format!("connecting to {}: {e}", self.addr))
                }
                Err(_) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("ddl-serve exited before listening: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Asks the kernel to acknowledge what arrives on `stream` at once
/// (Linux `TCP_QUICKACK`; it lapses by itself, so it is set before every
/// read). Elsewhere a no-op.
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor is the open socket `stream` owns, and the
    // value pointer and length describe the live `on`, which the kernel
    // only reads.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Acknowledge replies at once instead of after the delayed-ACK timer.
    quick_ack: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Result<Conn, String> {
        let setup = |e: std::io::Error| format!("configuring connection: {e}");
        stream.set_nodelay(true).map_err(setup)?;
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .map_err(setup)?;
        let reader = BufReader::new(stream.try_clone().map_err(setup)?);
        Ok(Conn {
            writer: stream,
            reader,
            quick_ack: true,
        })
    }

    /// One round trip: the request goes out as a single write.
    fn call(&mut self, request: &str) -> std::io::Result<(String, Duration)> {
        let msg = format!("{request}\n");
        let t0 = Instant::now();
        self.writer.write_all(msg.as_bytes())?;
        if self.quick_ack {
            quick_ack(&self.writer)?;
        }
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok((reply.trim_end().to_string(), t0.elapsed()))
    }
}

/// The value of `key=` in a reply line.
fn field(reply: &str, key: &str) -> Option<f64> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// What the client saw, by response kind.
#[derive(Default, Clone, Copy)]
struct Tally {
    ok: u64,
    wrong: u64,
    err: u64,
    shed: u64,
    lost: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.err += other.err;
        self.shed += other.shed;
        self.lost += other.lost;
    }

    fn failed(&self) -> u64 {
        self.wrong + self.err + self.shed + self.lost
    }
}

/// One answered request of the timed phase.
struct Sample {
    class: usize,
    rtt_ms: f64,
    wall_ms: f64,
    start_ns: u64,
    conn: usize,
    seq: usize,
}

/// Sends `MIX[class]` and classifies the reply; `Some` for a correct one.
/// `corrupt` alters the received DC value first (the self-test).
fn request(
    conn: &mut Conn,
    class: usize,
    tally: &mut Tally,
    corrupt: bool,
) -> Option<(Duration, f64)> {
    let c = &MIX[class];
    match conn.call(c.line) {
        Err(e) => {
            eprintln!("request {:?} got no reply: {e}", c.line);
            tally.lost += 1;
            None
        }
        Ok((reply, rtt)) if reply.starts_with("ok exec") => {
            let dc = field(&reply, "dc").map(|dc| if corrupt { dc + 1.0 } else { dc });
            match (dc, field(&reply, "wall_ns")) {
                (Some(dc), Some(wall)) if (dc - c.n as f64).abs() <= 1e-9 * c.n as f64 => {
                    tally.ok += 1;
                    Some((rtt, wall / 1e6))
                }
                _ => {
                    eprintln!("wrong reply to {:?}: {reply}", c.line);
                    tally.wrong += 1;
                    None
                }
            }
        }
        Ok((reply, _)) if reply.starts_with("err overloaded") => {
            tally.shed += 1;
            None
        }
        Ok((reply, _)) => {
            eprintln!("error reply to {:?}: {reply}", c.line);
            tally.err += 1;
            None
        }
    }
}

/// The server's `stats` counters.
struct Stats(String);

impl Stats {
    fn fetch(conn: &mut Conn) -> Result<Stats, String> {
        let (reply, _) = conn.call("stats").map_err(|e| format!("stats: {e}"))?;
        if !reply.starts_with("ok stats") {
            return Err(format!("stats: unexpected reply {reply:?}"));
        }
        Ok(Stats(reply))
    }

    fn get(&self, key: &str) -> u64 {
        field(&self.0, key).unwrap_or(f64::NAN) as u64
    }
}

/// A server that is ready for load: its first connection, and what that
/// connection has seen, which its `stats` must match.
struct Live {
    server: Server,
    control: Conn,
    tally: Tally,
}

/// Spawn → first reply → one warm request per class.
fn setup(opts: &Opts) -> Result<(Duration, Live), String> {
    let t0 = Instant::now();
    let mut server = Server::spawn(&opts.serve_bin)?;
    let mut control = server.connect()?;
    let mut tally = Tally::default();
    for class in 0..MIX.len() {
        request(&mut control, class, &mut tally, false);
    }
    let live = Live {
        server,
        control,
        tally,
    };
    Ok((t0.elapsed(), live))
}

fn pick(rng: &mut Rng) -> usize {
    let mut u = rng.unit();
    for (i, c) in MIX.iter().enumerate() {
        if u < c.share {
            return i;
        }
        u -= c.share;
    }
    MIX.len() - 1
}

/// Service counters whose change over the timed phase is reported, and
/// the metric each becomes.
const DELTAS: [(&str, &str); 5] = [
    ("plan_hits", "engine.plan_hits"),
    ("plan_misses", "engine.plan_misses"),
    ("shed", "serve.shed"),
    ("failed", "serve.failed"),
    ("deadline_expired", "serve.deadline_expired"),
];

/// What the timed phase on one server measured.
#[derive(Default)]
struct Segment {
    samples: Vec<Sample>,
    /// Round trips to the mirror.
    mirror_ms: Vec<f64>,
    /// The change of each `DELTAS` counter.
    deltas: [f64; 5],
    peak_mib: f64,
    /// Round trips with the client's delayed ACK left on.
    delayed_ms: Vec<f64>,
}

/// Closed-loop load on `live` for `budget`. Checks the server's counters
/// against the client's tally, then kills it.
fn load(
    live: Live,
    mirror: &Mirror,
    budget: Duration,
    seed: u64,
    delayed_ack: bool,
    clock: &Recorder,
    o: &mut Outcome,
) -> Result<Segment, String> {
    let Live {
        mut server,
        mut control,
        mut tally,
    } = live;
    let before = Stats::fetch(&mut control)?;
    let mut conns = vec![control];
    while conns.len() < CONNECTIONS {
        conns.push(server.connect()?);
    }
    let mut clients = Vec::new();
    for conn in conns {
        let stream = TcpStream::connect(mirror.addr)
            .map_err(|e| format!("connecting to the mirror: {e}"))?;
        clients.push((conn, Conn::new(stream)?));
    }
    let start = Instant::now();
    let base_ns = clock.now_ns();
    // Each client sends a request to ddl-serve, then the same one to the
    // mirror, so both round trips see the same host state.
    let per_conn: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, (mut conn, mut mirror))| {
                let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64));
                s.spawn(move || {
                    let mut out = Client::default();
                    let mut seq = 0;
                    while start.elapsed() < budget {
                        let class = pick(&mut rng);
                        let start_ns = base_ns + start.elapsed().as_nanos() as u64;
                        if let Some((rtt, wall_ms)) =
                            request(&mut conn, class, &mut out.tally, false)
                        {
                            let rtt_ms = rtt.as_secs_f64() * 1e3;
                            out.samples.push(Sample {
                                class,
                                rtt_ms,
                                wall_ms,
                                start_ns,
                                conn: c,
                                seq,
                            });
                        }
                        match mirror.call(MIX[class].line) {
                            Ok((reply, rtt))
                                if field(&reply, "dc") == Some(MIX[class].n as f64) =>
                            {
                                out.mirror_ms.push(rtt.as_secs_f64() * 1e3)
                            }
                            Ok((reply, _)) => out.mirror_errors.push(reply),
                            Err(e) => out.mirror_errors.push(e.to_string()),
                        }
                        seq += 1;
                    }
                    out.conn = Some(conn);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut seg = Segment::default();
    let mut conns = Vec::new();
    for client in per_conn {
        seg.samples.extend(client.samples);
        seg.mirror_ms.extend(client.mirror_ms);
        tally.add(client.tally);
        conns.extend(client.conn);
        if let Some(e) = client.mirror_errors.first() {
            o.problems.push(format!(
                "the mirror failed {} times, first: {e}",
                client.mirror_errors.len()
            ));
        }
    }
    let after = Stats::fetch(&mut conns[0])?;
    for (d, (k, _)) in seg.deltas.iter_mut().zip(DELTAS) {
        *d = after.get(k).saturating_sub(before.get(k)) as f64;
    }

    // Every accepted request was answered, and the server's tally is the
    // client's: the two `stats` requests count as accepted and completed.
    let (accepted, completed, failed, shed) = (
        after.get("accepted"),
        after.get("completed"),
        after.get("failed"),
        after.get("shed"),
    );
    if accepted != completed + failed {
        o.problems.push(format!(
            "server accepted {accepted} != completed {completed} + failed {failed}"
        ));
    }
    let wire = (completed, failed, shed);
    let client = (tally.ok + tally.wrong + 2, tally.err, tally.shed);
    if wire != client || tally.lost > 0 {
        o.problems.push(format!(
            "wire tally (completed, failed, shed) = {wire:?} != client tally {client:?} ({} lost)",
            tally.lost
        ));
    }

    // A client that leaves delayed ACK on, as most do.
    if delayed_ack {
        conns[0].quick_ack = false;
        for _ in 0..DELAYED_ACK_REQUESTS {
            if let Some((rtt, _)) = request(&mut conns[0], 0, &mut tally, false) {
                seg.delayed_ms.push(rtt.as_secs_f64() * 1e3);
            }
        }
    }
    seg.peak_mib = server.peak_rss_mib()?;
    o.attempted += tally.ok + tally.failed();
    o.failed += tally.failed();
    Ok(seg)
}

pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let clock = Recorder::new();
    let mut spans = Spans::default();

    let mut setup_s = Vec::new();
    let mut live = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || setup_start.elapsed() < SETUP_BUDGET {
        drop(live.take());
        let t0 = clock.now_ns();
        let (took, ready) = setup(opts)?;
        let rep = setup_s.len() as f64;
        spans.push("setup", t0, clock.now_ns(), 0, &[("rep", rep)]);
        setup_s.push(took.as_secs_f64());
        live = Some(ready);
    }
    let mut live = live.expect("at least one set-up ran");
    if opts.self_test {
        request(&mut live.control, 0, &mut live.tally, true);
    }

    let mirror = Mirror::start(WORKERS)?;
    let budget = Duration::from_secs_f64(opts.seconds / LOAD_SERVERS as f64);
    let start = Instant::now();
    let first = load(live, &mirror, budget, opts.seed, opts.trace, &clock, &mut o)?;
    let mut segs = vec![first];
    while segs.len() < LOAD_SERVERS {
        let (_, live) = setup(opts)?;
        let seed = opts.seed.wrapping_add((segs.len() as u64) << 32);
        segs.push(load(live, &mirror, budget, seed, false, &clock, &mut o)?);
    }
    let wall = start.elapsed().as_secs_f64();
    drop(mirror);

    let samples: Vec<Sample> = segs.iter_mut().flat_map(|s| s.samples.drain(..)).collect();
    let mirror_ms: Vec<f64> = segs.iter().flat_map(|s| s.mirror_ms.clone()).collect();
    if samples.is_empty() || mirror_ms.is_empty() {
        return Err("no request of the timed phase succeeded".into());
    }
    let rtt: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    o.latencies(&rtt, wall);
    o.extra
        .push(format!("ref_ms_p50 {} ms", median(&mirror_ms)));
    if opts.trace {
        let wall_ms: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
        let overhead: Vec<f64> = samples.iter().map(|s| s.rtt_ms - s.wall_ms).collect();
        o.set("serve.execute_ms_p50", median(&wall_ms));
        o.set("serve.overhead_ms_p50", median(&overhead));
        o.set("serve.overhead_ms_p90", quantile(&overhead, 0.9).0);
        if !segs[0].delayed_ms.is_empty() {
            o.set("serve.delayed_ack_rtt_ms", median(&segs[0].delayed_ms));
        }
        for (k, (_, name)) in DELTAS.iter().enumerate() {
            o.set(name, segs.iter().map(|s| s.deltas[k]).sum());
        }
        for s in &samples {
            let end = s.start_ns + (s.rtt_ms * 1e6) as u64;
            let args = [
                ("seq", s.seq as f64),
                ("class", s.class as f64),
                ("wall_ms", s.wall_ms),
            ];
            spans.push("request", s.start_ns, end, 1 + s.conn as u64, &args);
        }
        if let Err(e) = spans.write(&clock, &opts.out_dir.join(format!("{workload}.trace.json"))) {
            o.problems.push(e);
        }
    } else {
        let peaks: Vec<f64> = segs.iter().map(|s| s.peak_mib).collect();
        let each: Vec<String> = peaks.iter().map(f64::to_string).collect();
        o.extra
            .push(format!("peak_rss_mb_per_server {} MiB", each.join(" ")));
        o.set("setup_s", median(&setup_s));
        o.set("latency_vs_ref", median(&rtt) / median(&mirror_ms));
        o.set("peak_rss_mb", median(&peaks));
    }
    class_report(&samples, &mut o);
    Ok(o)
}

/// What one client thread saw.
#[derive(Default)]
struct Client {
    samples: Vec<Sample>,
    tally: Tally,
    mirror_ms: Vec<f64>,
    /// Wrong or missing replies from the mirror.
    mirror_errors: Vec<String>,
    conn: Option<Conn>,
}

/// Per-class median latency, and the classes whose central 80% of
/// latencies hold the overall p50 and p90. A quantile held by no class
/// sits in a gap between classes, where a small shift in the mix moves it
/// a lot.
fn class_report(samples: &[Sample], o: &mut Outcome) {
    let rtt: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    let (p50, p90) = (median(&rtt), quantile(&rtt, 0.9).0);
    let mut ranges = Vec::new();
    for (i, c) in MIX.iter().enumerate() {
        let rtt: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == i)
            .map(|s| s.rtt_ms)
            .collect();
        if rtt.is_empty() {
            continue;
        }
        o.extra.push(format!(
            "class.{}.latency_ms_p50 {} ms samples={} share={:.3}",
            c.label,
            median(&rtt),
            rtt.len(),
            rtt.len() as f64 / samples.len() as f64
        ));
        ranges.push((c.label, quantile(&rtt, 0.1).0, quantile(&rtt, 0.9).0));
    }
    for (name, q) in [("p50", p50), ("p90", p90)] {
        let holders: Vec<&str> = ranges
            .iter()
            .filter(|(_, lo, hi)| (*lo..=*hi).contains(&q))
            .map(|r| r.0)
            .collect();
        let holders = if holders.is_empty() {
            "none (between classes)".to_string()
        } else {
            holders.join(",")
        };
        o.extra.push(format!("{name}_inside_classes {holders}"));
    }
}
