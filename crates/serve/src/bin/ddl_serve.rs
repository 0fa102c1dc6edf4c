//! `ddl-serve` — line-oriented transform service over TCP or stdin.
//!
//! ```text
//! ddl-serve [--listen ADDR] [--oneshot] [--workers N] [--queue N]
//!           [--deadline-ms K] [--faults SEED:SPECS] [--wisdom PATH]
//!           [--telemetry-out PATH] [--telemetry-interval-ms K]
//!           [--flight-out PATH]
//! ```
//!
//! * `--listen ADDR`   serve newline-delimited requests over TCP
//!   (default `127.0.0.1:4890`); one response line per request line.
//! * `--oneshot`       read requests from stdin, answer on stdout, exit
//!   at EOF. Used by the CI smoke test and handy for piping.
//! * `--workers N`     worker threads (default 2; 0 = serve inline).
//! * `--queue N`       admission queue capacity (default 64); beyond it
//!   requests shed immediately with `err overloaded:`.
//! * `--deadline-ms K` default per-request deadline.
//! * `--faults S:SPECS` arm fault injection, e.g.
//!   `--faults 42:serve.worker.panic=p0.1;serve.queue.full=every@7`.
//! * `--wisdom PATH`   warm the plan cache from a wisdom file.
//! * `--telemetry-out PATH` write the `ddl-telemetry` snapshot to PATH
//!   periodically (see `--telemetry-interval-ms`, default 1000) and
//!   once more on clean shutdown — the final write is quiescent.
//! * `--flight-out PATH` route flight-recorder dumps (JSONL) to PATH;
//!   overrides the `DDL_FLIGHT_OUT` environment variable.
//!
//! Request grammar (see `ddl-serve` crate docs): `plan dft 1024 ddl`,
//! `exec dft 1024 ddl deadline_ms=50`, `exec dft ct(16, ct(16, 16))`,
//! `exec wht 256 sdl`, `stats`, `telemetry`, `telemetry text`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ddl_core::{faultpoint, EngineConfig, Wisdom};
use ddl_serve::{Service, ServiceConfig};

struct Args {
    listen: String,
    oneshot: bool,
    workers: usize,
    queue: usize,
    deadline: Option<Duration>,
    faults: Option<(u64, String)>,
    wisdom: Option<String>,
    telemetry_out: Option<PathBuf>,
    telemetry_interval: Duration,
    flight_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ddl-serve [--listen ADDR] [--oneshot] [--workers N] [--queue N] \
         [--deadline-ms K] [--faults SEED:SPECS] [--wisdom PATH] \
         [--telemetry-out PATH] [--telemetry-interval-ms K] [--flight-out PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:4890".to_string(),
        oneshot: false,
        workers: 2,
        queue: 64,
        deadline: None,
        faults: None,
        wisdom: None,
        telemetry_out: None,
        telemetry_interval: Duration::from_millis(1000),
        flight_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("ddl-serve: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--oneshot" => args.oneshot = true,
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => args.queue = value("--queue").parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms").parse().unwrap_or_else(|_| usage());
                args.deadline = Some(Duration::from_millis(ms));
            }
            "--faults" => {
                let spec = value("--faults");
                let (seed, rules) = spec.split_once(':').unwrap_or_else(|| {
                    eprintln!("ddl-serve: --faults wants SEED:SPECS");
                    usage()
                });
                let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
                args.faults = Some((seed, rules.to_string()));
            }
            "--wisdom" => args.wisdom = Some(value("--wisdom")),
            "--telemetry-out" => args.telemetry_out = Some(PathBuf::from(value("--telemetry-out"))),
            "--telemetry-interval-ms" => {
                let ms: u64 = value("--telemetry-interval-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                args.telemetry_interval = Duration::from_millis(ms.max(1));
            }
            "--flight-out" => args.flight_out = Some(PathBuf::from(value("--flight-out"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("ddl-serve: unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn serve_connection(svc: &Service, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    match stream.try_clone() {
        Ok(writer) => serve_stream(svc, BufReader::new(stream), writer),
        Err(e) => eprintln!("ddl-serve: [{peer}] clone failed: {e}"),
    }
}

/// Answers each non-blank request line with one response line. The line
/// and its `\n` go out in a single `write_all`: on an unbuffered socket,
/// `writeln!` would send two segments, and Nagle would then hold the
/// second until a delayed-ACK client acknowledged the first (~40 ms).
fn serve_stream<R: BufRead, W: Write>(svc: &Service, reader: R, mut writer: W) {
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let mut response = svc.handle(&line);
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    // Fault injection stays armed for the process lifetime: leak the
    // guard so it is not disarmed on drop.
    if let Some((seed, rules)) = &args.faults {
        match faultpoint::parse_specs(rules) {
            Ok(specs) => {
                std::mem::forget(faultpoint::arm_specs(*seed, &specs));
                eprintln!("ddl-serve: faults armed (seed {seed}): {rules}");
            }
            Err(e) => {
                eprintln!("ddl-serve: bad --faults: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let svc = Service::start(ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        default_deadline: args.deadline,
        engine: EngineConfig::default(),
    });

    if let Some(path) = &args.flight_out {
        svc.set_flight_out(Some(path.clone()));
        eprintln!("ddl-serve: flight dumps -> {}", path.display());
    }

    // The periodic snapshot thread is a plain best-effort writer; the
    // final (quiescent) snapshot is written on the main path after the
    // serving loop ends.
    let telemetry_stop = Arc::new(AtomicBool::new(false));
    let telemetry_writer = args.telemetry_out.as_ref().map(|path| {
        let svc = svc.clone();
        let path = path.clone();
        let stop = Arc::clone(&telemetry_stop);
        let interval = args.telemetry_interval;
        std::thread::Builder::new()
            .name("ddl-serve-telemetry".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    if let Err(e) = svc.write_telemetry(&path) {
                        eprintln!("ddl-serve: telemetry write failed: {e}");
                    }
                }
            })
    });
    let finish_telemetry = |svc: &Service| {
        telemetry_stop.store(true, Ordering::Release);
        if let Some(Ok(h)) = telemetry_writer {
            let _ = h.join();
        }
        if let Some(path) = &args.telemetry_out {
            match svc.write_telemetry(path) {
                Ok(()) => eprintln!("ddl-serve: telemetry snapshot -> {}", path.display()),
                Err(e) => eprintln!("ddl-serve: telemetry write failed: {e}"),
            }
        }
    };

    if let Some(path) = &args.wisdom {
        match Wisdom::load(std::path::Path::new(path)) {
            Ok(wisdom) => {
                let cached = svc.engine().warm_from_wisdom(&wisdom);
                let quarantined = wisdom.quarantined().len();
                eprintln!(
                    "ddl-serve: warmed {cached} plan(s) from {path} \
                     ({quarantined} corrupt entr(ies) quarantined)"
                );
            }
            Err(e) => {
                // Degrade, don't die: a corrupt wisdom file costs the
                // warm cache, not the service.
                eprintln!("ddl-serve: wisdom load failed ({e}); starting cold");
            }
        }
    }

    if args.oneshot {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            println!("{}", svc.handle(&line));
        }
        svc.shutdown();
        // Workers are joined: this snapshot is the quiescent one the CI
        // conservation gate checks.
        finish_telemetry(&svc);
        return ExitCode::SUCCESS;
    }

    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ddl-serve: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ddl-serve: listening on {}", args.listen);
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let svc = svc.clone();
                // Connection threads are best-effort: a failed spawn
                // drops this connection but the listener keeps going.
                let spawned = std::thread::Builder::new()
                    .name("ddl-serve-conn".to_string())
                    .spawn(move || serve_connection(&svc, stream));
                if let Err(e) = spawned {
                    eprintln!("ddl-serve: connection thread spawn failed: {e}");
                }
            }
            Err(e) => eprintln!("ddl-serve: accept failed: {e}"),
        }
    }
    finish_telemetry(&svc);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call separately.
    #[derive(Default)]
    struct SegmentWriter {
        segments: Vec<Vec<u8>>,
    }

    impl Write for SegmentWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.segments.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_is_one_write_ending_in_newline() {
        let svc = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        let requests = "exec dft 64 ddl\n\nbogus\nexec wht 16 sdl\n";
        let mut out = SegmentWriter::default();
        serve_stream(&svc, requests.as_bytes(), &mut out);
        svc.shutdown();
        assert_eq!(out.segments.len(), 3, "one write per non-blank request");
        for seg in &out.segments {
            let text = std::str::from_utf8(seg).unwrap();
            assert!(text.ends_with('\n'), "{text:?}");
            assert_eq!(text.matches('\n').count(), 1, "{text:?}");
        }
        assert!(out.segments[0].starts_with(b"ok exec dft n=64"));
        assert!(out.segments[1].starts_with(b"err "));
        assert!(out.segments[2].starts_with(b"ok exec wht n=16"));
    }
}
