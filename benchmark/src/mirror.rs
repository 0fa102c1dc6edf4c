//! A stand-in for `ddl-serve` that the benchmark owns, used as the
//! reference serve-mix divides by. It answers the same request lines with
//! the same thread hand-offs (a thread per connection queues each request
//! for a worker pool and waits for its reply), and runs the oracle
//! transforms as the work. Timed alternately with `ddl-serve`, it sees the
//! same host state, so the ratio of their round trips leaves the host out.

use crate::oracle;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};

/// A request line and where its reply goes.
type Job = (String, mpsc::Sender<String>);

/// The running stand-in; dropping it stops and joins every thread, once
/// its clients have closed their connections.
pub struct Mirror {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Mirror {
    pub fn start(workers: usize) -> Result<Mirror, String> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))
            .map_err(|e| format!("binding the mirror: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("binding the mirror: {e}"))?;
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let pool: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || work(&queue))
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let accept = thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let jobs = jobs.clone();
                    conns.push(thread::spawn(move || serve(stream, &jobs)));
                }
            }
            drop(jobs);
            for t in conns.into_iter().chain(pool) {
                let _ = t.join();
            }
        });
        Ok(Mirror {
            addr,
            stop,
            accept: Some(accept),
        })
    }
}

impl Drop for Mirror {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wakes the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

fn serve(stream: TcpStream, jobs: &mpsc::Sender<Job>) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let (reply, answer) = mpsc::channel();
        if jobs.send((line, reply)).is_err() {
            return;
        }
        let Ok(answer) = answer.recv() else { return };
        if writer.write_all(format!("{answer}\n").as_bytes()).is_err() {
            return;
        }
    }
}

fn work(queue: &Mutex<mpsc::Receiver<Job>>) {
    // Twiddles per size, as the engine caches compiled plans per size.
    let mut twiddles: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    loop {
        let job = match queue.lock() {
            Ok(q) => q.recv(),
            Err(_) => return,
        };
        let Ok((line, reply)) = job else { return };
        let _ = reply.send(answer(&line, &mut twiddles));
    }
}

/// Runs `exec dft N …`, `exec wht N …` or `exec dft <tree>` on an all-ones
/// input and replies with the DC value, which is N. A tree is compiled
/// afresh every time: its size is the product of its factors.
fn answer(line: &str, twiddles: &mut HashMap<usize, Vec<(f64, f64)>>) -> String {
    let mut words = line.split_whitespace().skip(1);
    let kind = words.next().unwrap_or("");
    let rest: Vec<&str> = words.collect();
    let size = rest.first().and_then(|w| w.parse::<usize>().ok());
    let n = size.unwrap_or_else(|| {
        rest.join(" ")
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|d| d.parse::<usize>().ok())
            .product()
    });
    if !n.is_power_of_two() {
        return format!("err size {n}");
    }
    let dc = match kind {
        "dft" => {
            let mut a = vec![(1.0, 0.0); n];
            if size.is_some() {
                let tw = twiddles.entry(n).or_insert_with(|| oracle::twiddles(n));
                oracle::dft_in_place(&mut a, tw);
            } else {
                oracle::dft_in_place(&mut a, &oracle::twiddles(n));
            }
            a[0].0
        }
        "wht" => oracle::wht(&vec![1.0; n])[0],
        other => return format!("err kind {other:?}"),
    };
    format!("ok dc={dc}")
}
