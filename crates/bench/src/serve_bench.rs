//! C1: the resident service (`strand-serve`) under concurrent TCP load.
//!
//! Each burst hammers a freshly booted doubler service over **loopback
//! TCP** with a swarm of concurrent synthetic clients — every client is a
//! real connection (hence a real session) issuing a fixed number of
//! requests and validating every reply. Three questions per burst:
//!
//! * **completeness** — `lost` must be 0: every admitted request got its
//!   `OK` reply (BUSY backpressure answers are retried, and the retries
//!   are counted separately — a retry is not a loss).
//! * **latency/throughput** — p50/p99 round-trip microseconds over all
//!   requests, and completed requests per second over the burst wall time.
//! * **residency** — after the burst drains the engine must have *parked*
//!   (`idle_parks > 0`), not terminated, and its collections must have
//!   reclaimed store slots (`vars_reclaimed > 0`), which is what bounds a
//!   long-lived process. Both come from the service's own merged metrics,
//!   as do the collection count and the longest collection.
//!
//! `motif-bench c1-serve` runs 16, 256 and 1000 clients, plain and under
//! `Supervise ∘ Server`. One run is one sample: the latency columns show
//! the shape, not a figure to compare across commits (`perfbench`'s
//! `serve-*` workloads are the timed protocol). `tests/serve.rs` gates
//! completeness and residency on a live 256-connection burst.

use crate::table::Table;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use strand_machine::Metrics;
use strand_serve::{serve, MotifService, ServeBackend, ServeConfig, DOUBLER_APP};

/// Drive one client connection: `count` requests of `value`, validating
/// the doubled reply. Returns (latencies µs, completed, busy retries).
fn client_burst(addr: std::net::SocketAddr, start: &Barrier, count: u64) -> (Vec<u64>, u64, u64) {
    let stream = TcpStream::connect(addr).expect("connect to serve loop");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set client timeout");
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    start.wait();
    let mut latencies = Vec::with_capacity(count as usize);
    let mut completed = 0u64;
    let mut busy = 0u64;
    for k in 0..count {
        let value = 3 + k as i64;
        let want = format!("OK {}", value * 2);
        let t0 = Instant::now();
        // Honest load-test protocol: BUSY answers are backpressure, not
        // failure — wait the advertised delay and retry, still charging
        // the full wait to this request's latency.
        let mut tries = 0;
        loop {
            let frame = format!("{value}\n");
            if writer
                .write_all(frame.as_bytes())
                .and_then(|_| writer.flush())
                .is_err()
            {
                return (latencies, completed, busy);
            }
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    let line = line.trim();
                    if line == want {
                        latencies.push(t0.elapsed().as_micros() as u64);
                        completed += 1;
                        break;
                    }
                    if let Some(ms) = line.strip_prefix("BUSY ") {
                        busy += 1;
                        tries += 1;
                        if tries > 100 {
                            break; // charge it as lost
                        }
                        let ms: u64 = ms.parse().unwrap_or(10);
                        std::thread::sleep(Duration::from_millis(ms.max(1)));
                        continue;
                    }
                    break; // ERR or a wrong value: lost
                }
                _ => return (latencies, completed, busy),
            }
        }
    }
    (latencies, completed, busy)
}

/// One C1 burst, measured by the clients and by the service's own
/// post-drain metrics.
#[derive(Debug)]
pub struct BurstPoint {
    pub supervised: bool,
    /// Worker threads of the fleet (host parallelism).
    pub threads: usize,
    pub clients: u64,
    /// Clients × requests per client.
    pub requests: u64,
    /// Requests answered `OK` with the correct value.
    pub completed: u64,
    /// `requests - completed`: the zero-loss bar.
    pub lost: u64,
    /// `BUSY` answers absorbed by client retries.
    pub busy_retries: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub throughput_rps: f64,
    /// Times the engine parked at global quiescence instead of exiting:
    /// nonzero proves the service went idle, not terminated.
    pub idle_parks: u64,
    /// Store slots the collections freed: nonzero proves bounded growth.
    pub vars_reclaimed: u64,
    /// Collections the fleet finished, and the longest one in µs.
    pub collections: u64,
    pub collect_us_max: u64,
    pub sessions_closed: u64,
    /// The engine error the service shut down with, if any; the three
    /// metrics above then read 0.
    pub error: Option<String>,
}

/// Run one burst of `clients` concurrent connections, `per_client`
/// requests each, against a fresh resident doubler service. `supervise`
/// composes `Supervise` over the servers, so every request rides an acked
/// `rsend` and the heartbeat/retransmit deadlines live on the wall-clock
/// timer wheel.
pub fn burst(clients: u64, per_client: u64, supervise: bool) -> BurstPoint {
    let cfg = ServeConfig {
        servers: 4,
        backend: ServeBackend::Parallel(0),
        supervise,
        ..ServeConfig::default()
    };
    let service = MotifService::start(DOUBLER_APP, cfg).expect("service boots");
    let threads = service.threads();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("ephemeral addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("serve-bench".to_string())
            .spawn(move || serve(listener, service, shutdown, Duration::from_secs(30)))
            .expect("spawn serve loop")
    };

    // Per-client outcome: (latencies µs, completed, busy retries).
    type ClientResult = (Vec<u64>, u64, u64);
    let start = Arc::new(Barrier::new(clients as usize + 1));
    let results: Arc<Mutex<Vec<ClientResult>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..clients {
        let start = Arc::clone(&start);
        let results = Arc::clone(&results);
        handles.push(
            std::thread::Builder::new()
                .name("serve-client".to_string())
                .stack_size(128 * 1024)
                .spawn(move || {
                    let r = client_burst(addr, &start, per_client);
                    results.lock().unwrap_or_else(|e| e.into_inner()).push(r);
                })
                .expect("spawn client"),
        );
    }
    start.wait();
    let t0 = Instant::now();
    for h in handles {
        let _ = h.join();
    }
    let wall = t0.elapsed();
    shutdown.store(true, Ordering::Release);
    let (m, error) = match serve_thread.join().expect("serve loop joins") {
        Ok(summary) => (summary.report.metrics, None),
        Err(e) => (Metrics::default(), Some(e.to_string())),
    };

    let results = results.lock().unwrap_or_else(|e| e.into_inner());
    let mut latencies: Vec<u64> = results
        .iter()
        .flat_map(|(l, _, _)| l.iter().copied())
        .collect();
    latencies.sort_unstable();
    let completed: u64 = results.iter().map(|(_, c, _)| c).sum();
    let busy_retries: u64 = results.iter().map(|(_, _, b)| b).sum();
    let requests = clients * per_client;
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx]
    };
    BurstPoint {
        supervised: supervise,
        threads,
        clients,
        requests,
        completed,
        lost: requests - completed,
        busy_retries,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        throughput_rps: completed as f64 / wall.as_secs_f64().max(1e-9),
        idle_parks: m.idle_parks,
        vars_reclaimed: m.vars_reclaimed,
        collections: m.collections,
        collect_us_max: m.collect_us_max,
        sessions_closed: m.sessions_closed,
        error,
    }
}

/// C1: 16, 256 and 1000 concurrent clients, plain and supervised.
pub fn c1_serve() -> Table {
    let mut t = Table::new(
        "C1: resident service under concurrent loopback TCP load",
        &[
            "scenario",
            "threads",
            "clients",
            "requests",
            "lost",
            "busy retries",
            "p50 us",
            "p99 us",
            "req/s",
            "idle parks",
            "collections",
            "collect us max",
            "vars reclaimed",
            "sessions closed",
            "error",
        ],
    );
    let mut errors = Vec::new();
    for supervise in [false, true] {
        for (clients, per_client) in [(16, 20), (256, 10), (1000, 5)] {
            let p = burst(clients, per_client, supervise);
            t.row(vec![
                if p.supervised { "supervised" } else { "plain" }.to_string(),
                p.threads.to_string(),
                p.clients.to_string(),
                p.requests.to_string(),
                p.lost.to_string(),
                p.busy_retries.to_string(),
                p.p50_us.to_string(),
                p.p99_us.to_string(),
                format!("{:.0}", p.throughput_rps),
                p.idle_parks.to_string(),
                p.collections.to_string(),
                p.collect_us_max.to_string(),
                p.vars_reclaimed.to_string(),
                p.sessions_closed.to_string(),
                if p.error.is_some() { "yes" } else { "-" }.to_string(),
            ]);
            if let Some(e) = p.error {
                let e: String = e.chars().take(72).collect();
                errors.push(format!("{} clients: {e}", p.clients));
            }
        }
    }
    t.note("lost must be 0 and sessions closed must equal clients; a BUSY");
    t.note("answer is retried after its hint and counted, not lost.");
    t.note("supervised = Supervise o Server: acked sends, wall-clock heartbeats.");
    for e in errors {
        t.note(format!("engine error at {e}"));
    }
    t
}
