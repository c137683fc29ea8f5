//! The serve workloads: what a client of the resident `strand-serve` pays
//! per request (or per connection), over loopback TCP, closed loop — the
//! line protocol allows one outstanding request per connection, so each
//! client sends its next request only after the previous reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strand_core::{SplitMix64, StrandResult};
use strand_machine::Metrics;
use strand_serve::{
    serve, MotifService, Response, ServeBackend, ServeConfig, ServeSummary, DOUBLER_APP,
};

use crate::metrics::{set_machine_counts, Measured, Op, Untraced, Values, PER_LAYER};
use crate::stats::{cpu_ms, peak_rss_mb, percentile, us};
use crate::trace::{self_times, Span, Tracer};
use crate::{alloc_count, probes};

/// Client threads (= connections in flight): the host's two cores, shared
/// with the two engine threads behind the service.
pub const CLIENTS: usize = 2;
const ENGINE_THREADS: u32 = 2;
const SERVERS: u32 = 4;
/// Requests per `serve-churn` session: enough that a session is more than
/// its connect, few enough that open/close/reclaim stay a large share.
const SESSION_REQUESTS: usize = 4;
/// Requests per in-process session of the traced run.
const INPROC_SESSION_REQUESTS: usize = 50;

#[derive(Clone, Copy)]
pub struct ServeCase {
    supervise: bool,
    churn: bool,
}

impl ServeCase {
    pub fn named(workload: &str) -> ServeCase {
        ServeCase {
            supervise: workload == "serve-supervised",
            churn: workload == "serve-churn",
        }
    }

    fn config(self) -> ServeConfig {
        ServeConfig {
            servers: SERVERS,
            backend: ServeBackend::Parallel(ENGINE_THREADS),
            supervise: self.supervise,
            ..ServeConfig::default()
        }
    }
}

/// A booted service behind its accept loop.
struct Service {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<StrandResult<ServeSummary>>,
    boot_ms: f64,
}

fn boot(case: ServeCase) -> Service {
    let t0 = Instant::now();
    let service = MotifService::start(DOUBLER_APP, case.config()).expect("service boots");
    let boot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("perfbench-serve".to_string())
        .spawn(move || serve(listener, service, flag, Duration::from_secs(30)))
        .expect("spawn accept loop");
    Service {
        addr,
        shutdown,
        thread,
        boot_ms,
    }
}

impl Service {
    /// Graceful stop; the merged engine metrics, serve counters included.
    fn stop(self) -> Result<Metrics, String> {
        self.shutdown.store(true, Ordering::Release);
        match self.thread.join() {
            Ok(Ok(summary)) => Ok(summary.report.metrics),
            Ok(Err(e)) => Err(format!("serve loop: {e}")),
            Err(_) => Err("serve loop panicked".to_string()),
        }
    }
}

/// One client connection (= one session on the service).
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    /// Each correct operation (request, or whole session).
    ops: Vec<Op>,
    /// Round trip of every correctly answered request.
    request_ns: Vec<u64>,
    /// Connect → first correct reply, per session.
    first_reply_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Request lines sent for the first time (`BUSY` retries not counted).
    requests: u64,
    busy: u64,
    /// Connections made, each a session on the service.
    sessions: u64,
}

impl ClientOut {
    fn absorb(&mut self, other: ClientOut) {
        self.ops.extend(other.ops);
        self.request_ns.extend(other.request_ns);
        self.first_reply_ns.extend(other.first_reply_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.requests += other.requests;
        self.busy += other.busy;
        self.sessions += other.sessions;
    }
}

struct Client {
    rng: SplitMix64,
    epoch: Instant,
    tr: Tracer,
    out: ClientOut,
    next_id: u64,
}

impl Client {
    fn new(seed: u64, lane: u64, traced: bool, epoch: Instant) -> Client {
        Client {
            rng: SplitMix64::new(seed ^ (lane << 32)),
            epoch,
            tr: Tracer::new(traced, epoch, lane),
            out: ClientOut::default(),
            next_id: lane << 40,
        }
    }

    fn connect(&mut self, addr: SocketAddr) -> std::io::Result<Conn> {
        let conn = Conn::connect(addr)?;
        self.out.sessions += 1;
        Ok(conn)
    }

    /// One request round trip: a seeded integer out, `OK <2v>` back. The
    /// reference is `2·v`, computed here. `BUSY` is backpressure, not
    /// failure: wait the advertised delay and retry, charging the wait to
    /// this request; a hundred retries exhaust it.
    fn request(&mut self, conn: &mut Conn, parent: u64) -> bool {
        let value = self.rng.next_below(1_000_000_000) as i64;
        let frame = format!("{value}\n");
        let want = format!("OK {}", value * 2);
        self.next_id += 1;
        let id = self.next_id;
        self.out.requests += 1;
        let t0 = Instant::now();
        let root = self.tr.begin("request", parent, id);
        let mut ok = false;
        for _ in 0..100 {
            let wrote = self.tr.span("client.write", root, id, || {
                conn.writer.write_all(frame.as_bytes())
            });
            if wrote.is_err() {
                break;
            }
            conn.line.clear();
            let read = self.tr.span("client.read_wait", root, id, || {
                conn.reader.read_line(&mut conn.line)
            });
            if !read.is_ok_and(|n| n > 0) {
                break;
            }
            let reply = conn.line.trim_end();
            if let Some(hint) = reply.strip_prefix("BUSY ") {
                self.out.busy += 1;
                let wait_ms: u64 = hint.parse().unwrap_or(10);
                std::thread::sleep(Duration::from_millis(wait_ms.max(1)));
                continue;
            }
            ok = reply == want;
            break;
        }
        self.tr.end(root);
        if ok {
            self.out.request_ns.push(t0.elapsed().as_nanos() as u64);
        }
        ok
    }

    /// `serve-steady` / `serve-supervised`: one operation is one request
    /// on a persistent connection.
    fn steady_op(&mut self, conn: &mut Conn) {
        self.out.attempted += 1;
        if self.request(conn, 0) {
            let ns = *self.out.request_ns.last().expect("just pushed");
            self.done(ns);
        } else {
            self.out.failed += 1;
        }
    }

    /// `serve-churn`: one operation is connect → requests → close.
    fn session_op(&mut self, addr: SocketAddr) {
        self.out.attempted += 1;
        self.next_id += 1;
        let id = self.next_id;
        let t0 = Instant::now();
        let root = self.tr.begin("session", 0, id);
        let connect = self.tr.begin("client.connect", root, id);
        let conn = self.connect(addr);
        self.tr.end(connect);
        let mut ok = conn.is_ok();
        if let Ok(mut conn) = conn {
            for k in 0..SESSION_REQUESTS {
                ok &= self.request(&mut conn, root);
                if !ok {
                    break;
                }
                if k == 0 {
                    self.out.first_reply_ns.push(t0.elapsed().as_nanos() as u64);
                }
            }
            // Dropping the connection is the protocol's close: the service
            // reads EOF and reclaims the session.
        }
        self.tr.end(root);
        if ok {
            self.done(t0.elapsed().as_nanos() as u64);
        } else {
            self.out.failed += 1;
        }
    }

    fn done(&mut self, ns: u64) {
        self.out.ops.push(Op {
            done_ns: self.epoch.elapsed().as_nanos() as u64,
            ns,
        });
    }
}

/// Running totals of what the clients did to one service, for the audit
/// against the service's own counters when it stops.
#[derive(Default)]
struct Books {
    attempted: u64,
    failed: u64,
    sessions: u64,
    replies: u64,
}

impl Books {
    fn note(&mut self, out: &ClientOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.sessions += out.sessions;
        self.replies += out.request_ns.len() as u64;
    }
}

/// A service that is up, connected to and warm.
struct Ready {
    service: Service,
    /// The persistent connections (none for `serve-churn`).
    conns: Vec<Conn>,
    books: Books,
}

/// Sequential operations through the clients' connections (or as
/// sessions, on `serve-churn`), outside any timed window.
fn drive(case: ServeCase, ready: &mut Ready, seed: u64, ops_per_client: usize) {
    let mut client = Client::new(seed, 0xFF, false, Instant::now());
    if case.churn {
        for _ in 0..ops_per_client * CLIENTS {
            client.session_op(ready.service.addr);
        }
    }
    for conn in &mut ready.conns {
        for _ in 0..ops_per_client {
            client.steady_op(conn);
        }
    }
    ready.books.note(&client.out);
}

/// Set up once: boot the service, open the accept loop, connect the
/// clients and push a little traffic through, so the server loops, the
/// connection threads and the allocator are past their first-use costs.
fn set_up(case: ServeCase, seed: u64) -> Ready {
    let service = boot(case);
    let mut connector = Client::new(seed, 0xFD, false, Instant::now());
    let conns = if case.churn {
        Vec::new()
    } else {
        (0..CLIENTS)
            .map(|_| {
                connector
                    .connect(service.addr)
                    .expect("connect to the service")
            })
            .collect()
    };
    let mut ready = Ready {
        service,
        conns,
        books: Books::default(),
    };
    ready.books.note(&connector.out);
    let warm_up = match (case.churn, case.supervise) {
        (true, _) => 10,
        (false, true) => 50,
        (false, false) => 200,
    };
    drive(case, &mut ready, seed, warm_up);
    ready
}

/// A fixed amount of traffic between set-up and the timed window, so that
/// the memory reading taken after it is at a stated load: on an open
/// session the store grows with every request, and `serve()` keeps a
/// handle per connection ever made.
fn ramp(case: ServeCase, ready: &mut Ready, seed: u64) {
    let ops_per_client = match (case.churn, case.supervise) {
        (true, _) => 200,
        (false, true) => 300,
        (false, false) => 2_000,
    };
    drive(case, ready, seed, ops_per_client);
}

/// What a timed window leaves behind.
struct Window {
    out: ClientOut,
    cpu_ms: f64,
    spans: Vec<Span>,
}

impl Window {
    fn measured(&self) -> Measured {
        Measured {
            ops: self.out.ops.clone(),
            cpu_ms: self.cpu_ms,
            attempted: self.out.attempted,
            failed: self.out.failed,
        }
    }
}

/// Drive the service from `CLIENTS` threads for `window`.
fn timed_window(
    case: ServeCase,
    ready: &mut Ready,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Window {
    let addr = ready.service.addr;
    let start = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    let mut conns: Vec<Option<Conn>> = ready.conns.drain(..).map(Some).collect();
    conns.resize_with(CLIENTS, || None);
    assert!(conns.iter().all(|c| c.is_none() == case.churn));
    let (clients, cpu) = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, mut conn)| {
                let start = &start;
                scope.spawn(move || {
                    let mut client = Client::new(seed, lane as u64 + 1, traced, epoch);
                    start.wait();
                    let t0 = Instant::now();
                    while t0.elapsed() < window {
                        match &mut conn {
                            Some(conn) => client.steady_op(conn),
                            None => client.session_op(addr),
                        }
                    }
                    (client, conn)
                })
            })
            .collect();
        start.wait();
        let cpu0 = cpu_ms();
        let clients: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        (clients, cpu_ms() - cpu0)
    });
    let mut w = Window {
        out: ClientOut::default(),
        cpu_ms: cpu,
        spans: Vec::new(),
    };
    for (client, conn) in clients {
        w.out.absorb(client.out);
        w.spans.extend(client.tr.spans);
        ready.conns.extend(conn);
    }
    ready.books.note(&w.out);
    w
}

/// Close the clients, stop the service and audit its books: every session
/// opened was closed and reclaimed, every correct reply was an admitted
/// request. Returns the service metrics with the operations attempted and
/// failed over the service's life, discrepancies counted as failures.
fn tear_down(ready: Ready) -> (Metrics, u64, u64) {
    let books = ready.books;
    drop(ready.conns);
    let (metrics, leaked) = match ready.service.stop() {
        Ok(m) => {
            let leaked = m.sessions_opened.abs_diff(m.sessions_closed)
                + m.sessions_opened.abs_diff(books.sessions)
                + books.replies.saturating_sub(m.requests_admitted)
                + u64::from(m.vars_reclaimed == 0);
            (m, leaked)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            (Metrics::default(), 1)
        }
    };
    if leaked > 0 {
        eprintln!(
            "perfbench: audit failed: clients saw {} sessions / {} replies, service counted \
             {} opened / {} closed / {} admitted, {} slots reclaimed",
            books.sessions,
            books.replies,
            metrics.sessions_opened,
            metrics.sessions_closed,
            metrics.requests_admitted,
            metrics.vars_reclaimed
        );
    }
    (metrics, books.attempted, books.failed + leaked)
}

/// Set-up repeats before and after the timed window (see
/// `batch::SETUPS_BEFORE`); each but the measured one is torn down and
/// audited like it.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

pub fn run_untraced(case: ServeCase, seed: u64, seconds: f64) -> Untraced {
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut timed_set_up = || {
        let t0 = Instant::now();
        let ready = set_up(case, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready
    };
    let mut audited_tear_down = |ready: Ready| {
        let (_, a, f) = tear_down(ready);
        attempted += a;
        failed += f;
    };
    let mut ready = timed_set_up();
    for _ in 1..SETUPS_BEFORE {
        audited_tear_down(ready);
        ready = timed_set_up();
    }
    ramp(case, &mut ready, seed);
    let rss_mb = peak_rss_mb();
    let window = Duration::from_secs_f64(seconds);
    let mut measured = timed_window(case, &mut ready, seed, window, false).measured();
    audited_tear_down(ready);
    for _ in 0..SETUPS_AFTER {
        audited_tear_down(timed_set_up());
    }
    measured.attempted = attempted;
    measured.failed = failed;
    Untraced {
        measured,
        setup_s,
        rss_mb,
    }
}

pub fn run_traced(case: ServeCase, seed: u64, seconds: f64) -> (Measured, Values, Vec<Span>) {
    // Each window gets a service of its own: on the supervised path
    // latency climbs with the age of the session, so a second window on
    // the same connections would read slower whether traced or not.
    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let mut ready = set_up(case, seed);
    let plain = timed_window(case, &mut ready, seed, quarter, false);
    let (_, plain_attempted, plain_failed) = tear_down(ready);
    let mut ready = set_up(case, seed);
    let boot_ms = ready.service.boot_ms;
    let mut traced = timed_window(case, &mut ready, seed, quarter, true);
    if !case.churn {
        // The steady workloads never connect inside their window; take the
        // connect → first reply figure from a few sessions afterwards.
        let mut client = Client::new(seed, 0xFE, false, Instant::now());
        for _ in 0..100 {
            client.session_op(ready.service.addr);
        }
        ready.books.note(&client.out);
        traced.out.first_reply_ns = client.out.first_reply_ns;
    }
    let (m, attempted, failed) = tear_down(ready);

    let mut v = Values::new(PER_LAYER);
    probes::layer_floor(&mut v);
    probes::wake_park(&mut v);
    probes::loopback_echo(&mut v, CLIENTS);
    v.set("serve.boot_ms", boot_ms);
    v.set("trace.spans", traced.spans.len() as f64);
    let mut measured = traced.measured();
    let untraced = plain.measured();
    v.set(
        "trace.overhead_ratio",
        measured.op_ms(0.50) / untraced.op_ms(0.50),
    );
    v.set("op_ms_p90", untraced.op_ms(0.90));
    v.set("cpu_ms_per_op", untraced.cpu_ms_per_op());
    let ops = measured.ops.len().max(1) as f64;
    let selfs = self_times(&traced.spans);
    let mean_us = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |(ns, count)| *ns / *count as f64 / 1e3)
    };
    let root = if case.churn { "session" } else { "request" };
    v.set(
        "trace.root_self_us",
        selfs.get(root).map_or(0.0, |(ns, _)| *ns / ops / 1e3),
    );
    v.set("client.write_us", mean_us("client.write"));
    v.set("client.read_wait_us", mean_us("client.read_wait"));

    traced.out.request_ns.sort_unstable();
    traced.out.first_reply_ns.sort_unstable();
    let request_ns = &traced.out.request_ns;
    v.set("serve.latency_us_p50", us(percentile(request_ns, 0.50)));
    v.set("serve.latency_us_p99", us(percentile(request_ns, 0.99)));
    v.set("serve.latency_us_p999", us(percentile(request_ns, 0.999)));
    v.set(
        "serve.connect_first_reply_us_p50",
        us(percentile(&traced.out.first_reply_ns, 0.50)),
    );
    v.set(
        "serve.busy_ratio",
        (plain.out.busy + traced.out.busy) as f64
            / (plain.out.requests + traced.out.requests) as f64,
    );

    // Counts over the traced service's whole life, warm-up included.
    let admitted = m.requests_admitted as f64;
    set_machine_counts(&mut v, &m, admitted);
    v.set(
        "serve.idle_parks_per_request",
        m.idle_parks as f64 / admitted,
    );
    v.set(
        "serve.vars_reclaimed_per_session",
        m.vars_reclaimed as f64 / m.sessions_closed as f64,
    );
    v.set(
        "serve.timers_armed_per_request",
        m.timers_armed as f64 / admitted,
    );
    v.set(
        "serve.timers_cancelled_ratio",
        m.timers_cancelled as f64 / m.timers_armed as f64,
    );

    let (inproc_attempted, inproc_failed) = in_process(case, seed, &mut v);
    v.set(
        "serve.socket_overhead_us",
        v.get("serve.latency_us_p50") - v.get("serve.request_inproc_us_p50"),
    );

    measured.attempted = plain_attempted + attempted + inproc_attempted;
    measured.failed = plain_failed + failed + inproc_failed;
    (measured, v, traced.spans)
}

/// The service with no sockets in the way: `MotifService::request` called
/// directly from the client threads, then bare session open/close. Also
/// the one place the store's size can be read: closed sessions must leave
/// it bounded by what the first few needed. Returns requests attempted and
/// failures.
fn in_process(case: ServeCase, seed: u64, v: &mut Values) -> (u64, u64) {
    let sessions_per_client = if case.supervise { 10 } else { 100 };
    let service = MotifService::start(DOUBLER_APP, case.config()).expect("service boots");
    let run_sessions = |count: usize, lane: u64| -> (Vec<u64>, u64) {
        let mut rng = SplitMix64::new(seed ^ (lane << 32));
        let (mut ns, mut failed) = (Vec::new(), 0);
        for _ in 0..count {
            let session = service.open_session();
            for _ in 0..INPROC_SESSION_REQUESTS {
                let value = rng.next_below(1_000_000_000) as i64;
                let t0 = Instant::now();
                let reply = service.request(session, &value.to_string());
                if reply == Response::Ok((value * 2).to_string()) {
                    ns.push(t0.elapsed().as_nanos() as u64);
                } else {
                    failed += 1;
                }
            }
            service.close_session(session);
        }
        (ns, failed)
    };
    let both = |count: usize| -> (Vec<u64>, u64) {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|lane| scope.spawn(move || run_sessions(count, lane as u64)))
                .collect();
            workers.into_iter().fold((Vec::new(), 0), |mut acc, w| {
                let (ns, failed) = w.join().expect("in-process client");
                acc.0.extend(ns);
                acc.1 += failed;
                acc
            })
        })
    };

    const WARM_SESSIONS: usize = 10;
    let (_, mut failed) = both(WARM_SESSIONS);
    assert!(service.wait_idle(Duration::from_secs(30)), "never idled");
    let high_water = service.store_len();

    alloc_count::enable(true);
    let allocs0 = alloc_count::total();
    let (mut ns, run_failed) = both(sessions_per_client);
    let allocs = alloc_count::total() - allocs0;
    alloc_count::enable(false);
    failed += run_failed;
    ns.sort_unstable();
    v.set("serve.request_inproc_us_p50", us(percentile(&ns, 0.50)));
    v.set("serve.request_inproc_us_p99", us(percentile(&ns, 0.99)));

    const OPEN_CLOSE: u32 = 1_000;
    let t0 = Instant::now();
    for _ in 0..OPEN_CLOSE {
        service.close_session(service.open_session());
    }
    v.set(
        "serve.open_close_us",
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(OPEN_CLOSE),
    );

    assert!(service.wait_idle(Duration::from_secs(30)), "never idled");
    let end = service.store_len();
    v.set("serve.store_slots_end", end as f64);
    // Two concurrent sessions interleave differently every time, so the
    // early mark wobbles by a few slots; a leak would be hundreds of times
    // larger (three variables per request, nothing reclaimed).
    if end > 2 * high_water {
        eprintln!("perfbench: store grew from {high_water} to {end} slots over closed sessions");
        failed += 1;
    }
    match service.shutdown() {
        Ok(report) => v.set(
            "machine.allocs_per_reduction",
            allocs as f64 / report.metrics.total_reductions as f64,
        ),
        Err(e) => {
            eprintln!("perfbench: in-process shutdown: {e}");
            failed += 1;
        }
    }
    let requests = (WARM_SESSIONS + sessions_per_client) * CLIENTS * INPROC_SESSION_REQUESTS;
    (requests as u64, failed)
}
