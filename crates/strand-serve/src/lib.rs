//! # strand-serve
//!
//! A **resident** motif service: the paper's Server motif (§3.2) describes
//! "a fully connected set of named servers, each capable of initiating
//! computations upon receipt of messages" — this crate keeps such a
//! network alive in a long-running process and feeds it *external* traffic
//! over TCP, instead of a single batch goal that runs to quiescence and
//! exits. See DESIGN.md §9 for the full model; the short version:
//!
//! * **Idle, not terminated.** The engine's quiescence detector normally
//!   ends the run; a resident fleet ([`ResidentHandle`])
//!   parks its workers at quiescence instead, and the suspended Server loops
//!   wait on their port streams for the next request.
//! * **Reclaim by reachability.** The fleet frees every store slot and
//!   suspension nothing can reach any more, at quiescence; a closed
//!   connection makes a collection due, and so do allocations that reach
//!   the last collection's work. Store growth is bounded by what is live,
//!   not by the requests ever served — on one connection too.
//! * **Backpressure, not queues.** Admission counts the requests the
//!   service is waiting on — admitted and not yet answered or abandoned;
//!   at the configured limit clients get `BUSY <retry-ms>` instead of
//!   unbounded queueing.
//! * **Deadlines on the wall.** A resident fleet's `after_unless` deadlines
//!   sit in the same deadline queue a batch run uses; because the fleet is
//!   resident the queue's clock is the wall (1 tick = 1 ms), so a parked
//!   service still wakes for its supervision heartbeats. Nothing here
//!   configures that.
//!
//! ## Wire protocol
//!
//! Line-based, UTF-8. A request is one **ground** term per line (the
//! payload `Q` of the motif-level message `req(Q, R)`); the service binds
//! the handler's reply `R` and answers with exactly one line:
//!
//! ```text
//! OK <term>      — the resolved reply
//! ERR <message>  — parse error (a term nested deeper than the parser's
//!                  limit included), an atom the symbol table refuses (a
//!                  name over 255 bytes, or a new name once the table is
//!                  nearly full), non-ground request, timeout, shutdown, or
//!                  a line over 64 KiB (which also ends the session)
//! BUSY <millis>  — backpressured; retry after the given delay
//! ```
//!
//! A session is a connection: closing it (EOF) makes a collection due,
//! which frees whatever its requests left that nothing can reach. The application supplies `server/1` handler rules
//! (the Server transformation threads the directory argument itself) that
//! answer `req(Q, R)` messages by binding `R` to a ground term, e.g.
//!
//! ```text
//! server([]).
//! server([halt|_]).
//! server([req(Q, R)|In]) :- R := Q * 2, server(In).
//! ```

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write as IoWrite};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strand_core::{sym, Atom, StrandError, StrandResult, Term};
use strand_machine::{FaultPlan, ForeignLib, Machine, MachineConfig, ResidentHandle, RunReport};
use strand_parse::{parse_ground, term_text, GroundError};

/// Boot rule appended to the application before the Server transformation:
/// build the port-tuple directory and spawn one server per node, but —
/// unlike the library's `create/2` — deliver no initial message and never
/// halt: the network starts empty and waits for ingress.
const SERVE_BOOT: &str = "\nserve_boot(N, DT) :- make_tuple(N, DT), spawn_servers(N, DT).\n";

/// The demo application served by the `strand-serve` binary when no
/// `--app` file is given: replies with the doubled request payload.
/// Its store stays bounded: what a request leaves behind is unreachable
/// once the reply is bound (DESIGN.md §9).
pub const DOUBLER_APP: &str = r#"
server([]).
server([halt|_]).
server([req(Q, R)|In]) :- R := Q * 2, server(In).
"#;

/// An echo application (head unification binds the reply to the request),
/// used by the conformance tier to round-trip arbitrary ground terms.
pub const ECHO_APP: &str = r#"
server([]).
server([halt|_]).
server([req(Q, R)|In]) :- R = Q, server(In).
"#;

/// How the fleet that keeps the program resident is sized. (The
/// conformance reference is the *batch* run of the same program on the
/// simulator; residency is the fleet's alone.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeBackend {
    /// The sharded parallel backend with the given worker threads
    /// (0 = host parallelism): workers stay parked between bursts.
    Parallel(u32),
}

/// Service tuning. `Default` is a 4-server parallel network sized for the
/// host, with backpressure at 10k requests in flight.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Server-motif nodes (the `make_tuple(N, DT)` directory size).
    pub servers: u32,
    pub backend: ServeBackend,
    /// Admission limit: the most requests admitted and not yet answered or
    /// abandoned; a request arriving at it is answered `BUSY`. At least 1.
    pub max_pending: u64,
    /// The retry delay a backpressured client is told to wait. Under
    /// `supervise` this is an upper bound: the hint is derived from the
    /// timer wheel's next-due horizon when that is sooner (see
    /// [`MotifService::busy_hint`]). At least 1.
    pub retry_ms: u64,
    /// How long a request waits for its reply before answering `ERR`.
    pub reply_timeout_ms: u64,
    /// Run the application under `Supervise ∘ Server` instead of plain
    /// `Server`: acked, retried delivery plus heartbeat monitors that
    /// restart a dead server's loop on a surviving node, timed on the
    /// resident fleet's wall clock.
    pub supervise: bool,
    /// Fault plan injected into the resident fleet (node crashes,
    /// per-delivery drop/dup/delay). Only meaningful with `supervise`: an
    /// unsupervised service black-holes every request a crashed node held.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            servers: 4,
            backend: ServeBackend::Parallel(0),
            max_pending: 10_000,
            retry_ms: 25,
            reply_timeout_ms: 10_000,
            supervise: false,
            faults: FaultPlan::default(),
        }
    }
}

/// Lock a mutex whose data every update leaves valid (a map insert or
/// remove, an `Option` swap), so a panicked holder is no reason to stop
/// serving.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One request's one-shot reply cell. The connection thread that owns
/// the request is the only thread that ever waits on it.
#[derive(Default)]
struct ReplySlot {
    reply: Mutex<Option<Term>>,
    arrived: Condvar,
}

impl ReplySlot {
    /// Block until the reply is in the cell or `timeout` has passed
    /// (a zero timeout just takes what is already there).
    fn wait(&self, timeout: Duration) -> Option<Term> {
        let (mut cell, _) = self
            .arrived
            .wait_timeout_while(lock(&self.reply), timeout, |reply| reply.is_none())
            .unwrap_or_else(|e| e.into_inner());
        cell.take()
    }
}

/// The in-flight requests, keyed by request id. A request registers its
/// slot *before* its goals are injected; the entry is removed by whichever
/// comes first of the `'$serve_reply'` sink delivering (from whichever
/// thread reduces the probe: a worker, or the connection thread itself
/// when it reduced its request on a parked worker's machine) and the
/// request giving up — so a duplicate or late delivery finds no entry and
/// is dropped, and the map is bounded by the requests in flight — the
/// count admission checks.
#[derive(Default)]
struct ReplySlots {
    waiting: Mutex<HashMap<u64, Arc<ReplySlot>>>,
}

impl ReplySlots {
    /// Admit request `rid` unless `limit` requests are in flight already:
    /// its slot, or `None` (answer `BUSY`). The count and the insert are
    /// one critical section, so concurrent callers cannot overshoot.
    fn register(&self, rid: u64, limit: u64) -> Option<Arc<ReplySlot>> {
        let mut waiting = lock(&self.waiting);
        if waiting.len() as u64 >= limit {
            return None;
        }
        let slot = Arc::new(ReplySlot::default());
        waiting.insert(rid, Arc::clone(&slot));
        Some(slot)
    }

    /// Hand `reply` to the request waiting on `rid`, waking exactly that
    /// thread.
    fn deliver(&self, rid: u64, reply: Term) {
        let slot = lock(&self.waiting).remove(&rid);
        if let Some(slot) = slot {
            *lock(&slot.reply) = Some(reply);
            slot.arrived.notify_one();
        }
    }

    /// The request gave up (timeout, rejected before injection): nothing
    /// may be delivered to it any more.
    fn forget(&self, rid: u64) {
        lock(&self.waiting).remove(&rid);
    }
}

/// An open session: one per TCP connection (or per synthetic client in
/// the bench). Close it with [`MotifService::close_session`], which counts
/// it and makes a collection due.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    /// Monotonic session number (diagnostics only).
    pub sid: u64,
}

/// One request's outcome, mirroring the wire protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The handler bound the reply: the resolved term, rendered.
    Ok(String),
    /// Parse error, non-ground request, reply timeout or shutdown.
    Err(String),
    /// Backpressured: retry after this many milliseconds.
    Busy(u64),
}

impl Response {
    /// The wire form, without the trailing newline.
    pub fn wire(&self) -> String {
        match self {
            Response::Ok(t) => format!("OK {t}"),
            Response::Err(m) => format!("ERR {}", m.replace('\n', " ")),
            Response::Busy(ms) => format!("BUSY {ms}"),
        }
    }
}

/// The sink every request's reply probe calls.
const REPLY_PROBE: &str = "$serve_reply";

/// A resident Server-motif program plus the session plumbing around it.
/// `Sync`: share behind an `Arc` across connection threads.
pub struct MotifService {
    engine: ResidentHandle,
    replies: Arc<ReplySlots>,
    /// The port-tuple directory bound by the boot goal; every request
    /// distributes over it.
    dt: Term,
    /// Functors of the goals a request injects, interned once at start:
    /// the send (`rsend` under supervision, else `distribute`), the
    /// `req(Q, R)` envelope and the `'$serve_reply'` probe.
    send: Atom,
    req: Atom,
    reply_probe: Atom,
    cfg: ServeConfig,
    next_sid: AtomicU64,
    next_rid: AtomicU64,
    round_robin: AtomicU64,
}

impl MotifService {
    /// Transform `app_src` with the Server motif, boot an N-server network
    /// with no initial traffic, and leave it resident (idle) awaiting
    /// requests. A config no client could be served under is refused: no
    /// servers (no request could be placed), a `max_pending` of 0 (every
    /// request would be `BUSY`) or a `retry_ms` of 0 (the hint's range
    /// would be empty).
    pub fn start(app_src: &str, cfg: ServeConfig) -> StrandResult<MotifService> {
        if cfg.servers == 0 || cfg.max_pending == 0 || cfg.retry_ms == 0 {
            let msg = "servers, max_pending and retry_ms must each be at least 1";
            return Err(StrandError::Other(msg.to_string()));
        }
        let full_src = format!("{app_src}{SERVE_BOOT}");
        let motif = if cfg.supervise {
            motifs::supervised_server()
        } else {
            motifs::server()
        };
        let program = motif
            .apply_src(&full_src)
            .map_err(|e| StrandError::Other(e.to_string()))?;
        let replies = Arc::new(ReplySlots::default());
        let mut lib = ForeignLib::new();
        {
            // A sink, not a procedure with an out-arg: the engine touches
            // the store for the last time *before* this closure runs, so
            // nothing is bound on the request's behalf after its reply.
            let replies = Arc::clone(&replies);
            lib.register_sink(REPLY_PROBE, 2, move |args| {
                let rid = match &args[0] {
                    Term::Int(v) => *v as u64,
                    other => {
                        return Err(StrandError::Other(format!(
                            "'$serve_reply' wants an integer request id, got {other}"
                        )))
                    }
                };
                replies.deliver(rid, args[1].clone());
                Ok(1)
            });
        }
        let mut mcfg = MachineConfig::with_nodes(cfg.servers);
        // A service has no natural reduction budget; give it half of
        // forever (the shared counter still guards runaway handlers in
        // that a stuck burst eventually truncates instead of spinning).
        mcfg.max_reductions = u64::MAX / 2;
        // A bad request must not tear the service down mid-session:
        // handler errors are collected, the client times out instead.
        mcfg.fail_fast = false;
        mcfg.faults = cfg.faults.clone();
        let boot_goal = format!("serve_boot({}, DT)", cfg.servers);
        let ServeBackend::Parallel(threads) = cfg.backend;
        let engine = ResidentHandle::start(&program, &boot_goal, mcfg.parallel(threads), &lib)?;
        if !engine.wait_idle(Duration::from_secs(30)) {
            return Err(StrandError::Other(
                "resident boot did not reach idle within 30s".to_string(),
            ));
        }
        let dt = engine.boot_var("DT").expect("boot goal names DT");
        Ok(MotifService {
            engine,
            replies,
            dt,
            send: if cfg.supervise {
                Atom::new("rsend")
            } else {
                sym::DISTRIBUTE
            },
            req: Atom::new("req"),
            reply_probe: Atom::new(REPLY_PROBE),
            cfg,
            next_sid: AtomicU64::new(0),
            next_rid: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
        })
    }

    /// Open a session: number it and count it.
    pub fn open_session(&self) -> Session {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed) + 1;
        self.engine
            .with_ingress(|m| m.metrics_mut().sessions_opened += 1);
        Session { sid }
    }

    /// Close a session: count it, and collect — at once if the fleet is
    /// idle, else when it next is.
    pub fn close_session(&self, _session: Session) {
        self.engine
            .with_ingress(|m| m.metrics_mut().sessions_closed += 1);
        self.engine.reclaim();
    }

    /// Collect now if the fleet is idle; otherwise make a collection due
    /// (see [`ResidentHandle::reclaim`]).
    pub fn reclaim(&self) {
        self.engine.reclaim();
    }

    /// Serve one request line: parse, admission check, inject
    /// `distribute(J, DT, req(Q, R))` plus the `'$serve_reply'` probe, and
    /// wait for the reply.
    pub fn request(&self, _session: Session, line: &str) -> Response {
        if self.is_stopping() {
            return Response::Err("service is shutting down".to_string());
        }
        // Names from a socket are untrusted: the symbol table never frees
        // one, so `parse_ground` interns them with `Atom::try_new`.
        let q = match parse_ground(line) {
            Ok(q) => q,
            Err(GroundError::Parse(e)) => return Response::Err(format!("parse: {e}")),
            Err(GroundError::Atom(e)) => return Response::Err(format!("atom: {e}")),
            Err(GroundError::Variable) => {
                return Response::Err("request must be a ground term".to_string())
            }
        };
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed) + 1;
        // Backpressure: at most `max_pending` requests in flight.
        let Some(slot) = self.replies.register(rid, self.cfg.max_pending) else {
            self.engine
                .with_ingress(|m| m.metrics_mut().requests_rejected += 1);
            return Response::Busy(self.busy_hint());
        };
        let node = self.pick_node();
        let timeout = Duration::from_millis(self.cfg.reply_timeout_ms);
        let got = if self.cfg.supervise {
            self.supervised_request(q, rid, node, &slot, timeout)
        } else {
            self.engine
                .with_ingress(|m| self.inject_request(m, q, rid, node));
            slot.wait(timeout)
        };
        match got {
            Some(t) => Response::Ok(term_text(&t)),
            None => {
                self.replies.forget(rid); // a delivery removes its own entry
                Response::Err(format!("no reply within {}ms", self.cfg.reply_timeout_ms))
            }
        }
    }

    /// Enqueue one request on `m` (the ingress machine); returns its reply
    /// variable.
    fn inject_request(&self, m: &mut Machine, q: Term, rid: u64, node: i64) -> Term {
        let reply = Term::Var(m.store_mut().new_var());
        m.metrics_mut().requests_admitted += 1;
        self.send_request(m, q, &reply, rid, node);
        reply
    }

    /// Enqueue the two goals of a request at `node`: the send of
    /// `req(Q, R)` into the server network and the `'$serve_reply'(Rid, R)`
    /// probe that suspends until the handler grounds `R`. Supervised
    /// services route through `rsend` — the motif library's acked,
    /// retransmitted send — instead of the fire-and-forget `distribute`,
    /// so an envelope lost with a crashed node is retried against the
    /// restarted server.
    fn send_request(&self, m: &mut Machine, q: Term, reply: &Term, rid: u64, node: i64) {
        m.inject(
            Term::tuple(
                self.send,
                vec![
                    Term::int(node),
                    self.dt.clone(),
                    Term::tuple(self.req, vec![q, reply.clone()]),
                ],
            ),
            node,
        );
        m.inject(
            Term::tuple(self.reply_probe, vec![Term::int(rid as i64), reply.clone()]),
            node,
        );
    }

    /// The entry node for the next request: round-robin over the server
    /// directory, skipping nodes the fault plan has crashed — a goal
    /// injected at a dead node is silently discarded, which for an ingress
    /// request means a lost client.
    fn pick_node(&self) -> i64 {
        let servers = i64::from(self.cfg.servers);
        let start =
            (self.round_robin.fetch_add(1, Ordering::Relaxed) % u64::from(self.cfg.servers)) as i64;
        // Every node dead: nothing can answer. Inject anywhere and let the
        // reply timeout surface the outage.
        (0..servers)
            .map(|k| (start + k) % servers + 1)
            .find(|&node| !self.engine.is_crashed(node as u32))
            .unwrap_or(start + 1)
    }

    /// The delay a `BUSY` response advertises. Unsupervised services
    /// answer the configured `retry_ms` verbatim. A supervised service
    /// knows better: the timer wheel's next-due horizon is when the parked
    /// fleet will next wake (a retransmit or heartbeat beat) and drain the
    /// backlog the client is being bounced off — advertise the earlier of
    /// the two rather than a hint that is stale the moment the wheel
    /// fires.
    pub fn busy_hint(&self) -> u64 {
        match self.engine.timer_horizon_ms() {
            Some(horizon) if self.cfg.supervise => horizon.clamp(1, self.cfg.retry_ms),
            _ => self.cfg.retry_ms,
        }
    }

    /// One supervised request. Beyond the plain path's inject-and-wait,
    /// this survives a node crash mid-request: the reply is awaited in
    /// slices, and on each slice boundary (a) the reply variable itself is
    /// ground-checked through the ingress machine — the handler's bind is
    /// durable in the shared store even when the `'$serve_reply'` probe
    /// suspension died with its node — and (b) if another node crashed
    /// since the last send, or a quiet re-send period elapsed, the
    /// whole request (`rsend` plus a fresh reply probe, same reply
    /// variable) is re-injected at a live node. The re-send is the ingress
    /// mirror of the supervisor's own restart-and-replay: the original
    /// `rsend` goal itself can be lost — injected at a node that
    /// died before reducing it, or its retransmits exhausted during the
    /// restart window — and no amount of probe re-registration recovers a
    /// request that no server ever saw. At-least-once delivery is exactly
    /// what `Supervise` demands of its handlers anyway (replay-tolerant,
    /// test-and-set binds), so a duplicate arrival is benign. The reply
    /// variable is read across ingress calls, so it is held for the
    /// request's life.
    fn supervised_request(
        &self,
        q: Term,
        rid: u64,
        node: i64,
        slot: &ReplySlot,
        timeout: Duration,
    ) -> Option<Term> {
        let h = &self.engine;
        let mut dead_seen = h.crashed_count();
        let reply = h.with_ingress(|m| {
            let reply = self.inject_request(m, q.clone(), rid, node);
            m.hold(reply.clone());
            reply
        });
        let deadline = Instant::now() + timeout;
        let slice = Duration::from_millis(250);
        let resend_every = Duration::from_secs(2);
        let mut last_send = Instant::now();
        let got = loop {
            let now = Instant::now();
            if now >= deadline {
                break None;
            }
            if let Some(t) = slot.wait(slice.min(deadline - now)) {
                break Some(t);
            }
            if h.is_stopping() {
                break None;
            }
            // Fallback: the handler may have answered durably while the
            // probe died with its node.
            let resolved = h.with_ingress(|m| m.store().resolve(&reply));
            if resolved.is_ground() {
                break Some(resolved);
            }
            let dead_now = h.crashed_count();
            if dead_now != dead_seen || last_send.elapsed() >= resend_every {
                // A node died since the last send (or the request has sat
                // unanswered for a full re-send period). Re-send the whole
                // request — the acked send AND a fresh reply probe, bound
                // to the same reply variable — at a live node.
                // `requests_admitted` is not bumped: this is a
                // retransmit of an admitted request, not a new one. Of the
                // probes now racing, the first to fire takes the slot's
                // registration and the rest deliver to nobody.
                dead_seen = dead_now;
                last_send = Instant::now();
                let resend_node = self.pick_node();
                h.with_ingress(|m| self.send_request(m, q.clone(), &reply, rid, resend_node));
            }
        };
        h.with_ingress(|m| m.release(&reply));
        got
    }

    /// Requests admitted and not yet answered or abandoned: the count
    /// admission holds to `max_pending`.
    pub fn pending(&self) -> u64 {
        lock(&self.replies.waiting).len() as u64
    }

    /// Block (bounded) until the engine reads idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.engine.wait_idle(timeout)
    }

    /// A fatal engine error has begun winding the workers down.
    pub fn is_stopping(&self) -> bool {
        self.engine.is_stopping()
    }

    /// Live store size (all stripes) — the soak tier's bounded-growth
    /// probe.
    pub fn store_len(&self) -> usize {
        self.engine.with_ingress(|m| m.store().len())
    }

    /// Worker threads behind the service.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Stop the engine and merge every shard's report (serve counters
    /// included).
    pub fn shutdown(self) -> StrandResult<RunReport> {
        self.engine.shutdown()
    }
}

/// What [`serve`] hands back after a graceful shutdown.
pub struct ServeSummary {
    /// The merged engine report: metrics carry the serve counters
    /// (`sessions_opened/closed`, `requests_admitted/rejected`,
    /// `vars_reclaimed`, `idle_parks`).
    pub report: RunReport,
    /// Connection threads the accept loop ever spawned. A thread whose
    /// connection has closed waits for the next one, so this is bounded
    /// by peak concurrency, not by connections served.
    pub threads_spawned: usize,
    /// Times the accept loop woke from waiting on the listener: once per
    /// arriving connection plus once per idle poll timeout.
    pub accept_wakeups: u64,
}

/// The longest request line a connection may send, newline included.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How long the accept loop may sleep in `poll(2)` before it re-reads the
/// shutdown flag.
const ACCEPT_POLL_MS: i32 = 100;

/// Block until `listener` has a connection to accept or `ACCEPT_POLL_MS`
/// has passed. `poll(2)` is declared against libc directly, as the binary
/// declares `signal(2)`, so no crate dependency is needed.
fn wait_acceptable(listener: &TcpListener) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 1;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `fd` is one valid, exclusively borrowed `struct pollfd` (the
    // layout above is POSIX's) and `nfds` is 1; `poll` writes only its
    // `revents`. The result is ignored on purpose: readable, timed out and
    // EINTR all mean "try `accept` and re-check the flag".
    unsafe {
        poll(&mut fd, 1, ACCEPT_POLL_MS);
    }
}

/// Accepted connections waiting for a connection thread, and the count of
/// threads waiting for one. A thread counts itself idle before it waits
/// and the accept loop uncounts one for each stream it queues, so there
/// are always at least as many waiting threads as queued streams.
#[derive(Default)]
struct HandOff {
    waiting: Mutex<Waiting>,
    queued: Condvar,
}

#[derive(Default)]
struct Waiting {
    streams: VecDeque<TcpStream>,
    idle: usize,
    closed: bool,
}

impl HandOff {
    /// Queue `stream` for an idle connection thread, or hand it back when
    /// there is none.
    fn offer(&self, stream: TcpStream) -> Option<TcpStream> {
        let mut waiting = lock(&self.waiting);
        if waiting.idle == 0 {
            return Some(stream);
        }
        waiting.idle -= 1;
        waiting.streams.push_back(stream);
        drop(waiting);
        self.queued.notify_one();
        None
    }

    /// Count the calling thread idle and wait for its next connection;
    /// `None` once the hand-off is closed and nothing is queued.
    fn next(&self) -> Option<TcpStream> {
        let mut waiting = lock(&self.waiting);
        waiting.idle += 1;
        loop {
            if let Some(stream) = waiting.streams.pop_front() {
                return Some(stream);
            }
            if waiting.closed {
                return None;
            }
            waiting = self.queued.wait(waiting).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Let every waiting thread, and every thread that finishes its
    /// connection from now on, exit.
    fn close(&self) {
        lock(&self.waiting).closed = true;
        self.queued.notify_all();
    }
}

/// Accept loop: a session per connection, one request per line, each
/// connection served by a connection thread that then waits for the next
/// one; a thread is spawned only when none is idle. Returns after
/// `shutdown` flips true (SIGINT in the binary): stops accepting, lets
/// in-flight sessions drain (bounded by `drain`), then joins the
/// connection threads, shuts the engine down and reports. A caller that
/// shares the service drops its clones before `shutdown` flips.
pub fn serve(
    listener: TcpListener,
    service: impl Into<Arc<MotifService>>,
    shutdown: Arc<AtomicBool>,
    drain: Duration,
) -> StrandResult<ServeSummary> {
    listener
        .set_nonblocking(true)
        .map_err(|e| StrandError::Other(format!("listener: {e}")))?;
    let service = service.into();
    let active = Arc::new(AtomicUsize::new(0));
    let handoff = Arc::new(HandOff::default());
    // An error return leaves busy threads to finish their connections,
    // but no idle thread waiting for one.
    let fail = |e: String| {
        handoff.close();
        StrandError::Other(e)
    };
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut accept_wakeups = 0;
    while !shutdown.load(Ordering::Acquire) && !service.is_stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                active.fetch_add(1, Ordering::AcqRel);
                let Some(stream) = handoff.offer(stream) else {
                    continue;
                };
                let service = Arc::clone(&service);
                let active = Arc::clone(&active);
                let shutdown = Arc::clone(&shutdown);
                let handoff = Arc::clone(&handoff);
                let h = std::thread::Builder::new()
                    .name("strand-conn".to_string())
                    .spawn(move || {
                        let mut next = Some(stream);
                        while let Some(stream) = next {
                            handle_connection(stream, &service, &shutdown);
                            active.fetch_sub(1, Ordering::AcqRel);
                            next = handoff.next();
                        }
                    })
                    .map_err(|e| fail(format!("spawn: {e}")))?;
                handles.push(h);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                wait_acceptable(&listener);
                accept_wakeups += 1;
            }
            Err(e) => return Err(fail(format!("accept: {e}"))),
        }
    }
    drop(listener); // reject new connections while draining
    let deadline = Instant::now() + drain;
    while active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    handoff.close();
    let threads_spawned = handles.len();
    for h in handles {
        let _ = h.join();
    }
    let service = Arc::try_unwrap(service)
        .map_err(|_| StrandError::Other("connection thread leaked the service".to_string()))?;
    let report = service.shutdown()?;
    Ok(ServeSummary {
        report,
        threads_spawned,
        accept_wakeups,
    })
}

/// One connection: a session whose requests are the incoming lines.
/// Reads poll every 500ms so a SIGINT drain isn't blocked on a silent
/// client; partial lines accumulate across polls, up to
/// `MAX_REQUEST_BYTES` — a longer line is answered `ERR` and the session
/// closed, since the rest of it cannot be told from the next request.
fn handle_connection(stream: TcpStream, service: &MotifService, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // One write per response, and no Nagle: a request/reply protocol of
    // tiny frames otherwise spends ~40ms per turn in delayed-ACK limbo.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let session = service.open_session();
    let mut line = Vec::new();
    loop {
        if shutdown.load(Ordering::Acquire) || service.is_stopping() {
            break;
        }
        let room = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        let read = (&mut reader).take(room).read_until(b'\n', &mut line);
        if line.len() > MAX_REQUEST_BYTES {
            let _ = writer.write_all(b"ERR request too long\n");
            break;
        }
        match read {
            Ok(0) => break, // EOF: the client closed the session
            Ok(_) => {
                let response = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => Response::Err("empty request".to_string()),
                    Ok(request) => service.request(session, request),
                    Err(_) => Response::Err("request is not UTF-8".to_string()),
                };
                line.clear();
                let frame = format!("{}\n", response.wire());
                if writer.write_all(frame.as_bytes()).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue; // poll tick; the partial line stays in `line`
            }
            Err(_) => break,
        }
    }
    service.close_session(session);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubler(backend: ServeBackend) -> MotifService {
        let cfg = ServeConfig {
            servers: 4,
            backend,
            ..ServeConfig::default()
        };
        MotifService::start(DOUBLER_APP, cfg).unwrap()
    }

    #[test]
    fn a_service_of_no_servers_is_refused_at_boot() {
        let base = ServeConfig {
            backend: ServeBackend::Parallel(1),
            ..ServeConfig::default()
        };
        let refused = [
            ServeConfig {
                servers: 0,
                ..base.clone()
            },
            ServeConfig {
                max_pending: 0,
                ..base.clone()
            },
            ServeConfig {
                retry_ms: 0,
                supervise: true,
                ..base
            },
        ];
        for cfg in refused {
            let e = MotifService::start(DOUBLER_APP, cfg.clone())
                .err()
                .unwrap_or_else(|| panic!("{cfg:?} must be refused"));
            assert!(e.to_string().contains("at least 1"), "{e}");
        }
    }

    #[test]
    fn one_thread_service_answers_requests_and_reclaims() {
        let svc = doubler(ServeBackend::Parallel(1));
        let s = svc.open_session();
        assert_eq!(svc.request(s, "21"), Response::Ok("42".to_string()));
        assert_eq!(svc.request(s, "100"), Response::Ok("200".to_string()));
        let before = svc.store_len();
        svc.close_session(s);
        assert!(svc.store_len() <= before, "close grew the store");
        let report = svc.shutdown().unwrap();
        assert_eq!(report.metrics.sessions_opened, 1);
        assert_eq!(report.metrics.sessions_closed, 1);
        assert_eq!(report.metrics.requests_admitted, 2);
        assert!(report.metrics.vars_reclaimed >= 1, "{:?}", report.metrics);
    }

    #[test]
    fn parallel_service_answers_requests_and_parks_idle() {
        let svc = doubler(ServeBackend::Parallel(2));
        let s = svc.open_session();
        assert_eq!(svc.request(s, "21"), Response::Ok("42".to_string()));
        assert!(svc.wait_idle(Duration::from_secs(5)), "no return to idle");
        assert_eq!(svc.request(s, "-3"), Response::Ok("-6".to_string()));
        svc.close_session(s);
        assert!(svc.wait_idle(Duration::from_secs(5)));
        let report = svc.shutdown().unwrap();
        assert!(report.metrics.idle_parks >= 1, "{:?}", report.metrics);
        assert!(report.metrics.vars_reclaimed >= 1, "{:?}", report.metrics);
    }

    #[test]
    fn malformed_and_nonground_requests_are_rejected_politely() {
        let svc = doubler(ServeBackend::Parallel(1));
        let s = svc.open_session();
        assert!(matches!(svc.request(s, "req(1,"), Response::Err(_)));
        assert!(matches!(svc.request(s, "f(X)"), Response::Err(_)));
        // The session still works afterwards.
        assert_eq!(svc.request(s, "5"), Response::Ok("10".to_string()));
        svc.close_session(s);
    }

    #[test]
    fn handler_error_does_not_tear_the_service_down() {
        // A type-error payload (the doubler multiplies it) must cost that
        // one client a timeout, never the fleet: `fail_fast` is off, so
        // the engine collects the error and the service stays resident.
        let cfg = ServeConfig {
            servers: 2,
            backend: ServeBackend::Parallel(2),
            reply_timeout_ms: 300,
            ..ServeConfig::default()
        };
        let svc = MotifService::start(DOUBLER_APP, cfg).unwrap();
        let s = svc.open_session();
        assert!(matches!(svc.request(s, "oops(atom)"), Response::Err(_)));
        assert!(!svc.is_stopping(), "handler error killed the engine");
        assert_eq!(svc.request(s, "8"), Response::Ok("16".to_string()));
        svc.close_session(s);
        let report = svc.shutdown().unwrap();
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    }

    fn supervised_doubler(threads: u32, retry_ms: u64) -> MotifService {
        let cfg = ServeConfig {
            servers: 4,
            backend: ServeBackend::Parallel(threads),
            supervise: true,
            retry_ms,
            ..ServeConfig::default()
        };
        MotifService::start(DOUBLER_APP, cfg).unwrap()
    }

    #[test]
    fn supervised_service_answers_requests_and_arms_wall_timers() {
        let svc = supervised_doubler(2, 25);
        let s = svc.open_session();
        assert_eq!(svc.request(s, "21"), Response::Ok("42".to_string()));
        assert_eq!(svc.request(s, "-3"), Response::Ok("-6".to_string()));
        svc.close_session(s);
        let report = svc.shutdown().unwrap();
        // Supervision runs on real deadlines: heartbeat beats and ack
        // retransmit windows all sit in the wheel.
        assert!(report.metrics.timers_armed > 0, "{:?}", report.metrics);
        assert_eq!(report.metrics.requests_admitted, 2);
    }

    #[test]
    fn busy_hint_tracks_the_wheel_horizon_under_supervision() {
        // Regression: the BUSY hint used to parrot `retry_ms` verbatim,
        // so a client configured with a lazy 10s retry kept hammering a
        // service whose next wake (a heartbeat, a retransmit window) was
        // due within the second. Supervised services must derive the hint
        // from the wheel's next-due horizon instead.
        let svc = supervised_doubler(2, 10_000);
        // Heartbeats arm within the first watch window; give the fleet a
        // moment to get one into the wheel.
        let deadline = Instant::now() + Duration::from_secs(5);
        let hint = loop {
            let hint = svc.busy_hint();
            if hint < 10_000 || Instant::now() >= deadline {
                break hint;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(
            (1..10_000).contains(&hint),
            "hint {hint}ms was not derived from the wheel horizon"
        );
        svc.shutdown().unwrap();

        // Unsupervised services advertise the configured delay verbatim.
        let svc = doubler(ServeBackend::Parallel(2));
        assert_eq!(svc.busy_hint(), svc.cfg.retry_ms);
        svc.shutdown().unwrap();
    }

    #[test]
    fn a_delivery_completes_only_its_own_request_and_only_once() {
        let slots = ReplySlots::default();
        let (a, b) = (slots.register(1, 2).unwrap(), slots.register(2, 2).unwrap());
        assert!(
            slots.register(3, 2).is_none(),
            "a third admitted at limit 2"
        );
        slots.deliver(1, Term::int(10));
        assert_eq!(b.wait(Duration::ZERO), None, "A's reply completed B");
        assert_eq!(a.wait(Duration::ZERO), Some(Term::int(10)));
        // A duplicate (a re-sent probe firing late) finds no entry: it is
        // dropped, not parked in the registry or the spent slot.
        slots.deliver(1, Term::int(11));
        assert_eq!(a.wait(Duration::ZERO), None);
        assert_eq!(lock(&slots.waiting).len(), 1, "only B is in flight");
        // B's waiter is woken from another thread, by B's delivery.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| b.wait(Duration::from_secs(30)));
            slots.deliver(2, Term::int(20));
            assert_eq!(waiter.join().unwrap(), Some(Term::int(20)));
        });
        assert!(lock(&slots.waiting).is_empty());
    }

    #[test]
    fn a_timed_out_request_leaves_no_registration_behind() {
        // The doubler multiplies its payload: an atom makes the handler
        // fail, no reply is ever bound, and the request times out.
        let cfg = ServeConfig {
            servers: 2,
            backend: ServeBackend::Parallel(2),
            reply_timeout_ms: 100,
            ..ServeConfig::default()
        };
        let svc = MotifService::start(DOUBLER_APP, cfg).unwrap();
        let s = svc.open_session();
        assert!(matches!(svc.request(s, "oops(atom)"), Response::Err(_)));
        assert!(matches!(svc.request(s, "f(X)"), Response::Err(_)));
        assert!(lock(&svc.replies.waiting).is_empty());
        svc.close_session(s);
        svc.shutdown().unwrap();
    }

    #[test]
    fn the_registry_is_empty_again_after_1000_requests() {
        for svc in [
            doubler(ServeBackend::Parallel(1)),
            doubler(ServeBackend::Parallel(2)),
            supervised_doubler(2, 25),
        ] {
            let s = svc.open_session();
            for q in 0..1000i64 {
                assert_eq!(
                    svc.request(s, &q.to_string()),
                    Response::Ok((q * 2).to_string())
                );
            }
            assert!(lock(&svc.replies.waiting).is_empty());
            svc.close_session(s);
            svc.shutdown().unwrap();
        }
    }

    /// Run `serve` over a fresh loopback listener on a 1-thread doubler.
    fn spawn_serve() -> (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        JoinHandle<StrandResult<ServeSummary>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (service, flag) = (doubler(ServeBackend::Parallel(1)), Arc::clone(&shutdown));
        let thread =
            std::thread::spawn(move || serve(listener, service, flag, Duration::from_secs(10)));
        (addr, shutdown, thread)
    }

    fn ask(stream: &TcpStream, request: &str) -> String {
        (&*stream).write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply
    }

    #[test]
    fn an_idle_accept_loop_sleeps_in_poll_and_still_sees_shutdown() {
        let (addr, shutdown, loop_thread) = spawn_serve();
        let connections = 3u64;
        for q in 0..connections {
            let stream = TcpStream::connect(addr).unwrap();
            assert_eq!(ask(&stream, &format!("{q}\n")), format!("OK {}\n", q * 2));
        }
        std::thread::sleep(Duration::from_millis(300));
        let flagged = Instant::now();
        shutdown.store(true, Ordering::Release);
        let summary = loop_thread.join().unwrap().unwrap();
        assert!(
            flagged.elapsed() < Duration::from_secs(1),
            "shutdown took {:?} with no connection open",
            flagged.elapsed()
        );
        // One wake per connection plus one per poll timeout; the 1 ms
        // sleep this replaced woke ~300 times over the same idle stretch.
        assert!(
            summary.accept_wakeups <= connections + 10,
            "{} wakeups for {connections} connections",
            summary.accept_wakeups
        );
    }

    #[test]
    fn an_oversized_request_line_is_refused_and_the_service_keeps_serving() {
        let (addr, shutdown, loop_thread) = spawn_serve();
        let hostile = TcpStream::connect(addr).unwrap();
        // A line that arrives in pieces either side of a 500 ms read
        // timeout tick still accumulates into one request.
        (&hostile).write_all(b"2").unwrap();
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(ask(&hostile, "1\n"), "OK 42\n");
        // 1 MiB and no newline: the service stops reading at its cap, so
        // the tail of this write may fail against the closed socket.
        let _ = (&hostile).write_all(&vec![b'7'; 1 << 20]);
        let mut reply = String::new();
        BufReader::new(&hostile).read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR request too long\n");
        let polite = TcpStream::connect(addr).unwrap();
        assert_eq!(ask(&polite, "4\n"), "OK 8\n");
        drop((hostile, polite));
        shutdown.store(true, Ordering::Release);
        let metrics = loop_thread.join().unwrap().unwrap().report.metrics;
        assert_eq!(metrics.sessions_opened, 2);
        assert_eq!(metrics.sessions_closed, 2);
    }

    #[test]
    fn a_mid_request_disconnect_leaves_nothing_to_the_next_connection() {
        // The client leaves half a request behind. Whichever thread serves
        // the next connection, it must start from an empty line and a
        // fresh session: `123` would be answered `OK 246`.
        let (addr, shutdown, loop_thread) = spawn_serve();
        let quitter = TcpStream::connect(addr).unwrap();
        (&quitter).write_all(b"12").unwrap();
        drop(quitter);
        // Not needed for the assertions, which hold whichever thread takes
        // the next connection: the pause lets the quitter's thread go idle
        // first, so that on a host with a core to spare it is that thread.
        std::thread::sleep(Duration::from_millis(100));
        let next = TcpStream::connect(addr).unwrap();
        assert_eq!(ask(&next, "3\n"), "OK 6\n");
        drop(next);
        shutdown.store(true, Ordering::Release);
        let metrics = loop_thread.join().unwrap().unwrap().report.metrics;
        assert_eq!(metrics.sessions_opened, 2);
        assert_eq!(metrics.sessions_closed, 2);
    }

    #[test]
    fn sequential_connections_reuse_connection_threads() {
        // 500 connections, one alive at a time: a thread whose connection
        // has closed takes the next one, so the loop spawns a handful of
        // threads, not 500.
        let (addr, shutdown, loop_thread) = spawn_serve();
        let cycles = 500u64;
        for q in 0..cycles {
            let stream = TcpStream::connect(addr).unwrap();
            assert_eq!(ask(&stream, &format!("{q}\n")), format!("OK {}\n", q * 2));
        }
        shutdown.store(true, Ordering::Release);
        let summary = loop_thread.join().unwrap().unwrap();
        assert_eq!(summary.report.metrics.sessions_closed, cycles);
        assert!(
            summary.threads_spawned <= 16,
            "{} threads spawned for one live connection at a time",
            summary.threads_spawned
        );
    }

    #[test]
    fn echo_round_trips_compound_terms() {
        let svc = {
            let cfg = ServeConfig {
                servers: 2,
                backend: ServeBackend::Parallel(1),
                ..ServeConfig::default()
            };
            MotifService::start(ECHO_APP, cfg).unwrap()
        };
        let s = svc.open_session();
        // The last four are written back quoted: `Term`'s `Display` gave
        // `a b`, `Hello` (a variable), `f(+,X)` and `g(+(1,2))`.
        for t in [
            "point(1, 2)",
            "[a, b, [c, 4]]",
            "nested(f(g(h)), [1])",
            "'a b'",
            "'Hello'",
            "f('+', 'X')",
            "g(1 + 2)",
        ] {
            match svc.request(s, t) {
                Response::Ok(echoed) => {
                    let want = strand_parse::parse_term(t).unwrap();
                    let got = strand_parse::parse_term(&echoed)
                        .unwrap_or_else(|e| panic!("echo of {t} is {echoed}: {e}"));
                    assert_eq!(want, got, "echo of {t} is {echoed}");
                }
                other => panic!("echo of {t} failed: {other:?}"),
            }
        }
        svc.close_session(s);
    }
}
