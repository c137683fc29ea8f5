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
//!   ends the run; a resident fleet ([`strand_parallel::ResidentHandle`])
//!   parks its workers at quiescence instead, and the suspended Server loops
//!   wait on their port streams for the next request.
//! * **Sessions are regions.** Every TCP connection gets a session region;
//!   variables allocated for its requests and the suspensions they leave
//!   behind are tagged with it and swept when the connection closes, so
//!   store growth is bounded by the *live* sessions, not the total ever
//!   served.
//! * **Backpressure, not queues.** Admission checks the engine's work
//!   gauge (the shards' shared in-flight gate, of which it is the only
//!   reader); past the configured high-water mark clients get
//!   `BUSY <retry-ms>` instead of unbounded queueing.
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
//! A session is a connection: closing it (EOF) reclaims everything the
//! session allocated. The application supplies `server/1` handler rules
//! (the Server transformation threads the directory argument itself) that
//! answer `req(Q, R)` messages by binding `R` to a ground term, e.g.
//!
//! ```text
//! server([]).
//! server([halt|_]).
//! server([req(Q, R)|In]) :- R := Q * 2, server(In).
//! ```

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write as IoWrite};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strand_core::{sym, Atom, AtomError, StrandError, StrandResult, Term};
use strand_machine::{ast_to_term, FaultPlan, ForeignLib, Machine, MachineConfig, RunReport};
use strand_parallel::ResidentHandle;
use strand_parse::{parse_term, Ast};

/// Boot rule appended to the application before the Server transformation:
/// build the port-tuple directory and spawn one server per node, but —
/// unlike the library's `create/2` — deliver no initial message and never
/// halt: the network starts empty and waits for ingress.
const SERVE_BOOT: &str = "\nserve_boot(N, DT) :- make_tuple(N, DT), spawn_servers(N, DT).\n";

/// The demo application served by the `strand-serve` binary when no
/// `--app` file is given: replies with the doubled request payload.
/// Handlers that allocate no fresh body variables keep the resident
/// store perfectly bounded (see DESIGN.md §9 on session locality).
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
/// host, with backpressure at 10k queued reductions' worth of work.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Server-motif nodes (the `make_tuple(N, DT)` directory size).
    pub servers: u32,
    pub backend: ServeBackend,
    /// Admission high-water mark on the engine's regular-work gauge;
    /// requests arriving above it are answered `BUSY`.
    pub max_pending: u64,
    /// The retry delay a backpressured client is told to wait. Under
    /// `supervise` this is an upper bound: the hint is derived from the
    /// timer wheel's next-due horizon when that is sooner (see
    /// [`MotifService::busy_hint`]).
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
/// worker reduces the probe) and the request giving up — so a duplicate
/// or late delivery finds no entry and is dropped, and the map is bounded
/// by the requests in flight.
#[derive(Default)]
struct ReplySlots {
    waiting: Mutex<HashMap<u64, Arc<ReplySlot>>>,
}

impl ReplySlots {
    fn register(&self, rid: u64) -> Arc<ReplySlot> {
        let slot = Arc::new(ReplySlot::default());
        lock(&self.waiting).insert(rid, Arc::clone(&slot));
        slot
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
/// the bench). Dropping it without [`MotifService::close_session`] leaks
/// the region until shutdown — close explicitly.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    /// Monotonic session number (diagnostics only).
    pub sid: u64,
    /// The store/suspension region everything this session allocates is
    /// tagged with; swept on close.
    pub region: u32,
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

/// Intern every atom and functor name of a request as *untrusted* text.
/// The symbol table never frees a name, so a client must not be able to
/// fill it: [`Atom::try_new`] refuses names over 255 bytes and, once the
/// table is within its reserve of capacity, any name it does not already
/// hold. After this pass `ast_to_term` finds every name present and cannot
/// grow the table. Iterative along list tails, like the parser.
fn admit_atoms(mut ast: &Ast) -> Result<(), AtomError> {
    loop {
        match ast {
            Ast::Atom(name) => return Atom::try_new(name).map(drop),
            Ast::Tuple(name, args) => {
                Atom::try_new(name)?;
                return args.iter().try_for_each(admit_atoms);
            }
            Ast::List(head, tail) => {
                admit_atoms(head)?;
                ast = tail;
            }
            _ => return Ok(()),
        }
    }
}

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
    next_region: AtomicU32,
    next_rid: AtomicU64,
    round_robin: AtomicU64,
}

impl MotifService {
    /// Transform `app_src` with the Server motif, boot an N-server network
    /// with no initial traffic, and leave it resident (idle) awaiting
    /// requests.
    pub fn start(app_src: &str, cfg: ServeConfig) -> StrandResult<MotifService> {
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
            // the connection thread it wakes may close the session and
            // sweep the request's slots at once.
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
            next_region: AtomicU32::new(1),
            next_rid: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
        })
    }

    /// Open a session: allocate its region and count it.
    pub fn open_session(&self) -> Session {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed) + 1;
        let region = self.next_region.fetch_add(1, Ordering::Relaxed);
        self.engine
            .with_ingress(|m| m.metrics_mut().sessions_opened += 1);
        Session { sid, region }
    }

    /// Close a session: sweep every shard's suspensions and store slots
    /// tagged with its region.
    pub fn close_session(&self, session: Session) {
        self.engine.reclaim(session.region);
        self.engine
            .with_ingress(|m| m.metrics_mut().sessions_closed += 1);
    }

    /// Serve one request line: admission check, parse, inject
    /// `distribute(J, DT, req(Q, R))` plus the `'$serve_reply'` probe under
    /// the session's region, and wait for the reply.
    pub fn request(&self, session: Session, line: &str) -> Response {
        if self.is_stopping() {
            return Response::Err("service is shutting down".to_string());
        }
        // Backpressure: consult the engine's regular-work gauge before
        // adding to it.
        if self.pending() > self.cfg.max_pending {
            self.engine
                .with_ingress(|m| m.metrics_mut().requests_rejected += 1);
            return Response::Busy(self.busy_hint());
        }
        let ast = match parse_term(line) {
            Ok(a) => a,
            Err(e) => return Response::Err(format!("parse: {e}")),
        };
        if let Err(e) = admit_atoms(&ast) {
            return Response::Err(format!("atom: {e}"));
        }
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed) + 1;
        let node = self.pick_node();
        let timeout = Duration::from_millis(self.cfg.reply_timeout_ms);
        let slot = self.replies.register(rid);
        let got = if self.cfg.supervise {
            self.supervised_request(session, &ast, rid, node, &slot, timeout)
        } else {
            self.engine
                .with_ingress(|m| self.inject_request(m, session, &ast, rid, node))
                .map(|_| slot.wait(timeout))
        };
        if !matches!(got, Ok(Some(_))) {
            self.replies.forget(rid); // a delivery removes its own entry
        }
        match got {
            Ok(Some(t)) => Response::Ok(t.to_string()),
            Ok(None) => Response::Err(format!("no reply within {}ms", self.cfg.reply_timeout_ms)),
            Err(resp) => resp,
        }
    }

    /// Build and enqueue one request on `m` (the ingress machine) under the
    /// session's region. `Ok` carries the reply
    /// variable; `Err` carries the client-facing response.
    fn inject_request(
        &self,
        m: &mut Machine,
        session: Session,
        ast: &Ast,
        rid: u64,
        node: i64,
    ) -> Result<Term, Response> {
        m.set_session_region(session.region);
        let mut vars = BTreeMap::new();
        let q = ast_to_term(ast, m, &mut vars);
        if !vars.is_empty() || !m.store().resolve(&q).is_ground() {
            // The stray variables were allocated under the session region,
            // so the close-time sweep reclaims them.
            return Err(Response::Err("request must be a ground term".to_string()));
        }
        let reply = Term::Var(m.store_mut().new_var());
        m.metrics_mut().requests_admitted += 1;
        self.send_request(m, q, &reply, rid, node);
        Ok(reply)
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
        let dead = self.engine.crashed_nodes();
        // Every node dead: nothing can answer. Inject anywhere and let the
        // reply timeout surface the outage.
        (0..servers)
            .map(|k| (start + k) % servers + 1)
            .find(|&node| !dead.contains(&(node as u32)))
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
    /// test-and-set binds), so a duplicate arrival is benign.
    fn supervised_request(
        &self,
        session: Session,
        ast: &Ast,
        rid: u64,
        node: i64,
        slot: &ReplySlot,
        timeout: Duration,
    ) -> Result<Option<Term>, Response> {
        let h = &self.engine;
        let mut dead_seen = h.crashed_nodes().len();
        let reply = h.with_ingress(|m| self.inject_request(m, session, ast, rid, node))?;
        let deadline = Instant::now() + timeout;
        let slice = Duration::from_millis(250);
        let resend_every = Duration::from_secs(2);
        let mut last_send = Instant::now();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if let Some(t) = slot.wait(slice.min(deadline - now)) {
                return Ok(Some(t));
            }
            if h.is_stopping() {
                return Ok(None);
            }
            // Fallback: the handler may have answered durably while the
            // probe died with its node.
            let resolved = h.with_ingress(|m| m.store().resolve(&reply));
            if resolved.is_ground() {
                return Ok(Some(resolved));
            }
            let dead_now = h.crashed_nodes().len();
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
                h.with_ingress(|m| {
                    m.set_session_region(session.region);
                    let q = ast_to_term(ast, m, &mut BTreeMap::new());
                    self.send_request(m, q, &reply, rid, resend_node);
                });
            }
        }
    }

    /// Regular work pending in the engine (the backpressure gauge).
    pub fn pending(&self) -> u64 {
        self.engine.pending()
    }

    /// True when the engine is globally quiescent — parked workers, no
    /// in-flight batches.
    pub fn is_idle(&self) -> bool {
        self.engine.is_idle()
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
    /// The most connection threads the accept loop ever held unjoined,
    /// live or finished: bounded by peak concurrency (finished ones are
    /// reaped at the next accept), not by connections served.
    pub peak_handles: usize,
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

/// Accept loop: one thread per connection, a session per connection, one
/// request per line. Returns after `shutdown` flips true (SIGINT in the
/// binary): stops accepting, lets in-flight sessions drain (bounded by
/// `drain`), then shuts the engine down and reports.
pub fn serve(
    listener: TcpListener,
    service: MotifService,
    shutdown: Arc<AtomicBool>,
    drain: Duration,
) -> StrandResult<ServeSummary> {
    listener
        .set_nonblocking(true)
        .map_err(|e| StrandError::Other(format!("listener: {e}")))?;
    let service = Arc::new(service);
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut peak_handles = 0;
    let mut accept_wakeups = 0;
    while !shutdown.load(Ordering::Acquire) && !service.is_stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Join what has finished before adding one more: an
                // unjoined thread keeps its stack mapped, and a churning
                // client would otherwise run the process into
                // vm.max_map_count after ~32k connections.
                let mut i = 0;
                while i < handles.len() {
                    if handles[i].is_finished() {
                        let _ = handles.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                let service = Arc::clone(&service);
                let active = Arc::clone(&active);
                let shutdown = Arc::clone(&shutdown);
                active.fetch_add(1, Ordering::AcqRel);
                let h = std::thread::Builder::new()
                    .name("strand-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &service, &shutdown);
                        active.fetch_sub(1, Ordering::AcqRel);
                    })
                    .map_err(|e| StrandError::Other(format!("spawn: {e}")))?;
                handles.push(h);
                peak_handles = peak_handles.max(handles.len());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                wait_acceptable(&listener);
                accept_wakeups += 1;
            }
            Err(e) => return Err(StrandError::Other(format!("accept: {e}"))),
        }
    }
    drop(listener); // reject new connections while draining
    let deadline = Instant::now() + drain;
    while active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for h in handles {
        let _ = h.join();
    }
    let service = Arc::try_unwrap(service)
        .map_err(|_| StrandError::Other("connection thread leaked the service".to_string()))?;
    let report = service.shutdown()?;
    Ok(ServeSummary {
        report,
        peak_handles,
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
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
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
        strand_parallel::install();
        let cfg = ServeConfig {
            servers: 4,
            backend,
            ..ServeConfig::default()
        };
        MotifService::start(DOUBLER_APP, cfg).unwrap()
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
        strand_parallel::install();
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
        strand_parallel::install();
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
        let (a, b) = (slots.register(1), slots.register(2));
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
        strand_parallel::install();
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
    fn accept_loop_reaps_finished_connection_threads() {
        // 500 connections, one alive at a time: the loop must join each
        // thread once it is done instead of holding all 500 handles (and
        // their stacks) until shutdown.
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
            summary.peak_handles <= 16,
            "{} handles retained for one live connection",
            summary.peak_handles
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
        for t in ["point(1, 2)", "[a, b, [c, 4]]", "nested(f(g(h)), [1])"] {
            match svc.request(s, t) {
                Response::Ok(echoed) => {
                    let want = parse_term(t).unwrap();
                    let got = parse_term(&echoed).unwrap();
                    assert_eq!(format!("{want:?}"), format!("{got:?}"), "echo of {t}");
                }
                other => panic!("echo of {t} failed: {other:?}"),
            }
        }
        svc.close_session(s);
    }
}
