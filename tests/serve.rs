//! Serve conformance + soak tier (DESIGN.md §9).
//!
//! * **Conformance** — a request replayed through the resident service
//!   (over loopback TCP, through the real accept loop and wire protocol)
//!   must yield the **bit-identical** reply to the same message run batch
//!   through `create/2` on the deterministic simulator — and the resident
//!   fleet must agree at 1, 2 and 4 worker threads (1 is the simulator's
//!   exact replica). The doubler exercises arithmetic handlers, the echo
//!   app round-trips arbitrary ground terms through the store and back out
//!   of the renderer.
//! * **Soak** — ≥1000 open/close session cycles must leave the store
//!   bounded: collections really do return slots (the free list is
//!   reused), at one worker thread and at two. Growth here would be the
//!   week-long-process leak reclamation exists to prevent; one connection
//!   sending 2.5 M requests (ignored, scheduled) must not grow it either.
//! * **Burst** — 256 connections at once, plain and supervised: no reply
//!   lost, every session closed, the engine parked idle, slots reclaimed —
//!   and again with a collection at every safe point, as is chaos.
//! * **Abandoned request** — a handler suspended on a variable nobody binds
//!   is collected, processes and slots, once its session has closed.
//! * **Close race** — sessions closed the instant their reply arrives, from
//!   two threads with no sleep anywhere, must never see a late bind land
//!   in a recycled slot (the reply probe is a sink; nothing follows it).
//! * **Supervised** — `Supervise ∘ Server` kept resident on wall-clock
//!   timers must be invisible on clean runs (bit-identical replies to the
//!   unsupervised tier at 1/2/4 threads) and load-bearing under chaos: two
//!   nodes crashed mid-load on top of 10% delivery drop must cost no
//!   client its reply — retransmission, restart and the re-registered
//!   reply probe together make the crash a latency event, not a loss.
//! * **Collector under fire** — a thread asking for a collection in a loop
//!   while the burst and chaos run: every safe point is a collection, so a
//!   missed root shows up as a lost or wrong reply here.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use algorithmic_motifs::strand_core;
use algorithmic_motifs::strand_machine::{
    self, run_parsed_goal, FaultPlan, MachineConfig, RunStatus,
};
use algorithmic_motifs::strand_serve::{
    serve, MotifService, Response, ServeBackend, ServeConfig, ServeSummary, Session, DOUBLER_APP,
    ECHO_APP,
};

const SERVERS: u32 = 4;

fn serve_cfg(backend: ServeBackend) -> ServeConfig {
    ServeConfig {
        servers: SERVERS,
        backend,
        ..ServeConfig::default()
    }
}

/// Every fleet size the service is checked at: the conformance ladder
/// (1 is the exact-replica configuration).
fn backends() -> Vec<ServeBackend> {
    vec![
        ServeBackend::Parallel(1),
        ServeBackend::Parallel(2),
        ServeBackend::Parallel(4),
    ]
}

/// The batch reference: deliver `req(Payload, R)` through the library's
/// own `create/2` on the deterministic simulator and render the bound
/// reply as the service writes it — the value the resident replay must
/// reproduce bit-for-bit.
fn batch_reply(app: &str, payload: &str) -> String {
    let program = algorithmic_motifs::motifs::server()
        .apply_src(app)
        .expect("Server motif applies");
    let goal = format!("create({SERVERS}, req({payload}, R))");
    let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(SERVERS))
        .expect("batch reference runs");
    // The network idles awaiting further messages — quiescent, by design.
    assert!(
        matches!(r.report.status, RunStatus::Quiescent { .. }),
        "{:?}",
        r.report.status
    );
    algorithmic_motifs::strand_parse::term_text(&r.bindings["R"])
}

/// Run `client` against a resident service over loopback TCP — the real
/// accept loop, wire protocol and session lifecycle — on one connection.
/// `client` gets `ask`: send one request line, return the reply line.
fn tcp_session(
    app: &str,
    cfg: ServeConfig,
    client: impl FnOnce(&mut dyn FnMut(&str) -> String),
) -> ServeSummary {
    let service = MotifService::start(app, cfg).expect("service boots");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("ephemeral addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve(listener, service, shutdown, Duration::from_secs(10)))
    };

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client timeout");
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    client(&mut |request| {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        line.trim().to_string()
    });
    drop((reader, writer));
    shutdown.store(true, Ordering::Release);
    let summary = serve_thread
        .join()
        .expect("serve loop joins")
        .expect("serve loop exits cleanly");
    assert_eq!(summary.report.metrics.sessions_opened, 1);
    assert_eq!(summary.report.metrics.sessions_closed, 1);
    summary
}

/// Replay payloads through a resident service and return the reply
/// payloads (the text after `OK `).
fn tcp_replay(app: &str, cfg: ServeConfig, payloads: &[&str]) -> Vec<String> {
    let mut replies = Vec::new();
    let summary = tcp_session(app, cfg, |ask| {
        for payload in payloads {
            let line = ask(payload);
            let reply = line
                .strip_prefix("OK ")
                .unwrap_or_else(|| panic!("expected OK for {payload:?}, got {line:?}"));
            replies.push(reply.to_string());
        }
    });
    assert_eq!(
        summary.report.metrics.requests_admitted,
        payloads.len() as u64
    );
    replies
}

/// Hostile request lines are refused with `ERR` — neither aborting the
/// process (a 60 KB line of `(` used to overflow the connection thread's
/// stack in the recursive-descent parser) nor pinning memory in the
/// never-freed symbol table (a 300-byte atom) — and the same connection
/// keeps being served.
#[test]
fn hostile_lines_get_err_and_the_connection_keeps_serving() {
    let deep = format!("{}1{}", "(".repeat(30_000), ")".repeat(30_000));
    let long_atom = "a".repeat(300);
    for backend in [ServeBackend::Parallel(1), ServeBackend::Parallel(2)] {
        let summary = tcp_session(ECHO_APP, serve_cfg(backend), |ask| {
            assert_eq!(ask("f(x)"), "OK f(x)");
            let reply = ask(&deep);
            assert!(reply.starts_with("ERR parse: "), "{backend:?}: {reply}");
            assert!(reply.contains("nested deeper"), "{backend:?}: {reply}");
            assert_eq!(ask("[1,2]"), "OK [1,2]");
            // Length is not nesting: a flat list filling the request cap is
            // served (it used to recurse once per element and abort too).
            let flat = format!("[{}]", vec!["1"; 32_000].join(","));
            assert_eq!(ask(&flat), format!("OK {flat}"));
            for hostile in [long_atom.clone(), format!("f(1, [{long_atom}])")] {
                let reply = ask(&hostile);
                assert!(reply.starts_with("ERR atom: "), "{backend:?}: {reply}");
                assert!(reply.contains("255-byte"), "{backend:?}: {reply}");
            }
            assert_eq!(ask("f(x)"), "OK f(x)");
        });
        assert_eq!(summary.report.metrics.requests_admitted, 4);
        assert!(strand_core::Atom::try_new(&long_atom).is_err());
    }
}

/// A request whose reply would be a non-finite float is answered `ERR`:
/// the handler's `:=` faults, as on an integer divide by zero, so nothing
/// binds the reply, where `inf` used to be written back — text that reads
/// back as an atom. The same connection keeps being served.
#[test]
fn an_overflowing_request_is_answered_err() {
    let near = batch_reply(DOUBLER_APP, "1.0e307");
    for backend in [ServeBackend::Parallel(1), ServeBackend::Parallel(2)] {
        let cfg = ServeConfig {
            reply_timeout_ms: 300,
            ..serve_cfg(backend)
        };
        let summary = tcp_session(DOUBLER_APP, cfg, |ask| {
            assert_eq!(ask("1.0e307"), format!("OK {near}"));
            let reply = ask("1.0e308");
            assert!(reply.starts_with("ERR "), "{backend:?}: {reply}");
            assert_eq!(ask("21"), "OK 42");
        });
        let errors = &summary.report.errors;
        let faulted =
            |e: &strand_core::StrandError| matches!(e, strand_core::StrandError::NonFinite { .. });
        assert!(errors.iter().any(|(_, e)| faulted(e)), "{errors:?}");
    }
}

#[test]
fn doubler_replay_matches_batch_on_every_backend() {
    let payloads = ["21", "0", "-17", "1000000"];
    let want: Vec<String> = payloads
        .iter()
        .map(|p| batch_reply(DOUBLER_APP, p))
        .collect();
    for backend in backends() {
        let got = tcp_replay(DOUBLER_APP, serve_cfg(backend), &payloads);
        assert_eq!(got, want, "replay diverged from batch on {backend:?}");
    }
}

#[test]
fn echo_replay_matches_batch_on_every_backend() {
    // Compound payloads: the reply round-trips through head matching, the
    // striped store, the resolver and the renderer — any divergence in
    // term construction between ingress and batch shows up here.
    let payloads = [
        "point(1, 2)",
        "[a, b, [c, 4]]",
        "nested(f(g(h)), [1, [2], x])",
        "atom",
    ];
    let want: Vec<String> = payloads.iter().map(|p| batch_reply(ECHO_APP, p)).collect();
    for backend in backends() {
        let got = tcp_replay(ECHO_APP, serve_cfg(backend), &payloads);
        assert_eq!(got, want, "replay diverged from batch on {backend:?}");
    }
}

/// The C1 burst on live code: 256 concurrent connections × 5 requests,
/// plain and then supervised. Every reply arrives, every session closes,
/// the engine parks idle afterwards and the collections reclaim slots.
#[test]
fn c_series_burst_of_256_connections_loses_no_reply() {
    for supervise in [false, true] {
        let p = bench::burst(256, 5, supervise);
        let what = if supervise { "supervised" } else { "plain" };
        assert_eq!(p.error, None, "{what}: the engine failed");
        assert_eq!(p.lost, 0, "{what}: lost {} of {}", p.lost, p.requests);
        assert_eq!(p.completed, p.requests, "{what}");
        // 256 requests in flight at most: far below `max_pending`.
        assert_eq!(p.busy_retries, 0, "{what}: admission bounced requests");
        assert_eq!(p.sessions_closed, p.clients, "{what}: sessions leaked");
        assert!(p.idle_parks > 0, "{what}: the engine never parked idle");
        assert!(
            p.vars_reclaimed > 0,
            "{what}: collections reclaimed nothing"
        );
    }
}

/// One client of [`burst_collecting_at_every_safe_point`]: five requests,
/// a `BUSY` retried after its hint. Returns the replies it did not get.
fn burst_client(addr: std::net::SocketAddr, c: i64) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client timeout");
    let (mut writer, mut reader) = (stream.try_clone().expect("clone"), BufReader::new(stream));
    let mut lost = 0;
    for q in (0..5).map(|k| c * 5 + k) {
        let mut line = String::new();
        for _ in 0..100 {
            line.clear();
            let sent = writer.write_all(format!("{q}\n").as_bytes());
            if sent.is_err() || reader.read_line(&mut line).is_err() {
                return lost + 1;
            }
            match line.trim().strip_prefix("BUSY ") {
                Some(ms) => std::thread::sleep(Duration::from_millis(ms.parse().unwrap_or(10))),
                None => break,
            }
        }
        lost += u64::from(line.trim() != format!("OK {}", q * 2));
    }
    lost
}

/// 256 connections × 5 requests over loopback TCP while a thread asks for
/// a collection in a loop. Returns the replies lost and the metrics.
fn burst_collecting_at_every_safe_point(supervise: bool) -> (u64, strand_machine::Metrics) {
    let cfg = ServeConfig {
        supervise,
        ..serve_cfg(ServeBackend::Parallel(0))
    };
    let service = Arc::new(MotifService::start(DOUBLER_APP, cfg).expect("service boots"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("ephemeral addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let (service, shutdown) = (Arc::clone(&service), Arc::clone(&shutdown));
        std::thread::spawn(move || serve(listener, service, shutdown, Duration::from_secs(30)))
    };
    let collecting = AtomicBool::new(true);
    let lost = std::thread::scope(|scope| {
        scope.spawn(|| {
            while collecting.load(Ordering::Acquire) {
                service.reclaim();
            }
        });
        let clients: Vec<_> = (0..256)
            .map(|c| {
                let client = std::thread::Builder::new().stack_size(128 * 1024);
                client
                    .spawn_scoped(scope, move || burst_client(addr, c))
                    .expect("spawn client")
            })
            .collect();
        let lost = clients.into_iter().map(|h| h.join().expect("client")).sum();
        collecting.store(false, Ordering::Release);
        lost
    });
    drop(service);
    shutdown.store(true, Ordering::Release);
    let summary = serve_thread
        .join()
        .expect("serve loop joins")
        .expect("serve loop exits");
    (lost, summary.report.metrics)
}

/// A thread asks for a collection in a loop — `reclaim()` collects at once
/// whenever the fleet is idle — while a 256-connection burst runs, plain
/// and supervised, and then while chaos-on-serve crashes two nodes under
/// 10% loss. Every safe point is a collection: a root the collector
/// misses frees a slot somebody still reads, and a reply goes missing or
/// comes back wrong here rather than three layers later.
#[test]
fn collections_at_every_safe_point_lose_no_reply() {
    for supervise in [false, true] {
        let (lost, m) = burst_collecting_at_every_safe_point(supervise);
        assert_eq!(lost, 0, "supervised: {supervise}");
        assert_eq!(m.sessions_closed, 256, "sessions leaked");
        assert!(m.collections > 0 && m.vars_reclaimed > 0, "{m:?}");
    }
    chaos_serve(2, true);
}

/// 1000 open/close cycles, each issuing requests, probing the live store
/// size after every close. The high-water mark across the tail must not
/// exceed the early-cycle mark: reclamation returns every session's slots
/// to the free list, so the store stops growing once the per-server
/// steady state is reached.
fn soak(backend: ServeBackend, cycles: usize) {
    let service = MotifService::start(DOUBLER_APP, serve_cfg(backend)).expect("service boots");
    let mut baseline = 0usize;
    for cycle in 0..cycles {
        let session = service.open_session();
        for k in 0..2i64 {
            let got = service.request(session, &(10 + k).to_string());
            assert_eq!(
                got,
                algorithmic_motifs::strand_serve::Response::Ok(((10 + k) * 2).to_string()),
                "cycle {cycle}"
            );
        }
        service.close_session(session);
        // Reclaim events ride the worker channels; idle means they landed.
        assert!(service.wait_idle(Duration::from_secs(10)), "cycle {cycle}");
        let len = service.store_len();
        if cycle < 10 {
            baseline = baseline.max(len);
        } else {
            assert!(
                len <= baseline,
                "store grew past the early high-water mark: {len} > {baseline} \
                 after cycle {cycle} (reclamation is leaking)"
            );
        }
    }
    let report = service.shutdown().expect("clean shutdown");
    eprintln!("[soak] shutdown returned");
    assert_eq!(report.metrics.sessions_opened, cycles as u64);
    assert_eq!(report.metrics.sessions_closed, cycles as u64);
    assert!(report.metrics.vars_reclaimed > 0);
}

#[test]
fn soak_one_thread_store_is_bounded_over_1000_sessions() {
    soak(ServeBackend::Parallel(1), 1000);
}

#[test]
fn soak_parallel_store_is_bounded_over_1000_sessions() {
    soak(ServeBackend::Parallel(2), 1000);
}

/// Close on the heels of the reply, with no sleep anywhere: two threads
/// each run 2000 x (open, one request, close at once) against one
/// `Parallel(2)` service. The reply probe is a sink, so nothing may be
/// bound on a request's behalf after its reply is delivered; if anything
/// were, the sweep that follows immediately would recycle the slot and the
/// late bind would land in the *other* thread's next reply variable — a
/// wrong reply here, which is how the soak first caught it. Afterwards the
/// store may hold at most `slots_per_request` slots per request served
/// beyond its warmed-up size (plus a constant: two sessions live at once
/// leave a higher free-list water mark than the sequential warm-up).
fn close_races_reply(cfg: ServeConfig, slots_per_request: usize) {
    let service = MotifService::start(DOUBLER_APP, cfg).expect("service boots");
    let cycle = |q: i64| {
        let s = service.open_session();
        assert_eq!(
            service.request(s, &q.to_string()),
            Response::Ok((q * 2).to_string()),
            "request {q}"
        );
        service.close_session(s);
    };
    (0..10).for_each(cycle);
    assert!(service.wait_idle(Duration::from_secs(10)));
    let warm = service.store_len();
    let (threads, per_thread) = (2i64, 2000i64);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cycle = &cycle;
            scope.spawn(move || (0..per_thread).for_each(|k| cycle(1000 + t * per_thread + k)));
        }
    });
    // Reclaim events ride the worker channels; idle means they landed.
    assert!(service.wait_idle(Duration::from_secs(10)));
    let (len, served) = (service.store_len(), (threads * per_thread) as usize);
    assert!(
        len <= warm + 32 + slots_per_request * served,
        "store grew from {warm} to {len} over {served} closed sessions"
    );
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.metrics.sessions_opened, served as u64 + 10);
    assert_eq!(report.metrics.sessions_closed, served as u64 + 10);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
}

#[test]
fn close_on_the_heels_of_reply_never_corrupts_a_recycled_slot() {
    // Plain Server: every slot a request allocates is its session's.
    close_races_reply(serve_cfg(ServeBackend::Parallel(2)), 0);
}

#[test]
fn close_on_the_heels_of_reply_never_corrupts_a_recycled_slot_supervised() {
    // Supervise's delivery bookkeeping keeps three region-0 slots per
    // accepted message (the `Seen` growth in ROADMAP's reclamation item);
    // everything else a request allocates is its session's and must be
    // gone.
    close_races_reply(supervised_cfg(2), 3);
}

// ---------------------------------------------------------------------------
// Supervised tier: Supervise ∘ Server resident on wall-clock timers
// ---------------------------------------------------------------------------

fn supervised_cfg(threads: u32) -> ServeConfig {
    ServeConfig {
        servers: SERVERS,
        backend: ServeBackend::Parallel(threads),
        supervise: true,
        ..ServeConfig::default()
    }
}

/// Issue one request, honoring `BUSY` by sleeping exactly the advertised
/// hint before retrying — the contract the supervised service makes cheap
/// by deriving the hint from the timer wheel's next-due horizon instead of
/// parroting the configured `retry_ms`.
fn request_with_retry(svc: &MotifService, s: Session, payload: &str) -> Response {
    for _ in 0..1_000 {
        match svc.request(s, payload) {
            Response::Busy(hint) => std::thread::sleep(Duration::from_millis(hint.max(1))),
            other => return other,
        }
    }
    panic!("backpressure never cleared for {payload:?}");
}

/// Supervision must be invisible when nothing fails: the same payloads
/// replayed through a supervised resident service (heartbeats beating,
/// acked `rsend` envelopes, wall-clock wheel armed) produce bit-identical
/// replies to the unsupervised batch reference at every thread count on
/// the conformance ladder.
#[test]
fn supervised_replay_is_bit_identical_to_unsupervised_when_clean() {
    let payloads = ["21", "0", "-17", "1000000"];
    let want: Vec<String> = payloads
        .iter()
        .map(|p| batch_reply(DOUBLER_APP, p))
        .collect();
    for threads in [1u32, 2, 4] {
        let got = tcp_replay(DOUBLER_APP, supervised_cfg(threads), &payloads);
        assert_eq!(
            got, want,
            "supervised replay diverged from batch at {threads} threads"
        );
    }
}

/// The doubler written for replay: the Supervise contract is that a
/// restarted server may see delivered-but-unacked envelopes again, so the
/// reply bind goes through the `put_arg/4` test-and-set (first delivery
/// wins, replays are no-ops) instead of a bare `:=` that would double-bind.
const REPLAY_SAFE_DOUBLER: &str = r#"
server([]).
server([halt|_]).
server([req(Q, R)|In]) :- put_reply(Q, R), server(In).
put_reply(Q, R) :- D := Q * 2, T := t(R), put_arg(1, T, D, _).
"#;

/// The acceptance scenario: crash nodes 2 and 4 mid-load, on top of 10%
/// cross-node delivery drop, while concurrent clients stream requests. No
/// client may lose its reply — requests routed at the dead nodes are
/// retransmitted by `rsend` until the supervisor's watch window expires
/// and restarts their servers from their durable wires, and the
/// service re-sends any still-unanswered request (same reply variable) at
/// a live node. The crashes must demonstrably land (`nodes_crashed`), and
/// recovery must run through the supervisor (`supervisor_restarts`), not
/// luck — so the clients pace their stream to hold the fleet resident
/// past the supervisor's watch window instead of finishing in a burst
/// that drains before any wall-clock deadline can expire.
fn chaos_serve_loses_no_client(threads: u32) {
    chaos_serve(threads, false);
}

/// [`chaos_serve_loses_no_client`], with a thread asking for a collection
/// in a loop while the clients run when `collect_always` is set.
fn chaos_serve(threads: u32, collect_always: bool) {
    // Calibrate "mid-load": on a fleet a crash triggers on the global
    // reduction counter, so measure what a clean boot plus the clients'
    // first round of requests costs and aim just past it. The fleet is then
    // necessarily booted (give or take chaos-retry noise) and the crash
    // lands no later than the second round, 0.4s into the paced load —
    // which leaves the fleet resident for more than a whole watch window
    // afterwards. Measured rather than a constant: what a request costs
    // in reductions is the library's business and has changed before.
    let clients = 4i64;
    let per_client = 8i64;
    let first_round_reductions = {
        let svc = MotifService::start(REPLAY_SAFE_DOUBLER, supervised_cfg(threads))
            .expect("calibration boot");
        let s = svc.open_session();
        for q in 1..=clients {
            assert_eq!(
                request_with_retry(&svc, s, &q.to_string()),
                Response::Ok((q * 2).to_string())
            );
        }
        svc.close_session(s);
        let report = svc.shutdown().expect("calibration shutdown");
        report.metrics.total_reductions
    };
    let mut cfg = supervised_cfg(threads);
    let crash_at = first_round_reductions + 10;
    cfg.faults = FaultPlan::default()
        .crash(2, crash_at)
        .crash(4, crash_at)
        .drop_prob(0.10)
        .seed(71);
    cfg.reply_timeout_ms = 30_000;
    let service =
        Arc::new(MotifService::start(REPLAY_SAFE_DOUBLER, cfg).expect("chaos service boots"));
    let collecting = Arc::new(AtomicBool::new(collect_always));
    let collector = {
        let (svc, collecting) = (Arc::clone(&service), Arc::clone(&collecting));
        std::thread::spawn(move || {
            while collecting.load(Ordering::Acquire) {
                svc.reclaim();
                std::thread::yield_now();
            }
        })
    };
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let s = svc.open_session();
            for k in 0..per_client {
                // Pace the stream: 8 requests x 400ms keeps this client
                // active for ~3.2s, comfortably past the supervisor's
                // 1.8s watch window, so the restart fires under load.
                if k > 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                let q = c * per_client + k + 1;
                match request_with_retry(&svc, s, &q.to_string()) {
                    Response::Ok(reply) => assert_eq!(
                        reply,
                        (q * 2).to_string(),
                        "client {c} got a wrong reply for {q}"
                    ),
                    other => panic!("client {c} lost request {q}: {other:?}"),
                }
            }
            svc.close_session(s);
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }
    collecting.store(false, Ordering::Release);
    collector.join().expect("collector thread panicked");
    let service = Arc::try_unwrap(service).ok().expect("all clients joined");
    let report = service.shutdown().expect("chaos shutdown");
    assert_eq!(
        report.metrics.nodes_crashed, 2,
        "both crashes must land at {threads} threads"
    );
    assert!(
        report.metrics.supervisor_restarts > 0,
        "recovery must run through the supervisor at {threads} threads: {:?}",
        report.metrics
    );
    assert!(
        report.metrics.timers_fired > 0,
        "retransmit/watch deadlines must have fired: {:?}",
        report.metrics
    );
}

#[test]
fn chaos_on_serve_2_threads_loses_no_client() {
    chaos_serve_loses_no_client(2);
}

#[test]
fn chaos_on_serve_4_threads_loses_no_client() {
    chaos_serve_loses_no_client(4);
}

/// Supervised quick soak: 200 session cycles through `request_with_retry`,
/// which would answer a `BUSY` by sleeping the advertised wheel-derived
/// hint (one client has one request in flight, so admission bounces none;
/// the admission tests below produce them). Every cycle must complete and
/// session reclamation must keep working with the supervision machinery
/// resident.
#[test]
fn soak_supervised_sessions_complete_honoring_busy_hints() {
    let service = MotifService::start(DOUBLER_APP, supervised_cfg(2)).expect("service boots");
    let cycles = 200i64;
    for cycle in 0..cycles {
        let s = service.open_session();
        let q = cycle + 1;
        match request_with_retry(&service, s, &q.to_string()) {
            Response::Ok(reply) => assert_eq!(reply, (q * 2).to_string(), "cycle {cycle}"),
            other => panic!("cycle {cycle} failed: {other:?}"),
        }
        service.close_session(s);
    }
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.metrics.sessions_opened, cycles as u64);
    assert_eq!(report.metrics.sessions_closed, cycles as u64);
    assert!(report.metrics.requests_admitted >= cycles as u64);
    assert!(report.metrics.timers_armed > 0, "{:?}", report.metrics);
    assert!(report.metrics.vars_reclaimed > 0, "{:?}", report.metrics);
}

/// One session, 400 000 requests: every supervised server ends up holding
/// a `Seen` list of ~100 000 cells (one cons per distinct message, never
/// trimmed), which the engine must be able to let go of at shutdown — a
/// recursive drop of a chain that long overflows a 2 MiB thread stack.
/// Also the wall-clock twin of the library's linear-cost tests: at a
/// per-request cost that grew with age this would not finish.
#[test]
#[ignore = "soak: 400k requests, ~30 s in release"]
fn soak_supervised_session_survives_400k_requests_and_shuts_down() {
    let service = MotifService::start(DOUBLER_APP, supervised_cfg(2)).expect("service boots");
    let s = service.open_session();
    let requests = 400_000i64;
    for q in 0..requests {
        match request_with_retry(&service, s, &q.to_string()) {
            Response::Ok(reply) => assert_eq!(reply, (q * 2).to_string(), "request {q}"),
            other => panic!("request {q} failed: {other:?}"),
        }
    }
    service.close_session(s);
    let report = service.shutdown().expect("clean shutdown");
    assert!(report.metrics.requests_admitted >= requests as u64);
}

/// A handler that waits on a variable nobody binds: `stall` requests time
/// out and leave an `await/2` process and the reply probe suspended.
const STALLING_APP: &str = r#"
server([]).
server([halt|_]).
server([req(Q, R)|In]) :- answer(Q, R), server(In).
answer(stall, R) :- await(_, R).
answer(Q, R) :- integer(Q) | R := Q * 2.
await(Go, R) :- Go == go | R := done.
"#;

/// An abandoned request is collected, not kept: once its session closes,
/// the collection frees its suspended processes — the shutdown report
/// counts only the servers' loops, as after a clean session — and its
/// slots.
#[test]
fn an_abandoned_request_is_collected_not_kept() {
    let run = |payloads: &[&str]| {
        let mut cfg = serve_cfg(ServeBackend::Parallel(2));
        cfg.reply_timeout_ms = 200;
        let service = MotifService::start(STALLING_APP, cfg).expect("service boots");
        let s = service.open_session();
        for q in payloads {
            match (service.request(s, q), *q) {
                (Response::Err(e), "stall") => assert!(e.contains("no reply"), "{e}"),
                (Response::Ok(reply), q) => {
                    assert_eq!(reply, (q.parse::<i64>().unwrap() * 2).to_string())
                }
                (other, q) => panic!("{q}: {other:?}"),
            }
        }
        service.close_session(s);
        assert!(service.wait_idle(Duration::from_secs(10)));
        service.shutdown().expect("clean shutdown")
    };
    let clean = run(&["4", "5"]);
    let stalled = run(&["4", "stall", "stall", "5"]);
    let suspended = |r: &algorithmic_motifs::strand_machine::RunReport| match r.status {
        RunStatus::Quiescent { suspended } => suspended,
        ref other => panic!("{other:?}"),
    };
    assert_eq!(
        suspended(&stalled),
        suspended(&clean),
        "{:?}",
        stalled.suspended_goals
    );
    assert_eq!(suspended(&clean), SERVERS as usize, "one loop per server");
    // Each stall leaves its reply variable, `Go` and a stream cell.
    let extra = stalled.metrics.vars_reclaimed - clean.metrics.vars_reclaimed;
    assert!(extra >= 2 * 3, "{extra} more slots reclaimed");
}

/// Admission counts the requests the service is waiting on. With one
/// `stall` in flight and `max_pending = 1` the next request is answered
/// `BUSY` — under supervision with a hint no later than `retry_ms` — and
/// once the stall has timed out a request is admitted and answered again.
#[test]
fn a_request_past_max_pending_in_flight_gets_busy_until_one_finishes() {
    for supervise in [false, true] {
        let mut cfg = if supervise {
            supervised_cfg(2)
        } else {
            serve_cfg(ServeBackend::Parallel(2))
        };
        cfg.max_pending = 1;
        cfg.reply_timeout_ms = 300;
        let retry_ms = cfg.retry_ms;
        let service = MotifService::start(STALLING_APP, cfg).expect("service boots");
        let s = service.open_session();
        std::thread::scope(|scope| {
            let stall = scope.spawn(|| service.request(s, "stall"));
            // The stall is suspended, not queued: it holds nothing but its
            // admission until it times out.
            let deadline = Instant::now() + Duration::from_millis(100);
            while service.pending() == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            match service.request(s, "4") {
                Response::Busy(hint) if supervise => {
                    assert!((1..=retry_ms).contains(&hint), "hint {hint}ms")
                }
                Response::Busy(hint) => assert_eq!(hint, retry_ms),
                other => panic!("admitted past max_pending = 1: {other:?}"),
            }
            match stall.join().unwrap() {
                Response::Err(e) => assert!(e.contains("no reply"), "{e}"),
                other => panic!("stall: {other:?}"),
            }
        });
        assert_eq!(service.pending(), 0, "the timed-out stall left");
        assert_eq!(service.request(s, "5"), Response::Ok("10".to_string()));
        service.close_session(s);
        let report = service.shutdown().expect("clean shutdown");
        assert_eq!(report.metrics.requests_rejected, 1, "supervise {supervise}");
        assert_eq!(report.metrics.requests_admitted, 2, "supervise {supervise}");
    }
}

/// Admission is one critical section: 8 threads sending `stall` at once
/// against `max_pending = 3` get exactly 3 admissions and 5 `BUSY`s.
#[test]
fn concurrent_requests_are_admitted_exactly_up_to_max_pending() {
    let mut cfg = serve_cfg(ServeBackend::Parallel(2));
    cfg.max_pending = 3;
    cfg.reply_timeout_ms = 2_000;
    let service = MotifService::start(STALLING_APP, cfg).expect("service boots");
    let s = service.open_session();
    let start = std::sync::Barrier::new(8);
    let replies: Vec<Response> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    service.request(s, "stall")
                })
            })
            .collect();
        senders.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let busy = replies.iter().filter(|r| matches!(r, Response::Busy(_)));
    assert_eq!(busy.count(), 5, "{replies:?}");
    service.close_session(s);
    let report = service.shutdown().expect("clean shutdown");
    let m = &report.metrics;
    assert_eq!((m.requests_admitted, m.requests_rejected), (3, 5));
}

/// One connection, 2.5 M plain requests. Under session regions a
/// persistent connection's slots were never swept, and stripe 0 ran out of
/// its 2^22 variable indices at about 1.68 M requests; collections keep
/// the store where it was after the first 100 k.
#[test]
#[ignore = "soak: 2.5M requests, ~2 min in release"]
fn a_persistent_connection_outlives_the_old_index_space() {
    let service = MotifService::start(DOUBLER_APP, serve_cfg(ServeBackend::Parallel(2)))
        .expect("service boots");
    let s = service.open_session();
    let mut after_100k = 0;
    for q in 0..2_500_000i64 {
        assert_eq!(
            service.request(s, &q.to_string()),
            Response::Ok((q * 2).to_string()),
            "request {q}"
        );
        if q == 100_000 {
            after_100k = service.store_len();
        }
    }
    let end = service.store_len();
    assert!(
        end <= after_100k,
        "store grew from {after_100k} to {end} slots"
    );
    service.close_session(s);
    let report = service.shutdown().expect("clean shutdown");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
}
