//! The **Supervise** motif: fault-tolerant servers by composition.
//!
//! The paper's motifs assume a perfect machine. `Supervise` is the
//! robustness counterpart: applied *outside* the Server motif
//! (`Supervise ∘ Server` or `Supervise ∘ Server ∘ Rand`), it upgrades the
//! unreliable server network to sequence-numbered, acknowledged, retried
//! delivery with per-node heartbeat monitors that restart a crashed
//! server's loop on a spare node — without touching the application.
//!
//! **Transformation** (applies to a Server-staged program):
//!
//! 1. every `distribute(I, DT, M)` becomes `rsend(I, DT, M)` — the message
//!    is wrapped in a `msg(Seq, Ack, M)` envelope and resent with
//!    exponential backoff (virtual time) until the receiver acknowledges;
//! 2. the Server library's `server_init/2` and `spawn_servers/2` rules are
//!    replaced by supervised versions from this motif's library.
//!
//! **Library**: each node's inbox becomes a durable *wire* (a port stream
//! in the global store — it survives its consumer). A delivery loop acks
//! every envelope, suppresses duplicates by sequence number, and feeds the
//! application's `server/2`. A monitor on the next node watches a
//! heartbeat stream; on silence it restarts the delivery loop — and with
//! it the server — on its own node, replaying the wire from the start.
//!
//! The guarantee is *at-least-once*: retries are deduplicated, but a
//! restart replays messages the dead server may already have handled, so
//! supervised applications must keep handlers idempotent (bind reply
//! variables with `ack/1`, or tolerate re-execution). Delivery is bounded:
//! a sender gives up after six attempts, so a partitioned network degrades
//! to message loss instead of hanging forever.

use crate::motif::Motif;
use crate::server::server;
use transform::rewrite::replace_calls;
use transform::{TransformError, Transformation};

use strand_parse::{Ast, Call, Program};

/// The supervision library. Timing constants (in virtual ticks, against
/// the default 10-tick latency): heartbeat every 500, monitor timeout
/// 1800 (≈3 missed beats), first retry after 400 doubling per attempt.
pub const SUPERVISE_LIBRARY: &str = r#"
% Supervise motif library: acked delivery, heartbeats, crash restart.

% Reliable bootstrap: re-place server_init until the wire slot appears
% (a dropped remote spawn would otherwise lose a whole server). The
% first attempts target the server's home node; later attempts fail
% over to the next node — a home shard that died before booting would
% otherwise swallow every retry and server J would never exist
% anywhere. put_arg's test-and-set keeps a late home boot harmless.
spawn_servers(0, _).
spawn_servers(J, DT) :- J > 0 |
    boot(J, DT, 0),
    J1 := J - 1,
    spawn_servers(J1, DT).

boot(J, DT, K) :- K < 3 |
    server_init(J, J, DT)@J,
    arg(J, DT, Slot),
    after_unless(Slot, 600, T),
    bwait(T, Slot, J, DT, K).
boot(J, DT, K) :- K >= 3 |
    length(DT, N),
    H := J mod N + 1,
    server_init(H, J, DT)@H,
    arg(J, DT, Slot),
    after_unless(Slot, 600, T),
    bwait(T, Slot, J, DT, K).
bwait(_, Slot, J, DT, _) :- data(Slot) | mplace(Slot, J, DT).
bwait(timeout, Slot, J, DT, K) :- unknown(Slot), K < 8 |
    K1 := K + 1,
    boot(J, DT, K1).
bwait(timeout, Slot, _, _, K) :- unknown(Slot), K >= 8 | true.

% Supervised server_init, running on host node H (home or failover);
% the wire port is the durable inbox. The slot fill is a test-and-set
% (put_arg/4), so a duplicated server_init delivery — bootstrap retry
% racing a slow spawn, or chaos duplication — loses the race and stands
% down instead of double-starting the server. The slot carries the
% wire, the stop flag, and the host alongside the port so the bootstrap
% side can hand them to the monitor.
server_init(H, J, DT) :-
    open_port(P, Wire),
    put_arg(J, DT, m(P, Wire, Stop, H), Won),
    init_won(Won, Wire, DT, Stop).
init_won(no, _, _, _).
init_won(yes, Wire, DT, Stop) :-
    deliver(Wire, DT, Stop).

% Monitor placement is driven from the *bootstrap* node, not from the
% host H: a retry loop on H dies with H, exactly when it is needed
% most. From here it stands on ground that survives H's death, and it
% re-places the monitor until one acknowledges (a remote spawn can be
% lost to a dropped cross-machine batch). A retry racing a slow spawn
% — or several boot attempts each reaching mplace — yields extra
% monitors, which at worst duplicate a restart: at-least-once, as
% everywhere in this library.
mplace(m(_, Wire, Stop, H), _, DT) :-
    length(DT, N),
    M := H mod N + 1,
    mboot(H, M, Wire, DT, Stop, 0).
mboot(H, M, Wire, DT, Stop, K) :-
    sup_mon(H, Wire, DT, Stop, MAck)@M,
    after_unless(MAck, 600, T),
    mbwait(T, MAck, H, M, Wire, DT, Stop, K).
mbwait(_, MAck, _, _, _, _, _, _) :- data(MAck) | true.
mbwait(timeout, MAck, H, M, Wire, DT, Stop, K) :- unknown(MAck), K < 5 |
    K1 := K + 1,
    mboot(H, M, Wire, DT, Stop, K1).
mbwait(timeout, MAck, _, _, _, _, _, K) :- unknown(MAck), K >= 5 | true.

% Delivery loop: start a server and consume the wire.
deliver(Wire, DT, Stop) :-
    server(In, DT),
    dlv(Wire, [], In, Stop).

% Ack every envelope (even duplicates — the sender may be retrying
% because the first ack raced a timeout), then dedup by sequence number.
dlv([msg(Seq, Ack, M)|W], Seen, In, Stop) :-
    ack(Ack),
    seen(Seq, Seen, F, Seen1),
    fwd(F, M, W, Seen1, In, Stop).

% Seen is sorted newest-first and seen/4 returns it with Seq in place.
% Sequence numbers come from one run-wide counter, so a fresh envelope
% beats the head and costs one reduction however long the server has
% been up; a retransmit or a reordered arrival walks only as far as its
% own position. The set stays exact: nothing is ever forgotten.
seen(Seq, [], F, Seen1) :- F := no, Seen1 = [Seq].
seen(Seq, [S|R], F, Seen1) :- Seq > S | F := no, Seen1 = [Seq, S|R].
seen(Seq, [S|R], F, Seen1) :- Seq == S | F := yes, Seen1 = [S|R].
seen(Seq, [S|R], F, Seen1) :- Seq < S |
    Seen1 = [S|R1],
    seen(Seq, R, F, R1).

fwd(yes, _, W, Seen, In, Stop) :- dlv(W, Seen, In, Stop).
fwd(no, halt, _, _, In, Stop) :-
    In = [halt|_],
    ack(Stop).
fwd(no, M, W, Seen, In, Stop) :- otherwise |
    In = [M|In1],
    dlv(W, Seen, In1, Stop).

% Reliable send: envelope, timeout, retry with exponential backoff.
% `Done` is acked on success and on give-up (bounded waiting).
rsend(I, DT, M) :- rsend(I, DT, M, _).
rsend(I, DT, M, Done) :-
    unique_id(Seq),
    rsend1(I, DT, M, Seq, 0, 400, Done).

rsend1(I, DT, M, Seq, K, TO, Done) :-
    distribute(I, DT, msg(Seq, Ack, M)),
    after_unless(Ack, TO, T),
    rwait(Ack, T, I, DT, M, Seq, K, TO, Done).

rwait(Ack, _, _, _, _, _, _, _, Done) :- Ack == ok | ack(Done).
rwait(Ack, timeout, I, DT, M, Seq, K, TO, Done) :- unknown(Ack), K < 5 |
    K1 := K + 1,
    TO1 := TO * 2,
    rsend1(I, DT, M, Seq, K1, TO1, Done).
rwait(Ack, timeout, _, _, _, _, K, _, Done) :- unknown(Ack), K >= 5 |
    ack(Done).

% Monitor: a beater on the watched node feeds a heartbeat stream owned
% by the monitor's node; silence for a whole watch window means the
% watched node is dead — restart its delivery loop here, replaying the
% wire (the inbox survived the crash in the global store).
sup_mon(J, Wire, DT, Stop, MAck) :-
    ack(MAck),
    open_port(BP, Beats),
    beater(Stop, BP)@J,
    watch(Beats, J, Wire, DT, Stop).

beater(Stop, BP) :-
    send_port(BP, beat),
    after_unless(Stop, 500, T),
    beater1(T, Stop, BP).
% On halt, one farewell beat defuses the monitor's armed timer.
beater1(_, Stop, BP) :- Stop == ok | send_port(BP, beat).
beater1(timeout, Stop, BP) :- unknown(Stop) | beater(Stop, BP).

watch(Beats, J, Wire, DT, Stop) :-
    after_unless(Beats, 1800, T),
    mwait(Beats, T, J, Wire, DT, Stop).
mwait(_, _, _, _, _, Stop) :- Stop == ok | true.
mwait([_|Beats], T, J, Wire, DT, Stop) :- unknown(Stop) |
    watch(Beats, J, Wire, DT, Stop).
mwait(Beats, timeout, _, Wire, DT, Stop) :- unknown(Beats), unknown(Stop) |
    sup_restart,
    deliver(Wire, DT, Stop).
"#;

/// The Supervise transformation.
pub struct SuperviseTransform;

const NAME: &str = "Supervise";

impl Transformation for SuperviseTransform {
    fn name(&self) -> &str {
        NAME
    }

    fn apply(&self, program: &Program) -> Result<Program, TransformError> {
        // The input must be Server-staged: threaded server/2 plus the
        // server library. Compose as `supervise().compose(&server())`.
        if program.get("server", 2).is_none() || program.get("server_init", 2).is_none() {
            return Err(TransformError::new(
                NAME,
                "Supervise applies to a Server-staged program; compose it \
                 outside the Server motif (Supervise o Server)",
            ));
        }
        // Replace the unsupervised bootstrap with the library's versions.
        let mut kept = Program::new();
        for rule in program.rules() {
            match rule.key() {
                (ref n, 2) if n == "server_init" || n == "spawn_servers" => {}
                _ => kept.push_rule(rule.clone()),
            }
        }
        // Every send — the application's and the server library's alike —
        // becomes reliable. The motif's own library is linked afterwards,
        // untransformed, so rsend's internal distribute stays low-level
        // (exactly the paper's M(A) = T(A) ∪ L staging).
        Ok(replace_calls(&kept, &|call: &Call, _fresh| {
            let (name, arity) = call.goal.functor()?;
            if name != "distribute" || !(arity == 3 || arity == 4) {
                return None;
            }
            Some(vec![Call::new(Ast::tuple(
                "rsend",
                call.goal.args().to_vec(),
            ))])
        }))
    }
}

/// The Supervise motif: `{SuperviseTransform, supervision library}`.
pub fn supervise() -> Motif {
    let library = strand_parse::parse_program(SUPERVISE_LIBRARY).expect("supervise library parses");
    Motif::new(NAME, SuperviseTransform, library)
}

/// The supervised server motif: `Supervise ∘ Server`.
pub fn supervised_server() -> Motif {
    supervise().compose(&server())
}

/// The supervised random-mapping motif: `Supervise ∘ Server ∘ Rand`.
pub fn supervised_random() -> Motif {
    supervise().compose(&crate::rand_map::random())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_machine::{run_parsed_goal, FaultPlan, MachineConfig, RunStatus};
    use strand_parse::pretty;

    /// The Server motif's ring, slowed with `work/1` so a mid-run crash
    /// has a wide window to land in. The token visits every server once,
    /// printing its number, then halts the network.
    const RING: &str = r#"
        server([token(K)|In]) :- pass(K), server(In).
        server([halt|_]).
        pass(K) :- work(40), print(K), nodes(N), next(K, N).
        next(K, N) :- K < N | K1 := K + 1, send(K1, token(K1)).
        next(N, N) :- halt.
    "#;

    #[test]
    fn transformation_rewrites_sends_and_bootstrap() {
        let staged = server().apply_src(RING).unwrap();
        let out = SuperviseTransform.apply(&staged).unwrap();
        let s = pretty(&out);
        assert!(s.contains("rsend(K1, DT, token(K1))"), "{s}");
        assert!(!s.contains("distribute("), "all sends reliable: {s}");
        // The unsupervised bootstrap is gone (library supplies its own).
        assert!(out.get("server_init", 2).is_none());
        assert!(out.get("spawn_servers", 2).is_none());
    }

    #[test]
    fn requires_a_server_staged_program() {
        let e = supervise().apply_src(RING).unwrap_err();
        assert!(e.message.contains("Server-staged"), "{e}");
    }

    #[test]
    fn supervised_ring_completes_on_a_perfect_machine() {
        let p = supervised_server().apply_src(RING).unwrap();
        let r = run_parsed_goal(&p, "create(4, token(1))", MachineConfig::with_nodes(4)).unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.errors
        );
        assert_eq!(r.report.output, vec!["1", "2", "3", "4"]);
    }

    /// The acceptance scenario: one fault plan, two motifs. The plain
    /// Server ring is wrecked by a crash; the same unmodified application
    /// under Supervise completes via heartbeat-triggered restart.
    #[test]
    fn crash_partitions_plain_ring_but_supervised_ring_completes() {
        let plan = || FaultPlan::default().crash(2, 60);

        let plain = server().apply_src(RING).unwrap();
        let r = run_parsed_goal(
            &plain,
            "create(4, token(1))",
            MachineConfig::with_nodes(4).faults(plan()),
        )
        .unwrap();
        match &r.report.status {
            RunStatus::Partitioned {
                suspended,
                crashed_nodes,
                ..
            } => {
                assert!(*suspended >= 1);
                assert_eq!(crashed_nodes, &vec![2]);
            }
            other => panic!("plain ring should partition, got {other:?}"),
        }
        assert!(
            !r.report.output.contains(&"4".to_string()),
            "{:?}",
            r.report.output
        );

        let sup = supervised_server().apply_src(RING).unwrap();
        let r = run_parsed_goal(
            &sup,
            "create(4, token(1))",
            MachineConfig::with_nodes(4).faults(plan()),
        )
        .unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "supervised ring must survive the crash; errors: {:?}",
            r.report.errors
        );
        // Server 2's work restarts on node 3 and the token still gets
        // around (the wire replay may re-print 2: at-least-once).
        for k in ["1", "2", "3", "4"] {
            assert!(
                r.report.output.contains(&k.to_string()),
                "token must visit server {k}: {:?}",
                r.report.output
            );
        }
        assert_eq!(r.report.metrics.nodes_crashed, 1);
    }

    #[test]
    fn supervised_ring_survives_heavy_message_loss() {
        let plan = FaultPlan::default().drop_prob(0.3).seed(42);
        let p = supervised_server().apply_src(RING).unwrap();
        let r = run_parsed_goal(
            &p,
            "create(4, token(1))",
            MachineConfig::with_nodes(4).faults(plan),
        )
        .unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.errors
        );
        // At 30% loss, lost heartbeats can trigger a false-positive
        // restart whose wire replay re-runs handlers — at-least-once, not
        // exactly-once. Every token must appear; repeats are legitimate.
        for k in ["1", "2", "3", "4"] {
            assert!(
                r.report.output.contains(&k.to_string()),
                "missing {k}: {:?}",
                r.report.output
            );
        }
        assert!(r.report.metrics.msgs_dropped > 0, "the plan did inject");
    }

    #[test]
    fn duplicate_envelopes_are_suppressed() {
        // Duplicate every delivery on the 2→3 edge: the token(3) envelope
        // arrives twice with the same sequence number, and the dedup list
        // must keep server 3 from running it twice.
        let plan = FaultPlan::default().edge(
            2,
            3,
            strand_machine::EdgeFaults {
                dup_prob: 1.0,
                ..Default::default()
            },
        );
        let p = supervised_server().apply_src(RING).unwrap();
        let r = run_parsed_goal(
            &p,
            "create(3, token(1))",
            MachineConfig::with_nodes(3).faults(plan),
        )
        .unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.errors
        );
        assert_eq!(r.report.output, vec!["1", "2", "3"]);
        assert!(r.report.metrics.msgs_duplicated >= 1);
    }

    /// `seen/4` is the whole dedup: a reordered arrival (7 after 9) is
    /// new and lands in its sorted place; its retransmit, and a
    /// retransmit of the oldest entry, are duplicates and change nothing.
    #[test]
    fn seen_keeps_an_exact_set_sorted_newest_first() {
        let src = format!(
            "{SUPERVISE_LIBRARY}
            probe(Fs, S) :-
                seen(5, [], F1, S1), seen(9, S1, F2, S2), seen(7, S2, F3, S3),
                seen(7, S3, F4, S4), seen(5, S4, F5, S5), seen(11, S5, F6, S),
                Fs = [F1, F2, F3, F4, F5, F6]."
        );
        let p = strand_parse::parse_program(&src).unwrap();
        let r = run_parsed_goal(&p, "probe(Fs, S)", MachineConfig::with_nodes(1)).unwrap();
        assert_eq!(r.bindings["Fs"].to_string(), "[no,no,no,yes,yes,no]");
        assert_eq!(r.bindings["S"].to_string(), "[11,9,7,5]");
    }

    /// The same through the delivery loop: every envelope is acked,
    /// the application sees each distinct message exactly once, in
    /// arrival order.
    #[test]
    fn delivery_loop_forwards_a_reordered_message_exactly_once() {
        let p = strand_parse::parse_program(SUPERVISE_LIBRARY).unwrap();
        let goal = "dlv([msg(5,A1,a), msg(9,A2,b), msg(7,A3,c), msg(7,A4,c), \
                    msg(5,A5,a), msg(11,A6,halt)], [], In, Stop)";
        let r = run_parsed_goal(&p, goal, MachineConfig::with_nodes(1)).unwrap();
        let stream = r.bindings["In"].to_string();
        assert!(stream.starts_with("[a,b,c,halt|"), "{stream}");
        for ack in ["A1", "A2", "A3", "A4", "A5", "A6", "Stop"] {
            assert_eq!(r.bindings[ack].to_string(), "ok", "{ack}");
        }
    }

    /// Server 1 feeds server 2 `N` acked messages one at a time (no
    /// retransmits: a round trip is far inside the 400-tick window), then
    /// holds the network open for 4000 ticks before halting — room for a
    /// crash, a watch timeout and a replay.
    const FEED: &str = r#"
        server([go(N)|In]) :- feed(N), server(In).
        server([tick|In]) :- server(In).
        server([halt|_]).
        feed(N) :- N > 0 | send(2, tick, Done), fed(Done, N).
        feed(0) :- after_unless(_, 4000, T), fin(T).
        fed(ok, N) :- N1 := N - 1, feed(N1).
        fin(timeout) :- halt.
    "#;

    fn feed_run(n: u32, faults: FaultPlan) -> strand_machine::Metrics {
        let p = supervised_server().apply_src(FEED).unwrap();
        let goal = format!("create(3, go({n}))");
        let r = run_parsed_goal(&p, &goal, MachineConfig::with_nodes(3).faults(faults)).unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.errors
        );
        r.report.metrics
    }

    /// Doubling the messages must add the same reductions each time, up
    /// to the heartbeats that tick with virtual time.
    fn assert_linear(what: &str, r: [u64; 3]) {
        let (d1, d2) = (r[1] - r[0], r[2] - r[1]);
        assert!(
            d2.abs_diff(2 * d1) <= 64,
            "{what}: reductions {r:?} are not linear in the message count"
        );
    }

    /// The regression this guards: dedup used to scan every sequence
    /// number the server had ever accepted, so a server's cost per
    /// message grew with its age and total cost was quadratic.
    #[test]
    fn cost_per_message_is_flat_in_server_age() {
        let r = [200, 400, 800].map(|n| feed_run(n, FaultPlan::default()).total_reductions);
        assert_linear("clean feed", r);
    }

    /// Crash server 2's node once it holds all `n` messages: the monitor
    /// restarts it from the wire with an empty `Seen`, and replaying `n`
    /// in-order messages must cost O(n), not O(n²).
    #[test]
    fn wire_replay_after_a_crash_is_linear() {
        let r = [200u32, 400, 800].map(|n| {
            let clean = feed_run(n, FaultPlan::default());
            let crash_at = clean.makespan - 3500;
            let m = feed_run(n, FaultPlan::default().crash(2, crash_at));
            assert_eq!(m.nodes_crashed, 1);
            assert!(m.supervisor_restarts >= 1, "n={n}: no restart");
            m.total_reductions - clean.total_reductions
        });
        assert!(r[0] >= 200, "replay re-delivers every message: {r:?}");
        assert_linear("replay", r);
    }

    #[test]
    fn duplicated_bootstrap_is_idempotent() {
        // Duplicate EVERY cross-node delivery: each server_init spawn (and
        // every envelope) arrives twice. The put_arg/4 test-and-set lets
        // exactly one copy win per node; the losers stand down instead of
        // double-starting the server and double-filling the wire slot.
        let plan = FaultPlan::default().dup_prob(1.0).seed(3);
        let p = supervised_server().apply_src(RING).unwrap();
        let r = run_parsed_goal(
            &p,
            "create(4, token(1))",
            MachineConfig::with_nodes(4).faults(plan),
        )
        .unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.errors
        );
        for k in ["1", "2", "3", "4"] {
            assert!(
                r.report.output.contains(&k.to_string()),
                "missing {k}: {:?}",
                r.report.output
            );
        }
        assert!(r.report.metrics.msgs_duplicated >= 1);
    }

    #[test]
    fn restarts_are_counted_in_metrics() {
        let plan = FaultPlan::default().crash(2, 60);
        let sup = supervised_server().apply_src(RING).unwrap();
        let r = run_parsed_goal(
            &sup,
            "create(4, token(1))",
            MachineConfig::with_nodes(4).faults(plan),
        )
        .unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        assert!(
            r.report.metrics.supervisor_restarts >= 1,
            "the heartbeat-timeout rule must count its restarts"
        );
    }

    #[test]
    fn library_is_about_a_page() {
        // §3.6 scale: serious fault tolerance in a page of library code.
        let rules = supervise().library_rules();
        assert!((15..=40).contains(&rules), "{rules} rules");
    }
}
