//! The **Server** motif (§3.2).
//!
//! Provides *"a fully connected set of named servers, each capable of
//! initiating computations upon receipt of messages from other servers"*.
//! The application supplies a one-argument `server/1` definition (a stream
//! of incoming messages) and may call three operations:
//!
//! * `send(Node, Msg)` — deliver `Msg` to server `Node`;
//! * `send(Node, Msg, Ack)` — same, binding `Ack := ok` after the append
//!   (an extension used when explicit sequencing is needed);
//! * `nodes(N)` — bind `N` to the number of servers;
//! * `halt` — broadcast the `halt` message to every server.
//!
//! The **transformation** implements the paper's four steps: thread the
//! stream-tuple argument `DT` through every procedure that (transitively)
//! uses the operations — and through `server/1` itself — then translate
//! `send/nodes/halt` into the low-level `distribute/length/broadcast`
//! primitives. The **library** (the analogue of Figure 3) creates the
//! network: one server per machine node, each reading a merged input
//! stream, with the tuple of write ports shared by all.

use crate::motif::Motif;
use std::collections::BTreeSet;
use transform::callgraph::{CallGraph, Key};
use transform::rewrite::{thread_argument, FreshVars};
use transform::TransformError;

use strand_parse::{Ast, Call, Program};

/// The server library. `create(N, Msg)` builds an N-server network and
/// delivers the initial message `Msg` to server 1. Each server runs on its
/// own machine node; its input stream is the read end of a port, which
/// realizes Figure 3's `merge` of all incoming streams; `DT` is the tuple
/// of all write ports, filled in by each server as it starts (callers of
/// `distribute` synchronize on the slots by dataflow).
pub const SERVER_LIBRARY: &str = r#"
% Server motif library (the analogue of the paper's Figure 3).
create(N, Msg) :-
    make_tuple(N, DT),
    spawn_servers(N, DT),
    distribute(1, DT, Msg).

spawn_servers(0, _).
spawn_servers(J, DT) :- J > 0 |
    server_init(J, DT)@J,
    J1 := J - 1,
    spawn_servers(J1, DT).

server_init(J, DT) :-
    open_port(P, In),
    put_arg(J, DT, P),
    server(In, DT).

broadcast_halt(DT) :-
    length(DT, N),
    bcast(N, DT).

bcast(0, _).
bcast(J, DT) :- J > 0 |
    distribute(J, DT, halt),
    J1 := J - 1,
    bcast(J1, DT).
"#;

const NAME: &str = "Server";

fn prim_keys() -> Vec<Key> {
    vec![
        ("send".to_string(), 2),
        ("send".to_string(), 3),
        ("nodes".to_string(), 1),
        ("halt".to_string(), 0),
    ]
}

/// The Server transformation (§3.2, steps 1–4).
fn server_transform(program: &Program) -> Result<Program, TransformError> {
    if program.get("server", 1).is_none() {
        return Err(TransformError::new(
            NAME,
            "application must define server/1 (a rule per message type \
             handled, plus a rule for the halt message)",
        ));
    }
    // Step 1: the procedures needing the DT argument are those that can
    // reach a server operation, plus server/1 itself.
    let graph = CallGraph::build(program);
    let mut targets: BTreeSet<Key> = graph.ancestors_of(&prim_keys());
    targets.insert(("server".to_string(), 1));
    // Steps 2-4: rewrite operations while threading DT.
    let (out, violations) = thread_argument(program, &targets, "DT", &rewrite_op);
    if !violations.is_empty() {
        let names: Vec<String> = violations.iter().map(|(n, a)| format!("{n}/{a}")).collect();
        return Err(TransformError::new(
            NAME,
            format!(
                "procedures {} use server operations but are called from \
                 outside the threaded call graph",
                names.join(", ")
            ),
        ));
    }
    Ok(out)
}

/// Rewrite one server-operation call against the threaded `DT` variable.
fn rewrite_op(call: &Call, dt: &Ast, _fresh: &mut FreshVars) -> Option<Vec<Call>> {
    let (name, arity) = call.goal.functor()?;
    let args = call.goal.args();
    match (name, arity) {
        // Step 2: send(Node, Msg) → distribute(Node, DT, Msg).
        ("send", 2) => Some(vec![Call::new(Ast::tuple(
            "distribute",
            vec![args[0].clone(), dt.clone(), args[1].clone()],
        ))]),
        ("send", 3) => Some(vec![Call::new(Ast::tuple(
            "distribute",
            vec![
                args[0].clone(),
                dt.clone(),
                args[1].clone(),
                args[2].clone(),
            ],
        ))]),
        // Step 3: nodes(N) → length(DT, N).
        ("nodes", 1) => Some(vec![Call::new(Ast::tuple(
            "length",
            vec![dt.clone(), args[0].clone()],
        ))]),
        // Step 4: halt → broadcast to every server stream.
        ("halt", 0) => Some(vec![Call::new(Ast::tuple(
            "broadcast_halt",
            vec![dt.clone()],
        ))]),
        _ => None,
    }
}

/// The Server motif: `{server_transform, SERVER_LIBRARY}`.
pub fn server() -> Motif {
    let library = strand_parse::parse_program(SERVER_LIBRARY).expect("server library parses");
    Motif::new(NAME, server_transform, library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_machine::{run_parsed_goal, MachineConfig, RunStatus};
    use strand_parse::pretty;

    /// A tiny application: a ring of greetings. Server 1 starts a token
    /// that visits every server once and then halts the network.
    const RING: &str = r#"
        server([token(K)|In]) :- pass(K), server(In).
        server([halt|_]).
        pass(K) :- nodes(N), next(K, N).
        next(K, N) :- K < N | K1 := K + 1, send(K1, token(K1)).
        next(N, N) :- halt.
    "#;

    #[test]
    fn transformation_threads_dt_and_rewrites_ops() {
        let out = server_transform(&strand_parse::parse_program(RING).unwrap()).unwrap();
        let s = pretty(&out);
        assert!(s.contains("server([token(K)|In], DT)"), "{s}");
        assert!(s.contains("server(In, DT)"), "{s}");
        assert!(s.contains("length(DT, N)"), "{s}");
        assert!(s.contains("distribute(K1, DT, token(K1))"), "{s}");
        assert!(s.contains("broadcast_halt(DT)"), "{s}");
        // The halt rule does not use DT: wildcard.
        assert!(s.contains("server([halt|_], _)"), "{s}");
    }

    #[test]
    fn missing_server_definition_is_an_error() {
        let e = server().apply_src("go :- send(1, hi).").unwrap_err();
        assert!(e.message.contains("server/1"), "{e}");
    }

    #[test]
    fn ring_token_visits_every_server() {
        let p = server().apply_src(RING).unwrap();
        for n in [1u32, 2, 4, 8] {
            let r =
                run_parsed_goal(&p, "create(4, token(1))", MachineConfig::with_nodes(n)).unwrap();
            assert_eq!(
                r.report.status,
                RunStatus::Completed,
                "network must halt cleanly on {n} machine nodes"
            );
        }
    }

    #[test]
    fn figure4_connectivity_every_pair_can_communicate() {
        // Experiment F4: an all-pairs flood. Server J, on receiving
        // probe(From), records the pair and probes every server with a
        // larger number. Every ordered pair (i, j>i) must be exercised.
        let flood = r#"
            server([probe(K)|In]) :- fan(K), server(In).
            server([done|In]) :- server(In).
            server([halt|_]).
            fan(K) :- nodes(N), fan1(K, N).
            fan1(K, N) :- K < N | K1 := K + 1, send(K1, probe(K1)), fan1(K1, N).
            fan1(N, N) :- halt.
        "#;
        let p = server().apply_src(flood).unwrap();
        let n = 5u32;
        let r = run_parsed_goal(&p, "create(5, probe(1))", MachineConfig::with_nodes(n)).unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        // probes 1→2..5, 2→3..5, ... = C(5,2) cross-node messages at least.
        assert!(r.report.metrics.port_msgs_cross >= 10);
    }

    #[test]
    fn send_with_ack_sequences() {
        let app = r#"
            server([ping(Ack)|In]) :- Ack := got, server(In).
            server([halt|_]).
            go(Out) :- send(2, ping(A)), wait(A, Out).
            wait(got, Out) :- Out := ok, halt.
        "#;
        // go/1 is not reachable from server/1 but calls send — it is the
        // entry; wrap it as a message handler instead.
        let app = format!(
            "server([go(Out)|In]) :- begin(Out), server(In). {}",
            app.replace("go(Out) :-", "begin(Out) :-")
        );
        let p = server().apply_src(&app).unwrap();
        let r = run_parsed_goal(&p, "create(2, go(Out))", MachineConfig::with_nodes(2)).unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        assert_eq!(r.bindings["Out"].to_string(), "ok");
    }

    #[test]
    fn library_is_small_like_the_paper_says() {
        // §3.6: complex coordination in a page of high-level code.
        assert!(server().library_rules() <= 12);
    }
}
