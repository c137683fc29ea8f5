//! The **Sched** motif: the `@task` pragma and demand-driven scheduling
//! (§2.2 and reference \[6\]).
//!
//! §2.2 describes the scheduler motif's ideal interface: *"it would be
//! inconvenient if programmers had to embed explicit calls to this
//! scheduler in their programs and manually construct data structures
//! representing tasks. Fortunately, these functions can be incorporated
//! automatically by an application-independent transformation. The
//! programmer only needs to supply pragma specifying tasks and data
//! dependencies."* That is this motif:
//!
//! * the programmer marks calls with `Goal@task`;
//! * the transformation threads **two short circuits** through the program
//!   (§3.3's termination-detection technique, applied twice): a *global*
//!   circuit that closes only when everything a task spawned — nested
//!   tasks included — has finished (this is how data dependencies between
//!   tasks are honored for termination), and a *local* circuit that closes
//!   as soon as the task's own process network has unwound, signalling the
//!   worker free (a dispatched task never blocks its processor, as in the
//!   Schedule package of reference \[6\]);
//! * every `@task` call becomes a `submit` message to the scheduler,
//!   carrying the task's private completion variables; a `link` process
//!   splices the task's global completion back into its parent's circuit,
//!   while the parent's local circuit closes at the submit itself;
//! * a dispatch rule per task type is synthesized (as in the Rand motif);
//! * the library implements the manager: a queue of tasks and a list of
//!   idle workers, pairing them demand-driven — an idle processor gets
//!   the next task; completion frees the worker (contrast with `Random`'s
//!   oblivious mapping: experiment E10).
//!
//! Entry goal: `create(P, boot(p(Args…, D, done), D))` — build it with
//! [`boot_goal`]. Requires P ≥ 2 machine nodes (node 1 is the manager).

use crate::motif::Motif;
use crate::server::server;
use std::collections::BTreeSet;
use strand_parse::{Annotation, Ast, Call, Program, Rule};
use transform::callgraph::Key;
use transform::rewrite::{replace_calls, thread_circuit};
use transform::TransformError;

/// The scheduler library: manager on server 1, demand-driven dispatch.
pub const TASK_SCHED_LIBRARY: &str = r#"
% Sched motif library: demand-driven task scheduling with completion
% tracking. Workers are servers 2..P; server 1 is the manager.
server(In) :- sched(In).

sched([boot(Goal, Dglobal, Dlocal)|In]) :-
    nodes(P),
    idles(P, Ws),
    watch_root(Dglobal),
    place(Goal, Dlocal, Ws, Ws1, Q1, []),
    manager(In, Q1, Ws1).
sched([halt|_]).

manager([submit(G, D)|In], Q, Idle) :-
    place(G, D, Idle, Idle1, Q1, Q),
    manager(In, Q1, Idle1).
manager([idle(W)|In], [t(G, D)|Q], Idle) :-
    send(W, run(G, D, W)),
    manager(In, Q, Idle).
manager([idle(W)|In], [], Idle) :-
    manager(In, [], [W|Idle]).
manager([halt|_], _, _).

% place(Goal, Done, Idle, Idle1, Q1, Q0): dispatch to an idle worker or
% queue the task.
place(G, D, [W|Ws], Ws1, Q1, Q0) :-
    send(W, run(G, D, W)),
    Ws1 := Ws, Q1 := Q0.
place(G, D, [], Ws1, Q1, Q0) :-
    Ws1 := [], Q1 := [t(G, D)|Q0].

% Workers are servers P..2 (server 1 is the manager and keeps its stream).
idles(1, Ws) :- Ws := [].
idles(J, Ws) :- J > 1 | Ws := [J|W1], J1 := J - 1, idles(J1, W1).

% When a task's *local* circuit resolves (its own process network has
% unwound on this worker), report the worker idle.
notify(D, W) :- data(D) | send(1, idle(W)).

% Splice a finished task back into its parent's circuit.
link(D, L, R) :- data(D) | L = R.

% The root task's circuit closes when every task (however nested) is done.
watch_root(D) :- data(D) | halt.
"#;

const NAME: &str = "Sched";

/// The Sched transformation: circuit threading + `@task` expansion +
/// dispatch-rule synthesis. `entries` are extra types to synthesize
/// dispatch rules for (entry points booted via `boot/3` without appearing
/// under `@task`), by pre-threading name/arity.
fn sched_transform(entries: &[Key], program: &Program) -> Result<Program, TransformError> {
    if program.get("server", 1).is_some() || program.get("sched", 1).is_some() {
        return Err(TransformError::new(
            NAME,
            "application must not define server/1 or sched/1; Sched synthesizes them",
        ));
    }
    // Task types, pre-threading arity.
    let mut task_types: BTreeSet<Key> = entries.iter().cloned().collect();
    for rule in program.rules() {
        for call in &rule.body {
            if call.annotation == Some(Annotation::Task) {
                match call.goal.functor() {
                    Some((n, a)) => {
                        task_types.insert((n.to_string(), a));
                    }
                    None => {
                        return Err(TransformError::new(
                            NAME,
                            format!("@task on a non-callable term: {}", call.goal),
                        ))
                    }
                }
            }
        }
    }
    if task_types.is_empty() {
        return Err(TransformError::new(
            NAME,
            "no @task pragma or registered entry found; nothing to schedule",
        ));
    }
    // Thread the circuits through every user procedure, so untracked
    // helper calls cannot be left behind by the completion signals and
    // calls into task types from anywhere stay arity-consistent.
    // Pass 1 appends the GLOBAL circuit (termination; waits on nested
    // tasks); pass 2 appends the LOCAL circuit (worker availability;
    // closes at the submit site).
    let targets: BTreeSet<Key> = program.defined_keys().into_iter().collect();
    let threaded_global = thread_circuit(program, &targets);
    let targets2: BTreeSet<Key> = targets.iter().map(|(n, a)| (n.clone(), a + 2)).collect();
    let threaded = thread_circuit(&threaded_global, &targets2);

    // Expand `Goal@task`: goals now carry [core..., Lg, Rg, Ll, Rl].
    let expanded = replace_calls(&threaded, &|call: &Call, fresh| {
        if call.annotation != Some(Annotation::Task) {
            return None;
        }
        let (name, arity) = call.goal.functor().expect("validated above");
        debug_assert!(arity >= 4, "threaded task goals carry two circuits");
        let args = call.goal.args();
        let (core, circuits) = args.split_at(arity - 4);
        let (lg, rg) = (circuits[0].clone(), circuits[1].clone());
        let (ll, rl) = (circuits[2].clone(), circuits[3].clone());
        let dg = Ast::var(fresh.fresh("Dg"));
        let dl = Ast::var(fresh.fresh("Dl"));
        let mut private_args = core.to_vec();
        private_args.push(dg.clone());
        private_args.push(Ast::atom("done"));
        private_args.push(dl.clone());
        private_args.push(Ast::atom("done"));
        Some(vec![
            // Ship the task with private circuits; the manager tracks
            // the local one for worker availability.
            Call::new(Ast::tuple(
                "send",
                vec![
                    Ast::Int(1),
                    Ast::tuple("submit", vec![Ast::tuple(name, private_args), dl]),
                ],
            )),
            // Parent's global circuit waits for the nested task...
            Call::new(Ast::tuple("link", vec![dg, lg, rg])),
            // ...but its local circuit closes at the submit itself.
            Call::new(Ast::tuple("=", vec![ll, rl])),
        ])
    });

    // Synthesize dispatch rules: one per task type (threaded arity).
    let mut out = expanded;
    for (name, arity) in &task_types {
        let n = arity + 4; // two circuits
        let vars: Vec<Ast> = (1..=n).map(|i| Ast::var(format!("V{i}"))).collect();
        let msg = Ast::tuple(
            "run",
            vec![
                Ast::tuple(name.clone(), vars.clone()),
                Ast::var("D"),
                Ast::var("W"),
            ],
        );
        out.push_rule(Rule {
            head: Ast::tuple("sched", vec![Ast::cons(msg, Ast::var("In"))]),
            guards: vec![],
            body: vec![
                Call::new(Ast::tuple(name.clone(), vars)),
                Call::new(Ast::tuple("notify", vec![Ast::var("D"), Ast::var("W")])),
                Call::new(Ast::tuple("sched", vec![Ast::var("In")])),
            ],
        });
    }
    Ok(out)
}

/// The task-scheduler motif: `Server ∘ {sched_transform, library}`.
pub fn task_scheduler() -> Motif {
    task_scheduler_with_entries(&[])
}

/// Task scheduler with extra boot-able entry types.
pub fn task_scheduler_with_entries(entries: &[(&str, usize)]) -> Motif {
    let entries: Vec<Key> = entries.iter().map(|&(n, a)| (n.to_string(), a)).collect();
    let core = Motif::new(
        "SchedCore",
        move |p| sched_transform(&entries, p),
        strand_parse::parse_program(TASK_SCHED_LIBRARY).expect("sched library parses"),
    );
    server().compose(&core)
}

/// Build the entry goal for a root task `name(args…)` on `servers`
/// machine nodes.
///
/// The goal has the shape
/// `create(P, boot(name(args…, Dg, done, Dl, done), Dg, Dl))` — `Dg` is
/// the global termination circuit, `Dl` the root task's local circuit.
pub fn boot_goal(servers: u32, name: &str, args: &[&str]) -> String {
    let mut all: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    all.push("Dg".into());
    all.push("done".into());
    all.push("Dl".into());
    all.push("done".into());
    format!(
        "create({servers}, boot({name}({}), Dg, Dl))",
        all.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_machine::{run_parsed_goal, MachineConfig, RunStatus};
    use strand_parse::pretty;

    const FIB_APP: &str = r#"
        fib(N, V) :- N < 2 | V := N.
        fib(N, V) :- N >= 2 |
            N1 := N - 1, N2 := N - 2,
            fib(N1, V1)@task, fib(N2, V2),
            add(V1, V2, V).
        add(V1, V2, V) :- V := V1 + V2.
    "#;

    #[test]
    fn transformation_expands_the_pragma() {
        let p = strand_parse::parse_program(FIB_APP).unwrap();
        let out = sched_transform(&[], &p).unwrap();
        let s = pretty(&out);
        assert!(!s.contains("@task"), "{s}");
        assert!(
            s.contains("send(1, submit(fib(N1, V1, Dg, done, Dl, done), Dl))"),
            "{s}"
        );
        assert!(s.contains("link(Dg,"), "{s}");
        // Dispatch rule for the doubly-threaded task type fib/6.
        assert!(
            s.contains("sched([run(fib(V1, V2, V3, V4, V5, V6), D, W)|In]) :-"),
            "{s}"
        );
        assert!(s.contains("notify(D, W)"), "{s}");
    }

    #[test]
    fn fib_runs_and_terminates() {
        let program = task_scheduler().apply_src(FIB_APP).unwrap();
        let goal = boot_goal(4, "fib", &["10", "V"]);
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(4).seed(3)).unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.suspended_goals
        );
        assert_eq!(r.bindings["V"].to_string(), "55");
    }

    #[test]
    fn tasks_run_on_workers_not_the_manager() {
        let program = task_scheduler().apply_src(FIB_APP).unwrap();
        let goal = boot_goal(5, "fib", &["9", "V"]);
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(5).seed(4)).unwrap();
        assert_eq!(r.bindings["V"].to_string(), "34");
        // Workers 2..5 did the fib work; the manager only dispatched.
        let red = &r.report.metrics.reductions;
        let worker_total: u64 = red[1..].iter().sum();
        assert!(worker_total > red[0], "{red:?}");
    }

    #[test]
    fn dependencies_are_honored_by_the_circuit() {
        // A chain of dependent tasks: each stage consumes the previous
        // stage's output variable. Termination must wait for all of them.
        let app = r#"
            chain(0, Acc, V) :- V := Acc.
            chain(N, Acc, V) :- N > 0 |
                step(Acc, Acc1)@task,
                N1 := N - 1,
                chain(N1, Acc1, V)@task.
            step(X, Y) :- Y := X + 1.
        "#;
        let program = task_scheduler().apply_src(app).unwrap();
        let goal = boot_goal(3, "chain", &["12", "0", "V"]);
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(3).seed(5)).unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        assert_eq!(r.bindings["V"].to_string(), "12");
    }

    #[test]
    fn rejects_programs_without_tasks() {
        let e = sched_transform(&[], &strand_parse::parse_program("f(1).").unwrap()).unwrap_err();
        assert!(e.message.contains("@task"));
    }

    #[test]
    fn rejects_reserved_server_definitions() {
        let src = "server([x|_]). f(X) :- g(X)@task. g(_).";
        let e = sched_transform(&[], &strand_parse::parse_program(src).unwrap()).unwrap_err();
        assert!(e.message.contains("server/1"));
    }

    #[test]
    fn demand_scheduling_balances_skew() {
        // Tasks with very skewed costs: demand-driven dispatch should keep
        // all workers busy (high utilization of worker nodes).
        let app = r#"
            spread(0, V) :- V := 0.
            spread(N, V) :- N > 0 |
                cost(N, C),
                burn(C, V1)@task,
                N1 := N - 1,
                spread(N1, V2)@task,
                add(V1, V2, V).
            cost(N, C) :- M := N mod 7, C := 40 + M * M * 20.
            burn(C, V) :- work(C), V := 1.
            add(V1, V2, V) :- V := V1 + V2.
        "#;
        let program = task_scheduler().apply_src(app).unwrap();
        let goal = boot_goal(5, "spread", &["24", "V"]);
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(5).seed(6)).unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        assert_eq!(r.bindings["V"].to_string(), "24");
        // Every worker node executed tasks.
        let busy_workers = r.report.metrics.busy[1..]
            .iter()
            .filter(|&&b| b > 50)
            .count();
        assert!(busy_workers >= 3, "busy: {:?}", r.report.metrics.busy);
    }
}
