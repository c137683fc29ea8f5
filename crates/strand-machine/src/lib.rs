//! # strand-machine
//!
//! A parallel abstract machine for the motif language, standing in for the
//! Strand multicomputer runtimes of the paper (Sequent Symmetry, iPSC
//! hypercubes, transputer surfaces). Programs execute on `V` virtual nodes
//! under a deterministic discrete-event scheduler; every quantity the
//! paper's claims mention — per-node load, message counts by functor, live
//! concurrent evaluations, virtual-time makespan — is measured exactly
//! (see [`Metrics`]).
//!
//! ## Quick start
//!
//! ```
//! use strand_machine::{run_goal, MachineConfig};
//!
//! let src = r#"
//!     double(In, Out) :- Out := In * 2.
//! "#;
//! let result = run_goal(src, "double(21, X)", MachineConfig::default()).unwrap();
//! assert_eq!(result.bindings["X"].to_string(), "42");
//! ```
//!
//! Goals may place processes on numbered nodes (`Goal@3`) once the machine
//! is configured with several nodes; the `@random` pragma is *not*
//! executable — it is resolved by the `Rand` motif transformation (crate
//! `motifs`), exactly as in §3.3 of the paper.

pub mod backend;
pub mod builtins;
pub mod config;
pub mod exec;
pub mod foreign;
mod ingress;
pub mod machine;
pub mod metrics;
mod report;
mod sim;
mod tier;
pub mod trace;
mod worker;
mod world;

pub use backend::register_parallel_backend;
pub use config::{Backend, EdgeFaults, ExecMode, FaultPlan, MachineConfig};
pub use foreign::ForeignLib;
pub use machine::{
    merge_shard_reports, Deadline, DrainState, Job, Machine, Routed, RunReport, RunStatus,
    ShardReport, SharedWorld, StoreHandle, WORKER_PID_SHIFT,
};
pub use metrics::Metrics;
pub use trace::{render_trace, trace_summary, TraceEvent};

use std::collections::{BTreeMap, HashMap};
use strand_core::{Atom, StrandError, StrandResult, Term};
use strand_parse::{compile_program, parse_program, parse_term, Ast};

/// Result of running a goal: the final report plus the resolved values of
/// the goal's named variables.
#[derive(Clone, Debug)]
pub struct GoalResult {
    pub report: RunReport,
    pub bindings: BTreeMap<String, Term>,
}

impl GoalResult {
    /// True when the run ended with every process reduced.
    pub fn completed(&self) -> bool {
        self.report.status == RunStatus::Completed
    }
}

/// Convert a surface term into a runtime term, sharing variables through
/// `vars` (named variables map to store variables; wildcards are fresh).
/// Each distinct name is interned once per call: the symbol table's own
/// lookup takes a process-wide lock.
pub fn ast_to_term(ast: &Ast, machine: &mut Machine, vars: &mut BTreeMap<String, Term>) -> Term {
    GoalBuilder {
        machine,
        vars,
        atoms: HashMap::new(),
    }
    .term(ast)
}

/// One [`ast_to_term`] call. `atoms` allocates on its first name only, so a
/// term without names (a serve request line is a number) costs nothing
/// extra. It keeps the default hasher: the names may come from a socket.
struct GoalBuilder<'a, 'm> {
    machine: &'m mut Machine,
    vars: &'m mut BTreeMap<String, Term>,
    atoms: HashMap<&'a str, Atom>,
}

impl<'a> GoalBuilder<'a, '_> {
    fn atom(&mut self, name: &'a str) -> Atom {
        *self.atoms.entry(name).or_insert_with(|| Atom::new(name))
    }

    fn term(&mut self, ast: &'a Ast) -> Term {
        match ast {
            Ast::Var(name) => match self.vars.get(name) {
                Some(v) => v.clone(),
                None => {
                    let v = Term::Var(self.machine.store_mut().new_var());
                    self.vars.insert(name.clone(), v.clone());
                    v
                }
            },
            Ast::Wild => Term::Var(self.machine.store_mut().new_var()),
            Ast::Int(i) => Term::Int(*i),
            Ast::Float(x) => Term::Float(*x),
            Ast::Atom(a) => Term::Atom(self.atom(a)),
            Ast::Str(s) => Term::str(s.as_str()),
            Ast::Nil => Term::Nil,
            Ast::Tuple(name, args) => {
                let name = self.atom(name);
                Term::tuple_from(name, args.iter().map(|a| self.term(a)))
            }
            Ast::List(..) => {
                // Along the spine, not down it: a flat list literal can be as
                // long as a request line allows, and only nesting may recurse.
                let mut heads = Vec::new();
                let mut rest = ast;
                while let Ast::List(head, tail) = rest {
                    heads.push(self.term(head));
                    rest = tail;
                }
                let end = self.term(rest);
                heads
                    .into_iter()
                    .rev()
                    .fold(end, |tail, head| Term::cons(head, tail))
            }
        }
    }
}

/// Parse, compile and run `goal_src` against `program_src`.
pub fn run_goal(
    program_src: &str,
    goal_src: &str,
    config: MachineConfig,
) -> StrandResult<GoalResult> {
    let program = parse_program(program_src).map_err(|e| StrandError::Other(e.to_string()))?;
    run_parsed_goal(&program, goal_src, config)
}

/// Run a goal against an already-parsed program (used by the motif crate,
/// whose transformations produce [`strand_parse::Program`] values).
/// Dispatches on [`MachineConfig::backend`].
pub fn run_parsed_goal(
    program: &strand_parse::Program,
    goal_src: &str,
    config: MachineConfig,
) -> StrandResult<GoalResult> {
    run_parsed_goal_with_lib(program, goal_src, config, &ForeignLib::new())
}

/// Like [`run_parsed_goal`], with a library of pure foreign procedures
/// installed on whichever engine runs the goal: the simulator here, or the
/// function [`register_parallel_backend`] was given.
pub fn run_parsed_goal_with_lib(
    program: &strand_parse::Program,
    goal_src: &str,
    config: MachineConfig,
    lib: &ForeignLib,
) -> StrandResult<GoalResult> {
    if let Backend::Parallel { .. } = config.backend {
        return backend::run_parallel(program, goal_src, config, lib);
    }
    let goal_ast = parse_term(goal_src).map_err(|e| StrandError::Other(e.to_string()))?;
    let compiled = compile_program(program).map_err(|e| StrandError::Other(e.to_string()))?;
    let mut machine = Machine::new(compiled, config);
    machine.install_lib(lib);
    let mut vars = BTreeMap::new();
    let goal = ast_to_term(&goal_ast, &mut machine, &mut vars);
    machine.start(goal);
    let report = machine.run()?;
    let bindings = vars
        .into_iter()
        .map(|(name, term)| (name, machine.store().resolve(&term)))
        .collect();
    Ok(GoalResult { report, bindings })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, goal: &str) -> GoalResult {
        run_goal(src, goal, MachineConfig::default()).expect("run failed")
    }

    const FIGURE1: &str = r#"
        % Figure 1 of the paper: synchronous producer/consumer.
        go(N) :- producer(N, Xs, sync), consumer(Xs).
        producer(N, Xs, sync) :- N > 0 |
            Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).
        producer(0, Xs, _) :- Xs := [].
        consumer([X|Xs]) :- X := sync, consumer(Xs).
        consumer([]).
    "#;

    #[test]
    fn figure1_runs_to_completion() {
        let r = run(FIGURE1, "go(4)");
        assert!(r.completed(), "status: {:?}", r.report.status);
        // Every producer step waits for the consumer's sync ack, so there
        // must be suspensions — the paper's synchronous communication.
        assert!(r.report.metrics.suspensions >= 4);
    }

    #[test]
    fn figure1_stream_is_synchronous() {
        // With the synchronous ack protocol the producer can never run more
        // than one element ahead: peak queue stays small regardless of N.
        let r = run(FIGURE1, "go(64)");
        assert!(r.completed());
        assert!(
            r.report.metrics.peak_queue[0] < 8,
            "peak queue {} too large for a synchronous protocol",
            r.report.metrics.peak_queue[0]
        );
    }

    #[test]
    fn arithmetic_and_data_assignment() {
        let src = "mk(X, Y, L) :- X := 2 + 3, Y := [a|T], T := [], L := X - 1.";
        let r = run(src, "mk(X, Y, L)");
        assert!(r.completed());
        assert_eq!(r.bindings["X"].to_string(), "5");
        assert_eq!(r.bindings["Y"].to_string(), "[a]");
        assert_eq!(r.bindings["L"].to_string(), "4");
    }

    #[test]
    fn non_ascii_quoted_atoms_bind_as_written() {
        let r = run("go(X) :- X := 'café'.", "go(X)");
        assert!(r.completed());
        assert_eq!(r.bindings["X"], Term::atom("café"));
    }

    #[test]
    fn dataflow_suspension_waits_for_producer() {
        let src = r#"
            go(V) :- add(A, B, V), supply(A, B).
            add(A, B, V) :- V := A + B.
            supply(A, B) :- A := 20, B := 22.
        "#;
        let r = run(src, "go(V)");
        assert!(r.completed());
        assert_eq!(r.bindings["V"].to_string(), "42");
        assert!(r.report.metrics.suspensions >= 1);
    }

    #[test]
    fn guards_select_rules() {
        let src = r#"
            classify(N, C) :- N > 0 | C := pos.
            classify(0, C) :- C := zero.
            classify(N, C) :- N < 0 | C := neg.
        "#;
        assert_eq!(run(src, "classify(5, C)").bindings["C"].to_string(), "pos");
        assert_eq!(run(src, "classify(0, C)").bindings["C"].to_string(), "zero");
        assert_eq!(run(src, "classify(-5, C)").bindings["C"].to_string(), "neg");
    }

    #[test]
    fn otherwise_applies_after_definite_failure() {
        let src = r#"
            kind(1, K) :- K := one.
            kind(_, K) :- otherwise | K := many.
        "#;
        assert_eq!(run(src, "kind(1, K)").bindings["K"].to_string(), "one");
        assert_eq!(run(src, "kind(7, K)").bindings["K"].to_string(), "many");
    }

    #[test]
    fn double_assignment_is_runtime_error() {
        let src = "boom(X) :- X := 1, X := 2.";
        let err = run_goal(src, "boom(X)", MachineConfig::default()).unwrap_err();
        assert!(matches!(err, StrandError::DoubleAssign { .. }), "{err}");
    }

    #[test]
    fn no_matching_rule_is_reported() {
        let src = "f(1, V) :- V := ok.";
        let err = run_goal(src, "f(2, V)", MachineConfig::default()).unwrap_err();
        assert!(matches!(err, StrandError::NoMatchingRule { .. }), "{err}");
    }

    #[test]
    fn undefined_procedure_is_reported() {
        let err = run_goal("f(X) :- g(X).", "f(1)", MachineConfig::default()).unwrap_err();
        assert!(
            matches!(err, StrandError::UndefinedProcedure { ref name, arity: 1 } if name == "g"),
            "{err}"
        );
    }

    #[test]
    fn deadlocked_program_reports_quiescence() {
        let src = "wait(X, Y) :- X > 0 | Y := done.";
        let r = run(src, "wait(X, Y)"); // X never bound
        assert!(matches!(
            r.report.status,
            RunStatus::Quiescent { suspended: 1 }
        ));
        assert_eq!(r.report.suspended_goals.len(), 1);
    }

    #[test]
    fn placement_spawns_on_named_nodes() {
        let src = r#"
            fan(V1, V2, V3) :- tag(V1)@1, tag(V2)@2, tag(V3)@3.
            tag(V) :- current_node(V).
        "#;
        let r = run_goal(src, "fan(A, B, C)", MachineConfig::with_nodes(3)).unwrap();
        assert!(r.completed());
        assert_eq!(r.bindings["A"].to_string(), "1");
        assert_eq!(r.bindings["B"].to_string(), "2");
        assert_eq!(r.bindings["C"].to_string(), "3");
        // Two of the three spawns crossed nodes (the goal starts on node 1).
        assert_eq!(r.report.metrics.remote_spawns, 2);
    }

    #[test]
    fn placement_wraps_modulo_node_count() {
        let src = "go(V) :- tag(V)@5. tag(V) :- current_node(V).";
        let r = run_goal(src, "go(V)", MachineConfig::with_nodes(4)).unwrap();
        // Node 5 on a 4-node machine wraps to node 1 (1-based).
        assert_eq!(r.bindings["V"].to_string(), "1");
    }

    #[test]
    fn deferred_placement_waits_for_node_number() {
        let src = r#"
            go(V) :- pick(J), tag(V)@J.
            pick(J) :- J := 2.
            tag(V) :- current_node(V).
        "#;
        let r = run_goal(src, "go(V)", MachineConfig::with_nodes(2)).unwrap();
        assert!(r.completed());
        assert_eq!(r.bindings["V"].to_string(), "2");
    }

    #[test]
    fn rand_num_is_deterministic_per_seed() {
        let src = "go(A, B) :- rand_num(100, A), rand_num(100, B).";
        let r1 = run_goal(src, "go(A, B)", MachineConfig::default().seed(1)).unwrap();
        let r2 = run_goal(src, "go(A, B)", MachineConfig::default().seed(1)).unwrap();
        let r3 = run_goal(src, "go(A, B)", MachineConfig::default().seed(2)).unwrap();
        assert_eq!(r1.bindings["A"], r2.bindings["A"]);
        assert_eq!(r1.bindings["B"], r2.bindings["B"]);
        assert!(r1.bindings["A"] != r3.bindings["A"] || r1.bindings["B"] != r3.bindings["B"]);
    }

    #[test]
    fn ports_deliver_in_order() {
        let src = r#"
            go(Out) :- open_port(P, S), feed(P), collect(S, Out).
            feed(P) :- send_port(P, 1), send_port(P, 2), send_port(P, 3).
            collect([A|T], Out) :- collect2(T, A, Out).
            collect2([B|T], A, Out) :- collect3(T, A, B, Out).
            collect3([C|_], A, B, Out) :- Out := seen(A, B, C).
        "#;
        let r = run(src, "go(Out)");
        assert_eq!(r.bindings["Out"].to_string(), "seen(1,2,3)");
    }

    #[test]
    fn merge_interleaves_two_streams() {
        let src = r#"
            go(N) :- produce(2, As), produce(3, Bs), merge([As, Bs], M), count(M, 0, N, 5).
            produce(0, S) :- S := [].
            produce(K, S) :- K > 0 | S := [K|S1], K1 := K - 1, produce(K1, S1).
            count(_, Acc, N, 0) :- N := Acc.
            count([_|T], Acc, N, Left) :- Left > 0 |
                Acc1 := Acc + 1, Left1 := Left - 1, count(T, Acc1, N, Left1).
        "#;
        let r = run(src, "go(N)");
        assert_eq!(r.bindings["N"].to_string(), "5");
    }

    #[test]
    fn work_advances_virtual_time() {
        let src = "go :- work(1000).";
        let r = run(src, "go");
        assert!(r.report.metrics.makespan >= 1000);
        assert!(r.report.metrics.busy[0] >= 1000);
    }

    #[test]
    fn print_collects_output() {
        let src = "go :- print(hello), print(f(1, 2)).";
        let r = run(src, "go");
        assert_eq!(
            r.report.output,
            vec!["hello".to_string(), "f(1,2)".to_string()]
        );
    }

    #[test]
    fn make_tuple_and_put_arg() {
        let src = r#"
            go(V) :- make_tuple(3, T), put_arg(2, T, hi), probe(T, V).
            probe(dt(_, X, _), V) :- V := X.
        "#;
        let r = run(src, "go(V)");
        assert_eq!(r.bindings["V"].to_string(), "hi");
    }

    #[test]
    fn length_of_tuples_and_lists() {
        let src = r#"
            go(A, B) :- make_tuple(4, T), length(T, A), length([x, y, z], B).
        "#;
        let r = run(src, "go(A, B)");
        assert_eq!(r.bindings["A"].to_string(), "4");
        assert_eq!(r.bindings["B"].to_string(), "3");
    }

    #[test]
    fn budget_exhaustion_detected() {
        let src = "spin :- spin.";
        let cfg = MachineConfig {
            max_reductions: 1000,
            ..Default::default()
        };
        let err = run_goal(src, "spin", cfg).unwrap_err();
        assert!(matches!(err, StrandError::BudgetExhausted { .. }));
    }

    #[test]
    fn cross_node_latency_shows_in_makespan() {
        let src = r#"
            go(V) :- step(V)@2.
            step(V) :- V := done.
        "#;
        let fast = run_goal(src, "go(V)", MachineConfig::with_nodes(2).latency(1)).unwrap();
        let slow = run_goal(src, "go(V)", MachineConfig::with_nodes(2).latency(1000)).unwrap();
        assert!(slow.report.metrics.makespan > fast.report.metrics.makespan + 900);
    }

    #[test]
    fn tracked_gauge_counts_live_processes() {
        // Three `eval` processes are spawned at once, all waiting on X: the
        // peak live count must be 3 on a single node.
        let src = r#"
            go(A, B, C) :- eval(X, A), eval(X, B), eval(X, C), fire(X).
            eval(X, V) :- V := X + 1.
            fire(X) :- X := 10.
        "#;
        let cfg = MachineConfig::default().track("eval");
        let r = run_goal(src, "go(A, B, C)", cfg).unwrap();
        assert!(r.completed());
        assert_eq!(r.report.metrics.max_peak_tracked(), 3);
        assert_eq!(r.bindings["A"].to_string(), "11");
    }

    #[test]
    fn determinism_full_metrics() {
        let src = r#"
            go(0).
            go(N) :- N > 0 |
                rand_num(4, R), tag(N)@R, N1 := N - 1, go(N1).
            tag(_).
        "#;
        let cfg = MachineConfig::with_nodes(4).seed(99);
        let a = run_goal(src, "go(50)", cfg.clone()).unwrap();
        let b = run_goal(src, "go(50)", cfg).unwrap();
        assert_eq!(a.report.metrics.reductions, b.report.metrics.reductions);
        assert_eq!(a.report.metrics.messages, b.report.metrics.messages);
        assert_eq!(a.report.metrics.makespan, b.report.metrics.makespan);
    }
}
