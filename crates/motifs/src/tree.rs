//! The tree-reduction motifs of the case study (§3.4, §3.5).
//!
//! * [`tree1`] — the 5-line divide-and-conquer library of §3.4
//!   (identity transformation), exactly the paper's listing;
//! * [`tree_reduce_1`] — `Server ∘ Rand ∘ Tree1`, the paper's
//!   `Tree-Reduce-1`;
//! * [`tree_reduce_1_halting`] — the §3.3 extension: a short circuit is
//!   threaded through `reduce/2`, and the network halts when the circuit
//!   closes;
//! * [`tree_reduce_2`] — the queue-based `Tree-Reduce-2` of §3.5: every
//!   node is labeled (sibling leaves share a label, a parent takes its left
//!   child's label), values queue per processor, and evaluation is
//!   sequenced so one node evaluation runs at a time per processor — the
//!   labeling guarantees *at most one of each node's offspring values
//!   crosses processors*.
//!
//! The user supplies `eval(Op, Left, Right, Value)`; both motifs provide
//! the same interface (§3.6: *"These provide the same interface to the
//! user"*). Trees are terms `tree(Op, L, R)` / `leaf(Value)`.

use crate::motif::Motif;
use crate::rand_map::rand_map_with_entries;
use crate::server::server;
use std::collections::BTreeSet;
use strand_parse::{parse_program, Program};
use transform::callgraph::Key;
use transform::rewrite::thread_circuit;
use transform::{FnTransform, Identity};

/// The paper's Tree1 library, verbatim (§3.4): five lines of code.
pub const TREE1_LIBRARY: &str = r#"
reduce(tree(V, L, R), Value) :-
    reduce(R, RV)@random,
    reduce(L, LV),
    eval(V, LV, RV, Value).
reduce(leaf(L), Value) :- Value := L.
"#;

/// `Tree1`: identity transformation + the 5-line library.
pub fn tree1() -> Motif {
    Motif::library_only("Tree1", TREE1_LIBRARY)
}

/// `Tree-Reduce-1 = Server ∘ Rand ∘ Tree1` (§3.4).
///
/// Entry goal: `create(P, reduce(Tree, Value))`. The network stays
/// quiescent after delivering `Value` (no termination detection — the
/// paper notes this and sketches the short-circuit fix; see
/// [`tree_reduce_1_halting`]).
pub fn tree_reduce_1() -> Motif {
    // reduce/2 is both the @random-shipped type and the initial message.
    server()
        .compose(&rand_map_with_entries(&[]))
        .compose(&tree1())
}

/// `Tree-Reduce-1` extended with short-circuit termination detection
/// (§3.3, last paragraph): `Server ∘ Rand ∘ Circuit ∘ Tree1'`.
///
/// Entry goal: `create(P, begin_reduce(Tree, Value))`.
pub fn tree_reduce_1_halting() -> Motif {
    let entry = r#"
begin_reduce(Tree, Value) :-
    reduce(Tree, Value, Done, done),
    watch(Done).
watch(done) :- halt.
"#;
    let entry_prog = parse_program(entry).expect("entry parses");
    let circuit = FnTransform::new("Circuit(reduce/2)", move |p: &Program| {
        let targets: BTreeSet<Key> = [("reduce".to_string(), 2)].into_iter().collect();
        Ok(thread_circuit(p, &targets).union(&entry_prog))
    });
    let circuit_motif = Motif::transform_only("Circuit", circuit);
    server()
        .compose(&rand_map_with_entries(&[("begin_reduce", 2)]))
        .compose(&circuit_motif)
        .compose(&tree1())
}

/// The Tree-Reduce-2 library (the algorithm of §3.5 / Figure 7).
///
/// The tree is preprocessed into a table: entry `i` holds
/// `info(Data, ParentId, ParentLabel, Side)` for the node with preorder id
/// `i`. Labels: a leaf picks a random processor (sharing with its sibling
/// when both are leaves); an interior node takes its left child's label.
/// Leaf values are sent to their parent's label; each server queues values
/// (`pending` gauge) and evaluates one node at a time, forwarding results
/// to the grandparent's label. The root value binds `Result` and halts the
/// network.
pub const TREE2_LIBRARY: &str = r#"
% Tree-Reduce-2 library (the analogue of the paper's Figure 7).
server(In) :- serve(In, st(Table, Result, [])).

serve([tr2(Tree, Result)|In], St) :-
    setup(Tree, Result),
    serve(In, St).
serve([tree(T, R)|In], st(TV, RV, Pend)) :-
    TV = T, RV = R,
    serve(In, st(TV, RV, Pend)).
serve([value(P, Side, V)|In], st(T, R, Pend)) :-
    take(P, Pend, Found, Pend1),
    handle(Found, P, Side, V, In, st(T, R, Pend1)).
% Initial leaf values arrive as lvalue messages — same handling, but kept
% a distinct message type so experiment E3 can separate the one-time data
% distribution from the offspring-value communication the paper's bound is
% about.
serve([lvalue(P, Side, V)|In], st(T, R, Pend)) :-
    take(P, Pend, Found, Pend1),
    handle(Found, P, Side, V, In, st(T, R, Pend1)).
serve([halt|_], _).

% --- preprocessing: ids, labels, table, initial dispatch ---

setup(leaf(V), Result) :- Result = V, halt.
setup(tree(Op, A, B), Result) :-
    count_nodes(tree(Op, A, B), 0, N),
    make_tuple(N, Table),
    build(tree(Op, A, B), Table, 1, _, -1, 0, none, fresh, _RootLbl, Ls, []),
    bcast_tree(Table, Result, Ok),
    dispatch(Ok, Ls).

count_nodes(leaf(_), Acc, N) :- N := Acc + 1.
count_nodes(tree(_, A, B), Acc, N) :-
    Acc1 := Acc + 1,
    count_nodes(A, Acc1, N1),
    count_nodes(B, N1, N).

% build(Node, Table, Id, NextId, ParentId, ParentLabel, Side, Hint, MyLabel, Ls, Ls0)
build(leaf(V), Table, Id, Next, PId, PLbl, Side, Hint, MyLbl, Ls, Ls0) :-
    Next := Id + 1,
    pick_label(Hint, MyLbl),
    put_arg(Id, Table, info(leafval(V), PId, PLbl, Side)),
    Ls := [lv(PId, Side, V, PLbl)|Ls0].
build(tree(Op, A, B), Table, Id, Next, PId, PLbl, Side, _, MyLbl, Ls, Ls0) :-
    MyLbl = LA,
    hints(A, B, LA, HA, HB),
    IdA := Id + 1,
    build(A, Table, IdA, NA, Id, MyLbl, l, HA, LA, Ls, Ls1),
    build(B, Table, NA, Next, Id, MyLbl, r, HB, LB, Ls1, Ls0),
    use_label(LB),
    put_arg(Id, Table, info(op(Op), PId, PLbl, Side)).

use_label(_).

% Sibling leaves share one label (the paper's restriction); otherwise both
% children label themselves independently.
hints(leaf(_), leaf(_), LA, HA, HB) :- HA := fresh, HB := use(LA).
hints(_, _, _, HA, HB) :- otherwise | HA := fresh, HB := fresh.

pick_label(fresh, M) :- nodes(P), rand_num(P, M).
pick_label(use(L), M) :- M = L.

% The broadcast is *acknowledged* (send/3): each server's tree message is
% known to be in its stream before any leaf value is dispatched, so every
% server sees the tree first — otherwise a server could block inside an
% evaluation that needs the table while the table message sits unread.
bcast_tree(Table, Result, Ok) :- nodes(P), bt(P, Table, Result, Ok).
bt(0, _, _, Ok) :- Ok := ok.
bt(J, Table, Result, Ok) :- J > 0 |
    send(J, tree(Table, Result), Ack),
    bt_next(Ack, J, Table, Result, Ok).
bt_next(ok, J, Table, Result, Ok) :-
    J1 := J - 1,
    bt(J1, Table, Result, Ok).

dispatch(ok, []).
dispatch(ok, [lv(PId, Side, V, PLbl)|Ls]) :-
    send(PLbl, lvalue(PId, Side, V)),
    dispatch(ok, Ls).

% --- per-server value queue and sequenced evaluation ---

take(_, [], Found, Pend1) :- Found := none, Pend1 := [].
take(P, [pv(P, S, V)|T], Found, Pend1) :- Found := found(S, V), Pend1 := T.
take(P, [pv(Q, S, V)|T], Found, Pend1) :- P =\= Q |
    Pend1 := [pv(Q, S, V)|T1],
    take(P, T, Found, T1).

handle(none, P, S, V, In, st(T, R, Pend)) :-
    llen(Pend, L0), L := L0 + 1, gauge(pending, L),
    serve(In, st(T, R, [pv(P, S, V)|Pend])).
handle(found(S1, V1), P, _, V2, In, St) :-
    orient(S1, V1, V2, VL, VR),
    evalstep(P, VL, VR, In, St).

orient(l, V1, V2, VL, VR) :- VL := V1, VR := V2.
orient(r, V1, V2, VL, VR) :- VL := V2, VR := V1.

evalstep(P, VL, VR, In, st(T, R, Pend)) :-
    arg(P, T, Info),
    evalgo(Info, VL, VR, In, st(T, R, Pend)).

evalgo(info(op(Op), GP, GL, Side), VL, VR, In, st(T, R, Pend)) :-
    eval(Op, VL, VR, PV),
    forward(PV, GP, GL, Side, R, Done),
    resume(Done, In, st(T, R, Pend)).

resume(done, In, St) :- serve(In, St).

% Sequencing: forward waits for the evaluated value before releasing the
% server loop, so a single node evaluation is active per processor (§3.5).
forward(PV, -1, _, _, R, Done) :- data(PV) |
    R = PV, Done := done, halt.
forward(PV, GP, GL, Side, _, Done) :- GP >= 0, data(PV) |
    send(GL, value(GP, Side, PV)),
    Done := done.

llen([], N) :- N := 0.
llen([_|T], N) :- llen(T, N1), N := N1 + 1.
"#;

/// `Tree-Reduce-2 = Server ∘ TreeReduce2Core` (§3.5).
///
/// Entry goal: `create(P, tr2(Tree, Value))`. Halts the network when the
/// root value is delivered.
pub fn tree_reduce_2() -> Motif {
    let core = Motif::new(
        "TreeReduce2Core",
        Identity,
        parse_program(TREE2_LIBRARY).expect("tree2 library parses"),
    );
    server().compose(&core)
}

/// Generate the source text of a tree term for goals: a balanced tree of
/// the given depth whose leaves are `1` and operators alternate `'+'`/`'*'`
/// — depth 0 is a single leaf.
pub fn balanced_tree_src(depth: u32) -> String {
    fn go(depth: u32, level: u32) -> String {
        if depth == 0 {
            "leaf(1)".to_string()
        } else {
            let op = if level.is_multiple_of(2) {
                "'+'"
            } else {
                "'*'"
            };
            format!(
                "tree({op}, {}, {})",
                go(depth - 1, level + 1),
                go(depth - 1, level + 1)
            )
        }
    }
    go(depth, 0)
}

/// Generate a random binary tree with `leaves` leaves (each labeled with
/// its index modulo 10 plus 1) using a seeded generator; shape is a random
/// binary split, operators alternate by parity.
pub fn random_tree_src(leaves: u32, seed: u64) -> String {
    let mut rng = strand_core::SplitMix64::new(seed);
    let mut counter = 0u32;
    fn go(leaves: u32, rng: &mut strand_core::SplitMix64, counter: &mut u32) -> String {
        if leaves <= 1 {
            *counter += 1;
            format!("leaf({})", (*counter % 10) + 1)
        } else {
            let left = 1 + rng.next_below((leaves - 1) as u64) as u32;
            let op = if rng.next_below(2) == 0 {
                "'+'"
            } else {
                "'max'"
            };
            format!(
                "tree({op}, {}, {})",
                go(left, rng, counter),
                go(leaves - left, rng, counter)
            )
        }
    }
    go(leaves, &mut rng, &mut counter)
}

/// The standard arithmetic `eval/4` used by the examples: `'+'`, `'*'`,
/// `'max'`, with an optional per-node cost knob `eval_cost/1` the caller
/// can override by concatenation (`work(C)` advances the virtual clock).
pub const ARITH_EVAL: &str = r#"
% The data guards make eval wait until both operand values exist, so its
% cost is charged when the node evaluation actually runs — and so a pending
% evaluation shows up as a live suspended `eval` process (experiment E2).
eval(Op, L, R, Value) :- data(L), data(R) |
    eval_cost(C), work(C), apply_op(Op, L, R, Value).
apply_op('+', L, R, Value) :- Value := L + R.
apply_op('*', L, R, Value) :- Value := L * R.
apply_op('max', L, R, Value) :- Value := max(L, R).
eval_cost(C) :- C := 1.
"#;

/// Sequentially reduce a tree source string (reference result for tests).
pub fn sequential_reduce(tree_src: &str) -> i64 {
    fn eval(t: &strand_parse::Ast) -> i64 {
        match t {
            strand_parse::Ast::Tuple(name, args) if name == "leaf" => match &args[0] {
                strand_parse::Ast::Int(v) => *v,
                other => panic!("bad leaf {other}"),
            },
            strand_parse::Ast::Tuple(name, args) if name == "tree" => {
                let l = eval(&args[1]);
                let r = eval(&args[2]);
                match &args[0] {
                    strand_parse::Ast::Atom(op) if op == "+" => l + r,
                    strand_parse::Ast::Atom(op) if op == "*" => l * r,
                    strand_parse::Ast::Atom(op) if op == "max" => l.max(r),
                    other => panic!("bad op {other}"),
                }
            }
            other => panic!("bad tree node {other}"),
        }
    }
    eval(&strand_parse::parse_term(tree_src).expect("tree parses"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_machine::{run_parsed_goal, MachineConfig, RunStatus};
    use strand_parse::pretty;

    #[test]
    fn tree1_library_is_five_lines() {
        // §3.6: "The first is implemented with five lines of code".
        let lines: Vec<&str> = TREE1_LIBRARY
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('%'))
            .collect();
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert_eq!(tree1().library_rules(), 2);
    }

    #[test]
    fn tree_reduce_1_evaluates_paper_example() {
        // The paper's §3.1 example evaluates (3*2)*((2+1)+1) = 24.
        let motif = tree_reduce_1();
        let program = motif.apply_src(ARITH_EVAL).unwrap();
        let tree = "tree('*', tree('*', leaf(3), leaf(2)), \
                    tree('+', tree('+', leaf(2), leaf(1)), leaf(1)))";
        let goal = format!("create(4, reduce({tree}, Value))");
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(4).seed(5)).unwrap();
        assert_eq!(r.bindings["Value"].to_string(), "24");
        assert!(matches!(r.report.status, RunStatus::Quiescent { .. }));
    }

    #[test]
    fn tree_reduce_1_halting_terminates_network() {
        let motif = tree_reduce_1_halting();
        let program = motif.apply_src(ARITH_EVAL).unwrap();
        let tree = balanced_tree_src(4);
        let goal = format!("create(4, begin_reduce({tree}, Value))");
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(4).seed(7)).unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        assert_eq!(
            r.bindings["Value"].to_string(),
            sequential_reduce(&tree).to_string()
        );
    }

    #[test]
    fn tree_reduce_2_evaluates_and_halts() {
        let motif = tree_reduce_2();
        let program = motif.apply_src(ARITH_EVAL).unwrap();
        let tree = "tree('*', tree('*', leaf(3), leaf(2)), \
                    tree('+', tree('+', leaf(2), leaf(1)), leaf(1)))";
        let goal = format!("create(4, tr2({tree}, Value))");
        let r = run_parsed_goal(&program, &goal, MachineConfig::with_nodes(4).seed(5)).unwrap();
        assert_eq!(
            r.report.status,
            RunStatus::Completed,
            "{:?}",
            r.report.suspended_goals
        );
        assert_eq!(r.bindings["Value"].to_string(), "24");
    }

    #[test]
    fn tree_reduce_2_single_leaf() {
        let program = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
        let r = run_parsed_goal(
            &program,
            "create(2, tr2(leaf(9), Value))",
            MachineConfig::with_nodes(2),
        )
        .unwrap();
        assert_eq!(r.report.status, RunStatus::Completed);
        assert_eq!(r.bindings["Value"].to_string(), "9");
    }

    #[test]
    fn both_motifs_agree_on_random_trees() {
        // §3.6: same interface, same results, different algorithms.
        for seed in [1u64, 2, 3] {
            let tree = random_tree_src(12, seed);
            let expected = sequential_reduce(&tree).to_string();
            let p1 = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
            let r1 = run_parsed_goal(
                &p1,
                &format!("create(3, reduce({tree}, Value))"),
                MachineConfig::with_nodes(3).seed(seed),
            )
            .unwrap();
            assert_eq!(
                r1.bindings["Value"].to_string(),
                expected,
                "TR1 seed {seed}"
            );
            let p2 = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
            let r2 = run_parsed_goal(
                &p2,
                &format!("create(3, tr2({tree}, Value))"),
                MachineConfig::with_nodes(3).seed(seed),
            )
            .unwrap();
            assert_eq!(
                r2.bindings["Value"].to_string(),
                expected,
                "TR2 seed {seed}"
            );
        }
    }

    #[test]
    fn tr2_sequences_one_eval_per_node() {
        // E2: peak live eval processes per node is 1 under TR2...
        let p2 = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
        let tree = random_tree_src(40, 9);
        let cfg = MachineConfig::with_nodes(4).seed(9).track("eval");
        let r2 = run_parsed_goal(&p2, &format!("create(4, tr2({tree}, Value))"), cfg).unwrap();
        assert!(r2.report.metrics.max_peak_tracked() <= 1);
        // ...while TR1 stacks many concurrent evals.
        let p1 = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
        let cfg = MachineConfig::with_nodes(4).seed(9).track("eval");
        let r1 = run_parsed_goal(&p1, &format!("create(4, reduce({tree}, Value))"), cfg).unwrap();
        assert!(
            r1.report.metrics.max_peak_tracked() > 2,
            "TR1 peak {}",
            r1.report.metrics.max_peak_tracked()
        );
    }

    #[test]
    fn tr2_cross_value_messages_bounded_by_internal_nodes() {
        // E3: at most one of each node's offspring values crosses nodes.
        for seed in [4u64, 5, 6] {
            let leaves = 24u32;
            let internal = leaves - 1; // binary tree
            let tree = random_tree_src(leaves, seed);
            let p2 = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
            let cfg = MachineConfig::with_nodes(6).seed(seed);
            let r = run_parsed_goal(&p2, &format!("create(6, tr2({tree}, Value))"), cfg).unwrap();
            let crossings = r.report.metrics.port_msgs_for("value");
            assert!(
                crossings <= internal as u64,
                "seed {seed}: {crossings} value crossings > {internal} internal nodes"
            );
        }
    }

    #[test]
    fn staged_composition_prints_figure5_stages() {
        // F5/F6: the three program stages of Tree-Reduce-1.
        let a = parse_eval();
        let (stage1, _) = tree1().apply_staged(&a).unwrap();
        let stage1 = stage1.union(tree1().library());
        let s1 = pretty(&stage1);
        assert!(s1.contains("reduce(R, RV)@random"), "{s1}");

        let (stage2, _) = rand_map_with_entries(&[]).apply_staged(&stage1).unwrap();
        let s2 = pretty(&stage2);
        assert!(s2.contains("send("), "{s2}");
        assert!(s2.contains("server(["), "{s2}");

        let stage3 = server().apply(&stage2).unwrap();
        let s3 = pretty(&stage3);
        assert!(s3.contains("distribute("), "{s3}");
        assert!(s3.contains("create(N, Msg)"), "{s3}");
        fn parse_eval() -> Program {
            strand_parse::parse_program(ARITH_EVAL).unwrap()
        }
    }

    #[test]
    fn tree_sources_are_deterministic() {
        assert_eq!(random_tree_src(8, 3), random_tree_src(8, 3));
        assert_ne!(random_tree_src(8, 3), random_tree_src(8, 4));
        assert_eq!(balanced_tree_src(0), "leaf(1)");
        assert!(balanced_tree_src(2).starts_with("tree('+', tree('*',"));
    }

    #[test]
    fn sequential_reduce_reference() {
        assert_eq!(sequential_reduce("leaf(7)"), 7);
        assert_eq!(
            sequential_reduce("tree('*', leaf(3), tree('+', leaf(2), leaf(2)))"),
            12
        );
    }
}
