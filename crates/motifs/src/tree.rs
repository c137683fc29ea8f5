//! The tree-reduction motifs of the case study (§3.4, §3.5).
//!
//! * [`tree1`] — the 5-line divide-and-conquer library of §3.4
//!   (identity transformation), exactly the paper's listing;
//! * [`tree_reduce_1`] — `Server ∘ Rand ∘ Tree1`, the paper's
//!   `Tree-Reduce-1`;
//! * [`tree_reduce_1_halting`] — the §3.3 extension: a short circuit is
//!   threaded through `reduce/2`, and the network halts when the circuit
//!   closes;
//! * [`tree_reduce_2`] — the `Tree-Reduce-2` of §3.5: every node is
//!   labeled (sibling leaves share a label, a parent takes its left child's
//!   label), a value waits in its parent's slot on its processor until its
//!   sibling arrives, and evaluation is sequenced so one node evaluation
//!   runs at a time per processor — the labeling guarantees *at most one of
//!   each node's offspring values crosses processors*.
//!
//! The user supplies `eval(Op, Left, Right, Value)`; both motifs provide
//! the same interface (§3.6: *"These provide the same interface to the
//! user"*). Trees are terms `tree(Op, L, R)` / `leaf(Value)`.

use crate::motif::Motif;
use crate::rand_map::rand_map_with_entries;
use crate::server::server;
use std::collections::BTreeSet;
use strand_core::Term;
use strand_parse::parse_program;
use transform::callgraph::Key;
use transform::rewrite::thread_circuit;

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
    let circuit_motif = Motif::transform_only("Circuit", move |p| {
        let targets: BTreeSet<Key> = [("reduce".to_string(), 2)].into_iter().collect();
        Ok(thread_circuit(p, &targets).union(&entry_prog))
    });
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
/// Leaf values are sent to their parent's label. Each server keeps one slot
/// per node id: the first of two siblings waits in their parent's slot
/// (`pending` gauge), and the second evaluates the parent, one node at a
/// time per server, forwarding the result to the grandparent's label. A
/// value costs O(1) however many wait. The root value binds `Result` and
/// halts the network.
pub const TREE2_LIBRARY: &str = r#"
% Tree-Reduce-2 library (the analogue of the paper's Figure 7).
server(In) :- serve(In, st(Table, Result, Slots, 0)).

serve([tr2(Tree, Result)|In], St) :-
    setup(Tree, Result),
    serve(In, St).
serve([tree(T, R)|In], st(TV, RV, SV, Pend)) :-
    TV = T, RV = R,
    length(T, N), make_tuple(N, SV),
    serve(In, st(TV, RV, SV, Pend)).
serve([value(P, Side, V)|In], st(T, R, S, Pend)) :-
    put_arg(P, S, pv(Side, V), Won),
    handle(Won, P, V, In, st(T, R, S, Pend)).
% Initial leaf values arrive as lvalue messages — same handling, but kept
% a distinct message type so experiment E3 can separate the one-time data
% distribution from the offspring-value communication the paper's bound is
% about.
serve([lvalue(P, Side, V)|In], st(T, R, S, Pend)) :-
    put_arg(P, S, pv(Side, V), Won),
    handle(Won, P, V, In, st(T, R, S, Pend)).
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
    build(B, Table, NA, Next, Id, MyLbl, r, HB, _, Ls1, Ls0),
    put_arg(Id, Table, info(op(Op), PId, PLbl, Side)).

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

% --- pending values keyed by node id, and sequenced evaluation ---

% A value claims its parent's slot with put_arg/4's test-and-set: the
% first of two siblings waits there (yes); the second finds it (no) and
% evaluates the parent.
handle(yes, _, _, In, st(T, R, S, Pend)) :-
    Pend1 := Pend + 1, gauge(pending, Pend1),
    serve(In, st(T, R, S, Pend1)).
handle(no, P, V2, In, st(T, R, S, Pend)) :-
    Pend1 := Pend - 1,
    arg(P, S, PV),
    orient(PV, V2, VL, VR),
    arg(P, T, Info),
    evalgo(Info, VL, VR, In, st(T, R, S, Pend1)).

orient(pv(l, V1), V2, VL, VR) :- VL := V1, VR := V2.
orient(pv(r, V1), V2, VL, VR) :- VL := V2, VR := V1.

evalgo(info(op(Op), GP, GL, Side), VL, VR, In, st(T, R, S, Pend)) :-
    eval(Op, VL, VR, PV),
    forward(PV, GP, GL, Side, R, Done),
    resume(Done, In, st(T, R, S, Pend)).

resume(done, In, St) :- serve(In, St).

% Sequencing: forward waits for the evaluated value before releasing the
% server loop, so a single node evaluation is active per processor (§3.5).
forward(PV, -1, _, _, R, Done) :- data(PV) |
    R = PV, Done := done, halt.
forward(PV, GP, GL, Side, _, Done) :- GP >= 0, data(PV) |
    send(GL, value(GP, Side, PV)),
    Done := done.
"#;

/// `Tree-Reduce-2 = Server ∘ TreeReduce2Core` (§3.5).
///
/// Entry goal: `create(P, tr2(Tree, Value))`. Halts the network when the
/// root value is delivered.
pub fn tree_reduce_2() -> Motif {
    server().compose(&Motif::library_only("TreeReduce2Core", TREE2_LIBRARY))
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
    fn eval(t: &Term) -> i64 {
        let (name, args) = match t {
            Term::Tuple(name, args) => (name.as_str(), &args[..]),
            other => panic!("bad tree node {other}"),
        };
        match (name, args) {
            ("leaf", [Term::Int(v)]) => *v,
            ("tree", [Term::Atom(op), l, r]) => {
                let (l, r) = (eval(l), eval(r));
                match op.as_str() {
                    "+" => l + r,
                    "*" => l * r,
                    "max" => l.max(r),
                    other => panic!("bad op {other}"),
                }
            }
            _ => panic!("bad tree node {t}"),
        }
    }
    match &strand_parse::parse_term(tree_src).expect("tree parses") {
        strand_parse::Ast::Ground(tree) => eval(tree),
        other => panic!("a tree holds no variable: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_machine::{run_parsed_goal, MachineConfig, RunStatus};
    use strand_parse::{pretty, Program};

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
        // §3.6: same interface, same results, different algorithms. The
        // 2 000-leaf trees leave thousands of values waiting in slots, and
        // TR2 runs on two threads too, where they arrive in another order.
        let small = [1u64, 2, 3].map(|seed| (12, seed));
        let large = [4u64, 5, 6, 7, 8].map(|seed| (2000, seed));
        for (leaves, seed) in small.into_iter().chain(large) {
            let tree = random_tree_src(leaves, seed);
            let expected = sequential_reduce(&tree).to_string();
            let sim = MachineConfig::with_nodes(3).seed(seed);
            let p1 = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
            let r1 = run_parsed_goal(
                &p1,
                &format!("create(3, reduce({tree}, Value))"),
                sim.clone(),
            )
            .unwrap();
            assert_eq!(
                r1.bindings["Value"].to_string(),
                expected,
                "TR1 {leaves} leaves, seed {seed}"
            );
            let p2 = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
            for cfg in [sim.clone(), sim.clone().parallel(2)] {
                let backend = cfg.backend;
                let r2 =
                    run_parsed_goal(&p2, &format!("create(3, tr2({tree}, Value))"), cfg).unwrap();
                assert_eq!(
                    r2.bindings["Value"].to_string(),
                    expected,
                    "TR2 {leaves} leaves, seed {seed}, {backend:?}"
                );
            }
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
        let stage1 = tree1().apply(&a).unwrap();
        let s1 = pretty(&stage1);
        assert!(s1.contains("reduce(R, RV)@random"), "{s1}");

        let stage2 = rand_map_with_entries(&[]).apply(&stage1).unwrap();
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
