//! No rendered output may depend on interning order.
//!
//! Atoms hash by id, and ids are handed out in first-interned order, so the
//! iteration order of every `Atom`-keyed map (`Metrics::susp_by_proc`,
//! `port_msgs_by_functor`, the compiled and lowered procedure tables) varies
//! with what the process happened to load first. Anything *rendered* from
//! such a map must therefore sort by name. This test runs the same two
//! programs in one process under two disjoint sets of names — one set
//! interned in load order P, Q, the other pre-interned backwards and loaded
//! Q, P — and requires the rendered reports to be identical once the name
//! tag is stripped.

use algorithmic_motifs::strand_core::Atom;
use algorithmic_motifs::strand_machine::{render_trace, run_goal, GoalResult, MachineConfig};
use algorithmic_motifs::strand_parse::{parse_program, pretty};

/// Producer/consumer through six relays: seven procedures that suspend —
/// enough map entries that two id assignments iterate alike only by a
/// freak of hashing.
const P: &str = r#"
    go#(N, Out) :- producer#(N, S0), ra#(S0, S1), rb#(S1, S2), rc#(S2, S3),
        rd#(S3, S4), re#(S4, S5), rf#(S5, S6), consumer#(S6, 0, Out).
    producer#(N, Xs) :- N > 0 | Xs := [N|Xs1], N1 := N - 1, producer#(N1, Xs1).
    producer#(0, Xs) :- Xs := [].
    ra#([X|Xs], Ys) :- Ys := [X|Ys1], ra#(Xs, Ys1).
    ra#([], Ys) :- Ys := [].
    rb#([X|Xs], Ys) :- Ys := [X|Ys1], rb#(Xs, Ys1).
    rb#([], Ys) :- Ys := [].
    rc#([X|Xs], Ys) :- Ys := [X|Ys1], rc#(Xs, Ys1).
    rc#([], Ys) :- Ys := [].
    rd#([X|Xs], Ys) :- Ys := [X|Ys1], rd#(Xs, Ys1).
    rd#([], Ys) :- Ys := [].
    re#([X|Xs], Ys) :- Ys := [X|Ys1], re#(Xs, Ys1).
    re#([], Ys) :- Ys := [].
    rf#([X|Xs], Ys) :- Ys := [X|Ys1], rf#(Xs, Ys1).
    rf#([], Ys) :- Ys := [].
    consumer#([X|Xs], Acc, Out) :- Acc1 := Acc + X, print(seen#(X)), consumer#(Xs, Acc1, Out).
    consumer#([], Acc, Out) :- Out := Acc.
"#;

/// Tree reduction on four nodes: suspending `total#` and `sum#`, cross-node
/// spawns.
const Q: &str = r#"
    go#(N, Out) :- build#(N, T), total#(T, Out)@2.
    build#(0, T) :- T := leaf#(1).
    build#(N, T) :- N > 0 | N1 := N - 1, T := node#(L, R), build#(N1, L)@3, build#(N1, R)@4.
    total#(leaf#(X), V) :- V := X.
    total#(node#(L, R), V) :- total#(L, VL)@3, total#(R, VR)@4, sum#(VL, VR, V).
    sum#(A, B, V) :- integer(A), integer(B) | V := A + B.
"#;

/// `name#` in a template is a name private to one world: `name_<tag>`.
fn tagged(template: &str, tag: &str) -> String {
    template.replace('#', &format!("_{tag}"))
}

/// Everything a run renders that is fed by an `Atom`-keyed map or by atom
/// order, as text.
fn render(src: &str, goal: &str, r: &GoalResult) -> String {
    let m = &r.report.metrics;
    let mut out = String::new();
    out.push_str(&pretty(&parse_program(src).expect("program parses")));
    out.push_str(&format!("\n{goal}: {:?}\n", r.bindings));
    out.push_str(&format!("output: {:?}\n", r.report.output));
    out.push_str("suspensions by procedure:\n");
    for (name, n) in m.suspensions_by_procedure() {
        out.push_str(&format!("  {name}: {n}\n"));
    }
    let mut functors: Vec<(Atom, u64)> = m
        .port_msgs_by_functor
        .iter()
        .map(|(f, n)| (*f, *n))
        .collect();
    functors.sort();
    out.push_str(&format!("port messages: {functors:?}\n"));
    out.push_str(&render_trace(&r.report.trace));
    out
}

fn run(template: &str, tag: &str) -> String {
    let src = tagged(template, tag);
    let goal = format!("go_{tag}(4, Out)");
    let mut cfg = MachineConfig::with_nodes(4).seed(7);
    cfg.record_trace = true;
    let r = run_goal(&src, &goal, cfg).expect("run completes");
    assert!(r.completed(), "{:?}", r.report.status);
    render(&src, &goal, &r).replace(&format!("_{tag}"), "")
}

#[test]
fn reports_do_not_depend_on_which_program_interned_its_names_first() {
    // World a: names interned as the programs load, P then Q.
    let (p_a, q_a) = (run(P, "a"), run(Q, "a"));
    // World b: every name pre-interned in reverse order, then Q before P.
    for template in [P, Q] {
        let src = tagged(template, "b");
        let program = parse_program(&src).expect("program parses");
        for (name, _) in program.defined_keys().into_iter().rev() {
            Atom::new(name);
        }
    }
    for name in ["node_b", "leaf_b", "seen_b"] {
        Atom::new(name);
    }
    let (q_b, p_b) = (run(Q, "b"), run(P, "b"));
    assert!(
        p_a.contains("suspensions by procedure:\n  "),
        "P must suspend somewhere:\n{p_a}"
    );
    assert!(q_a.contains("sum: "), "Q must suspend in sum:\n{q_a}");
    assert_eq!(p_a, p_b);
    assert_eq!(q_a, q_b);
}
