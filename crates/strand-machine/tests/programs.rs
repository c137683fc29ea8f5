//! Scenario tests: classic concurrent-logic programs running on the
//! abstract machine — the kind of code the paper's §2.1 presents as the
//! idiom of the language (streams, dataflow, incremental structures).

use strand_machine::{run_goal, GoalResult, MachineConfig, RunStatus};

fn run(src: &str, goal: &str) -> GoalResult {
    run_goal(src, goal, MachineConfig::default()).expect("program runs")
}

#[test]
fn naive_reverse() {
    let src = r#"
        rev([], R) :- R := [].
        rev([X|Xs], R) :- rev(Xs, R1), app(R1, [X], R).
        app([], Ys, Zs) :- Zs := Ys.
        app([X|Xs], Ys, Zs) :- Zs := [X|Z1], app(Xs, Ys, Z1).
    "#;
    let r = run(src, "rev([1, 2, 3, 4, 5], R)");
    assert_eq!(r.bindings["R"].to_string(), "[5,4,3,2,1]");
}

#[test]
fn quicksort_with_difference_lists() {
    let src = r#"
        qsort(Xs, Ys) :- qs(Xs, Ys, []).
        qs([], Ys, Ys0) :- Ys := Ys0.
        qs([X|Xs], Ys, Ys0) :-
            part(Xs, X, S, L),
            qs(S, Ys, [X|Ys1]),
            qs(L, Ys1, Ys0).
        part([], _, S, L) :- S := [], L := [].
        part([Y|Ys], X, S, L) :- Y =< X | S := [Y|S1], part(Ys, X, S1, L).
        part([Y|Ys], X, S, L) :- Y > X | L := [Y|L1], part(Ys, X, S, L1).
    "#;
    let r = run(src, "qsort([5, 3, 9, 1, 4, 1, 8], R)");
    assert_eq!(r.bindings["R"].to_string(), "[1,1,3,4,5,8,9]");
    assert_eq!(run(src, "qsort([], R)").bindings["R"].to_string(), "[]");
}

#[test]
fn sieve_of_eratosthenes_over_streams() {
    // The canonical stream program: integers flow through a growing chain
    // of filter processes.
    let src = r#"
        primes(Max, Ps) :- ints(2, Max, Ns), sieve(Ns, Ps).
        ints(K, Max, Ns) :- K =< Max | Ns := [K|N1], K1 := K + 1, ints(K1, Max, N1).
        ints(K, Max, Ns) :- K > Max | Ns := [].
        sieve([], Ps) :- Ps := [].
        sieve([P|Ns], Ps) :-
            Ps := [P|P1],
            filter(Ns, P, Rest),
            sieve(Rest, P1).
        filter([], _, Rest) :- Rest := [].
        filter([N|Ns], P, Rest) :-
            M := N mod P,
            keep(M, N, Ns, P, Rest).
        keep(0, _, Ns, P, Rest) :- filter(Ns, P, Rest).
        keep(M, N, Ns, P, Rest) :- M > 0 |
            Rest := [N|R1], filter(Ns, P, R1).
    "#;
    let r = run(src, "primes(30, Ps)");
    assert_eq!(r.bindings["Ps"].to_string(), "[2,3,5,7,11,13,17,19,23,29]");
}

#[test]
fn fibonacci_with_dataflow_joins() {
    let src = r#"
        fib(N, V) :- N < 2 | V := N.
        fib(N, V) :- N >= 2 |
            N1 := N - 1, N2 := N - 2,
            fib(N1, V1), fib(N2, V2),
            V := V1 + V2.
    "#;
    assert_eq!(run(src, "fib(15, V)").bindings["V"].to_string(), "610");
}

#[test]
fn stream_transducer_chain_across_nodes() {
    // map(×2) → map(+1) across three virtual nodes.
    let src = r#"
        go(N, Out) :- gen(N, S1), dbl(S1, S2)@2, inc(S2, Out)@3.
        gen(0, S) :- S := [].
        gen(N, S) :- N > 0 | S := [N|S1], N1 := N - 1, gen(N1, S1).
        dbl([], O) :- O := [].
        dbl([X|Xs], O) :- Y := X * 2, O := [Y|O1], dbl(Xs, O1).
        inc([], O) :- O := [].
        inc([X|Xs], O) :- Y := X + 1, O := [Y|O1], inc(Xs, O1).
    "#;
    let r = run_goal(src, "go(4, Out)", MachineConfig::with_nodes(3)).unwrap();
    assert_eq!(r.bindings["Out"].to_string(), "[9,7,5,3]");
    assert!(r.report.metrics.total_messages() > 0);
}

#[test]
fn errors_collected_when_fail_fast_off() {
    let src = r#"
        go :- bad(1), fine(X), use(X).
        bad(N) :- N := 2.
        fine(X) :- X := ok.
        use(_).
    "#;
    let cfg = MachineConfig {
        fail_fast: false,
        ..Default::default()
    };
    let r = run_goal(src, "go", cfg).unwrap();
    assert_eq!(r.report.errors.len(), 1, "{:?}", r.report.errors);
    // The rest of the program still completed.
    assert_eq!(r.report.status, RunStatus::Completed);
}

#[test]
fn mutual_recursion_and_deep_structures() {
    let src = r#"
        evens(0, E) :- E := yes.
        evens(N, E) :- N > 0 | N1 := N - 1, odds(N1, E).
        odds(0, E) :- E := no.
        odds(N, E) :- N > 0 | N1 := N - 1, evens(N1, E).
    "#;
    assert_eq!(run(src, "evens(100, E)").bindings["E"].to_string(), "yes");
    assert_eq!(run(src, "evens(101, E)").bindings["E"].to_string(), "no");
}

#[test]
fn float_arithmetic_flows() {
    let src = "avg(A, B, M) :- M := (A + B) / 2.";
    let r = run(src, "avg(1.5, 2.5, M)");
    assert_eq!(r.bindings["M"].to_string(), "2.0");
    // Mixed int/float promotes.
    let r = run(src, "avg(1, 2.0, M)");
    assert_eq!(r.bindings["M"].to_string(), "1.5");
}

#[test]
fn bounded_buffer_protocol() {
    // A demand-driven bounded buffer: the consumer sends K initial credits;
    // the producer emits one element per credit.
    let src = r#"
        go(N, K, Out) :-
            credits(K, Cs, Tail),
            producer(N, Cs, Xs),
            consumer(Xs, Tail, Out).
        credits(0, Cs, Tail) :- Cs = Tail.
        credits(K, Cs, Tail) :- K > 0 |
            Cs := [credit|C1], K1 := K - 1, credits(K1, C1, Tail).
        producer(0, _, Xs) :- Xs := [].
        producer(N, [credit|Cs], Xs) :- N > 0 |
            Xs := [N|X1], N1 := N - 1, producer(N1, Cs, X1).
        consumer([], Tail, Out) :- Tail = [], Out := [].
        consumer([X|Xs], Tail, Out) :-
            Tail := [credit|T1],
            Out := [X|O1],
            consumer(Xs, T1, O1).
    "#;
    let r = run(src, "go(6, 2, Out)");
    assert_eq!(r.bindings["Out"].to_string(), "[6,5,4,3,2,1]");
    assert!(r.report.status == RunStatus::Completed);
}

#[test]
fn large_program_within_budget() {
    // 30k reductions of list building: exercise the scheduler's throughput
    // path and the budget guard's headroom.
    let src = r#"
        build(0, L) :- L := [].
        build(N, L) :- N > 0 | L := [N|L1], N1 := N - 1, build(N1, L1).
        len([], N) :- N := 0.
        len([_|T], N) :- len(T, N1), N := N1 + 1.
        go(N, Len) :- build(N, L), len(L, Len).
    "#;
    let r = run(src, "go(5000, Len)");
    assert_eq!(r.bindings["Len"].to_string(), "5000");
}

/// First-argument selection counts its work as a clause-by-clause walk
/// that tests every key and stops at the committing rule does: keyed and
/// unkeyed clauses mixed, a guard-derived key, an integer goal against a
/// float key and a float goal against integer keys (`-0.0` included), a
/// goal that suspends on its unbound first argument, and one that falls
/// through to `otherwise` after skipping clauses past the last it tried.
/// The counts are those the walk recorded before selection became a table.
#[test]
fn index_counters_are_those_of_a_clause_by_clause_walk() {
    let src = r#"
        go(V) :- t(3, A), t(2.0, B), t(x, C), t(Z, D), t(f(1), E), t(9, F), t(y, G),
            t(-0.0, H), Z := 1, V := r(A, B, C, D, E, F, G, H).
        t(K, V) :- K == 0 | V := zero.
        t(1, V) :- V := one.
        t(K, V) :- K == 2 | V := two.
        t(x, V) :- V := ex.
        t(K, V) :- integer(K), K > 2 | V := big.
        t(f(_), V) :- V := eff.
        t(3.0, V) :- V := three.
        t(_, V) :- otherwise | V := other.
    "#;
    let r = run(src, "go(V)");
    assert_eq!(
        r.bindings["V"].to_string(),
        "r(big,two,ex,one,eff,big,other,zero)"
    );
    let m = &r.report.metrics;
    assert_eq!((m.index_hits, m.index_misses, m.rules_tried), (24, 11, 18));
    assert_eq!((m.total_reductions, m.suspensions), (20, 1));
}
