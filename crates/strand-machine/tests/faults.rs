//! Fault-injection layer: crashes, message faults, slowdowns, and the
//! timeout/ack builtins that make fault-tolerant protocols writable.

use strand_machine::{run_goal, FaultPlan, MachineConfig, RunStatus, TraceEvent};

/// Two servers in a chain: node 1 forwards a token to a worker on node 2
/// and waits for the reply. Crashing node 2 strands the waiter.
const CHAIN: &str = r#"
    go(R) :- work(R)@2, wait(R).
    work(R) :- R := done.
    wait(R) :- R == done | true.
"#;

#[test]
fn crash_strands_waiters_as_partitioned() {
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().crash(2, 0));
    let r = run_goal(CHAIN, "go(R)", cfg).expect("runs");
    match &r.report.status {
        RunStatus::Partitioned {
            suspended,
            crashed_nodes,
            ..
        } => {
            assert!(*suspended >= 1, "wait/1 should be stranded");
            assert_eq!(crashed_nodes, &vec![2]);
        }
        other => panic!("expected Partitioned, got {other:?}"),
    }
    assert_eq!(r.report.metrics.nodes_crashed, 1);
    // The spawn toward the dead node is lost, and counted.
    assert!(r.report.metrics.msgs_dropped >= 1);
}

#[test]
fn crash_records_dead_goals_and_trace() {
    // Crash after the worker arrives but (latency 10) before it reduces.
    let mut cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().crash(2, 10));
    cfg.record_trace = true;
    let r = run_goal(CHAIN, "go(R)", cfg).expect("runs");
    assert!(matches!(r.report.status, RunStatus::Partitioned { .. }));
    assert!(
        !r.report.dead_goals.is_empty(),
        "queued worker should be snapshotted"
    );
    assert!(r
        .report
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Crash { .. })));
}

#[test]
fn crash_on_idle_machine_does_not_hang() {
    // The crash time is far beyond the program's end; the run must still
    // terminate (crashes fire against the event horizon, not real events).
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().crash(2, 1_000_000));
    let r = run_goal("go.", "go", cfg).expect("runs");
    assert_eq!(r.report.status, RunStatus::Completed);
}

#[test]
fn certain_drop_loses_remote_spawn() {
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().drop_prob(1.0).seed(1));
    let r = run_goal("go :- ping@2. ping :- print(pong).", "go", cfg).expect("runs");
    assert_eq!(r.report.status, RunStatus::Completed);
    assert_eq!(r.report.metrics.msgs_dropped, 1);
    assert!(r.report.output.is_empty(), "pong must not print");
}

#[test]
fn certain_duplication_doubles_remote_spawn() {
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().dup_prob(1.0).seed(1));
    let r = run_goal("go :- ping@2. ping :- print(pong).", "go", cfg).expect("runs");
    assert_eq!(r.report.status, RunStatus::Completed);
    assert_eq!(r.report.metrics.msgs_duplicated, 1);
    assert_eq!(r.report.output, vec!["pong", "pong"]);
}

#[test]
fn delay_fault_stretches_makespan() {
    let quiet = run_goal("go :- ping@2. ping.", "go", MachineConfig::with_nodes(2)).expect("runs");
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().delay(1.0, 500).seed(1));
    let slow = run_goal("go :- ping@2. ping.", "go", cfg).expect("runs");
    assert_eq!(slow.report.metrics.msgs_delayed, 1);
    assert!(
        slow.report.metrics.makespan >= quiet.report.metrics.makespan + 500,
        "delay must show up in the makespan: {} vs {}",
        slow.report.metrics.makespan,
        quiet.report.metrics.makespan
    );
}

#[test]
fn slowdown_inflates_straggler_busy_time() {
    let src = "go :- spin(20)@1, spin(20)@2.
               spin(0). spin(N) :- N > 0 | N1 := N - 1, spin(N1).";
    let fair = run_goal(src, "go", MachineConfig::with_nodes(2)).expect("runs");
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().slowdown(2, 8));
    let skewed = run_goal(src, "go", cfg).expect("runs");
    assert_eq!(
        fair.report.metrics.busy[0], skewed.report.metrics.busy[0],
        "node 1 unaffected"
    );
    assert!(
        skewed.report.metrics.busy[1] >= 8 * fair.report.metrics.busy[1],
        "node 2 should run 8x slower: {} vs {}",
        skewed.report.metrics.busy[1],
        fair.report.metrics.busy[1]
    );
}

#[test]
fn faults_are_deterministic_and_seed_sensitive() {
    let src = "go :- fan(40). fan(0). fan(N) :- N > 0 | ping@2, N1 := N - 1, fan(N1). ping.";
    let run = |seed: u64| {
        let cfg =
            MachineConfig::with_nodes(2).faults(FaultPlan::default().drop_prob(0.5).seed(seed));
        run_goal(src, "go", cfg).expect("runs").report.metrics
    };
    let (a, b, c) = (run(7), run(7), run(8));
    assert_eq!(a.msgs_dropped, b.msgs_dropped);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_reductions, b.total_reductions);
    assert!(a.msgs_dropped > 0, "p=0.5 over 40 sends drops something");
    assert_ne!(
        (a.msgs_dropped, a.makespan),
        (c.msgs_dropped, c.makespan),
        "different fault seeds should diverge (40 coin flips)"
    );
}

#[test]
fn empty_plan_changes_nothing() {
    // A default (empty) plan must leave runs bit-identical to the plain
    // machine: quiet edges consume no fault RNG.
    let src = "go(X) :- draw(X)@2. draw(X) :- rand_num(1000, X).";
    let plain = run_goal(src, "go(X)", MachineConfig::with_nodes(2)).expect("runs");
    let cfg = MachineConfig::with_nodes(2).faults(FaultPlan::default().seed(99));
    let faulted = run_goal(src, "go(X)", cfg).expect("runs");
    assert_eq!(plain.bindings["X"], faulted.bindings["X"]);
    assert_eq!(
        plain.report.metrics.makespan,
        faulted.report.metrics.makespan
    );
}

// ---- timeout / ack / unique_id builtins -------------------------------

#[test]
fn after_unless_fires_when_uncancelled() {
    let r = run_goal(
        "go(T) :- after_unless(_C, 50, T).",
        "go(T)",
        MachineConfig::default(),
    )
    .expect("runs");
    assert_eq!(r.bindings["T"].to_string(), "timeout");
    assert!(r.report.metrics.makespan >= 50);
}

#[test]
fn cancelled_timer_evaporates_without_cost() {
    // Binding the cancel cell defuses the timer: T stays unbound and —
    // crucially — the pending timer must not stretch the makespan.
    let r = run_goal(
        "go(C, T) :- after_unless(C, 5000, T), C := done.",
        "go(C, T)",
        MachineConfig::default(),
    )
    .expect("runs");
    assert_eq!(r.report.status, RunStatus::Completed);
    assert!(matches!(r.bindings["T"], strand_core::Term::Var(_)));
    assert!(
        r.report.metrics.makespan < 5000,
        "cancelled timer stretched the clock to {}",
        r.report.metrics.makespan
    );
}

#[test]
fn ack_is_idempotent() {
    let r = run_goal(
        "go(A) :- ack(A), ack(A), ack(A).",
        "go(A)",
        MachineConfig::default(),
    )
    .expect("runs");
    assert_eq!(r.report.status, RunStatus::Completed);
    assert_eq!(r.bindings["A"].to_string(), "ok");
}

#[test]
fn unique_ids_are_distinct() {
    let r = run_goal(
        "go(A, B, C) :- unique_id(A), unique_id(B), unique_id(C).",
        "go(A, B, C)",
        MachineConfig::default(),
    )
    .expect("runs");
    let (a, b, c) = (
        r.bindings["A"].to_string(),
        r.bindings["B"].to_string(),
        r.bindings["C"].to_string(),
    );
    assert_ne!(a, b);
    assert_ne!(b, c);
    assert_ne!(a, c);
}

// ---- graceful budget exhaustion ---------------------------------------

#[test]
fn budget_exhaustion_truncates_when_not_fail_fast() {
    let cfg = MachineConfig {
        max_reductions: 100,
        fail_fast: false,
        ..Default::default()
    };
    let src = "go :- loop(0). loop(N) :- N >= 0 | print(N), N1 := N + 1, loop(N1).";
    let r = run_goal(src, "go", cfg).expect("collecting run still returns");
    match r.report.status {
        RunStatus::Truncated { reductions } => assert!(reductions >= 100),
        ref other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(!r.report.output.is_empty(), "partial output survives");
    assert!(!r.report.errors.is_empty(), "budget error is collected");
}

#[test]
fn budget_exhaustion_still_errors_when_fail_fast() {
    let cfg = MachineConfig {
        max_reductions: 100,
        ..Default::default()
    };
    let src = "go :- loop(0). loop(N) :- N >= 0 | N1 := N + 1, loop(N1).";
    assert!(run_goal(src, "go", cfg).is_err());
}

// ---- diagnostics: error collection and quiescence reporting -----------

#[test]
fn independent_errors_are_all_collected_with_timestamps() {
    // Two unrelated assignment conflicts plus healthy work: with fail_fast
    // off, both errors land in the report and the rest still completes.
    let src = r#"
        go(X) :- clash(1), clash(3), fine(X).
        clash(N) :- N := 2.
        fine(X) :- X := ok.
    "#;
    let cfg = MachineConfig {
        fail_fast: false,
        ..Default::default()
    };
    let r = run_goal(src, "go(X)", cfg).expect("collecting run returns");
    assert_eq!(r.report.errors.len(), 2, "{:?}", r.report.errors);
    assert_eq!(r.report.status, RunStatus::Completed);
    assert_eq!(r.bindings["X"].to_string(), "ok");
    // Errors carry the virtual time they occurred at, in order.
    let times: Vec<_> = r.report.errors.iter().map(|(t, _)| *t).collect();
    let mut sorted = times.clone();
    sorted.sort();
    assert_eq!(times, sorted, "errors recorded in time order");
}

#[test]
fn quiescent_report_counts_all_but_snapshots_at_most_16() {
    // Spawn 20 goals that each suspend forever on an unbound flag. The
    // status reports the true count; the diagnostic snapshot is capped.
    let src = r#"
        go(N) :- N > 0 | hang(N, _F), N1 := N - 1, go(N1).
        go(0).
        hang(N, F) :- F == never | print(N).
    "#;
    let r = run_goal(src, "go(20)", MachineConfig::default()).expect("runs");
    match r.report.status {
        RunStatus::Quiescent { suspended } => assert_eq!(suspended, 20),
        ref other => panic!("expected Quiescent, got {other:?}"),
    }
    assert_eq!(
        r.report.suspended_goals.len(),
        16,
        "snapshot capped at 16 of 20"
    );
    // Snapshots are resolved terms naming the stuck procedure — usable
    // diagnostics, not raw store indices.
    for g in &r.report.suspended_goals {
        assert!(g.to_string().starts_with("hang("), "{g}");
    }
}

#[test]
fn small_quiescent_report_snapshots_everything() {
    let src = "go :- hang(_F). hang(F) :- F == never | true.";
    let r = run_goal(src, "go", MachineConfig::default()).expect("runs");
    assert_eq!(r.report.status, RunStatus::Quiescent { suspended: 1 });
    assert_eq!(r.report.suspended_goals.len(), 1);
}
