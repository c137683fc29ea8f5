//! Fault tolerance by composition: `Supervise ∘ Server ∘ Rand` applied to
//! an unmodified token-ring application.
//!
//! The application knows nothing about failure. The Rand stage expands any
//! `@random` into a `send/2`; the Server stage turns every `send/2` into a
//! `distribute/3` over the server network; the Supervise stage rewrites
//! every `distribute` into `rsend` — sequence-numbered, acked delivery with
//! exponential-backoff retry — and links a library of heartbeat monitors
//! that restart a dead server's loop on the next node from its message log.
//!
//! ```sh
//! cargo run --example supervised_ring
//! # an 8-server ring under a plan of your own (crash nodes 2 and 4, drop
//! # 10% of cross-node deliveries, duplicate 5%) — on the simulator, where
//! # `@500` is virtual time, or with `--threads` on real worker threads,
//! # where it is the run's reduction count:
//! cargo run --example supervised_ring -- \
//!     --faults seed=61,crash=2@500,crash=4@500,drop=0.10,dup=0.05 --threads 2
//! ```

use algorithmic_motifs::motifs::{random, supervised_random};
use algorithmic_motifs::strand_machine::{run_parsed_goal, FaultPlan, MachineConfig, RunStatus};
use algorithmic_motifs::strand_parse::pretty;

/// A token ring: each server prints its number and forwards the token;
/// the last server halts the network. No failure handling anywhere.
/// (This app defines its own `server/1`, so the Rand stage — which
/// synthesizes `server/1` for `@random` apps — passes it through; the
/// composed motif accepts either style.)
const RING: &str = r#"
    server([token(K)|In]) :- pass(K), server(In).
    server([halt|_]).
    pass(K) :- work(40), print(K), nodes(N), next(K, N).
    next(K, N) :- K < N | K1 := K + 1, send(K1, token(K1)).
    next(N, N) :- halt.
"#;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let take = |args: &mut Vec<String>, flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        let v = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        });
        args.drain(i..=i + 1);
        Some(v)
    };
    let faults = take(&mut args, "--faults").map(|spec| {
        FaultPlan::parse_spec(&spec).unwrap_or_else(|e| {
            eprintln!("--faults: {e}");
            std::process::exit(2);
        })
    });
    let threads: Option<u32> =
        take(&mut args, "--threads").map(|v| v.parse().expect("--threads wants a number"));

    let plain = random().apply_src(RING).expect("Server o Rand applies");
    let sup = supervised_random()
        .apply_src(RING)
        .expect("Supervise o Server o Rand applies");

    // One seeded fault plan for both demo runs: node 3 dies at t=60, and
    // every edge drops 5% of its messages.
    let plan = || FaultPlan::default().crash(3, 60).drop_prob(0.05).seed(7);

    // With a plan or a thread count of the caller's, run just the
    // supervised 8-server ring under it — the same program and the same
    // plan on either backend.
    if faults.is_some() || threads.is_some() {
        let goal = "create(8, token(1))";
        let mut cfg = MachineConfig::with_nodes(8)
            .seed(47)
            .faults(faults.unwrap_or_else(plan));
        let mut backend = "the simulator".to_string();
        if let Some(threads) = threads {
            algorithmic_motifs::strand_parallel::install();
            cfg = cfg.parallel(threads);
            backend = format!("{threads} worker threads");
        }
        cfg.fail_fast = false;
        cfg.max_reductions = 2_000_000;
        let r = run_parsed_goal(&sup, goal, cfg).expect("supervised ring runs under faults");
        let m = &r.report.metrics;
        println!("%% Supervise o Server o Rand under the fault plan on {backend}:");
        println!("%%   status  {:?}", r.report.status);
        println!("%%   output  {:?}", r.report.output);
        println!(
            "%%   faults  {} node(s) crashed, {} deliveries dropped, {} duplicated, {} restart(s)",
            m.nodes_crashed, m.msgs_dropped, m.msgs_duplicated, m.supervisor_restarts
        );
        assert!(
            !matches!(r.report.status, RunStatus::Truncated { .. }),
            "recovery must not exhaust the budget"
        );
        for k in 1..=8 {
            assert!(
                r.report.output.contains(&k.to_string()),
                "token must reach server {k}"
            );
        }
        println!("\n% Verified: every server was visited despite the injected faults.");
        return;
    }

    // The application's token send is now a reliable rsend. (The library
    // itself still uses the low-level distribute internally — motif
    // libraries are linked last, untransformed, exactly so their own
    // plumbing escapes the rewrite.)
    let s = pretty(&sup);
    assert!(
        s.contains("rsend(K1, DT, token(K1))"),
        "the app's send must be rewritten: {s}"
    );
    println!("%% Supervised program: every send is an acked rsend; excerpt:");
    for line in s.lines().filter(|l| l.contains("rsend(")).take(3) {
        println!("%%   {}", line.trim());
    }

    let goal = "create(6, token(1))";

    let r = run_parsed_goal(&plain, goal, MachineConfig::with_nodes(6).faults(plan()))
        .expect("plain ring runs");
    println!("\n%% Server o Rand under the fault plan:");
    println!("%%   status  {:?}", r.report.status);
    println!("%%   output  {:?}", r.report.output);
    assert!(
        matches!(r.report.status, RunStatus::Partitioned { .. }),
        "the unsupervised ring must strand on the dead node"
    );

    let r = run_parsed_goal(&sup, goal, MachineConfig::with_nodes(6).faults(plan()))
        .expect("supervised ring runs");
    println!("\n%% Supervise o Server o Rand under the same plan:");
    println!("%%   status  {:?}", r.report.status);
    println!("%%   output  {:?}", r.report.output);
    println!(
        "%%   faults  {} crash(es), {} dropped, {} duplicated",
        r.report.metrics.nodes_crashed,
        r.report.metrics.msgs_dropped,
        r.report.metrics.msgs_duplicated,
    );
    assert_eq!(r.report.status, RunStatus::Completed);
    for k in 1..=6 {
        assert!(
            r.report.output.contains(&k.to_string()),
            "token must reach server {k}"
        );
    }
    println!("\n% Verified: the same application completes once Supervise is composed in.");
}
