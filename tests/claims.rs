//! Integration tests for the paper's evaluation claims (E1–E8 in
//! EXPERIMENTS.md), at sizes small enough for CI.

use algorithmic_motifs::motifs::scheduler::{
    scheduler, scheduler_hierarchical, tasks_src, BURN_TASK,
};
use algorithmic_motifs::motifs::{random_tree_src, tree_reduce_1, ARITH_EVAL};
use algorithmic_motifs::strand_machine::{run_parsed_goal, MachineConfig};
use bench::TreeReduce::{Tr1, Tr2};
use bench::{heavy_eval, run_tree, uniform_eval};

#[test]
fn e1_random_mapping_balances_when_tree_is_large() {
    // §3.1: "should produce a reasonably balanced load if |Nodes| >>
    // |Processors|".
    let p = 4u32;
    let eval = uniform_eval(50);
    let run = |leaves| run_tree(Tr1, &eval, &random_tree_src(leaves, 101), p, 101, "");
    let (small, large) = (run(p), run(p * 64));
    let imb_small = small.report.metrics.imbalance().unwrap();
    let imb_large = large.report.metrics.imbalance().unwrap();
    assert!(
        imb_large < imb_small,
        "imbalance should fall: {imb_small:.2} -> {imb_large:.2}"
    );
    assert!(imb_large < 1.5, "large-tree imbalance {imb_large:.2}");
}

#[test]
fn e2_tr1_stacks_evaluations_tr2_sequences_them() {
    let tree = random_tree_src(96, 11);
    let r1 = run_tree(Tr1, &heavy_eval(10), &tree, 4, 11, "eval");
    let r2 = run_tree(Tr2, &heavy_eval(10), &tree, 4, 11, "eval");
    assert!(
        r1.report.metrics.max_peak_tracked() >= 5,
        "TR1 peak {}",
        r1.report.metrics.max_peak_tracked()
    );
    assert_eq!(r2.report.metrics.max_peak_tracked(), 1, "TR2 sequences");
    // TR2's price: a pending-value queue, bounded by the tree size.
    let pend = r2.report.metrics.max_gauge("pending");
    assert!((1..96).contains(&pend), "pending {pend}");
}

#[test]
fn e3_tr2_communication_bound_holds_over_seeds() {
    for seed in 1..8u64 {
        let leaves = 32u32;
        let tree = random_tree_src(leaves, seed);
        let r = run_tree(Tr2, ARITH_EVAL, &tree, 5, seed, "");
        let crossings = r.report.metrics.port_msgs_for("value");
        assert!(
            crossings <= (leaves - 1) as u64,
            "seed {seed}: {crossings} > {}",
            leaves - 1
        );
    }
}

#[test]
fn e4_both_motifs_speed_up_with_processors() {
    let tree = random_tree_src(64, 21);
    let eval = uniform_eval(200);
    let makespan = |motif, p| {
        run_tree(motif, &eval, &tree, p, 21, "")
            .report
            .metrics
            .makespan
    };
    let (m1, m8) = (makespan(Tr1, 1), makespan(Tr1, 8));
    assert!(
        (m1 as f64 / m8 as f64) > 2.0,
        "TR1 speedup {:.2}",
        m1 as f64 / m8 as f64
    );
    let (n1, n8) = (makespan(Tr2, 1), makespan(Tr2, 8));
    assert!(
        (n1 as f64 / n8 as f64) > 2.0,
        "TR2 speedup {:.2}",
        n1 as f64 / n8 as f64
    );
}

#[test]
fn e6_composition_is_free() {
    // The composed Tree-Reduce-1 performs exactly like the hand-written
    // Figure 2 program: same values, same reduction counts.
    let hand_src = format!(
        "{ARITH_EVAL}\n{}\n{}",
        bench::FIGURE2_HANDWRITTEN,
        algorithmic_motifs::motifs::SERVER_LIBRARY
    );
    for seed in [1u64, 9] {
        let tree = random_tree_src(16, seed);
        let hand = algorithmic_motifs::strand_machine::run_goal(
            &hand_src,
            &format!("create(4, reduce({tree}, Value))"),
            MachineConfig::with_nodes(4).seed(seed),
        )
        .unwrap();
        let composed = run_tree(Tr1, ARITH_EVAL, &tree, 4, seed, "");
        assert_eq!(
            hand.bindings["Value"], composed.bindings["Value"],
            "values differ at seed {seed}"
        );
        assert_eq!(
            hand.report.metrics.total_reductions, composed.report.metrics.total_reductions,
            "reduction counts differ at seed {seed}"
        );
    }
}

#[test]
fn e7_hierarchy_cuts_manager_load() {
    let costs: Vec<u64> = vec![5; 120];
    let p = 17u32;
    let p1 = scheduler().apply_src(BURN_TASK).unwrap();
    let r1 = run_parsed_goal(
        &p1,
        &format!("create({p}, start({}, Results))", tasks_src(&costs)),
        MachineConfig::with_nodes(p).seed(7),
    )
    .unwrap();
    let p2 = scheduler_hierarchical().apply_src(BURN_TASK).unwrap();
    let r2 = run_parsed_goal(
        &p2,
        &format!("create({p}, start2({}, Results, 4))", tasks_src(&costs)),
        MachineConfig::with_nodes(p).seed(7),
    )
    .unwrap();
    assert_eq!(r1.bindings["Results"].as_proper_list().unwrap().len(), 120);
    assert_eq!(r2.bindings["Results"].as_proper_list().unwrap().len(), 120);
    assert!(r2.report.metrics.busy[0] * 2 < r1.report.metrics.busy[0]);
}

#[test]
fn e10_task_pragma_beats_oblivious_mapping_on_skew() {
    // §2.2's scheduler pragma (demand dispatch) vs §3.3's random mapping
    // on one skewed-cost program.
    const APP: &str = r#"
        gen(0, V) :- V := 0.
        gen(N, V) :- N > 0 |
            cost(N, C),
            burn(C, V1)@task,
            N1 := N - 1,
            gen(N1, V2),
            add(V1, V2, V).
        cost(N, C) :- M := N mod 13, C := 30 + M * M * M.
        burn(C, V) :- work(C), V := 1.
        add(V1, V2, V) :- V := V1 + V2.
    "#;
    let p = 9u32;
    let n = 80u32;
    let task_prog = algorithmic_motifs::motifs::task_scheduler_with_entries(&[("gen", 2)])
        .apply_src(APP)
        .unwrap();
    let task_run = run_parsed_goal(
        &task_prog,
        &algorithmic_motifs::motifs::boot_goal(p, "gen", &[&n.to_string(), "V"]),
        MachineConfig::with_nodes(p).seed(13),
    )
    .unwrap();
    let rand_prog = algorithmic_motifs::motifs::random_with_entries(&[("gen", 2)])
        .apply_src(&APP.replace("@task", "@random"))
        .unwrap();
    let rand_run = run_parsed_goal(
        &rand_prog,
        &format!("create({p}, gen({n}, V))"),
        MachineConfig::with_nodes(p).seed(13),
    )
    .unwrap();
    assert_eq!(task_run.bindings["V"].to_string(), n.to_string());
    assert_eq!(rand_run.bindings["V"].to_string(), n.to_string());
    assert!(
        task_run.report.metrics.makespan < rand_run.report.metrics.makespan,
        "demand {} should beat random {}",
        task_run.report.metrics.makespan,
        rand_run.report.metrics.makespan
    );
}

#[test]
fn a1_tr2_tolerates_latency_better() {
    let tree = random_tree_src(64, 31);
    let eval = uniform_eval(50);
    let slow = |lat: u64, tr2_flag: bool| -> u64 {
        if tr2_flag {
            run_tree(Tr2, &eval, &tree, 8, 31, "")
                .report
                .metrics
                .makespan
        } else {
            let prog = tree_reduce_1().apply_src(&eval).unwrap();
            run_parsed_goal(
                &prog,
                &format!("create(8, reduce({tree}, Value))"),
                MachineConfig::with_nodes(8).seed(31).latency(lat),
            )
            .unwrap()
            .report
            .metrics
            .makespan
        }
    };
    // TR1 degrades with heavy latency far more than proportionally.
    let tr1_fast = slow(1, false);
    let prog = tree_reduce_1().apply_src(&eval).unwrap();
    let tr1_slow = run_parsed_goal(
        &prog,
        &format!("create(8, reduce({tree}, Value))"),
        MachineConfig::with_nodes(8).seed(31).latency(1000),
    )
    .unwrap()
    .report
    .metrics
    .makespan;
    assert!(
        tr1_slow as f64 / tr1_fast as f64 > 2.0,
        "TR1 {tr1_fast} -> {tr1_slow}"
    );
}

#[test]
fn e8_alignment_is_strategy_independent() {
    use algorithmic_motifs::seqalign::{
        align_family_seq, generate_family, FamilyParams, ScoreParams,
    };
    use bench::{run_alignment, TreeReduce};
    let seqs = generate_family(&FamilyParams {
        leaves: 10,
        ancestral_len: 60,
        seed: 77,
        ..Default::default()
    })
    .sequences;
    let reference = align_family_seq(&seqs, &ScoreParams::default());
    assert!(reference.column_identity() > 0.7);
    let internal = (seqs.len() - 1) as u64;
    for motif in [TreeReduce::Tr1, TreeReduce::Tr2] {
        let sim = MachineConfig::with_nodes(4).seed(1);
        for cfg in [sim.clone(), sim.parallel(2)] {
            let backend = cfg.backend;
            let (r, profile) = run_alignment(motif, &seqs, cfg);
            assert_eq!(profile, reference, "{motif:?} on {backend:?}");
            // E3's bound, on the simulator and on real threads: at most
            // one of each node's offspring values crosses processors.
            if motif == TreeReduce::Tr2 {
                let crossings = motif.crossings(&r.report.metrics);
                assert!(
                    crossings <= internal,
                    "{crossings} value crossings for {internal} internal nodes"
                );
            }
        }
    }
}

#[test]
fn a2_supervised_ring_delivers_under_message_loss() {
    // ISSUE 3's acceptance bar: at drop probability 0.1 the supervised
    // ring still delivers >= 99% of tokens, at a bounded makespan cost.
    let seeds: Vec<u64> = (1..=10).collect();
    let pts = bench::fault_sweep(6, &[0.0, 0.1], &seeds);
    let (base, lossy) = (&pts[0], &pts[1]);
    assert_eq!(base.delivery_rate(), 1.0, "lossless baseline: {base:?}");
    assert!(
        lossy.delivery_rate() >= 0.99,
        "delivery at p=0.1: {:.3} ({lossy:?})",
        lossy.delivery_rate()
    );
    assert_eq!(lossy.completed, lossy.runs, "every run must complete");
    let overhead = lossy.mean_makespan / base.mean_makespan;
    assert!(
        overhead < 8.0,
        "makespan overhead at p=0.1 must stay bounded, got {overhead:.2}x"
    );
}
