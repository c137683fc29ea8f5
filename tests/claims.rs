//! Integration tests for the paper's evaluation claims (E1–E8 in
//! EXPERIMENTS.md), at sizes small enough for CI.

use algorithmic_motifs::motifs::{random_tree_src, ARITH_EVAL};
use algorithmic_motifs::strand_machine::{run_parsed_goal, MachineConfig};
use bench::TreeReduce::{self, Tr1, Tr2};
use bench::{heavy_eval, run_scheduler, run_skewed, run_tree, uniform_eval, Mapping, Scaled};

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
    // TR2's price: values wait in their parent's slot, fewer than the leaves.
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
    let cfg = MachineConfig::with_nodes(17).seed(7);
    let r1 = run_scheduler(None, &costs, cfg.clone());
    let r2 = run_scheduler(Some(4), &costs, cfg);
    assert_eq!(r1.bindings["Results"].as_proper_list().unwrap().len(), 120);
    assert_eq!(r2.bindings["Results"].as_proper_list().unwrap().len(), 120);
    assert!(r2.report.metrics.busy[0] * 2 < r1.report.metrics.busy[0]);
}

#[test]
fn e10_task_pragma_beats_oblivious_mapping_on_skew() {
    // §2.2's scheduler pragma (demand dispatch) vs §3.3's random mapping
    // on one skewed-cost program.
    let n = 80u32;
    let cfg = MachineConfig::with_nodes(9).seed(13);
    let task_run = run_skewed(Mapping::Task, n, cfg.clone());
    let rand_run = run_skewed(Mapping::Random, n, cfg);
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
fn per_unit_reductions_are_flat_across_sizes_and_threads() {
    // A library whose work per leaf or per task grows with the workload is
    // a scaling bug, whatever its makespan. Each motif's reductions per unit
    // vary < 10 % over sizes 16x apart, and 2 threads do the simulator's
    // work within 10 %. Tree-Reduce-2 sequences one evaluation per server,
    // so arrival order must not cost it work: 1 % between engines.
    for motif in Scaled::ALL {
        let per_unit = |size: u32, threads| {
            motif.run(size, threads).report.metrics.total_reductions as f64 / size as f64
        };
        let bound = if motif == Scaled::Tree(Tr2) {
            0.01
        } else {
            0.10
        };
        let mut sim = Vec::new();
        for size in motif.sizes() {
            let (one, two) = (per_unit(size, None), per_unit(size, Some(2)));
            assert!(
                (two - one).abs() < bound * one,
                "{} at {size}: {two:.2} per unit on 2 threads, {one:.2} on the simulator",
                motif.name()
            );
            sim.push(one);
        }
        let (lo, hi) = sim
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(
            hi < 1.10 * lo,
            "{} per unit over {:?}: {sim:.2?}",
            motif.name(),
            motif.sizes()
        );
    }
}

#[test]
fn a1_tr2_tolerates_latency_better() {
    // The A1 table's configuration: 96 leaves, P = 8, uniform cost 50.
    let tree = random_tree_src(96, 31);
    let eval = uniform_eval(50);
    let makespan = |motif: TreeReduce, latency: u64| {
        let cfg = MachineConfig::with_nodes(8).seed(31).latency(latency);
        let r = run_parsed_goal(&motif.program(&eval), &motif.goal(8, &tree), cfg);
        r.expect("tree reduction runs").report.metrics.makespan
    };
    let slowdown = |motif| makespan(motif, 1000) as f64 / makespan(motif, 1) as f64;
    let (tr1, tr2) = (slowdown(Tr1), slowdown(Tr2));
    // TR1 degrades with heavy latency far more than proportionally; TR2,
    // which sends at most one value per node across processors, less.
    assert!(tr1 > 2.0, "TR1 slowdown {tr1:.2}x");
    assert!(tr2 < tr1, "TR2 slowdown {tr2:.2}x, TR1 {tr1:.2}x");
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
