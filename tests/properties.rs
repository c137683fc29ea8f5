//! Property-based integration tests: the invariants that must hold for
//! *every* tree, list, and seed, not just the examples.

use algorithmic_motifs::motifs::{
    self, dc, random_tree_src, sequential_reduce, tree_reduce_1, tree_reduce_2, ARITH_EVAL,
};
use algorithmic_motifs::skeletons::{self, Labeling, Pool};
use algorithmic_motifs::strand_machine::{run_parsed_goal, FaultPlan, MachineConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both tree-reduction motifs compute the sequential result for any
    /// random tree shape, seed and processor count.
    #[test]
    fn tree_motifs_agree_with_sequential(
        leaves in 2u32..24,
        seed in 0u64..1000,
        p in 1u32..6,
    ) {
        let tree = random_tree_src(leaves, seed);
        let expected = sequential_reduce(&tree).to_string();

        let prog1 = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
        let r1 = run_parsed_goal(
            &prog1,
            &format!("create({p}, reduce({tree}, Value))"),
            MachineConfig::with_nodes(p).seed(seed),
        ).unwrap();
        prop_assert_eq!(r1.bindings["Value"].to_string(), expected.clone());

        let prog2 = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
        let r2 = run_parsed_goal(
            &prog2,
            &format!("create({p}, tr2({tree}, Value))"),
            MachineConfig::with_nodes(p).seed(seed),
        ).unwrap();
        prop_assert_eq!(r2.bindings["Value"].to_string(), expected);
    }

    /// Tree-Reduce-2's communication bound: value crossings never exceed
    /// the number of internal nodes (§3.5).
    #[test]
    fn tr2_crossing_bound(leaves in 2u32..32, seed in 0u64..500, p in 2u32..8) {
        let tree = random_tree_src(leaves, seed);
        let prog = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
        let r = run_parsed_goal(
            &prog,
            &format!("create({p}, tr2({tree}, Value))"),
            MachineConfig::with_nodes(p).seed(seed),
        ).unwrap();
        let crossings = r.report.metrics.port_msgs_for("value");
        prop_assert!(crossings <= (leaves - 1) as u64,
            "{crossings} crossings > {} internal nodes", leaves - 1);
    }

    /// Tree-Reduce-2 sequences evaluation: at most one live eval per node.
    #[test]
    fn tr2_sequencing_invariant(leaves in 2u32..24, seed in 0u64..200) {
        let tree = random_tree_src(leaves, seed);
        let prog = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
        let cfg = MachineConfig::with_nodes(3).seed(seed).track("eval");
        let r = run_parsed_goal(
            &prog, &format!("create(3, tr2({tree}, Value))"), cfg,
        ).unwrap();
        prop_assert!(r.report.metrics.max_peak_tracked() <= 1);
    }

    /// The skeleton engine computes the sequential result under every
    /// labeling, for arbitrary trees.
    #[test]
    fn skeleton_reduce_matches_sequential(
        leaves in 1usize..40,
        seed in 0u64..1000,
        workers in 1usize..5,
    ) {
        let tree = skeletons::random_int_tree(leaves, seed);
        let expected = skeletons::reduce_seq(&tree, &|op, l, r| skeletons::int_eval(op, l, r));
        for labeling in [Labeling::Random(seed), Labeling::Paper(seed), Labeling::Static] {
            let pool = Pool::new(workers, false);
            let out = skeletons::reduce(
                &pool,
                skeletons::random_int_tree(leaves, seed),
                labeling,
                skeletons::int_eval,
            );
            prop_assert_eq!(out.value, expected);
            pool.shutdown();
        }
    }

    /// The paper labeling's crossing bound at skeleton level.
    #[test]
    fn skeleton_paper_labeling_bound(
        leaves in 2usize..64,
        seed in 0u64..1000,
        workers in 2usize..8,
    ) {
        let pool = Pool::new(workers, false);
        let out = skeletons::reduce(
            &pool,
            skeletons::random_int_tree(leaves, seed),
            Labeling::Paper(seed),
            skeletons::int_eval,
        );
        prop_assert!(out.cross_child_values < leaves);
        pool.shutdown();
    }

    /// Mergesort through the divide-and-conquer motif sorts any list.
    #[test]
    fn dc_mergesort_sorts(xs in proptest::collection::vec(-100i64..100, 0..24), seed in 0u64..100) {
        let prog = dc::divide_and_conquer().apply_src(dc::MERGESORT_APP).unwrap();
        let goal = format!("create(3, dc({}, S))", dc::int_list_src(&xs));
        let r = run_parsed_goal(&prog, &goal, MachineConfig::with_nodes(3).seed(seed)).unwrap();
        let mut expected = xs.clone();
        expected.sort_unstable();
        let got: Vec<i64> = r.bindings["S"].as_proper_list().unwrap().iter().map(|t| {
            t.to_string().parse::<i64>().unwrap()
        }).collect();
        prop_assert_eq!(got, expected);
    }

    /// Determinism: the whole pipeline (transform → compile → simulate) is
    /// a pure function of (program, goal, config).
    #[test]
    fn simulator_is_deterministic(leaves in 2u32..16, seed in 0u64..100) {
        let tree = random_tree_src(leaves, seed);
        let prog = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
        let goal = format!("create(4, reduce({tree}, Value))");
        let a = run_parsed_goal(&prog, &goal, MachineConfig::with_nodes(4).seed(seed)).unwrap();
        let b = run_parsed_goal(&prog, &goal, MachineConfig::with_nodes(4).seed(seed)).unwrap();
        prop_assert_eq!(a.report.metrics.total_reductions, b.report.metrics.total_reductions);
        prop_assert_eq!(a.report.metrics.makespan, b.report.metrics.makespan);
        prop_assert_eq!(a.report.metrics.messages, b.report.metrics.messages);
    }

    /// Fault injection is part of the deterministic state: the same program
    /// seed plus the same [`FaultPlan`] (its own seed, drop/dup/delay
    /// probabilities and a crash) reproduce the run bit-for-bit — every
    /// fault counter, the makespan, the reduction count.
    #[test]
    fn fault_injection_is_deterministic(
        leaves in 2u32..16,
        seed in 0u64..100,
        fault_seed in 0u64..100,
        drop_pct in 0u32..25,
    ) {
        let tree = random_tree_src(leaves, seed);
        let prog = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
        let goal = format!("create(4, reduce({tree}, Value))");
        let plan = FaultPlan::default()
            .seed(fault_seed)
            .drop_prob(drop_pct as f64 / 100.0)
            .dup_prob(0.05)
            .delay(0.1, 40)
            .slowdown(2, 3)
            .crash(3, 5_000);
        let run = || {
            // Duplicated spawns can legitimately re-run `:=` in a program
            // that was never hardened for redelivery; collect those errors
            // instead of aborting, and require they reproduce too.
            let mut cfg = MachineConfig::with_nodes(4).seed(seed).faults(plan.clone());
            cfg.fail_fast = false;
            run_parsed_goal(&prog, &goal, cfg).unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.report.status, b.report.status);
        prop_assert_eq!(a.report.errors.len(), b.report.errors.len());
        prop_assert_eq!(a.report.metrics.total_reductions, b.report.metrics.total_reductions);
        prop_assert_eq!(a.report.metrics.makespan, b.report.metrics.makespan);
        prop_assert_eq!(a.report.metrics.msgs_dropped, b.report.metrics.msgs_dropped);
        prop_assert_eq!(a.report.metrics.msgs_duplicated, b.report.metrics.msgs_duplicated);
        prop_assert_eq!(a.report.metrics.msgs_delayed, b.report.metrics.msgs_delayed);
        prop_assert_eq!(a.report.metrics.nodes_crashed, b.report.metrics.nodes_crashed);
        prop_assert_eq!(a.report.output, b.report.output);
    }

    /// Pretty-printing round-trips through the parser for motif outputs.
    #[test]
    fn transformed_programs_reparse(seed in 0u64..50) {
        let _ = seed;
        for motif in [tree_reduce_1(), tree_reduce_2()] {
            let p = motif.apply_src(ARITH_EVAL).unwrap();
            let printed = algorithmic_motifs::strand_parse::pretty(&p);
            let reparsed = algorithmic_motifs::strand_parse::parse_program(&printed).unwrap();
            prop_assert_eq!(p, reparsed);
        }
    }
}

#[test]
fn motif_composition_is_associative() {
    // (Server ∘ Rand) ∘ Tree1 == Server ∘ (Rand ∘ Tree1).
    let app = algorithmic_motifs::strand_parse::parse_program(ARITH_EVAL).unwrap();
    let left = motifs::server()
        .compose(&motifs::rand_map())
        .compose(&motifs::tree1())
        .apply(&app)
        .unwrap();
    let right = motifs::server()
        .compose(&motifs::rand_map().compose(&motifs::tree1()))
        .apply(&app)
        .unwrap();
    assert_eq!(
        algorithmic_motifs::strand_parse::pretty(&left),
        algorithmic_motifs::strand_parse::pretty(&right)
    );
}
