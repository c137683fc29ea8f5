//! Experiment implementations (see EXPERIMENTS.md for the index).

use crate::table::Table;
use motifs::scheduler::{scheduler, scheduler_hierarchical, tasks_src, BURN_TASK};
use motifs::{
    balanced_tree_src, random_tree_src, sequential_reduce, server, supervised_server,
    tree_reduce_1, tree_reduce_2, ARITH_EVAL,
};
use seqalign::{align_family_seq, FamilyParams, Profile, ScoreParams};
use strand_machine::{
    run_goal, run_parsed_goal, run_parsed_goal_with_lib, FaultPlan, GoalResult, MachineConfig,
    Metrics, RunStatus,
};
use strand_parse::Program;
use TreeReduce::{Tr1, Tr2};

/// Uniform-cost arithmetic eval: every node evaluation takes `cost` ticks.
pub fn uniform_eval(cost: u64) -> String {
    format!(
        r#"
eval(Op, L, R, Value) :- data(L), data(R) |
    work({cost}), apply_op(Op, L, R, Value).
apply_op('+', L, R, Value) :- Value := L + R.
apply_op('*', L, R, Value) :- Value := L * R.
apply_op('max', L, R, Value) :- Value := max(L, R).
"#
    )
}

/// Heavy-tailed eval: cost = X² · scale with X uniform on 1..=10 — the
/// paper's "time required at each node is non-uniform and cannot easily be
/// predicted" (§3.1).
pub fn heavy_eval(scale: u64) -> String {
    format!(
        r#"
eval(Op, L, R, Value) :- data(L), data(R) |
    rand_num(10, X), C := X * X * {scale}, work(C), apply_op(Op, L, R, Value).
apply_op('+', L, R, Value) :- Value := L + R.
apply_op('*', L, R, Value) :- Value := L * R.
apply_op('max', L, R, Value) :- Value := max(L, R).
"#
    )
}

/// The hand-written Figure 2 program (Parts A–C; Part D is the server
/// library, which the experiment links explicitly). This is the
/// *pre-motif* version the paper decomposes — experiment E6 checks the
/// composed `Tree-Reduce-1` is equivalent to it.
pub const FIGURE2_HANDWRITTEN: &str = r#"
% Part B: divide-and-conquer reduction with explicit DT threading.
reduce(tree(V, L, R), Value, DT) :-
    length(DT, N), rand_num(N, O),
    distribute(O, DT, reduce(R, RV)),
    reduce(L, LV, DT),
    eval(V, LV, RV, Value).
reduce(leaf(L), Value, _) :- Value := L.

% Part C: server dispatching reduce messages.
server([reduce(T, V)|In], DT) :- reduce(T, V, DT), server(In, DT).
server([halt|_], _).
"#;

/// The §3.1 arithmetic example tree: (3*2)*((2+1)+1) = 24.
pub const PAPER_TREE: &str = "tree('*', tree('*', leaf(3), leaf(2)), \
                              tree('+', tree('+', leaf(2), leaf(1)), leaf(1)))";

/// The paper's two tree-reduction motifs, as the application runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeReduce {
    Tr1,
    Tr2,
}

impl TreeReduce {
    /// The motif's name as the tables print it.
    pub fn name(self) -> &'static str {
        match self {
            TreeReduce::Tr1 => "Tree-Reduce-1",
            TreeReduce::Tr2 => "Tree-Reduce-2",
        }
    }

    /// The motif applied to the node evaluation `eval_src`.
    pub fn program(self, eval_src: &str) -> Program {
        let motif = match self {
            TreeReduce::Tr1 => tree_reduce_1(),
            TreeReduce::Tr2 => tree_reduce_2(),
        };
        motif.apply_src(eval_src).expect("tree motif applies")
    }

    /// The entry goal reducing `tree` into `Value` on `servers` servers.
    pub fn goal(self, servers: u32, tree: &str) -> String {
        let entry = match self {
            TreeReduce::Tr1 => "reduce",
            TreeReduce::Tr2 => "tr2",
        };
        format!("create({servers}, {entry}({tree}, Value))")
    }

    /// Offspring values that crossed processors: TR1 ships a subtree's
    /// `reduce` message, TR2 a computed `value`.
    pub fn crossings(self, m: &Metrics) -> u64 {
        match self {
            TreeReduce::Tr1 => m.port_msgs_for("reduce"),
            TreeReduce::Tr2 => m.port_msgs_for("value"),
        }
    }
}

/// One tree reduction on the simulator: `motif` over `eval_src` on
/// `servers` servers, with the `track`ed procedure's live count gauged
/// (none when empty).
pub fn run_tree(
    motif: TreeReduce,
    eval_src: &str,
    tree: &str,
    servers: u32,
    seed: u64,
    track: &str,
) -> GoalResult {
    let mut cfg = MachineConfig::with_nodes(servers).seed(seed);
    if !track.is_empty() {
        cfg = cfg.track(track);
    }
    run_parsed_goal(&motif.program(eval_src), &motif.goal(servers, tree), cfg)
        .expect("tree reduction runs")
}

/// Progressive alignment of `seqs` as a motif program: `motif` applied to
/// [`seqalign::ALIGN_EVAL`] over the UPGMA guide tree, on `cfg.nodes`
/// servers of whichever engine `cfg` names, with the native aligner
/// ([`seqalign::align_lib`]) as the node evaluation. Returns the run and
/// the alignment it computed.
pub fn run_alignment(
    motif: TreeReduce,
    seqs: &[Vec<u8>],
    cfg: MachineConfig,
) -> (GoalResult, Profile) {
    let params = ScoreParams::default();
    let tree = seqalign::guide_tree_src(&seqalign::guide_tree(seqs, &params), seqs);
    let goal = motif.goal(cfg.nodes, &tree);
    let lib = seqalign::align_lib(params, 8);
    let r = run_parsed_goal_with_lib(&motif.program(seqalign::ALIGN_EVAL), &goal, cfg, &lib)
        .expect("alignment runs");
    let profile = seqalign::term_to_profile(&r.bindings["Value"]).expect("a profile");
    (r, profile)
}

/// A family of `leaves` related RNA sequences.
pub(crate) fn rna_family(leaves: usize, ancestral_len: usize, seed: u64) -> Vec<Vec<u8>> {
    seqalign::generate_family(&FamilyParams {
        leaves,
        ancestral_len,
        seed,
        ..Default::default()
    })
    .sequences
}

/// F1: the Figure 1 producer/consumer program.
pub fn fig1() -> Table {
    let src = r#"
        go(N) :- producer(N, Xs, sync), consumer(Xs).
        producer(N, Xs, sync) :- N > 0 |
            Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).
        producer(0, Xs, _) :- Xs := [].
        consumer([X|Xs]) :- X := sync, consumer(Xs).
        consumer([]).
    "#;
    let mut t = Table::new(
        "F1: Figure 1 producer/consumer (synchronous stream)",
        &["N", "status", "reductions", "suspensions", "peak queue"],
    );
    for n in [4u32, 16, 64, 256] {
        let r = run_goal(src, &format!("go({n})"), MachineConfig::default()).expect("fig1 runs");
        t.row(vec![
            n.to_string(),
            format!("{:?}", r.report.status),
            r.report.metrics.total_reductions.to_string(),
            r.report.metrics.suspensions.to_string(),
            r.report.metrics.peak_queue[0].to_string(),
        ]);
    }
    t.note("The paper runs N=4; suspensions ≥ N confirms the synchronous ack protocol.");
    t.note("Peak queue stays O(1): the producer never runs ahead of the consumer.");
    t
}

/// F2/F3: the hand-written tree reduction (Figure 2) over the server
/// library (Figure 3).
pub fn fig2() -> Table {
    let program_src = format!(
        "{ARITH_EVAL}\n{FIGURE2_HANDWRITTEN}\n{}",
        motifs::SERVER_LIBRARY
    );
    let mut t = Table::new(
        "F2/F3: hand-written tree reduction on the server library",
        &["servers", "value", "status", "reductions", "cross msgs"],
    );
    for servers in [1u32, 2, 4, 8] {
        let r = run_goal(
            &program_src,
            &format!("create({servers}, reduce({PAPER_TREE}, Value))"),
            MachineConfig::with_nodes(servers).seed(2),
        )
        .expect("fig2 runs");
        t.row(vec![
            servers.to_string(),
            r.bindings["Value"].to_string(),
            format!("{:?}", r.report.status),
            r.report.metrics.total_reductions.to_string(),
            r.report.metrics.total_messages().to_string(),
        ]);
    }
    t.note("Value must be 24 = (3*2)*((2+1)+1), the paper's §3.1 example.");
    t
}

/// F4: server-network connectivity (the Figure 4 topology).
pub fn fig4() -> Table {
    let flood = r#"
        server([probe(K)|In]) :- fan(K), server(In).
        server([halt|_]).
        fan(K) :- nodes(N), fan1(K, N).
        fan1(K, N) :- K < N | K1 := K + 1, send(K1, probe(K1)), fan1(K1, N).
        fan1(N, N) :- halt.
    "#;
    let mut t = Table::new(
        "F4: server network — all-pairs probe flood",
        &[
            "servers",
            "status",
            "cross port msgs",
            "min expected (C(n,2))",
        ],
    );
    for n in [2u32, 4, 8, 16] {
        let p = server().apply_src(flood).expect("server motif applies");
        let r = run_parsed_goal(
            &p,
            &format!("create({n}, probe(1))"),
            MachineConfig::with_nodes(n),
        )
        .expect("fig4 runs");
        t.row(vec![
            n.to_string(),
            format!("{:?}", r.report.status),
            r.report.metrics.port_msgs_cross.to_string(),
            (n as u64 * (n as u64 - 1) / 2).to_string(),
        ]);
    }
    t.note("Every ordered pair (i, j>i) exchanges a probe: full connectivity.");
    t
}

/// F5/F6: the three composition stages of Tree-Reduce-1, pretty-printed.
pub fn fig5() -> String {
    let app = strand_parse::parse_program(ARITH_EVAL).expect("eval parses");
    let stage1 = motifs::tree1().apply(&app).expect("Tree1 applies");
    let stage2 = motifs::rand_map().apply(&stage1).expect("Rand applies");
    let stage3 = motifs::server().apply(&stage2).expect("Server applies");
    format!(
        "== F5/F6: the three stages of Tree-Reduce-1 = Server o Rand o Tree1 ==\n\n\
         %%% Stage 1: output of Tree1 (user eval + 5-line library) %%%\n{}\n\
         %%% Stage 2: output of Rand (pragma expanded, server/1 synthesized) %%%\n{}\n\
         %%% Stage 3: output of Server (DT threaded, operations translated) %%%\n{}",
        strand_parse::pretty(&stage1),
        strand_parse::pretty(&stage2),
        strand_parse::pretty(&stage3),
    )
}

/// F7: the Tree-Reduce-2 library in action.
pub fn fig7() -> Table {
    let mut t = Table::new(
        "F7: Tree-Reduce-2 (queued values, sequenced evaluation)",
        &[
            "leaves",
            "servers",
            "value ok",
            "status",
            "peak pending",
            "peak live evals",
        ],
    );
    for (leaves, servers) in [(8u32, 2u32), (16, 4), (64, 4), (64, 8)] {
        let tree = random_tree_src(leaves, 7);
        let expected = sequential_reduce(&tree).to_string();
        let r = run_tree(Tr2, ARITH_EVAL, &tree, servers, 7, "eval");
        t.row(vec![
            leaves.to_string(),
            servers.to_string(),
            (r.bindings["Value"].to_string() == expected).to_string(),
            format!("{:?}", r.report.status),
            r.report.metrics.max_gauge("pending").to_string(),
            r.report.metrics.max_peak_tracked().to_string(),
        ]);
    }
    t.note("Peak live evals is 1: computation is sequenced per processor (§3.5).");
    t
}

/// E1: load balance of random mapping vs leaves-per-processor.
pub fn e1_balance() -> Table {
    let mut t = Table::new(
        "E1: random-mapping load balance (imbalance = max/mean busy time)",
        &["P", "leaves", "leaves/P", "imbalance", "utilization"],
    );
    for p in [4u32, 16, 64] {
        for ratio in [1u32, 4, 16, 64] {
            let leaves = p * ratio;
            let tree = random_tree_src(leaves, 100 + ratio as u64);
            let r = run_tree(Tr1, &uniform_eval(50), &tree, p, 100 + ratio as u64, "");
            let m = &r.report.metrics;
            t.row(vec![
                p.to_string(),
                leaves.to_string(),
                ratio.to_string(),
                m.imbalance().map_or("n/a".into(), |x| format!("{x:.2}")),
                format!("{:.2}", m.utilization()),
            ]);
        }
    }
    t.note("Claim (§3.1): random mapping balances well when leaves/P >> 1 —");
    t.note("imbalance should fall toward ~1 as leaves/P grows, at every P.");
    t
}

/// E2: memory behaviour — concurrent evaluations and queued values.
pub fn e2_memory() -> Table {
    let mut t = Table::new(
        "E2: Tree-Reduce-1 vs Tree-Reduce-2 memory pressure (4 servers)",
        &[
            "leaves",
            "TR1 peak live evals",
            "TR2 peak live evals",
            "TR2 peak pending queue",
        ],
    );
    for leaves in [16u32, 64, 256] {
        let tree = random_tree_src(leaves, 11);
        let r1 = run_tree(Tr1, &heavy_eval(20), &tree, 4, 11, "eval");
        let r2 = run_tree(Tr2, &heavy_eval(20), &tree, 4, 11, "eval");
        t.row(vec![
            leaves.to_string(),
            r1.report.metrics.max_peak_tracked().to_string(),
            r2.report.metrics.max_peak_tracked().to_string(),
            r2.report.metrics.max_gauge("pending").to_string(),
        ]);
    }
    t.note("Claim (§3.5): TR1 initiates many evaluations per processor at once");
    t.note("(grows with tree size); TR2 sequences them (stays at 1), trading a");
    t.note("bounded pending-value queue.");
    t
}

/// E2b: E2's memory claim on the real alignment workload, on real threads.
pub fn e2_memory_bytes() -> Table {
    let mut t = Table::new(
        "E2b: peak live evaluations per node, progressive alignment (4 nodes, 4 threads)",
        &["sequences", "motif", "peak live evals", "crossings"],
    );
    for leaves in [16usize, 32] {
        let seqs = rna_family(leaves, 100, 5);
        let reference = align_family_seq(&seqs, &ScoreParams::default());
        for motif in [Tr1, Tr2] {
            let cfg = MachineConfig::with_nodes(4)
                .seed(5)
                .track("eval")
                .parallel(4);
            let (r, profile) = run_alignment(motif, &seqs, cfg);
            assert_eq!(profile, reference, "the engine must align as the fold does");
            let m = &r.report.metrics;
            t.row(vec![
                leaves.to_string(),
                motif.name().into(),
                m.max_peak_tracked().to_string(),
                motif.crossings(m).to_string(),
            ]);
        }
    }
    t.note("Each live eval holds its operand profiles, the 'large intermediate");
    t.note("data structures' of §3.5: TR1 stacks them, TR2 sequences them.");
    t
}

/// E3: the communication bound of Tree-Reduce-2's labeling.
pub fn e3_comm() -> Table {
    let mut t = Table::new(
        "E3: offspring-value communications per internal node",
        &[
            "seed",
            "leaves",
            "P",
            "TR2 value crossings",
            "internal nodes",
            "bound holds",
            "TR1 reduce msgs crossing",
        ],
    );
    for seed in [4u64, 5, 6, 7] {
        let leaves = 48u32;
        let internal = (leaves - 1) as u64;
        let tree = random_tree_src(leaves, seed);
        let r2 = run_tree(Tr2, ARITH_EVAL, &tree, 6, seed, "");
        let crossings = r2.report.metrics.port_msgs_for("value");
        let r1 = run_tree(Tr1, ARITH_EVAL, &tree, 6, seed, "");
        let tr1_reduce = r1.report.metrics.port_msgs_for("reduce");
        t.row(vec![
            seed.to_string(),
            leaves.to_string(),
            "6".into(),
            crossings.to_string(),
            internal.to_string(),
            (crossings <= internal).to_string(),
            tr1_reduce.to_string(),
        ]);
    }
    t.note("Claim (§3.5): the labeling ensures at most one of each node's");
    t.note("offspring values crosses processors: crossings <= internal nodes.");
    t.note("TR1 ships ~(P-1)/P of all spawned reduce messages across nodes.");
    t
}

/// E4: virtual-time speedup of the two motifs.
pub fn e4_speedup() -> Table {
    let mut t = Table::new(
        "E4: virtual-time speedup (leaves=128)",
        &[
            "cost model",
            "P",
            "TR1 makespan",
            "TR1 speedup",
            "TR2 makespan",
            "TR2 speedup",
        ],
    );
    for (label, eval_src) in [
        ("uniform(200)", uniform_eval(200)),
        ("heavy-tailed", heavy_eval(8)),
    ] {
        let tree = random_tree_src(128, 21);
        let makespan = |motif, p| {
            run_tree(motif, &eval_src, &tree, p, 21, "")
                .report
                .metrics
                .makespan
        };
        let (base1, base2) = (makespan(Tr1, 1) as f64, makespan(Tr2, 1) as f64);
        for p in [1u32, 2, 4, 8, 16, 32] {
            let (m1, m2) = (makespan(Tr1, p), makespan(Tr2, p));
            t.row(vec![
                label.to_string(),
                p.to_string(),
                m1.to_string(),
                format!("{:.2}", base1 / m1 as f64),
                m2.to_string(),
                format!("{:.2}", base2 / m2 as f64),
            ]);
        }
    }
    t.note("Both motifs speed up with P; gains flatten once P approaches the");
    t.note("tree's available parallelism (critical path).");
    t
}

/// E5: the code-size inventory (§3.6's economy argument).
pub fn e5_loc() -> Table {
    let mut t = Table::new(
        "E5: motif library sizes (rules / non-comment lines)",
        &["motif", "rules", "lines", "construction"],
    );
    for e in motifs::inventory::CATALOG {
        let (rules, lines) = e.size();
        t.row(vec![
            e.name.to_string(),
            rules.to_string(),
            lines.to_string(),
            e.construction.to_string(),
        ]);
    }
    t.note("The paper: Tree1 is 5 lines; Tree-Reduce-2 'a page of library code';");
    t.note("the application's node evaluation exceeded 2000 lines — motifs make");
    t.note("the parallel version a small increment.");
    t
}

/// E6: composed Tree-Reduce-1 ≡ hand-written Figure 2.
pub fn e6_compose() -> Table {
    let mut t = Table::new(
        "E6: composed motif vs hand-written program (4 servers)",
        &[
            "tree",
            "hand value",
            "composed value",
            "hand reductions",
            "composed reductions",
        ],
    );
    let hand_src = format!(
        "{ARITH_EVAL}\n{FIGURE2_HANDWRITTEN}\n{}",
        motifs::SERVER_LIBRARY
    );
    for (name, tree) in [
        ("paper §3.1", PAPER_TREE.to_string()),
        ("random-24", random_tree_src(24, 3)),
        ("balanced-d5", balanced_tree_src(5)),
    ] {
        let hand = run_goal(
            &hand_src,
            &format!("create(4, reduce({tree}, Value))"),
            MachineConfig::with_nodes(4).seed(9),
        )
        .expect("hand-written runs");
        let composed = run_tree(Tr1, ARITH_EVAL, &tree, 4, 9, "");
        t.row(vec![
            name.to_string(),
            hand.bindings["Value"].to_string(),
            composed.bindings["Value"].to_string(),
            hand.report.metrics.total_reductions.to_string(),
            composed.report.metrics.total_reductions.to_string(),
        ]);
    }
    t.note("Same results; reduction counts within a few percent — composition");
    t.note("does not cost efficiency (the transformation output matches the");
    t.note("hand-threaded code, Figure 5).");
    t
}

/// E7: scheduler — single manager vs two-level hierarchy.
pub fn e7_scheduler() -> Table {
    let mut t = Table::new(
        "E7: manager/worker scheduler, 1-level vs 2-level (240 tasks x 5 ticks)",
        &[
            "P",
            "groups",
            "makespan 1L",
            "makespan 2L",
            "mgr busy 1L",
            "mgr busy 2L",
            "msgs into mgr 1L",
            "msgs into mgr 2L",
        ],
    );
    let costs: Vec<u64> = vec![5; 240];
    for (p, g) in [(9u32, 2u32), (17, 4), (25, 4), (41, 8), (65, 16)] {
        let p1 = scheduler().apply_src(BURN_TASK).expect("scheduler applies");
        let r1 = run_parsed_goal(
            &p1,
            &format!("create({p}, start({}, Results))", tasks_src(&costs)),
            MachineConfig::with_nodes(p).seed(7),
        )
        .expect("1-level runs");
        let p2 = scheduler_hierarchical()
            .apply_src(BURN_TASK)
            .expect("scheduler2 applies");
        let r2 = run_parsed_goal(
            &p2,
            &format!("create({p}, start2({}, Results, {g}))", tasks_src(&costs)),
            MachineConfig::with_nodes(p).seed(7),
        )
        .expect("2-level runs");
        let m1 = &r1.report.metrics;
        let m2 = &r2.report.metrics;
        let into1: u64 = m1.messages.iter().map(|row| row[0]).sum();
        let into2: u64 = m2.messages.iter().map(|row| row[0]).sum();
        t.row(vec![
            p.to_string(),
            g.to_string(),
            m1.makespan.to_string(),
            m2.makespan.to_string(),
            m1.busy[0].to_string(),
            m2.busy[0].to_string(),
            into1.to_string(),
            into2.to_string(),
        ]);
    }
    t.note("Claim (§1, reuse by modification): the single manager's busy time and");
    t.note("inbox traffic grow with task count and stay the bottleneck at scale;");
    t.note("the extra hierarchy level makes both O(groups).");
    t
}

/// E8: the sequence-alignment application on real threads.
pub fn e8_seqalign() -> Table {
    let mut t = Table::new(
        "E8: progressive RNA alignment via tree reduction (4 nodes, 4 threads)",
        &[
            "seqs",
            "motif",
            "identity",
            "columns",
            "crossings",
            "jobs/worker",
        ],
    );
    for leaves in [8usize, 16, 32] {
        let seqs = rna_family(leaves, 120, 8);
        let reference = align_family_seq(&seqs, &ScoreParams::default());
        for motif in [Tr1, Tr2] {
            let cfg = MachineConfig::with_nodes(4).seed(8).parallel(4);
            let (r, profile) = run_alignment(motif, &seqs, cfg);
            assert_eq!(profile, reference, "the engine must align as the fold does");
            let m = &r.report.metrics;
            t.row(vec![
                leaves.to_string(),
                motif.name().into(),
                format!("{:.3}", profile.column_identity()),
                profile.len().to_string(),
                motif.crossings(m).to_string(),
                format!("{:?}", m.worker_jobs),
            ]);
        }
    }
    t.note("Both motifs produce the identical alignment (same guide tree);");
    t.note("they differ in communication (crossings) and work placement.");
    t.note("jobs = reductions each worker thread ran.");
    t
}

/// E9: the future-work motifs (§4): search, sort, grid, pipeline.
pub fn e9_future() -> Table {
    let mut t = Table::new(
        "E9: future-work motifs (search, sorting, grid, pipeline)",
        &["motif", "instance", "result", "ok", "notes"],
    );
    // Search: N-queens solution counts.
    let search_program = motifs::search::search()
        .apply_src(motifs::search::NQUEENS_APP)
        .expect("search applies");
    for (n, expected) in [(4u32, 2i64), (5, 10), (6, 4)] {
        let r = run_parsed_goal(
            &search_program,
            &format!("create(4, search(q({n}, [], 1), Count))"),
            MachineConfig::with_nodes(4).seed(1),
        )
        .expect("search runs");
        let got = r.bindings["Count"].to_string();
        t.row(vec![
            "Search".into(),
            format!("{n}-queens"),
            got.clone(),
            (got == expected.to_string()).to_string(),
            "or-parallel count".into(),
        ]);
    }
    // Sort: mergesort through the DC motif.
    let sort_program = motifs::dc::divide_and_conquer()
        .apply_src(motifs::dc::MERGESORT_APP)
        .expect("dc applies");
    let xs: Vec<i64> = (0..40).rev().collect();
    let r = run_parsed_goal(
        &sort_program,
        &format!("create(4, dc({}, S))", motifs::dc::int_list_src(&xs)),
        MachineConfig::with_nodes(4).seed(2),
    )
    .expect("sort runs");
    let sorted = r.bindings["S"].as_proper_list().map(|v| {
        v.windows(2).all(|w| {
            format!("{}", w[0]).parse::<i64>().unwrap()
                <= format!("{}", w[1]).parse::<i64>().unwrap()
        })
    });
    t.row(vec![
        "DivideAndConquer".into(),
        "mergesort(40)".into(),
        format!("{} elems", xs.len()),
        sorted.unwrap_or(false).to_string(),
        "one branch shipped @random".into(),
    ]);
    // Grid: stencil vs sequential reference.
    let grid_program = motifs::grid::grid()
        .apply_src("cell_init(I, V) :- V := I * 1.0.")
        .expect("grid applies");
    let r = run_parsed_goal(
        &grid_program,
        "grid(8, 10, Final)",
        MachineConfig::with_nodes(4),
    )
    .expect("grid runs");
    let expected =
        motifs::grid::sequential_stencil(&(1..=8).map(|i| i as f64).collect::<Vec<_>>(), 10);
    let got: Vec<f64> = r.bindings["Final"]
        .as_proper_list()
        .expect("grid output list")
        .iter()
        .map(|v| match v {
            strand_core::Term::Float(x) => *x,
            strand_core::Term::Int(i) => *i as f64,
            other => panic!("{other}"),
        })
        .collect();
    let ok = got
        .iter()
        .zip(expected.iter())
        .all(|(a, b)| (a - b).abs() < 1e-9);
    t.row(vec![
        "Grid".into(),
        "1-D stencil 8x10".into(),
        format!("{} cells", got.len()),
        ok.to_string(),
        "streams only, no server net".into(),
    ]);
    // Graph: connected components against the union-find reference.
    {
        let mut rng = strand_core::SplitMix64::new(5);
        let n = 12u32;
        let edges: Vec<(u32, u32)> = (0..14)
            .map(|_| {
                (
                    1 + rng.next_below(n as u64) as u32,
                    1 + rng.next_below(n as u64) as u32,
                )
            })
            .filter(|(u, v)| u != v)
            .collect();
        let expected = motifs::graph::components_reference(n, &edges);
        let prog = motifs::graph::graph_components()
            .apply_src("noop(1).")
            .expect("graph applies");
        let goal = format!(
            "create(4, cc({n}, {}, Final))",
            motifs::graph::edges_src(&edges)
        );
        let r = run_parsed_goal(&prog, &goal, MachineConfig::with_nodes(4).seed(5))
            .expect("graph runs");
        let got: Vec<u32> = r.bindings["Final"]
            .as_proper_list()
            .expect("labels")
            .iter()
            .map(|t| t.to_string().parse().expect("int"))
            .collect();
        t.row(vec![
            "Graph".into(),
            format!("components n={n} m={}", edges.len()),
            format!("{} labels", got.len()),
            (got == expected).to_string(),
            "BSP label propagation".into(),
        ]);
    }
    // Pipeline: overlap factor in virtual time.
    let pipe_program = motifs::pipeline::pipeline()
        .apply_src("stage(_, X, Y) :- work(100), Y := X.")
        .expect("pipeline applies");
    let items = motifs::dc::int_list_src(&(0..16).collect::<Vec<_>>());
    let r = run_parsed_goal(
        &pipe_program,
        &format!("pipe(4, {items}, Out)"),
        MachineConfig::with_nodes(4),
    )
    .expect("pipeline runs");
    let serial = 16 * 4 * 100;
    let overlap = serial as f64 / r.report.metrics.makespan as f64;
    t.row(vec![
        "Pipeline".into(),
        "4 stages x 16 items".into(),
        format!("overlap x{overlap:.1}"),
        (overlap > 2.0).to_string(),
        format!("makespan {} vs serial {serial}", r.report.metrics.makespan),
    ]);
    t
}

/// E10: the `@task` pragma (demand scheduling, §2.2) vs `@random`
/// (oblivious mapping, §3.3) on one skewed-cost program.
pub fn e10_pragma() -> Table {
    const APP_TASK: &str = r#"
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
    let app_random = APP_TASK.replace("@task", "@random");
    let mut t = Table::new(
        "E10: @task (demand) vs @random (oblivious) on skewed tasks",
        &["P", "tasks", "mapping", "makespan", "imbalance", "value ok"],
    );
    for (p, n) in [(5u32, 40u32), (9, 40), (9, 120)] {
        // Demand-driven via the Sched motif.
        let prog = motifs::task_scheduler_with_entries(&[("gen", 2)])
            .apply_src(APP_TASK)
            .expect("Sched applies");
        let goal = motifs::boot_goal(p, "gen", &[&n.to_string(), "V"]);
        let r = run_parsed_goal(&prog, &goal, MachineConfig::with_nodes(p).seed(13))
            .expect("task version runs");
        t.row(vec![
            p.to_string(),
            n.to_string(),
            "@task".into(),
            r.report.metrics.makespan.to_string(),
            r.report
                .metrics
                .imbalance()
                .map_or("n/a".into(), |x| format!("{x:.2}")),
            (r.bindings["V"].to_string() == n.to_string()).to_string(),
        ]);
        // Oblivious random mapping via the Random motif.
        let prog = motifs::random_with_entries(&[("gen", 2)])
            .apply_src(&app_random)
            .expect("Random applies");
        let r = run_parsed_goal(
            &prog,
            &format!("create({p}, gen({n}, V))"),
            MachineConfig::with_nodes(p).seed(13),
        )
        .expect("random version runs");
        t.row(vec![
            p.to_string(),
            n.to_string(),
            "@random".into(),
            r.report.metrics.makespan.to_string(),
            r.report
                .metrics
                .imbalance()
                .map_or("n/a".into(), |x| format!("{x:.2}")),
            (r.bindings["V"].to_string() == n.to_string()).to_string(),
        ]);
    }
    t.note("Heavily skewed task costs (cubic in N mod 13). Demand dispatch");
    t.note("adapts to skew; oblivious random mapping leaves the unlucky node");
    t.note("with the long tail. (The @task run reserves node 1 as manager.)");
    t
}

/// E1-threads: the random-mapping balance claim on real threads — tasks
/// per node under the Random motif as tasks/node grows, one node per
/// worker thread (count-based, so valid on any core count).
pub fn e1_threads() -> Table {
    const TASKS: &str = r#"
spawn(0, Ns) :- Ns := [].
spawn(K, Ns) :- K > 0 | Ns := [N|Ns1], task(N)@random, K1 := K - 1, spawn(K1, Ns1).
task(N) :- current_node(N).
"#;
    let program = motifs::random_with_entries(&[("spawn", 2)])
        .apply_src(TASKS)
        .expect("Random applies");
    let mut t = Table::new(
        "E1-threads: tasks-per-node imbalance under the Random motif (1 node per thread)",
        &["threads", "tasks", "tasks/node", "max/mean tasks"],
    );
    for threads in [4u32, 8] {
        for ratio in [1u32, 4, 16, 64] {
            let n = threads * ratio;
            let cfg = MachineConfig::with_nodes(threads).seed(7).parallel(threads);
            let r = run_parsed_goal(&program, &format!("create({threads}, spawn({n}, Ns))"), cfg)
                .expect("tasks run");
            let mut per_node = vec![0u32; threads as usize];
            for node in r.bindings["Ns"]
                .as_proper_list()
                .expect("every task reports")
            {
                match node {
                    strand_core::Term::Int(i) => per_node[i as usize - 1] += 1,
                    other => panic!("task reported {other}"),
                }
            }
            let max = *per_node.iter().max().unwrap_or(&0);
            t.row(vec![
                threads.to_string(),
                n.to_string(),
                ratio.to_string(),
                format!("{:.2}", max as f64 / ratio as f64),
            ]);
        }
    }
    t.note("Same shape as E1 on the simulator: the balls-into-bins imbalance");
    t.note("of random mapping decays as tasks/node grows.");
    t
}

/// E8-sim: the paper's *complete* system — motif-language coordination on
/// the simulated multicomputer with the node evaluation running natively
/// (the §2.1 multilingual split: "Strand and C", here motif-language and
/// Rust). Compares the two tree-reduction motifs on real alignment data
/// with a realistic quadratic cost model.
pub fn e8_sim() -> Table {
    let mut t = Table::new(
        "E8-sim: full MSA inside the simulated multicomputer (native align_node)",
        &[
            "seqs",
            "motif",
            "servers",
            "status",
            "makespan",
            "cross msgs",
            "identity",
        ],
    );
    for leaves in [8usize, 16] {
        let seqs = rna_family(leaves, 80, 21);
        for motif in [Tr1, Tr2] {
            let (r, profile) = run_alignment(motif, &seqs, MachineConfig::with_nodes(4).seed(21));
            t.row(vec![
                leaves.to_string(),
                motif.name().into(),
                "4".into(),
                format!("{:?}", r.report.status),
                r.report.metrics.makespan.to_string(),
                r.report.metrics.total_messages().to_string(),
                format!("{:.3}", profile.column_identity()),
            ]);
        }
    }
    t.note("The node evaluation is the real Needleman-Wunsch, run as a native");
    t.note("foreign procedure and charged quadratic virtual cost — the paper's");
    t.note("'Strand and C' architecture, complete.");
    t
}

/// A1 (ablation): sensitivity of the two tree-reduction motifs to message
/// latency. TR2 sends at most one offspring value per node across
/// processors plus a one-time tree broadcast; TR1 ships ~(P-1)/P of all
/// spawned reductions. Raising the latency therefore hurts TR1's makespan
/// faster once computation no longer dominates.
pub fn a1_latency() -> Table {
    let mut t = Table::new(
        "A1: makespan vs message latency (leaves=96, P=8, uniform cost 50)",
        &[
            "latency",
            "TR1 makespan",
            "TR2 makespan",
            "TR1 slowdown",
            "TR2 slowdown",
        ],
    );
    let tree = random_tree_src(96, 31);
    let eval = uniform_eval(50);
    let mut base = (0u64, 0u64);
    for latency in [1u64, 10, 100, 1000] {
        let makespan = |motif: TreeReduce| {
            let cfg = MachineConfig::with_nodes(8).seed(31).latency(latency);
            let r = run_parsed_goal(&motif.program(&eval), &motif.goal(8, &tree), cfg);
            r.expect("tree reduction runs").report.metrics.makespan
        };
        let (m1, m2) = (makespan(Tr1), makespan(Tr2));
        if latency == 1 {
            base = (m1, m2);
        }
        t.row(vec![
            latency.to_string(),
            m1.to_string(),
            m2.to_string(),
            format!("{:.2}x", m1 as f64 / base.0 as f64),
            format!("{:.2}x", m2 as f64 / base.1 as f64),
        ]);
    }
    t.note("Slowdown is relative to latency=1 for each motif. The design");
    t.note("choice DESIGN.md calls out: bounded communication buys latency");
    t.note("tolerance.");
    t
}

/// The fault-sweep workload (experiment A2): a token ring of servers. Each
/// server prints its number and forwards the token; the last one halts the
/// network. Every `send/2` in this application becomes a reliable `rsend`
/// under the Supervise motif with zero source changes.
pub const RING_APP: &str = r#"
    server([token(K)|In]) :- pass(K), server(In).
    server([halt|_]).
    pass(K) :- work(40), print(K), nodes(N), next(K, N).
    next(K, N) :- K < N | K1 := K + 1, send(K1, token(K1)).
    next(N, N) :- halt.
"#;

/// One row of the A2 fault sweep.
#[derive(Clone, Copy, Debug)]
pub struct FaultSweepPoint {
    pub drop_prob: f64,
    pub runs: u32,
    /// Tokens that should be printed across all runs (ring size × runs).
    pub expected: u64,
    /// Distinct tokens actually printed (at-least-once delivery counts
    /// once — a replayed handler does not inflate the rate).
    pub delivered: u64,
    /// Runs that reached `RunStatus::Completed`.
    pub completed: u32,
    pub mean_makespan: f64,
}

impl FaultSweepPoint {
    pub fn delivery_rate(&self) -> f64 {
        self.delivered as f64 / self.expected as f64
    }
}

/// Run the supervised ring across `seeds` at each drop probability. Both
/// the program seed and the fault seed vary with `seeds`, so each run sees
/// an independent loss pattern.
pub fn fault_sweep(ring: u32, probs: &[f64], seeds: &[u64]) -> Vec<FaultSweepPoint> {
    let prog = supervised_server()
        .apply_src(RING_APP)
        .expect("Supervise o Server applies");
    let goal = format!("create({ring}, token(1))");
    probs
        .iter()
        .map(|&p| {
            let mut delivered = 0u64;
            let mut completed = 0u32;
            let mut makespan_sum = 0u64;
            for &seed in seeds {
                let plan = FaultPlan::default().drop_prob(p).seed(seed);
                let cfg = MachineConfig::with_nodes(ring).seed(seed).faults(plan);
                let r = run_parsed_goal(&prog, &goal, cfg).expect("supervised ring runs");
                if r.report.status == RunStatus::Completed {
                    completed += 1;
                }
                for k in 1..=ring {
                    if r.report.output.contains(&k.to_string()) {
                        delivered += 1;
                    }
                }
                makespan_sum += r.report.metrics.makespan;
            }
            FaultSweepPoint {
                drop_prob: p,
                runs: seeds.len() as u32,
                expected: ring as u64 * seeds.len() as u64,
                delivered,
                completed,
                mean_makespan: makespan_sum as f64 / seeds.len() as f64,
            }
        })
        .collect()
}

/// A2: the Supervise motif under message loss — delivery rate and makespan
/// overhead vs. drop probability (ISSUE 3's fault sweep).
pub fn a2_faults() -> Table {
    let mut t = Table::new(
        "A2: supervised ring under message loss (6 servers, 10 seeds/point)",
        &[
            "drop p",
            "delivered",
            "rate",
            "completed",
            "mean makespan",
            "overhead",
        ],
    );
    let seeds: Vec<u64> = (1..=10).collect();
    let points = fault_sweep(6, &[0.0, 0.02, 0.05, 0.1, 0.2], &seeds);
    let base = points[0].mean_makespan;
    for pt in &points {
        t.row(vec![
            format!("{:.2}", pt.drop_prob),
            format!("{}/{}", pt.delivered, pt.expected),
            format!("{:.1}%", 100.0 * pt.delivery_rate()),
            format!("{}/{}", pt.completed, pt.runs),
            format!("{:.0}", pt.mean_makespan),
            format!("{:.2}x", pt.mean_makespan / base),
        ]);
    }
    t.note("Every send is acked with exponential-backoff retry; crashed or");
    t.note("silent servers restart from their wire (at-least-once). Rate");
    t.note("counts distinct tokens printed, so replays do not inflate it.");
    t
}

/// Run status sanity helper shared by tests.
pub fn completed(r: &GoalResult) -> bool {
    r.report.status == RunStatus::Completed
}

type Render = fn() -> String;

/// Every printable experiment: name and renderer.
const EXPERIMENTS: &[(&str, Render)] = &[
    ("fig1", || fig1().render()),
    ("fig2", || fig2().render()),
    ("fig4", || fig4().render()),
    ("fig5", fig5),
    ("fig7", || fig7().render()),
    ("e1-balance", || e1_balance().render()),
    ("e2-memory", || e2_memory().render()),
    ("e2-memory-bytes", || e2_memory_bytes().render()),
    ("e3-comm", || e3_comm().render()),
    ("e4-speedup", || e4_speedup().render()),
    ("e5-loc", || e5_loc().render()),
    ("e6-compose", || e6_compose().render()),
    ("e7-scheduler", || e7_scheduler().render()),
    ("e8-seqalign", || e8_seqalign().render()),
    ("e9-future", || e9_future().render()),
    ("e10-pragma", || e10_pragma().render()),
    ("a1-latency", || a1_latency().render()),
    ("a2-faults", || a2_faults().render()),
    ("e8-sim", || e8_sim().render()),
    ("e1-threads", || e1_threads().render()),
    ("b1-parallel", || crate::b1_parallel().render()),
    ("c1-serve", || crate::c1_serve().render()),
];

/// Names accepted by [`experiment`], in `motif-bench` run order.
pub fn experiment_names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name)
}

/// Resolve an experiment by name without running it.
pub fn experiment(name: &str) -> Option<Render> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| *run)
}

/// Run one experiment by name, returning its rendered output.
pub fn run_experiment(name: &str) -> Option<String> {
    experiment(name).map(|run| run())
}
