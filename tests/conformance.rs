//! Determinism conformance harness: every inventory motif program runs in
//! three columns — the deterministic simulator on the **compiled**
//! rule-execution tier (the default), the same simulator on the reference
//! **interpreter** (`--exec interpreted`), and the multi-threaded
//! fleet at 1, 2, 4 and 8 worker threads — and must
//! produce equivalent results.
//!
//! The two tiers share one scheduler, so their comparison is the strictest
//! in the suite: **bit-identical** bindings, ordered output, status,
//! reduction/suspension counts and every scheduling metric — makespan,
//! per-node reductions/busy/peak queue, messages, suspensions by procedure
//! (DESIGN.md, "Compiled execution tier").
//!
//! Equivalence is checked per the contract in DESIGN.md ("Execution
//! backends"):
//!
//! * at 1 thread, programs without `merge/2`/`after_unless/3` must match
//!   the simulator **exactly** (ordered output, identical bindings);
//! * run status discriminants match;
//! * every goal binding is equal after unbound-variable renaming
//!   (`_N` numbers depend on allocation order, which the parallel engine
//!   does not preserve), with a **multiset** fallback for bindings that
//!   are proper lists assembled by nondeterministic merges;
//! * `print/1` output is compared as a multiset (interleaving across real
//!   threads is unordered by design); the supervised case compares the
//!   *set* of outputs because its at-least-once delivery may legally
//!   print a replayed message twice.

use std::collections::BTreeMap;

use algorithmic_motifs::motifs::{
    self, dc, graph, grid, pipeline, random_tree_src, search, sequential_reduce, tree_reduce_1,
    tree_reduce_2, ARITH_EVAL,
};
use algorithmic_motifs::strand_core::Term;
use algorithmic_motifs::strand_machine::{
    run_parsed_goal, run_parsed_goal_with_lib, ExecMode, FaultPlan, ForeignLib, GoalResult,
    MachineConfig, RunStatus,
};
use bench::{FIGURE2_HANDWRITTEN, PAPER_TREE, RING_APP};
use proptest::prelude::*;
use strand_parse::parse_program;

/// Rewrite machine-allocated variable numbers (`_123`) to a canonical
/// sequence in order of first appearance, so two runs that allocated
/// variables in different orders still render identically.
fn normalize_vars(s: &str) -> String {
    let mut map: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'_' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let name = &s[start..i];
            let next = map.len();
            let id = *map.entry(name.to_string()).or_insert(next);
            out.push_str(&format!("_v{id}"));
        } else {
            let ch = s[i..].chars().next().unwrap();
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// Elements of a proper list, or `None` if the term is not one.
fn list_elems(t: &Term) -> Option<Vec<&Term>> {
    let mut out = Vec::new();
    let mut cur = t;
    loop {
        match cur {
            Term::Nil => return Some(out),
            Term::List(cell) => {
                out.push(&cell.0);
                cur = &cell.1;
            }
            _ => return None,
        }
    }
}

/// Terms are conformant when they render identically after variable
/// renaming, or when both are proper lists with equal element multisets
/// (merge order across real threads is the one sanctioned divergence).
fn terms_conform(a: &Term, b: &Term) -> bool {
    let (sa, sb) = (
        normalize_vars(&a.to_string()),
        normalize_vars(&b.to_string()),
    );
    if sa == sb {
        return true;
    }
    match (list_elems(a), list_elems(b)) {
        (Some(xs), Some(ys)) => {
            let mut xs: Vec<String> = xs.iter().map(|t| normalize_vars(&t.to_string())).collect();
            let mut ys: Vec<String> = ys.iter().map(|t| normalize_vars(&t.to_string())).collect();
            xs.sort();
            ys.sort();
            xs == ys
        }
        _ => false,
    }
}

fn sorted(v: &[String]) -> Vec<String> {
    let mut v = v.to_vec();
    v.sort();
    v
}

/// Run `goal` on both backends and assert conformance. Returns the
/// deterministic result for case-specific value checks.
///
/// At **one** worker thread the parallel backend promises to be an exact
/// replica of the simulator for programs without `merge/2` or
/// `after_unless/3` (same pids, same rng, same scheduling order), so for
/// those the 1-thread leg upgrades to strict equality: ordered output and
/// identical binding terms, not just multiset conformance.
fn assert_conform(
    label: &str,
    program: &strand_parse::Program,
    goal: &str,
    cfg: MachineConfig,
    lib: &ForeignLib,
) -> GoalResult {
    // Conservative eligibility scan: a false positive (a user predicate
    // merely *named* merge) only downgrades the 1-thread leg back to the
    // multiset check, never weakens a guarantee.
    let dbg = format!("{program:?}");
    let exact_at_one = !dbg.contains("merge") && !dbg.contains("after_unless");
    let det = run_parsed_goal_with_lib(program, goal, cfg.clone(), lib)
        .unwrap_or_else(|e| panic!("{label}: deterministic run: {e}"));
    // Third column: the reference interpreter under the same deterministic
    // scheduler. The compiled tier (cfg default) must be bit-identical to
    // it — no renaming slack, no multiset fallback.
    let interp =
        run_parsed_goal_with_lib(program, goal, cfg.clone().exec(ExecMode::Interpreted), lib)
            .unwrap_or_else(|e| panic!("{label}: interpreted run: {e}"));
    assert_eq!(
        det.bindings, interp.bindings,
        "{label}: compiled tier bindings must equal the interpreter's exactly"
    );
    assert_eq!(
        det.report.output, interp.report.output,
        "{label}: compiled tier output must equal the interpreter's exactly (ordered)"
    );
    assert_eq!(
        det.report.status, interp.report.status,
        "{label}: compiled tier status must equal the interpreter's"
    );
    assert_eq!(
        (
            det.report.metrics.total_reductions,
            det.report.metrics.suspensions,
        ),
        (
            interp.report.metrics.total_reductions,
            interp.report.metrics.suspensions,
        ),
        "{label}: compiled tier must perform the same reductions/suspensions"
    );
    // Both tiers run through one dispatch driver, one step and one spawn
    // path, so everything the scheduler measures must agree too. (Not
    // `rules_tried`, `index_*`, `*_reductions` or `wall_ns`: those are
    // tier-specific by design.)
    let scheduling = |r: &GoalResult| {
        let m = &r.report.metrics;
        (
            m.makespan,
            m.reductions.clone(),
            m.busy.clone(),
            m.messages.clone(),
            m.peak_queue.clone(),
            m.susp_by_proc.clone(),
        )
    };
    assert_eq!(
        scheduling(&det),
        scheduling(&interp),
        "{label}: compiled tier must schedule exactly as the interpreter does"
    );
    for threads in [1u32, 2, 4, 8] {
        let par = run_parsed_goal_with_lib(program, goal, cfg.clone().parallel(threads), lib)
            .unwrap_or_else(|e| panic!("{label}: parallel({threads}) run: {e}"));
        assert_eq!(
            std::mem::discriminant(&det.report.status),
            std::mem::discriminant(&par.report.status),
            "{label}: status diverged at {threads} threads: {:?} vs {:?}",
            det.report.status,
            par.report.status,
        );
        if threads == 1 && exact_at_one {
            assert_eq!(
                det.bindings, par.bindings,
                "{label}: 1-thread bindings must equal the simulator's exactly"
            );
            assert_eq!(
                det.report.output, par.report.output,
                "{label}: 1-thread output must equal the simulator's exactly (ordered)"
            );
            continue;
        }
        assert_eq!(
            det.bindings.keys().collect::<Vec<_>>(),
            par.bindings.keys().collect::<Vec<_>>(),
            "{label}: binding keys diverged at {threads} threads"
        );
        for (k, dv) in &det.bindings {
            let pv = &par.bindings[k];
            assert!(
                terms_conform(dv, pv),
                "{label}: binding {k} diverged at {threads} threads:\n  det: {dv}\n  par: {pv}"
            );
        }
        assert_eq!(
            sorted(&det.report.output),
            sorted(&par.report.output),
            "{label}: output multiset diverged at {threads} threads"
        );
    }
    det
}

// ---------------------------------------------------------------------------
// Paper programs
// ---------------------------------------------------------------------------

#[test]
fn conform_figure2_handwritten() {
    let src = format!(
        "{ARITH_EVAL}\n{FIGURE2_HANDWRITTEN}\n{}",
        motifs::SERVER_LIBRARY
    );
    let program = parse_program(&src).unwrap();
    let r = assert_conform(
        "figure2",
        &program,
        &format!("create(4, reduce({PAPER_TREE}, Value))"),
        MachineConfig::with_nodes(4).seed(11),
        &ForeignLib::new(),
    );
    assert_eq!(r.bindings["Value"].to_string(), "24");
}

#[test]
fn conform_tree_reduce_1() {
    let tree = random_tree_src(20, 5);
    let expected = sequential_reduce(&tree).to_string();
    let p = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
    let r = assert_conform(
        "tree-reduce-1",
        &p,
        &format!("create(4, reduce({tree}, Value))"),
        MachineConfig::with_nodes(4).seed(5),
        &ForeignLib::new(),
    );
    assert_eq!(r.bindings["Value"].to_string(), expected);
}

#[test]
fn conform_tree_reduce_2() {
    let tree = random_tree_src(16, 7);
    let expected = sequential_reduce(&tree).to_string();
    let p = tree_reduce_2().apply_src(ARITH_EVAL).unwrap();
    let r = assert_conform(
        "tree-reduce-2",
        &p,
        &format!("create(4, tr2({tree}, Value))"),
        MachineConfig::with_nodes(4).seed(7),
        &ForeignLib::new(),
    );
    assert_eq!(r.bindings["Value"].to_string(), expected);
}

/// The paper's application on both engines: progressive alignment of an
/// 8-sequence family, with the native aligner as a foreign library.
fn conform_seqalign(label: &str, motif: motifs::Motif, entry: &str) {
    use algorithmic_motifs::seqalign::{
        align_family_seq, align_lib, generate_family, guide_tree, guide_tree_src, profile_to_term,
        FamilyParams, ScoreParams, ALIGN_EVAL,
    };
    let seqs = generate_family(&FamilyParams {
        leaves: 8,
        ancestral_len: 60,
        seed: 21,
        ..Default::default()
    })
    .sequences;
    let params = ScoreParams::default();
    let tree = guide_tree_src(&guide_tree(&seqs, &params), &seqs);
    let r = assert_conform(
        label,
        &motif.apply_src(ALIGN_EVAL).unwrap(),
        &format!("create(4, {entry}({tree}, Value))"),
        MachineConfig::with_nodes(4).seed(9),
        &align_lib(params, 8),
    );
    assert_eq!(
        r.bindings["Value"],
        profile_to_term(&align_family_seq(&seqs, &params))
    );
}

#[test]
fn conform_seqalign_tree_reduce_1() {
    conform_seqalign("seqalign-tree-reduce-1", tree_reduce_1(), "reduce");
}

#[test]
fn conform_seqalign_tree_reduce_2() {
    conform_seqalign("seqalign-tree-reduce-2", tree_reduce_2(), "tr2");
}

/// A goal left suspended on a heavily shared term: `d(S,S)` nested 40 deep
/// is 41 cells as a DAG and 2^41 nodes as a tree. Both backends build their
/// post-mortem through one report path, which renders suspended goals under
/// a node budget — the simulator used to expand the tree and never return.
#[test]
fn quiescent_goal_on_a_shared_dag_gets_a_capped_post_mortem() {
    let program = parse_program(
        "build(0,T) :- T = leaf. \
         build(N,T) :- N > 0 | N1 := N - 1, build(N1,S), T = d(S,S). \
         go(N,Never) :- build(N,T), hold(T,Never). \
         hold(T,go) :- true.",
    )
    .unwrap();
    let run = |cfg: MachineConfig| {
        let r = run_parsed_goal(&program, "go(40, Never)", cfg).unwrap();
        assert_eq!(r.report.status, RunStatus::Quiescent { suspended: 1 });
        r.report.suspended_goals[0].to_string()
    };
    let sim = run(MachineConfig::default());
    assert!(sim.contains('…'), "uncapped: {sim}");
    assert!(sim.len() < 8 * 1024, "{} bytes", sim.len());
    assert_eq!(sim, run(MachineConfig::default().parallel(1)));
}

// ---------------------------------------------------------------------------
// Inventory motifs
// ---------------------------------------------------------------------------

/// Fig. 4 shape: every node probes every higher-numbered node.
const FLOOD_APP: &str = r#"
    server([probe(K)|In]) :- fan(K), server(In).
    server([]).
    fan(K) :- fan1(K, 4).
    fan1(K, N) :- K < N | K1 := K + 1, send(K1, probe(K1)), fan1(K1, N).
    fan1(K, N) :- K >= N | true.
"#;

#[test]
fn conform_server_flood() {
    let p = motifs::server().apply_src(FLOOD_APP).unwrap();
    assert_conform(
        "server-flood",
        &p,
        "create(4, probe(1))",
        MachineConfig::with_nodes(4).seed(3),
        &ForeignLib::new(),
    );
}

#[test]
fn conform_scheduler() {
    let costs: Vec<u64> = (0..24).map(|i| 3 + (i % 7)).collect();
    let p = motifs::scheduler::scheduler()
        .apply_src(motifs::scheduler::BURN_TASK)
        .unwrap();
    let goal = format!(
        "create(5, start({}, Results))",
        motifs::scheduler::tasks_src(&costs)
    );
    let r = assert_conform(
        "scheduler",
        &p,
        &goal,
        MachineConfig::with_nodes(5).seed(17),
        &ForeignLib::new(),
    );
    // Results is a merge-ordered list: checked as a multiset inside
    // assert_conform; here just confirm all 24 results arrived.
    assert_eq!(list_elems(&r.bindings["Results"]).unwrap().len(), 24);
}

#[test]
fn conform_scheduler_hierarchical() {
    let costs: Vec<u64> = (0..18).map(|i| 2 + (i % 5)).collect();
    let p = motifs::scheduler::scheduler_hierarchical()
        .apply_src(motifs::scheduler::BURN_TASK)
        .unwrap();
    let goal = format!(
        "create(9, start2({}, Results, 2))",
        motifs::scheduler::tasks_src(&costs)
    );
    assert_conform(
        "scheduler-2",
        &p,
        &goal,
        MachineConfig::with_nodes(9).seed(23),
        &ForeignLib::new(),
    );
}

#[test]
fn conform_task_pragma() {
    let app = r#"
        gen(0, V) :- V := 0.
        gen(N, V) :- N > 0 |
            cost(N, C),
            burn(C, V1)@task,
            N1 := N - 1,
            gen(N1, V2),
            add(V1, V2, V).
        cost(N, C) :- M := N mod 7, C := 5 + M * M.
        burn(C, V) :- work(C), V := 1.
        add(V1, V2, V) :- V := V1 + V2.
    "#;
    let p = motifs::task_scheduler_with_entries(&[("gen", 2)])
        .apply_src(app)
        .unwrap();
    let goal = motifs::boot_goal(5, "gen", &["12", "V"]);
    let r = assert_conform(
        "task-pragma",
        &p,
        &goal,
        MachineConfig::with_nodes(5).seed(13),
        &ForeignLib::new(),
    );
    assert_eq!(r.bindings["V"].to_string(), "12");
}

#[test]
fn conform_divide_and_conquer() {
    let p = dc::divide_and_conquer()
        .apply_src(dc::MERGESORT_APP)
        .unwrap();
    let goal = format!(
        "create(4, dc({}, S))",
        dc::int_list_src(&[9, 2, 7, 4, 1, 8, 3, 6, 5, 0])
    );
    let r = assert_conform(
        "dc-mergesort",
        &p,
        &goal,
        MachineConfig::with_nodes(4).seed(29),
        &ForeignLib::new(),
    );
    assert_eq!(r.bindings["S"].to_string(), "[0,1,2,3,4,5,6,7,8,9]");
}

#[test]
fn conform_search_nqueens() {
    let p = search::search().apply_src(search::NQUEENS_APP).unwrap();
    let r = assert_conform(
        "search-5queens",
        &p,
        "create(4, search(q(5, [], 1), Count))",
        MachineConfig::with_nodes(4).seed(31),
        &ForeignLib::new(),
    );
    assert_eq!(r.bindings["Count"].to_string(), "10");
}

#[test]
fn conform_grid_stencil() {
    let p = grid::grid()
        .apply_src("cell_init(I, V) :- V := I * 1.0.")
        .unwrap();
    assert_conform(
        "grid-stencil",
        &p,
        "grid(8, 6, Final)",
        MachineConfig::with_nodes(4).seed(37),
        &ForeignLib::new(),
    );
}

#[test]
fn conform_graph_components() {
    // Vertices are 1-based: {1,2,3} u {4,5} u {6,7,8}.
    let edges = [(1u32, 2), (2, 3), (4, 5), (6, 7), (7, 8)];
    let p = graph::graph_components().apply_src("noop(1).").unwrap();
    let goal = format!("create(4, cc(8, {}, Final))", graph::edges_src(&edges));
    assert_conform(
        "graph-components",
        &p,
        &goal,
        MachineConfig::with_nodes(4).seed(41),
        &ForeignLib::new(),
    );
}

#[test]
fn conform_pipeline() {
    let p = pipeline::pipeline()
        .apply_src("stage(K, X, Y) :- Y := X + K.")
        .unwrap();
    let r = assert_conform(
        "pipeline",
        &p,
        "pipe(3, [0, 10, 20, 30], Out)",
        MachineConfig::with_nodes(3).seed(43),
        &ForeignLib::new(),
    );
    // A pipeline preserves order: the stronger ordered check must hold too.
    assert_eq!(r.bindings["Out"].to_string(), "[6,16,26,36]");
}

/// Supervised ring: at-least-once delivery means a replayed message may be
/// printed twice on either backend, so compare the *set* of distinct
/// outputs (the dedup guarantee) rather than the multiset.
#[test]
fn conform_supervise_ring() {
    let program = motifs::supervised_server().apply_src(RING_APP).unwrap();
    let goal = "create(4, token(1))";
    let cfg = MachineConfig::with_nodes(4).seed(47);
    let det = run_parsed_goal(&program, goal, cfg.clone()).unwrap();
    let interp = run_parsed_goal(&program, goal, cfg.clone().exec(ExecMode::Interpreted)).unwrap();
    assert_eq!(
        det.report.output, interp.report.output,
        "supervise-ring: compiled tier must replay the interpreter exactly"
    );
    assert_eq!(det.report.status, interp.report.status);
    let par = run_parsed_goal(&program, goal, cfg.parallel(4)).unwrap();
    assert_eq!(
        std::mem::discriminant(&det.report.status),
        std::mem::discriminant(&par.report.status),
        "supervise-ring: status diverged: {:?} vs {:?}",
        det.report.status,
        par.report.status,
    );
    let dedup = |out: &[String]| {
        let mut v = sorted(out);
        v.dedup();
        v
    };
    assert_eq!(
        dedup(&det.report.output),
        dedup(&par.report.output),
        "supervise-ring: distinct output set diverged"
    );
}

// ---------------------------------------------------------------------------
// Exact tier under faults: one plan, one dice stream, simulator ≡ 1 thread
// ---------------------------------------------------------------------------

/// Message faults are rolled in the shard core both backends run, and a
/// 1-thread fleet's worker 0 keeps the plan's seed: under the same lossy
/// plan the two must roll the same dice on the same deliveries and so agree
/// exactly — on what was injected, and on everything the program did about
/// it. (Crashes are left out: the backends read `at` on different clocks.
/// So are `after_unless` programs, whose deadlines do.)
#[test]
fn lossy_plans_replay_exactly_on_a_one_thread_fleet() {
    let tree = random_tree_src(20, 5);
    let cases = [
        (
            "server-flood",
            motifs::server().apply_src(FLOOD_APP).unwrap(),
            "create(4, probe(1))".to_string(),
        ),
        (
            "tree-reduce-1",
            tree_reduce_1().apply_src(ARITH_EVAL).unwrap(),
            format!("create(4, reduce({tree}, Value))"),
        ),
        (
            "tree-reduce-2",
            tree_reduce_2().apply_src(ARITH_EVAL).unwrap(),
            format!("create(4, tr2({tree}, Value))"),
        ),
        (
            "dc-mergesort",
            dc::divide_and_conquer()
                .apply_src(dc::MERGESORT_APP)
                .unwrap(),
            format!(
                "create(4, dc({}, S))",
                dc::int_list_src(&[9, 2, 7, 4, 1, 8])
            ),
        ),
        (
            "pipeline",
            pipeline::pipeline()
                .apply_src("stage(K, X, Y) :- Y := X + K.")
                .unwrap(),
            "pipe(3, [0, 10, 20, 30], Out)".to_string(),
        ),
    ];
    let mut injected = [0u64; 3];
    for (label, program, goal) in &cases {
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::default()
                .drop_prob(0.2)
                .dup_prob(0.1)
                .delay(0.1, 50)
                .seed(seed);
            let mut cfg = MachineConfig::with_nodes(4).seed(5).faults(plan);
            // A duplicated delivery may double-assign: collect, don't stop.
            cfg.fail_fast = false;
            let sim = run_parsed_goal(program, goal, cfg.clone())
                .unwrap_or_else(|e| panic!("{label}: simulator: {e}"));
            let par = run_parsed_goal(program, goal, cfg.parallel(1))
                .unwrap_or_else(|e| panic!("{label}: 1-thread fleet: {e}"));
            let faults = |r: &GoalResult| {
                let m = &r.report.metrics;
                [m.msgs_dropped, m.msgs_duplicated, m.msgs_delayed]
            };
            assert_eq!(faults(&sim), faults(&par), "{label} seed {seed}: dice");
            assert_eq!(
                sim.report.status, par.report.status,
                "{label} seed {seed}: status"
            );
            assert_eq!(sim.bindings, par.bindings, "{label} seed {seed}: bindings");
            assert_eq!(
                sim.report.output, par.report.output,
                "{label} seed {seed}: ordered output"
            );
            assert_eq!(
                sim.report.errors, par.report.errors,
                "{label} seed {seed}: collected errors"
            );
            for (sum, n) in injected.iter_mut().zip(faults(&sim)) {
                *sum += n;
            }
        }
    }
    assert!(
        injected.iter().all(|&n| n >= 5),
        "the plans barely injected (dropped, duplicated, delayed): {injected:?}"
    );
}

// ---------------------------------------------------------------------------
// Chaos tier: supervised programs under a fault plan on real threads
// ---------------------------------------------------------------------------

/// Pick a crash point that lands mid-run: a clean run's reduction count
/// scaled down. On a fleet `crash(node, at)` triggers on the *global*
/// reduction counter, so it is a progress trigger, not a timer — by the
/// time it fires the supervised network has necessarily made that much
/// progress (bootstrap included), and the chaos run always reaches it
/// (faults only add reductions).
fn mid_run_crash_at(program: &strand_parse::Program, goal: &str, cfg: &MachineConfig) -> u64 {
    let clean = run_parsed_goal(program, goal, cfg.clone().parallel(2))
        .unwrap_or_else(|e| panic!("clean calibration run: {e}"));
    (clean.report.metrics.total_reductions / 3).max(1)
}

/// The chaos mix: nodes 2 and 4 crash mid-run on top of 10% delivery drop
/// and 5% duplication. Built once per test and handed unchanged to every
/// thread count — a plan names nodes and deliveries, so it means the same
/// thing whatever hosts them.
fn chaos_plan(crash_at: u64, seed: u64) -> FaultPlan {
    FaultPlan::default()
        .crash(2, crash_at)
        .crash(4, crash_at)
        .drop_prob(0.10)
        .dup_prob(0.05)
        .seed(seed)
}

/// The chaos acceptance scenario, ring half: the `Supervise ∘ Server ∘
/// Rand` ring must still visit every server when two nodes crash mid-run
/// on top of delivery loss and duplication. Recovery is real: the dead
/// nodes' servers restart from their durable wires on the monitors'
/// (surviving) nodes.
#[test]
fn chaos_supervised_ring_survives_kill_drop_dup() {
    let program = motifs::supervised_random().apply_src(RING_APP).unwrap();
    let goal = "create(8, token(1))";
    let base = MachineConfig::with_nodes(8).seed(47);
    let expected: Vec<String> = (1..=8).map(|k| k.to_string()).collect();
    let crash_at = mid_run_crash_at(&program, goal, &base);
    let plan = chaos_plan(crash_at, 61);
    for threads in [2u32, 4, 8] {
        let mut cfg = base.clone().parallel(threads).faults(plan.clone());
        cfg.fail_fast = false;
        // A recovery regression diverges (beat loops mint variables without
        // bound); a modest budget turns that into `Truncated` + a readable
        // assertion instead of a variable-space panic.
        cfg.max_reductions = 2_000_000;
        let r = run_parsed_goal(&program, goal, cfg)
            .unwrap_or_else(|e| panic!("chaos ring at {threads} threads: {e}"));
        assert_eq!(
            r.report.metrics.nodes_crashed, 2,
            "both crashes must land at {threads} threads ({:?})",
            plan.crashes
        );
        let mut distinct = sorted(&r.report.output);
        distinct.dedup();
        assert_eq!(
            distinct, expected,
            "token must visit every server at {threads} threads despite the \
             dead nodes; status {:?}, errors {:?}",
            r.report.status, r.report.errors
        );
        assert!(
            !matches!(r.report.status, RunStatus::Truncated { .. }),
            "chaos must not exhaust the budget: {:?}",
            r.report.status
        );
        // Recovery is retry and backoff work — failed bootstraps, monitor
        // restarts, replayed wires — so reductions over the clean run's are
        // the wall-clock-free measure of what it costs: within 50x of clean
        // (`crash_at` is a third of the clean calibration run).
        let spent = r.report.metrics.total_reductions;
        assert!(
            spent < 50 * 3 * crash_at,
            "recovery at {threads} threads took {spent} reductions against \
             a clean run of {}",
            3 * crash_at
        );
    }
}

/// The chaos acceptance scenario, task half: a supervised task scheduler
/// (Supervise ∘ Server ∘ Sched) completing a fan of idempotent tasks. The
/// tasks acknowledge into test-and-set slots (`arg/3` + `ack/1`), per the
/// Supervise contract that handlers tolerate replay — so crashed nodes,
/// replayed wires and duplicated submissions must still fill every slot
/// exactly to `ok`.
#[test]
fn chaos_supervised_task_sched_reaches_answers() {
    let app = r#"
        gen(0, _).
        gen(N, T) :- N > 0 |
            cost(N, C),
            mark(C, N, T)@task,
            N1 := N - 1,
            gen(N1, T).
        cost(N, C) :- M := N mod 7, C := 5 + M * M.
        mark(C, N, T) :- work(C), arg(N, T, S), ack(S).
    "#;
    let program = motifs::supervise()
        .compose(&motifs::task_scheduler_with_entries(&[("gen", 2)]))
        .apply_src(app)
        .unwrap();
    let goal = motifs::boot_goal(9, "gen", &["8", "t(S1, S2, S3, S4, S5, S6, S7, S8)"]);
    let base = MachineConfig::with_nodes(9).seed(53);
    let plan = chaos_plan(mid_run_crash_at(&program, &goal, &base), 67);
    for threads in [2u32, 4, 8] {
        let mut cfg = base.clone().parallel(threads).faults(plan.clone());
        cfg.fail_fast = false;
        cfg.max_reductions = 2_000_000;
        let r = run_parsed_goal(&program, &goal, cfg)
            .unwrap_or_else(|e| panic!("chaos task_sched at {threads} threads: {e}"));
        assert_eq!(
            r.report.metrics.nodes_crashed, 2,
            "both crashes must land at {threads} threads ({:?})",
            plan.crashes
        );
        for slot in ["S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8"] {
            assert_eq!(
                r.bindings[slot].to_string(),
                "ok",
                "task {slot} must be applied at {threads} threads; status {:?}, \
                 errors {:?}",
                r.report.status,
                r.report.errors
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite 3: acked sends apply exactly once under duplicated deliveries
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Supervise's retry/backoff against delivery duplication on real
    /// threads: three deliveries in four arrive twice (a duplicated spawn
    /// gets a fresh pid), yet the sequence-numbered envelopes and the
    /// test-and-set bootstrap must keep *application* effects exactly-once.
    /// Absent a supervisor restart (nothing here crashes or drops, so no
    /// heartbeat goes missing), each token must print exactly once; with
    /// one, the replay may legally repeat a print but never lose one.
    #[test]
    fn duplicated_deliveries_keep_acked_sends_exactly_once(
        chaos_seed in 0u64..10_000,
        threads_ix in 0usize..3,
    ) {
        let threads = [2u32, 4, 8][threads_ix];
        let program = motifs::supervised_server().apply_src(RING_APP).unwrap();
        let goal = "create(4, token(1))";
        let mut cfg = MachineConfig::with_nodes(4)
            .seed(47)
            .parallel(threads)
            .faults(FaultPlan::default().dup_prob(0.75).seed(chaos_seed));
        cfg.fail_fast = false;
        let r = run_parsed_goal(&program, goal, cfg).unwrap();
        let expected: Vec<String> = (1..=4).map(|k| k.to_string()).collect();
        let mut distinct = sorted(&r.report.output);
        distinct.dedup();
        prop_assert_eq!(&distinct, &expected, "every token must arrive");
        prop_assert!(r.report.metrics.msgs_duplicated > 0, "the plan did inject");
        if r.report.metrics.supervisor_restarts == 0 {
            prop_assert_eq!(
                sorted(&r.report.output),
                expected,
                "exactly-once violated without any restart"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite 3 (cont.): random fault-free programs conform across seeds
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault-free tree programs (the fault-determinism generator's
    /// shape with faults disabled) produce identical values on both
    /// backends across 3 machine seeds, and the compiled tier is
    /// bit-identical to the reference interpreter on each of them.
    #[test]
    fn random_programs_conform(
        leaves in 2u32..16,
        tree_seed in 0u64..1000,
        p in 1u32..6,
    ) {
        let tree = random_tree_src(leaves, tree_seed);
        let expected = sequential_reduce(&tree).to_string();
        let program = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
        let goal = format!("create({p}, reduce({tree}, Value))");
        for machine_seed in [1u64, 2, 3] {
            let cfg = MachineConfig::with_nodes(p).seed(machine_seed);
            let det = run_parsed_goal(&program, &goal, cfg.clone()).unwrap();
            prop_assert_eq!(det.bindings["Value"].to_string(), expected.clone());
            let interp = run_parsed_goal(&program, &goal, cfg.clone().exec(ExecMode::Interpreted)).unwrap();
            prop_assert_eq!(&det.bindings, &interp.bindings);
            prop_assert_eq!(&det.report.output, &interp.report.output);
            prop_assert_eq!(
                det.report.metrics.total_reductions,
                interp.report.metrics.total_reductions
            );
            prop_assert_eq!(
                det.report.metrics.suspensions,
                interp.report.metrics.suspensions
            );
            let par = run_parsed_goal(&program, &goal, cfg.parallel(2)).unwrap();
            prop_assert_eq!(par.bindings["Value"].to_string(), expected.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Soak tier: wide machines, many workers sharing few cores
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soak for the sharded backend: 64-node machines on 2 worker threads
    /// put 32 nodes on each shard, so cross-worker batches, suspensions on
    /// foreign-stripe variables and wakeup routing churn far harder than
    /// the quick cases above. Ignored by default (it multiplies runtime by
    /// ~case count × tree size); run explicitly with
    /// `cargo test --test conformance -- --ignored --test-threads=1`,
    /// which is also what the nightly ThreadSanitizer CI job does.
    #[test]
    #[ignore]
    fn soak_wide_machine_conforms(
        leaves in 16u32..48,
        tree_seed in 0u64..10_000,
        machine_seed in 0u64..1000,
    ) {
        let tree = random_tree_src(leaves, tree_seed);
        let expected = sequential_reduce(&tree).to_string();
        let program = tree_reduce_1().apply_src(ARITH_EVAL).unwrap();
        let goal = format!("create(64, reduce({tree}, Value))");
        let cfg = MachineConfig::with_nodes(64).seed(machine_seed);
        for threads in [2u32, 4] {
            let par = run_parsed_goal(&program, &goal, cfg.clone().parallel(threads)).unwrap();
            prop_assert_eq!(par.bindings["Value"].to_string(), expected.clone());
        }
    }
}
