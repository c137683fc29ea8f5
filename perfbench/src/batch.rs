//! The batch workloads: what someone running a motif program pays every
//! time — source text in, checked value out (transform + parse + compile +
//! lower + run).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use motifs::{tree_reduce_1, ARITH_EVAL};
use strand_core::{SplitMix64, Term};
use strand_machine::exec::ExecProgram;
use strand_machine::{ast_to_term, run_parsed_goal, ExecMode, Machine, MachineConfig, Metrics};
use strand_parse::{compile_program, parse_program, parse_term};

use crate::inputs::{
    arith_apply, arith_op_src, chain_expect, chain_program_src, dispatch_apply,
    dispatch_program_src, OpTree, DISPATCH_OPS,
};
use crate::metrics::{set_machine_counts, Measured, Op, Untraced, Values, PER_LAYER};
use crate::stats::{cpu_ms, median, peak_rss_mb};
use crate::trace::{self_times, Span, Tracer};
use crate::{alloc_count, probes};

/// Engine threads (and virtual nodes) of `motif-tree-par`; the load this
/// benchmark generates never exceeds the host's two cores.
pub const PAR_THREADS: u32 = 2;
const PAR_NODES: u32 = 8;

enum Engine {
    /// Deterministic simulator, one node, driven step by step so each
    /// layer boundary gets its own span.
    Sim,
    /// `tree_reduce_1().apply_src(..)` then the parallel backend, which
    /// parses the goal, compiles and runs behind one call.
    Par,
}

pub struct BatchCase {
    engine: Engine,
    /// What the user hands in: a whole program (`Sim`) or the application
    /// the motif is applied to (`Par`).
    src: String,
    goal: String,
    goal_var: &'static str,
    cfg: MachineConfig,
    expect: i64,
    /// `motif-tree-par` keeps its tree for the reference rows.
    tree: Option<OpTree>,
}

impl BatchCase {
    pub fn build(workload: &str, seed: u64) -> BatchCase {
        let mut rng = SplitMix64::new(seed);
        match workload {
            // 8192 leaves: 16x the `compiled-json` tree, so one run is
            // ~50 ms and the goal text (~150 KB) makes `parse_term` a
            // visible share.
            "dispatch-tree" => {
                let tree = OpTree::random(8192, DISPATCH_OPS, &mut rng);
                BatchCase {
                    engine: Engine::of(workload),
                    src: dispatch_program_src(),
                    goal: format!("reduce({}, Value)", tree.src(&|op| op.to_string())),
                    goal_var: "Value",
                    cfg: MachineConfig::with_nodes(1).seed(seed),
                    expect: tree.fold(&dispatch_apply),
                    tree: None,
                }
            }
            // 50 000 steps ≈ 250 k reductions behind a 30-byte goal.
            "eval-chain" => {
                let start = rng.next_below(1_000_000) as i64;
                BatchCase {
                    engine: Engine::of(workload),
                    src: chain_program_src(),
                    goal: format!("chain(50000, {start}, V)"),
                    goal_var: "V",
                    cfg: MachineConfig::with_nodes(1).seed(seed),
                    expect: chain_expect(50_000, start),
                    tree: None,
                }
            }
            "motif-tree-par" => {
                let tree = OpTree::random(4096, 2, &mut rng);
                BatchCase {
                    engine: Engine::of(workload),
                    src: ARITH_EVAL.to_string(),
                    goal: format!(
                        "create({PAR_NODES}, reduce({}, Value))",
                        tree.src(&arith_op_src)
                    ),
                    goal_var: "Value",
                    cfg: MachineConfig::with_nodes(PAR_NODES)
                        .seed(seed)
                        .parallel(PAR_THREADS),
                    expect: tree.fold(&arith_apply),
                    tree: Some(tree),
                }
            }
            other => panic!("not a batch workload: {other}"),
        }
    }

    /// One whole pipeline run under `cfg`. The value and the run's
    /// `Metrics` come back; every intermediate is dropped inside the
    /// `iter` span, because the user pays for that too.
    fn run_once(
        &self,
        cfg: &MachineConfig,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<(Term, Metrics), String> {
        let root = tr.begin("iter", 0, id);
        let out = match self.engine {
            Engine::Sim => self.run_sim(cfg, tr, root, id),
            Engine::Par => self.run_par(cfg, tr, root, id),
        };
        tr.end(root);
        out
    }

    fn run_sim(
        &self,
        cfg: &MachineConfig,
        tr: &mut Tracer,
        root: u64,
        id: u64,
    ) -> Result<(Term, Metrics), String> {
        let program = tr
            .span("parse.program", root, id, || parse_program(&self.src))
            .map_err(|e| e.to_string())?;
        let goal_ast = tr
            .span("parse.goal", root, id, || parse_term(&self.goal))
            .map_err(|e| e.to_string())?;
        let compiled = tr
            .span("parse.compile", root, id, || compile_program(&program))
            .map_err(|e| e.to_string())?;
        let mut machine = tr.span("machine.new", root, id, || {
            Machine::new(compiled, cfg.clone())
        });
        tr.span("machine.run", root, id, || {
            let mut vars = BTreeMap::new();
            let goal = ast_to_term(&goal_ast, &mut machine, &mut vars);
            machine.start(goal);
            let report = machine.run().map_err(|e| e.to_string())?;
            let value = machine.store().resolve(&vars[self.goal_var]);
            Ok((value, report.metrics))
        })
    }

    fn run_par(
        &self,
        cfg: &MachineConfig,
        tr: &mut Tracer,
        root: u64,
        id: u64,
    ) -> Result<(Term, Metrics), String> {
        let program = tr
            .span("transform.apply", root, id, || {
                tree_reduce_1().apply_src(&self.src)
            })
            .map_err(|e| e.to_string())?;
        let mut result = tr
            .span("parallel.run_program", root, id, || {
                run_parsed_goal(&program, &self.goal, cfg.clone())
            })
            .map_err(|e| e.to_string())?;
        let value = result
            .bindings
            .remove(self.goal_var)
            .ok_or("goal variable missing from the bindings")?;
        Ok((value, result.report.metrics))
    }

    fn is_correct(&self, out: &Result<(Term, Metrics), String>) -> bool {
        matches!(out, Ok((Term::Int(v), _)) if *v == self.expect)
    }
}

/// What a timed loop leaves behind besides the operation times.
struct LoopOut {
    measured: Measured,
    spans: Vec<Span>,
    /// `Metrics` of the last correct iteration.
    metrics: Metrics,
    allocs: u64,
}

/// Wall time of the calibration kernel on this host when nothing disturbs
/// it. Simulator times are reported at this speed (see [`kernel_ns`]).
const CALM_KERNEL_NS: f64 = 1_450_000.0;

/// Time a fixed piece of single-thread work that resembles the engine's
/// (hashing, small boxed allocations, pointer chasing) and touches no code
/// of the repo: the host's momentary speed.
///
/// The host is a shared two-core VM that runs the same pure-CPU loop up to
/// twice as slowly for seconds to minutes when its neighbours are busy. A
/// simulator operation is tens of ms of exactly such work, so its wall
/// time says as much about the neighbours as about the program: raw
/// medians of identical runs differed by 20–60 %. Scaled by the kernel
/// timed right next to each operation they repeat within ~4 %. Nothing
/// multi-threaded is scaled (see [`Engine::host_speed_ns`]; the serve workloads'
/// operations are wake-ups, sleeps and socket hops, which do not slow
/// down with the CPU).
fn kernel_ns() -> u64 {
    let counting = alloc_count::is_enabled();
    alloc_count::enable(false);
    let t0 = Instant::now();
    let mut boxes: Vec<Box<u64>> = Vec::new();
    let mut h = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..200_000_u64 {
        h = (h ^ i).wrapping_mul(0x100_0000_01B3);
        if i % 4 == 0 {
            boxes.push(Box::new(h));
        }
    }
    std::hint::black_box(boxes.iter().fold(0_u64, |a, b| a.wrapping_add(**b)));
    drop(boxes);
    let ns = t0.elapsed().as_nanos() as u64;
    alloc_count::enable(counting);
    ns
}

/// The factor that turns a wall time into time at the host's calm speed,
/// given kernel timings taken around it. The median of the neighbouring
/// timings, because the kernel is disturbed like anything else.
fn calm_scale(host_ns: &[u64]) -> f64 {
    let around: Vec<f64> = host_ns.iter().map(|ns| *ns as f64).collect();
    CALM_KERNEL_NS / median(&around)
}

impl Engine {
    fn of(workload: &str) -> Engine {
        if workload == "motif-tree-par" {
            Engine::Par
        } else {
            Engine::Sim
        }
    }

    /// The host's momentary speed as this engine's timings are to be
    /// scaled by it. Only the simulator is scaled: the kernel measures
    /// single-thread speed, and a run on the parallel backend is lock
    /// hand-offs, parks and wakes as much as it is reductions — scaled,
    /// `motif-tree-par` repeated within 11 %, raw within 4 %. So there the
    /// kernel is not run and the host always reads calm.
    fn host_speed_ns(&self) -> u64 {
        match self {
            Engine::Sim => kernel_ns(),
            Engine::Par => CALM_KERNEL_NS as u64,
        }
    }
}

/// Run whole pipelines back to back for `window`, the calibration kernel
/// before each. On the simulator the reduction count is exact for a fixed
/// seed; an iteration that disagrees with the first counts as failed.
fn timed_loop(case: &BatchCase, cfg: &MachineConfig, window: Duration, traced: bool) -> LoopOut {
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch, 0);
    // Per attempt: the host's speed before it, and its raw time if correct.
    let mut host_ns = Vec::new();
    let mut raw_ns = Vec::new();
    let mut failed = 0u64;
    let mut metrics = Metrics::default();
    let mut reductions = None;
    alloc_count::enable(traced);
    let allocs0 = alloc_count::total();
    let cpu0 = cpu_ms();
    while epoch.elapsed() < window || raw_ns.is_empty() {
        host_ns.push(case.engine.host_speed_ns());
        let t0 = Instant::now();
        let out = case.run_once(cfg, &mut tr, raw_ns.len() as u64 + 1);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut ok = case.is_correct(&out);
        if let Ok((_, m)) = out {
            let exact = matches!(case.engine, Engine::Sim);
            let first = *reductions.get_or_insert(m.total_reductions);
            ok &= !exact || first == m.total_reductions;
            if ok {
                metrics = m;
            }
        }
        failed += u64::from(!ok);
        raw_ns.push(ok.then_some(ns));
    }
    host_ns.push(case.engine.host_speed_ns());
    let cpu = cpu_ms() - cpu0;
    alloc_count::enable(false);

    // Completion times run on the same calibrated clock: the sum of the
    // calibrated operation times, the kernel's own time left out.
    let scales: Vec<f64> = (0..raw_ns.len())
        .map(|k| calm_scale(&host_ns[k.saturating_sub(1)..k + 2]))
        .collect();
    let mut ops = Vec::new();
    let mut done_ns = 0;
    for (raw, scale) in raw_ns.iter().zip(&scales) {
        if let Some(raw) = raw {
            let ns = (*raw as f64 * scale) as u64;
            done_ns += ns;
            ops.push(Op { done_ns, ns });
        }
    }
    for span in &mut tr.spans {
        span.scale = scales[span.id as usize - 1];
    }
    LoopOut {
        measured: Measured {
            ops,
            cpu_ms: cpu,
            attempted: raw_ns.len() as u64,
            failed,
        },
        spans: tr.spans,
        metrics,
        allocs: alloc_count::total() - allocs0,
    }
}

/// Set up once: generate the inputs and their reference from the seed,
/// then run one whole pipeline so caches, the allocator and lazy statics
/// are warm before timing. The flag says whether the warm-up answer was
/// right.
fn set_up(workload: &str, seed: u64) -> (BatchCase, bool) {
    let case = BatchCase::build(workload, seed);
    let out = case.run_once(&case.cfg, &mut Tracer::off(), 0);
    let ok = case.is_correct(&out);
    (case, ok)
}

/// Set-up repeats before and after the timed window. Set-up is repeated
/// so one page fault or scheduler hiccup does not read as a regression,
/// and on both sides of the window so one disturbed stretch of a shared
/// host does not cover every repeat.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Untraced {
    let mut setup_s = Vec::new();
    let mut warm_failed = 0;
    let engine = Engine::of(workload);
    let mut timed_set_up = || {
        let before = engine.host_speed_ns();
        let t0 = Instant::now();
        let (case, warm_ok) = set_up(workload, seed);
        let raw_s = t0.elapsed().as_secs_f64();
        let after = [engine.host_speed_ns(), engine.host_speed_ns()];
        setup_s.push(raw_s * calm_scale(&[before, after[0], after[1]]));
        warm_failed += u64::from(!warm_ok);
        case
    };
    let mut case = timed_set_up();
    for _ in 1..SETUPS_BEFORE {
        case = timed_set_up();
    }
    let rss_mb = peak_rss_mb();
    let mut measured =
        timed_loop(&case, &case.cfg, Duration::from_secs_f64(seconds), false).measured;
    for _ in 0..SETUPS_AFTER {
        timed_set_up();
    }
    measured.attempted += (SETUPS_BEFORE + SETUPS_AFTER) as u64;
    measured.failed += warm_failed;
    Untraced {
        measured,
        setup_s,
        rss_mb,
    }
}

/// Median time (ns) of `repeats` calls of `f`, scaled like the
/// workload's own operations so the two can be set against each other.
fn median_ns<R>(engine: &Engine, repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let before = engine.host_speed_ns();
            let t0 = Instant::now();
            std::hint::black_box(f());
            let raw_ns = t0.elapsed().as_nanos() as f64;
            raw_ns * calm_scale(&[before, engine.host_speed_ns()])
        })
        .collect();
    median(&samples)
}

/// The traced run: a quarter of the window untraced (the base of
/// `trace.overhead_ratio`), a quarter traced, then the fixed-count layer
/// probes and comparison rows.
pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> (Measured, Values, Vec<Span>) {
    let (case, warm_ok) = set_up(workload, seed);
    let window = Duration::from_secs_f64(seconds / 4.0);
    let plain = timed_loop(&case, &case.cfg, window, false);
    let traced = timed_loop(&case, &case.cfg, window, true);
    let ops = traced.measured.ops.len().max(1) as f64;
    let selfs = self_times(&traced.spans);
    let per_op_ns = |name: &str| selfs.get(name).map_or(0.0, |(ns, _)| *ns / ops);

    let mut v = Values::new(PER_LAYER);
    probes::layer_floor(&mut v);
    v.set("trace.spans", traced.spans.len() as f64);
    v.set("trace.root_self_us", per_op_ns("iter") / 1e3);
    v.set(
        "trace.overhead_ratio",
        traced.measured.op_ms(0.50) / plain.measured.op_ms(0.50),
    );
    v.set("op_ms_p90", plain.measured.op_ms(0.90));
    v.set("cpu_ms_per_op", plain.measured.cpu_ms_per_op());

    let m = &traced.metrics;
    let reductions = m.total_reductions as f64;
    let run_ns = per_op_ns("machine.run") + per_op_ns("parallel.run_program");
    set_machine_counts(&mut v, m, 1.0);
    v.set("machine.ns_per_reduction", run_ns / reductions);
    v.set("machine.reductions_per_s", reductions * 1e9 / run_ns);
    v.set(
        "machine.allocs_per_reduction",
        traced.allocs as f64 / (reductions * ops),
    );

    // The interpreted tier on the same inputs: the ratio the compiled tier
    // has to keep earning.
    let interp_cfg = case.cfg.clone().exec(ExecMode::Interpreted);
    const INTERP_REPEATS: usize = 3;
    let mut interp_failed = 0;
    let interp_ns = median_ns(&case.engine, INTERP_REPEATS, || {
        let out = case.run_once(&interp_cfg, &mut Tracer::off(), 0);
        interp_failed += u64::from(!case.is_correct(&out));
    });
    v.set(
        "machine.interp_over_compiled",
        interp_ns / 1e6 / plain.measured.op_ms(0.50),
    );

    let program = match case.engine {
        Engine::Sim => parse_program(&case.src).expect("program parsed in the loop"),
        Engine::Par => tree_reduce_1()
            .apply_src(&case.src)
            .expect("motif applied in the loop"),
    };
    let compiled = compile_program(&program).expect("program compiled in the loop");
    v.set(
        "machine.lower_us",
        median_ns(&case.engine, 5, || ExecProgram::lower(&compiled)) / 1e3,
    );
    match case.engine {
        Engine::Sim => {
            v.set("parse.program_us", per_op_ns("parse.program") / 1e3);
            v.set("parse.goal_us", per_op_ns("parse.goal") / 1e3);
            v.set("parse.compile_us", per_op_ns("parse.compile") / 1e3);
            v.set("machine.new_us", per_op_ns("machine.new") / 1e3);
            v.set("machine.run_ms", per_op_ns("machine.run") / 1e6);
        }
        Engine::Par => {
            // The backend parses the goal and compiles behind
            // `run_program`; time the same calls on the same inputs here.
            v.set(
                "parse.goal_us",
                median_ns(&case.engine, 5, || parse_term(&case.goal)) / 1e3,
            );
            v.set(
                "parse.compile_us",
                median_ns(&case.engine, 5, || compile_program(&program)) / 1e3,
            );
            v.set("transform.apply_us", per_op_ns("transform.apply") / 1e3);
            v.set("transform.rules_out", program.rule_count() as f64);
            v.set("parallel.run_ms", per_op_ns("parallel.run_program") / 1e6);
            par_comparisons(&case, &program, &mut v);
        }
    }
    v.set(
        "parse.goal_mb_per_s",
        case.goal.len() as f64 / v.get("parse.goal_us"),
    );

    let mut measured = traced.measured;
    measured.attempted += plain.measured.attempted + 1 + INTERP_REPEATS as u64;
    measured.failed += plain.measured.failed + u64::from(!warm_ok) + interp_failed;
    (measured, v, traced.spans)
}

/// `motif-tree-par` only: the same program and goal on the simulator and
/// on one and two threads, plus the two reference rows — the typed
/// skeleton and the sequential fold on the same tree.
fn par_comparisons(case: &BatchCase, program: &strand_parse::Program, v: &mut Values) {
    let run_ms = |cfg: MachineConfig| {
        median_ns(&case.engine, 3, || {
            run_parsed_goal(program, &case.goal, cfg.clone()).expect("comparison run")
        }) / 1e6
    };
    let base = MachineConfig::with_nodes(PAR_NODES).seed(case.cfg.seed);
    let sim = run_ms(base.clone());
    let t1 = run_ms(base.clone().parallel(1));
    let t2 = run_ms(base.parallel(PAR_THREADS));
    v.set("parallel.run_ms_sim", sim);
    v.set("parallel.run_ms_t1", t1);
    v.set("parallel.run_ms_t2", t2);
    v.set("parallel.speedup_t2_over_sim", sim / t2);
    v.set("parallel.overhead_t1_over_sim", t1 / sim);
    probes::wake_park(v);

    fn to_skeleton(t: &OpTree) -> skeletons::Tree<i64, u32> {
        match t {
            OpTree::Leaf(x) => skeletons::Tree::Leaf(*x),
            OpTree::Node(op, l, r) => skeletons::Tree::node(*op, to_skeleton(l), to_skeleton(r)),
        }
    }
    let tree = case.tree.as_ref().expect("motif-tree-par keeps its tree");
    let pool = skeletons::Pool::new(PAR_THREADS as usize, true);
    // `reduce` consumes its tree; build the copies outside the timing.
    let mut copies: Vec<_> = (0..3).map(|_| to_skeleton(tree)).collect();
    let skeleton_ns = median_ns(&case.engine, copies.len(), || {
        let out = skeletons::reduce(
            &pool,
            copies.pop().expect("one copy per repeat"),
            skeletons::Labeling::Random(case.cfg.seed),
            |op, l, r| arith_apply(*op, l, r),
        );
        assert_eq!(out.value, case.expect, "skeleton disagrees with the fold");
    });
    v.set("skeletons.tree_reduce_ms", skeleton_ns / 1e6);
    let tree_src = tree.src(&arith_op_src);
    let sequential_ns = median_ns(&case.engine, 3, || {
        assert_eq!(motifs::sequential_reduce(&tree_src), case.expect);
    });
    v.set("baseline.sequential_reduce_ms", sequential_ns / 1e6);
}
