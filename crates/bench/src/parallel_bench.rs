//! B-series: wall-clock speedup of the multi-threaded backend.
//!
//! The other experiments measure *virtual* time on the deterministic
//! simulator; this one measures *real* time. Each workload is one motif
//! program run first on the simulator (the baseline) and then on the
//! `strand-parallel` backend at 1, 2, 4 and 8 worker threads; `speedup` is
//! simulator wall-clock over parallel wall-clock.
//!
//! Workloads:
//!
//! * `ring` — a token ring of timed hops. Inherently sequential: the
//!   honesty check. Any backend claiming a speedup here is broken.
//! * `tree-reduce` — Tree-Reduce-1 whose node evaluation *spins* (CPU
//!   burn). Scales with physical cores; on a single-core host it stays
//!   near 1×.
//! * `tree-reduce-io` — the same tree whose node evaluation *sleeps*
//!   (I/O-bound node work, e.g. the paper's telephone-network provisioning
//!   runs blocked on external calls). Sleeps overlap across worker threads
//!   even on one core, so this shows genuine wall-clock speedup anywhere.
//! * `seqalign` — progressive RNA alignment with the native `align_node`
//!   as a pure foreign procedure, computed outside the machine lock.
//!
//! `motif-bench b1-parallel` prints the sweep. One run is one sample, so the
//! table shows the shape of the scaling, not a figure to compare across
//! commits; `perfbench`'s `motif-tree-par` workload is the timed protocol.

use crate::experiments::{rna_family, TreeReduce};
use crate::table::Table;
use motifs::random_tree_src;
use std::time::{Duration, Instant};
use strand_core::{StrandResult, Term};
use strand_machine::{run_parsed_goal_with_lib, ForeignLib, MachineConfig};
use strand_parse::{parse_program, Program};

/// Timed-work foreign library: `nspin(Ns, Done)` burns CPU for `Ns`
/// nanoseconds, `nsleep(Ns, Done)` blocks for `Ns` nanoseconds. Both bind
/// `Done := done` and charge one virtual tick — they model node work whose
/// cost is real time, not virtual time.
fn timed_work_lib() -> ForeignLib {
    fn ns_arg(args: &[Term]) -> StrandResult<u64> {
        match &args[0] {
            Term::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(strand_core::StrandError::Other(format!(
                "timed work wants a non-negative integer nanosecond count, got {other}"
            ))),
        }
    }
    let mut lib = ForeignLib::new();
    lib.register("nspin", 2, |args| {
        let ns = ns_arg(args)?;
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
        Ok((Term::atom("done"), 1))
    });
    lib.register("nsleep", 2, |args| {
        let ns = ns_arg(args)?;
        std::thread::sleep(Duration::from_nanos(ns));
        Ok((Term::atom("done"), 1))
    });
    lib
}

/// A token ring: each hop sleeps, then forwards to the next node. The
/// dependency chain is total, so no backend can go faster than the sum of
/// the hops.
fn ring_workload(hops: u32, hop_ns: u64) -> (Program, String) {
    // 8 = the machine's node count; `nodes/1` is a server-motif operation
    // and this program deliberately stays raw (no transform overhead).
    let src = format!(
        r#"
        token(0, D) :- D := done.
        token(K, D) :- K > 0 | nsleep({hop_ns}, W), hop(W, K, D).
        hop(done, K, D) :- K1 := K - 1, M := K1 mod 8 + 1, token(K1, D)@M.
        "#
    );
    let program = parse_program(&src).expect("ring program parses");
    (program, format!("token({hops}, D)"))
}

/// Tree-Reduce-1 over a random tree whose node evaluation does `work_ns`
/// of timed work (`nspin` or `nsleep`) before combining the operands.
fn tree_workload(leaves: u32, work_ns: u64, timed_proc: &str) -> (Program, String) {
    let eval = format!(
        r#"
        eval(_, L, R, Value) :- data(L), data(R) | {timed_proc}({work_ns}, W), emit(W, L, R, Value).
        emit(done, L, R, Value) :- Value := L + R.
        "#
    );
    let tree = random_tree_src(leaves, 9);
    let tr1 = TreeReduce::Tr1;
    (tr1.program(&eval), tr1.goal(8, &tree))
}

/// Progressive RNA alignment on Tree-Reduce-1 with the native aligner as a
/// pure foreign procedure.
fn seqalign_workload(leaves: usize) -> (Program, String, ForeignLib) {
    use seqalign::{align_lib, guide_tree, guide_tree_src, ScoreParams};
    let params = ScoreParams::default();
    let seqs = rna_family(leaves, 80, 21);
    let tree = guide_tree_src(&guide_tree(&seqs, &params), &seqs);
    let tr1 = TreeReduce::Tr1;
    let program = tr1.program(seqalign::ALIGN_EVAL);
    (program, tr1.goal(8, &tree), align_lib(params, 8))
}

/// Wall-clock nanoseconds of one run.
fn timed_run(program: &Program, goal: &str, cfg: MachineConfig, lib: &ForeignLib) -> u64 {
    let t0 = Instant::now();
    run_parsed_goal_with_lib(program, goal, cfg, lib).expect("workload runs");
    t0.elapsed().as_nanos() as u64
}

/// The sizes of one sweep: thread counts, the ring's hops, the trees'
/// leaves and per-node work, and the alignment family's size.
struct Shape {
    threads: &'static [u32],
    hops: u32,
    hop_ns: u64,
    leaves: u32,
    work_ns: u64,
    align_leaves: usize,
}

/// The sweep `motif-bench b1-parallel` prints.
const FULL: Shape = Shape {
    threads: &[1, 2, 4, 8],
    hops: 48,
    hop_ns: 1_000_000,
    leaves: 64,
    work_ns: 3_000_000,
    align_leaves: 16,
};

/// One row of the B1 sweep: a workload on one backend.
struct ParallelPoint {
    workload: &'static str,
    /// `"simulator"` (the baseline) or `"parallel"`.
    backend: &'static str,
    threads: u32,
    wall_ns: u64,
    /// Simulator wall-clock over this row's wall-clock.
    speedup: f64,
}

fn sweep(shape: &Shape) -> Vec<ParallelPoint> {
    strand_parallel::install();
    let timed = timed_work_lib();
    let (align_prog, align_goal, align) = seqalign_workload(shape.align_leaves);
    let workloads: Vec<(&'static str, Program, String, &ForeignLib)> = vec![
        {
            let (p, g) = ring_workload(shape.hops, shape.hop_ns);
            ("ring", p, g, &timed)
        },
        {
            let (p, g) = tree_workload(shape.leaves, shape.work_ns, "nspin");
            ("tree-reduce", p, g, &timed)
        },
        {
            let (p, g) = tree_workload(shape.leaves, shape.work_ns, "nsleep");
            ("tree-reduce-io", p, g, &timed)
        },
        ("seqalign", align_prog, align_goal, &align),
    ];

    let mut points = Vec::new();
    for (workload, program, goal, lib) in &workloads {
        let cfg = MachineConfig::with_nodes(8).seed(7);
        let base_ns = timed_run(program, goal, cfg.clone(), lib);
        let mut row = |backend, threads, wall_ns: u64| {
            points.push(ParallelPoint {
                workload,
                backend,
                threads,
                wall_ns,
                speedup: base_ns as f64 / wall_ns.max(1) as f64,
            })
        };
        row("simulator", 1, base_ns);
        for &threads in shape.threads {
            let wall_ns = timed_run(program, goal, cfg.clone().parallel(threads), lib);
            row("parallel", threads, wall_ns);
        }
    }
    points
}

/// B1: wall-clock speedup of the multi-threaded backend over the simulator
/// at 1/2/4/8 threads.
pub fn b1_parallel() -> Table {
    let mut t = Table::new(
        "B1: wall-clock speedup, multi-threaded backend vs simulator",
        &["workload", "backend", "threads", "wall ms", "speedup"],
    );
    for p in sweep(&FULL) {
        t.row(vec![
            p.workload.to_string(),
            p.backend.to_string(),
            p.threads.to_string(),
            format!("{:.2}", p.wall_ns as f64 / 1e6),
            format!("{:.2}x", p.speedup),
        ]);
    }
    t.note("speedup = simulator wall-clock / this row's wall-clock.");
    t.note("ring is inherently sequential (honesty check); tree-reduce (spin)");
    t.note("needs physical cores; tree-reduce-io (sleep) overlaps on any host.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_covers_every_workload_on_both_backends() {
        let small = Shape {
            threads: &[1, 2],
            hops: 16,
            hop_ns: 500_000,
            leaves: 16,
            work_ns: 1_000_000,
            align_leaves: 8,
        };
        let points = sweep(&small);
        for w in ["ring", "tree-reduce", "tree-reduce-io", "seqalign"] {
            let rows = |backend: &str| {
                points
                    .iter()
                    .filter(|p| p.workload == w && p.backend == backend)
                    .map(|p| p.threads)
                    .collect::<Vec<_>>()
            };
            assert_eq!(rows("simulator"), [1], "{w}: one simulator row");
            assert!(rows("parallel").contains(&2), "{w}: a 2-thread row");
        }
    }
}
