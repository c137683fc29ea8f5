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
//! `motif-bench parallel-json` records the rows (`out/BENCH_parallel.json`);
//! the committed `BENCH_parallel_sharded.json` is a full recording.

use crate::series::Series;
use crate::table::Table;
use motifs::{random_tree_src, tree_reduce_1};
use std::time::{Duration, Instant};
use strand_core::{StrandResult, Term};
use strand_machine::{run_parsed_goal_with_lib, ForeignLib, GoalResult, MachineConfig};
use strand_parse::{parse_program, Program};

/// Timed-work foreign library: `nspin(Ns, Done)` burns CPU for `Ns`
/// nanoseconds, `nsleep(Ns, Done)` blocks for `Ns` nanoseconds. Both bind
/// `Done := done` and charge one virtual tick — they model node work whose
/// cost is real time, not virtual time.
pub fn timed_work_lib() -> ForeignLib {
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
    let program = tree_reduce_1()
        .apply_src(&eval)
        .expect("TR1 applies to timed eval");
    let tree = random_tree_src(leaves, 9);
    (program, format!("create(8, reduce({tree}, Value))"))
}

/// Progressive RNA alignment on Tree-Reduce-1 with the native aligner as a
/// pure foreign procedure (also the compiled series' `seqalign` row).
pub(crate) fn seqalign_workload(leaves: usize) -> (Program, String, ForeignLib) {
    use seqalign::{align_lib, generate_family, guide_tree, guide_tree_src, FamilyParams};
    let params = seqalign::ScoreParams::default();
    let fam = generate_family(&FamilyParams {
        leaves,
        ancestral_len: 80,
        seed: 21,
        ..Default::default()
    });
    let guide = guide_tree(&fam.sequences, &params);
    let tree_src = guide_tree_src(&guide, &fam.sequences);
    let program = tree_reduce_1()
        .apply_src(seqalign::ALIGN_EVAL)
        .expect("TR1 applies to align eval");
    (
        program,
        format!("create(8, reduce({tree_src}, Value))"),
        align_lib(params, 8),
    )
}

fn timed_run(
    program: &Program,
    goal: &str,
    cfg: MachineConfig,
    lib: &ForeignLib,
) -> (GoalResult, u64) {
    let t0 = Instant::now();
    let r = run_parsed_goal_with_lib(program, goal, cfg, lib).expect("workload runs");
    (r, t0.elapsed().as_nanos() as u64)
}

/// Run the B-series. `quick` shrinks the workloads and stops at 2 threads —
/// the CI smoke configuration; the full run sweeps 1/2/4/8 threads.
pub fn b1_parallel(quick: bool) -> Series {
    strand_parallel::install();
    let thread_counts: &[u32] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let (hops, hop_ns) = if quick {
        (16, 500_000)
    } else {
        (48, 1_000_000)
    };
    let (leaves, work_ns) = if quick {
        (16, 1_000_000)
    } else {
        (64, 3_000_000)
    };
    let align_leaves = if quick { 8 } else { 16 };

    let timed = timed_work_lib();
    let (align_prog, align_goal, align) = seqalign_workload(align_leaves);
    let workloads: Vec<(&'static str, Program, String, &ForeignLib)> = vec![
        {
            let (p, g) = ring_workload(hops, hop_ns);
            ("ring", p, g, &timed)
        },
        {
            let (p, g) = tree_workload(leaves, work_ns, "nspin");
            ("tree-reduce", p, g, &timed)
        },
        {
            let (p, g) = tree_workload(leaves, work_ns, "nsleep");
            ("tree-reduce-io", p, g, &timed)
        },
        ("seqalign", align_prog, align_goal, &align),
    ];

    let mut series = Series::new("parallel");
    for (name, program, goal, lib) in &workloads {
        let cfg = MachineConfig::with_nodes(8).seed(7);
        let (_base, base_ns) = timed_run(program, goal, cfg.clone(), lib);
        let mut row = |backend: &str, threads: u32, wall_ns: u64| {
            series.push([
                ("workload", (*name).into()),
                ("backend", backend.into()),
                ("threads", threads.into()),
                ("wall_ns", wall_ns.into()),
                ("speedup", (base_ns as f64 / wall_ns.max(1) as f64).into()),
            ]);
        };
        row("simulator", 1, base_ns);
        for &threads in thread_counts {
            let (_r, wall_ns) = timed_run(program, goal, cfg.clone().parallel(threads), lib);
            row("parallel", threads, wall_ns);
        }
    }
    series
}

/// Render the B-series as an experiment table.
pub fn b1_parallel_table(quick: bool) -> Table {
    let series = b1_parallel(quick);
    let mut t = Table::new(
        "B1: wall-clock speedup, multi-threaded backend vs simulator",
        &["workload", "backend", "threads", "wall ms", "speedup"],
    );
    for p in &series.points {
        t.row(vec![
            p.text("workload").to_string(),
            p.text("backend").to_string(),
            p.int("threads").to_string(),
            format!("{:.2}", p.int("wall_ns") as f64 / 1e6),
            format!("{:.2}x", p.real("speedup")),
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
    use crate::series::{self, Point};

    const WORKLOADS: [&str; 4] = ["ring", "tree-reduce", "tree-reduce-io", "seqalign"];

    fn rows<'a>(s: &'a Series, workload: &str, backend: &str) -> Vec<&'a Point> {
        s.points
            .iter()
            .filter(|p| p.text("workload") == workload && p.text("backend") == backend)
            .collect()
    }

    #[test]
    fn quick_points_cover_every_workload_and_backend() {
        let s = b1_parallel(true);
        for w in WORKLOADS {
            assert_eq!(rows(&s, w, "simulator").len(), 1);
            assert!(rows(&s, w, "parallel")
                .iter()
                .any(|p| p.int("threads") == 2));
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = b1_parallel(true);
        let json = series::render(&s);
        assert!(json.contains("\"workload\": \"tree-reduce-io\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let parsed = series::parse(&json).expect("the recorded series re-parses");
        assert_eq!(parsed.points.len(), s.points.len());
        assert_eq!(series::render(&parsed), json);
    }

    #[test]
    fn committed_snapshot_parses_and_is_self_consistent() {
        // No performance threshold: the B-series is host-shaped. What the
        // gate pins is that the snapshot is readable, complete, and that
        // every speedup is the ratio of the two wall-clocks it sits beside.
        let s = series::committed("parallel").expect("committed snapshot");
        for w in WORKLOADS {
            assert_eq!(rows(&s, w, "simulator").len(), 1, "{w}: simulator rows");
            assert!(!rows(&s, w, "parallel").is_empty(), "{w}: parallel rows");
        }
        for p in &s.points {
            let w = p.text("workload");
            let base = rows(&s, w, "simulator")
                .first()
                .unwrap_or_else(|| panic!("row of unknown workload {w}"))
                .int("wall_ns");
            let ratio = base as f64 / p.int("wall_ns") as f64;
            assert!(
                (p.real("speedup") - ratio).abs() < 0.000_051,
                "{w} at {} threads: speedup {} beside a wall-clock ratio of {ratio}",
                p.int("threads"),
                p.real("speedup")
            );
        }
    }
}
