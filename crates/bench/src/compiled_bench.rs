//! The `motif-bench compiled-json` mode: compiled-tier speedup tracking.
//!
//! The B-series compares *backends* (simulator vs worker threads); this
//! series compares *rule-execution tiers* inside one backend. Each workload
//! runs twice in the same binary — `--exec interpreted` (the reference
//! interpreter, per-reduction `Pat` walking) and `--exec compiled` (the
//! direct-threaded tier of `strand-machine::exec`) — and `speedup` is
//! interpreted wall-clock over compiled wall-clock.
//!
//! Workloads:
//!
//! * `tree-reduce` — the tree-reduce skeleton over a 256-way opcode
//!   combine table on the deterministic simulator: the ≥5× target. The
//!   combine step dispatches on an integer opcode through a
//!   guard-discriminated decision table (`combine(Op,…) :- Op == k | …`),
//!   which is the rule shape the compiled tier's guard-derived
//!   first-argument index exists for: the interpreter must attempt half
//!   the table per node (a head match plus a guard instantiation and
//!   evaluation per clause), the compiled tier skips non-matching clauses
//!   on a pre-computed key compare. Deliberately rule-dispatch-bound —
//!   rule dispatch is the tier under test; `--stats` on any run shows
//!   where the time goes.
//! * `eval-chain` — a deep `step/3` recursion over a ten-clause
//!   constant-headed table interleaved 1:1 with `:=` builtins: a
//!   mixed-workload row, so the series also records what compiled buys
//!   when shared builtin costs dilute dispatch.
//! * `seqalign` — progressive RNA alignment on the parallel backend. The
//!   native aligner dominates, so the claim here is only "the compiled
//!   tier never loses" (≥1×).
//!
//! `motif-bench compiled-json` records the rows (`out/BENCH_compiled.json`);
//! the committed `BENCH_compiled.json` snapshot at the repo root is a full
//! recording.

use crate::parallel_bench::seqalign_workload;
use crate::series::Series;
use std::time::Instant;
use strand_machine::{run_parsed_goal_with_lib, ExecMode, ForeignLib, MachineConfig};
use strand_parse::{parse_program, Program};

/// Opcode table width of the tree-reduce row. Wide enough that rule
/// dispatch dominates the run; `--stats` confirms the interpreter attempts
/// ~`OPS/2` clauses per combine while the index skips them.
const TREE_OPS: usize = 256;

/// A random binary tree whose internal nodes carry integer opcodes — the
/// same shape as `motifs::random_tree_src`, with the atom operators
/// replaced by indices into the combine table.
fn opcode_tree_src(leaves: u32, seed: u64) -> String {
    let mut rng = strand_core::SplitMix64::new(seed);
    fn go(leaves: u32, rng: &mut strand_core::SplitMix64) -> String {
        if leaves <= 1 {
            format!("leaf({})", 1 + rng.next_below(9))
        } else {
            let left = 1 + rng.next_below((leaves - 1) as u64) as u32;
            let op = rng.next_below(TREE_OPS as u64);
            format!("tree({op}, {}, {})", go(left, rng), go(leaves - left, rng))
        }
    }
    go(leaves, &mut rng)
}

/// The tree-reduce skeleton combining through a guard-dispatched opcode
/// table: per internal node, one `reduce` dispatch, one `combine` dispatch
/// across the table, and one `:=`. Rule dispatch is the dominant cost by
/// construction — it is the tier under test.
fn tree_workload() -> (Program, String) {
    let mut src = String::from(
        "reduce(leaf(X), V) :- V := X.\n\
         reduce(tree(Op, L, R), V) :- reduce(L, VL), reduce(R, VR), combine(Op, VL, VR, V).\n",
    );
    for k in 0..TREE_OPS {
        src.push_str(&format!(
            "combine(Op, L, R, V) :- Op == {k} | V := L + R + {k}.\n"
        ));
    }
    let program = parse_program(&src).expect("opcode tree program parses");
    let tree = opcode_tree_src(512, 7);
    (program, format!("reduce({tree}, Value)"))
}

/// A raw recursion over a ten-clause dispatch table: each step picks one of
/// ten constant-headed clauses, so first-argument indexing skips ~90% of
/// head matches and the interpreter pays for all of them.
fn eval_chain_workload() -> (Program, String) {
    let mut src = String::from(
        "chain(0, Acc, V) :- V := Acc.\n\
         chain(N, Acc, V) :- N > 0 | K := N mod 10, step(K, Acc, A1), N1 := N - 1, chain(N1, A1, V).\n",
    );
    for k in 0..10 {
        src.push_str(&format!("step({k}, A, B) :- B := A + {k}.\n"));
    }
    let program = parse_program(&src).expect("chain program parses");
    (program, "chain(20000, 0, V)".to_string())
}

/// Best-of-batches wall-clock for one (workload, tier) cell — the standard
/// minimum-time estimator: noise only ever slows a batch down.
fn measure(
    program: &Program,
    goal: &str,
    cfg: &MachineConfig,
    lib: &ForeignLib,
    quick: bool,
) -> (u64, u64) {
    let run = || {
        let t0 = Instant::now();
        let r = run_parsed_goal_with_lib(program, goal, cfg.clone(), lib).expect("workload runs");
        (t0.elapsed().as_nanos() as u64, r)
    };
    // Warmup + calibration.
    let (once, first) = run();
    let reductions = first.report.metrics.total_reductions;
    let (per_batch, batches) = if quick {
        (1, 1)
    } else {
        ((100_000_000 / once.max(1)).clamp(1, 30), 5)
    };
    let mut best = u64::MAX;
    for _ in 0..batches {
        let mut elapsed = 0u64;
        for _ in 0..per_batch {
            let (ns, r) = run();
            elapsed += ns;
            assert_eq!(
                r.report.metrics.total_reductions, reductions,
                "workload must be deterministic"
            );
        }
        best = best.min(elapsed / per_batch);
    }
    (best, reductions)
}

/// Run the compiled-tier series. `quick` shrinks the sampling for CI smoke;
/// rows and workloads are identical either way.
pub fn b2_compiled(quick: bool) -> Series {
    strand_parallel::install();
    let empty = ForeignLib::new();
    let (tree_prog, tree_goal) = tree_workload();
    let (chain_prog, chain_goal) = eval_chain_workload();
    let (align_prog, align_goal, align) = seqalign_workload(12);
    let sim = MachineConfig::with_nodes(1).seed(7);
    let par = MachineConfig::with_nodes(8).seed(7).parallel(2);
    let cells: Vec<(&str, &Program, &str, MachineConfig, &ForeignLib, &str)> = vec![
        (
            "tree-reduce",
            &tree_prog,
            &tree_goal,
            sim.clone(),
            &empty,
            "simulator",
        ),
        (
            "eval-chain",
            &chain_prog,
            &chain_goal,
            sim,
            &empty,
            "simulator",
        ),
        (
            "seqalign",
            &align_prog,
            &align_goal,
            par,
            &align,
            "parallel",
        ),
    ];

    let mut series = Series::new("compiled");
    for (name, program, goal, cfg, lib, backend) in &cells {
        // Quick mode (CI smoke): one warmup + one timed run per cell is
        // enough to prove the rows exist and both tiers complete; the
        // committed snapshot is a full local recording.
        let (interp_ns, interp_red) = measure(
            program,
            goal,
            &cfg.clone().exec(ExecMode::Interpreted),
            lib,
            quick,
        );
        let (comp_ns, comp_red) = measure(
            program,
            goal,
            &cfg.clone().exec(ExecMode::Compiled),
            lib,
            quick,
        );
        assert_eq!(
            interp_red, comp_red,
            "{name}: tiers must perform identical reductions"
        );
        for (exec, wall_ns) in [("interpreted", interp_ns), ("compiled", comp_ns)] {
            series.push([
                ("workload", (*name).into()),
                ("exec", exec.into()),
                ("backend", (*backend).into()),
                ("wall_ns", wall_ns.into()),
                ("reductions", interp_red.into()),
                ("speedup", (interp_ns as f64 / wall_ns.max(1) as f64).into()),
            ]);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use crate::series;

    #[test]
    fn committed_snapshot_parses_and_meets_targets() {
        // The repo-root BENCH_compiled.json is a recorded artifact: it must
        // parse and must still show the targets — tree-reduce ≥5× on the
        // simulator, seqalign ≥1× under the parallel backend (small
        // tolerance for recording noise).
        let s = series::committed("compiled").expect("committed snapshot");
        let speedup = |w: &str| {
            s.points
                .iter()
                .find(|p| p.text("workload") == w && p.text("exec") == "compiled")
                .unwrap_or_else(|| panic!("snapshot missing compiled row for {w}"))
                .real("speedup")
        };
        assert!(
            speedup("tree-reduce") >= 5.0,
            "tree-reduce compiled speedup regressed below 5x: {}",
            speedup("tree-reduce")
        );
        assert!(
            speedup("seqalign") >= 0.95,
            "seqalign compiled speedup fell below 1x: {}",
            speedup("seqalign")
        );
    }
}
