//! The `motif-bench chaos-json` mode: fault injection on real threads.
//!
//! The A-series fault sweep drives a `FaultPlan` through the deterministic
//! simulator; this series hands the same vocabulary to the parallel
//! backend and measures the same supervised ring on real worker threads:
//! two nodes crashed mid-run, cross-node deliveries dropped and duplicated
//! by the per-delivery dice. Two questions per scenario:
//!
//! * **delivery rate** — distinct tokens printed over tokens expected.
//!   The Supervise contract promises at-least-once delivery, so the rate
//!   must hold at 1.0 under every fault mix; duplicates do not inflate it.
//! * **recovery overhead** — total reductions over the clean run's
//!   reductions at the same thread count. Recovery is retry/backoff work
//!   (failed bootstraps, monitor restarts, replayed wires), so the reduction
//!   ratio is the wall-clock-noise-free proxy for recovery latency.
//!
//! Scenarios: `clean` (calibration), `drop-dup` (10% delivery drop + 5%
//! duplication), `crash` (nodes 2 and 4 crashed a third of the way in,
//! whatever worker hosts them), and `crash-drop-dup` (all three at once —
//! the chaos conformance mix). `motif-bench chaos-json` records the rows
//! (`out/BENCH_chaos.json`); the committed `BENCH_chaos.json` snapshot at
//! the repo root is a full recording.
//!
//! Per row: `overhead` is reductions over a clean calibration run's
//! reductions at this thread count — the recovery-latency proxy;
//! `delivered` counts distinct tokens printed and `expected` is the ring
//! size; `nodes_crashed` / `msgs_dropped` / `msgs_duplicated` say how much
//! the plan actually injected.

use crate::series::Series;
use motifs::supervised_random;
use std::time::Instant;
use strand_machine::{run_parsed_goal, FaultPlan, MachineConfig, RunReport};
use strand_parse::Program;

const RING: u32 = 8;

fn ring_workload() -> (Program, String) {
    let program = supervised_random()
        .apply_src(crate::RING_APP)
        .expect("Supervise o Server o Rand applies");
    (program, format!("create({RING}, token(1))"))
}

fn base_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::with_nodes(RING).seed(47);
    cfg.fail_fast = false;
    // A recovery regression diverges; budget it into `Truncated` (which
    // the snapshot gate then rejects as a delivery-rate miss).
    cfg.max_reductions = 2_000_000;
    cfg
}

fn distinct_tokens(report: &RunReport) -> u64 {
    let mut seen: Vec<&str> = report.output.iter().map(String::as_str).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len() as u64
}

fn run_once(program: &Program, goal: &str, cfg: MachineConfig) -> (u64, RunReport) {
    let t0 = Instant::now();
    let r = run_parsed_goal(program, goal, cfg).expect("chaos workload runs");
    (t0.elapsed().as_nanos() as u64, r.report)
}

/// Run the chaos series. `quick` takes one sample per cell (CI smoke);
/// the full run keeps the fastest of three, which still records the
/// *sample's* fault counters so rows stay internally consistent.
pub fn b3_chaos(quick: bool) -> Series {
    strand_parallel::install();
    let (program, goal) = ring_workload();
    let samples = if quick { 1 } else { 3 };
    let mut series = Series::new("chaos");
    for threads in [2u32, 4] {
        let clean_cfg = base_cfg().parallel(threads);
        let (_, calib) = run_once(&program, &goal, clean_cfg.clone());
        let clean_red = calib.metrics.total_reductions.max(1);
        let crash_at = (clean_red / 3).max(1);
        let lossy = FaultPlan::default().drop_prob(0.10).dup_prob(0.05).seed(61);
        let crash = |plan: FaultPlan| plan.crash(2, crash_at).crash(4, crash_at);
        let cells = [
            ("clean", FaultPlan::default()),
            ("drop-dup", lossy.clone()),
            ("crash", crash(FaultPlan::default().seed(61))),
            ("crash-drop-dup", crash(lossy)),
        ];
        for (name, plan) in cells {
            let cfg = clean_cfg.clone().faults(plan);
            let mut best: Option<(u64, RunReport)> = None;
            for _ in 0..samples {
                let (ns, report) = run_once(&program, &goal, cfg.clone());
                if best.as_ref().is_none_or(|(b, _)| ns < *b) {
                    best = Some((ns, report));
                }
            }
            let (wall_ns, report) = best.expect("at least one sample");
            let m = &report.metrics;
            series.push([
                ("scenario", name.into()),
                ("threads", threads.into()),
                ("wall_ns", wall_ns.into()),
                ("reductions", m.total_reductions.into()),
                (
                    "overhead",
                    (m.total_reductions as f64 / clean_red as f64).into(),
                ),
                ("delivered", distinct_tokens(&report).into()),
                ("expected", RING.into()),
                ("restarts", m.supervisor_restarts.into()),
                ("nodes_crashed", m.nodes_crashed.into()),
                ("msgs_dropped", m.msgs_dropped.into()),
                ("msgs_duplicated", m.msgs_duplicated.into()),
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
        // The repo-root BENCH_chaos.json is a recorded artifact: it must
        // parse and must still show the robustness targets — full delivery
        // under every fault mix, the crashes actually landing, and recovery
        // overhead within an order of magnitude of clean.
        let s = series::committed("chaos").expect("committed snapshot");
        for scenario in ["clean", "drop-dup", "crash", "crash-drop-dup"] {
            assert!(
                s.points.iter().any(|p| p.text("scenario") == scenario),
                "snapshot missing scenario {scenario}"
            );
        }
        for p in &s.points {
            let (scenario, threads) = (p.text("scenario"), p.int("threads"));
            assert_eq!(
                p.int("delivered"),
                p.int("expected"),
                "{scenario} at {threads} threads lost tokens"
            );
            if scenario.contains("crash") {
                assert_eq!(
                    p.int("nodes_crashed"),
                    2,
                    "{scenario} at {threads} threads: both crashes must land"
                );
            }
            assert!(
                p.real("overhead") < 50.0,
                "{scenario} at {threads} threads: recovery overhead blew up to {:.1}x",
                p.real("overhead")
            );
        }
    }
}
