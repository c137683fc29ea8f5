//! The names this benchmark reports, in the order `BENCHMARK.json` lists
//! them. `tests/contract.rs` holds the two in step.

use crate::stats::{ms, percentile};

pub const WORKLOADS: &[&str] = &[
    "dispatch-tree",
    "eval-chain",
    "motif-tree-par",
    "serve-steady",
    "serve-churn",
    "serve-supervised",
];

/// End-to-end metrics `(name, unit)`: reported by every workload, measured
/// with tracing off. One *operation* is one whole pipeline run (source
/// text → checked value) on the batch workloads, one request round trip on
/// `serve-steady` / `serve-supervised`, one connect → 4 requests → close
/// session on `serve-churn`.
///
/// The host is a shared two-core VM whose neighbours slow it by up to 2x
/// for seconds to minutes at a time. What is done about it: simulator
/// times are reported at the host's calm speed (`batch::kernel_ns`);
/// throughput is that of the better tenths of the run; set-up is the
/// quicker of repeats taken on both sides of the window; memory is read
/// after a fixed amount of work. The tail (`op_ms_p90`) and the CPU cost
/// (`cpu_ms_per_op`) still did not repeat within any bound on the serve
/// workloads and are reported per layer, without one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. A layer the
/// workload never calls reports 0 (no time spent, no work counted).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.parallelism", "count"),
    // the whole operation: demoted from end to end (see above)
    ("op_ms_p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    // strand-parse
    ("parse.program_us", "us"),
    ("parse.goal_us", "us"),
    ("parse.goal_mb_per_s", "MB/s"),
    ("parse.compile_us", "us"),
    ("parse.request_line_ns", "ns"),
    // transform + motifs
    ("transform.apply_us", "us"),
    ("transform.rules_out", "count"),
    // strand-machine
    ("machine.lower_us", "us"),
    ("machine.new_us", "us"),
    ("machine.run_ms", "ms"),
    ("machine.ns_per_reduction", "ns"),
    ("machine.reductions", "count"),
    ("machine.reductions_per_s", "1/s"),
    ("machine.suspensions", "count"),
    ("machine.rules_tried_per_reduction", "ratio"),
    ("machine.index_hit_ratio", "ratio"),
    ("machine.peak_queue", "count"),
    ("machine.allocs_per_reduction", "ratio"),
    ("machine.interp_over_compiled", "ratio"),
    // strand-core
    ("core.store_cycle_ns", "ns"),
    ("core.handle_cycle_ns", "ns"),
    ("core.shared_cycle_ns_1t", "ns"),
    ("core.shared_cycle_ns_2t", "ns"),
    ("core.match_args_ns", "ns"),
    // vendor/crossbeam
    ("channel.send_recv_ns_1t", "ns"),
    ("channel.pingpong_us_2t", "us"),
    ("deque.push_pop_ns", "ns"),
    ("deque.steal_ns", "ns"),
    // strand-parallel
    ("parallel.run_ms", "ms"),
    ("parallel.run_ms_sim", "ms"),
    ("parallel.run_ms_t1", "ms"),
    ("parallel.run_ms_t2", "ms"),
    ("parallel.speedup_t2_over_sim", "ratio"),
    ("parallel.overhead_t1_over_sim", "ratio"),
    ("parallel.cross_msgs", "count"),
    ("parallel.worker_jobs_skew", "ratio"),
    ("parallel.wake_park_us_p50", "us"),
    // strand-serve and the sockets under it
    ("serve.boot_ms", "ms"),
    ("serve.request_inproc_us_p50", "us"),
    ("serve.request_inproc_us_p99", "us"),
    ("serve.socket_overhead_us", "us"),
    ("serve.latency_us_p50", "us"),
    ("serve.latency_us_p99", "us"),
    ("serve.latency_us_p999", "us"),
    ("serve.connect_first_reply_us_p50", "us"),
    ("serve.open_close_us", "us"),
    ("serve.idle_parks_per_request", "ratio"),
    ("serve.vars_reclaimed_per_session", "ratio"),
    ("serve.store_slots_end", "count"),
    ("serve.busy_ratio", "ratio"),
    ("serve.timers_armed_per_request", "ratio"),
    ("serve.timers_cancelled_ratio", "ratio"),
    ("client.write_us", "us"),
    ("client.read_wait_us", "us"),
    ("net.loopback_echo_us_p50", "us"),
    // reference rows
    ("skeletons.tree_reduce_ms", "ms"),
    ("baseline.sequential_reduce_ms", "ms"),
    // the trace itself
    ("trace.root_self_us", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// One correctly answered operation.
#[derive(Clone, Copy)]
pub struct Op {
    /// When it completed, from the start of the timed window.
    pub done_ns: u64,
    /// Its wall time.
    pub ns: u64,
}

/// What the timed window of one run produced.
pub struct Measured {
    pub ops: Vec<Op>,
    /// Process CPU time (all threads: engine, service and load generator)
    /// spent inside the window.
    pub cpu_ms: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    fn sorted_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ops.iter().map(|op| op.ns).collect();
        v.sort_unstable();
        v
    }

    /// The `p`-quantile of the operation times, in ms.
    pub fn op_ms(&self, p: f64) -> f64 {
        ms(percentile(&self.sorted_ns(), p))
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.ops.len().max(1) as f64
    }

    /// Operations per second over the better tenths of the window: the
    /// operations, in completion order, are cut into ten blocks of equal
    /// count, and this is the rate of the third-fastest block. Unlike
    /// count / window it does not charge the system for the seconds in
    /// which a neighbour had the host.
    pub fn sustained_ops_per_s(&self) -> f64 {
        const BLOCKS: usize = 10;
        let mut done: Vec<u64> = self.ops.iter().map(|op| op.done_ns).collect();
        done.sort_unstable();
        let per_block = done.len() / BLOCKS;
        if per_block == 0 {
            let window_ns = done.last().copied().unwrap_or(1).max(1);
            return done.len() as f64 * 1e9 / window_ns as f64;
        }
        let mut block_ns: Vec<u64> = (1..=BLOCKS)
            .map(|k| {
                done[k * per_block - 1]
                    - if k == 1 {
                        0
                    } else {
                        done[(k - 1) * per_block - 1]
                    }
            })
            .collect();
        block_ns.sort_unstable();
        per_block as f64 * 1e9 / percentile(&block_ns, 0.2).max(1) as f64
    }
}

/// What an untraced run hands to [`end_to_end`].
pub struct Untraced {
    pub measured: Measured,
    /// Wall time of each repeat of the set-up.
    pub setup_s: Vec<f64>,
    /// `VmHWM` once the set-ups before the window are done. Up to there
    /// every run does the same fixed work, so the reading is comparable
    /// from run to run; the window itself is timed, and on the serve
    /// workloads memory grows with every request an open session makes.
    pub rss_mb: f64,
}

/// A set of named values, checked against one of the tables above.
pub struct Values {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Values {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Values {
        Values {
            table,
            values: vec![0.0; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the benchmark's tables"));
        // A ratio over an empty denominator reads 0, like any layer that
        // did no work.
        self.values[index] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), value)| (*name, *value, *unit))
    }
}

/// The counters every engine run returns, per `ops` operations: one for a
/// batch iteration's own `Metrics`, the requests admitted for a service's.
pub fn set_machine_counts(v: &mut Values, m: &strand_machine::Metrics, ops: f64) {
    let reductions = m.total_reductions as f64;
    v.set("machine.reductions", reductions / ops);
    v.set("machine.suspensions", m.suspensions as f64 / ops);
    v.set(
        "machine.rules_tried_per_reduction",
        m.rules_tried as f64 / reductions,
    );
    v.set(
        "machine.index_hit_ratio",
        m.index_hits as f64 / (m.index_hits + m.index_misses) as f64,
    );
    v.set(
        "machine.peak_queue",
        m.peak_queue.iter().copied().max().unwrap_or(0) as f64,
    );
    v.set(
        "parallel.cross_msgs",
        (m.port_msgs_cross + m.remote_spawns) as f64 / ops,
    );
    if let Some(max) = m.worker_jobs.iter().copied().max() {
        let mean = m.worker_jobs.iter().sum::<u64>() as f64 / m.worker_jobs.len() as f64;
        v.set("parallel.worker_jobs_skew", max as f64 / mean);
    }
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(run: &Untraced) -> Values {
    let mut setup_ns: Vec<u64> = run.setup_s.iter().map(|s| (s * 1e9) as u64).collect();
    setup_ns.sort_unstable();
    let mut v = Values::new(END_TO_END);
    v.set("op_ms_p50", run.measured.op_ms(0.50));
    v.set("ops_per_s", run.measured.sustained_ops_per_s());
    v.set("peak_rss_mb", run.rss_mb);
    // The lower quartile of the repeats: a disturbance only ever slows a
    // set-up down.
    v.set("setup_s", percentile(&setup_ns, 0.25) as f64 / 1e9);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rate_ignores_the_disturbed_blocks() {
        // 100 operations, one per ms, except that the last 40 took 5 ms.
        let mut t = 0;
        let ops: Vec<Op> = (0..100)
            .map(|k| {
                let ns = if k < 60 { 1_000_000 } else { 5_000_000 };
                t += ns;
                Op { done_ns: t, ns }
            })
            .collect();
        let m = Measured {
            ops,
            cpu_ms: 0.0,
            attempted: 100,
            failed: 0,
        };
        assert_eq!(m.sustained_ops_per_s(), 1000.0);
        assert_eq!(m.op_ms(0.50), 1.0);
        assert_eq!(m.op_ms(0.90), 5.0);
    }
}
