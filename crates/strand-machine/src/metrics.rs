//! Execution metrics for the simulated multicomputer.
//!
//! Every quantity the paper's qualitative claims refer to is measured here:
//! per-node busy time (load balance, E1), live tracked processes (concurrent
//! node evaluations, E2), the inter-node message matrix with per-functor
//! counts (communication bound, E3), and the virtual-time makespan (speedup,
//! E4).

use std::collections::HashMap;
use strand_core::{Atom, FxHashMap, NodeId, Time};

/// Metrics collected during a run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Reductions performed by each node.
    pub reductions: Vec<u64>,
    /// Virtual time each node spent reducing (excludes idle waiting).
    pub busy: Vec<Time>,
    /// Total process suspensions (dataflow waits).
    pub suspensions: u64,
    /// `messages[from][to]`: cross-node deliveries (spawns + stream sends +
    /// binding notifications).
    pub messages: Vec<Vec<u64>>,
    /// Cross-node stream (port) messages keyed by the message's principal
    /// functor — experiment E3 counts `value` messages here.
    pub port_msgs_by_functor: FxHashMap<Atom, u64>,
    /// Total cross-node port messages.
    pub port_msgs_cross: u64,
    /// Total local (same-node) port messages.
    pub port_msgs_local: u64,
    /// Remote process spawns (`Goal@J` with J on another node).
    pub remote_spawns: u64,
    /// Per-node peak of live tracked processes (see
    /// [`MachineConfig::tracked`](crate::MachineConfig)).
    pub peak_tracked: Vec<u64>,
    /// Per-node current live tracked processes (internal gauge).
    pub live_tracked: Vec<u64>,
    /// Per-node peak run-queue length.
    pub peak_queue: Vec<usize>,
    /// Final makespan: the largest node clock when the machine stopped.
    pub makespan: Time,
    /// Total reductions across nodes.
    pub total_reductions: u64,
    /// Named per-node gauges (maximum value seen); fed by the `gauge/2`
    /// builtin. Experiment E2 uses a `pending` gauge for Tree-Reduce-2's
    /// queued-value memory.
    pub gauges: HashMap<String, Vec<u64>>,
    /// Deliveries lost to fault injection (includes sends to dead nodes).
    pub msgs_dropped: u64,
    /// Deliveries duplicated by fault injection.
    pub msgs_duplicated: u64,
    /// Deliveries held up by a delay fault.
    pub msgs_delayed: u64,
    /// Nodes killed by the fault plan during the run.
    pub nodes_crashed: u64,
    /// Supervisor restarts observed: reductions of the Supervise motif's
    /// heartbeat-timeout rule (the `sup_restart/0` builtin). Counted by
    /// every engine, so fault runs can report recovery activity.
    pub supervisor_restarts: u64,
    /// Rule attempts that ran a full head match (both tiers; excludes rules
    /// skipped by the first-argument index).
    pub rules_tried: u64,
    /// Rules the first-argument index skipped without a match attempt
    /// (compiled tier only).
    pub index_hits: u64,
    /// Rules the index was consulted on but could not rule out (compiled
    /// tier only).
    pub index_misses: u64,
    /// Rule-based reductions dispatched through the compiled tier.
    pub compiled_reductions: u64,
    /// Rule-based reductions dispatched through the reference interpreter.
    pub interpreted_reductions: u64,
    /// Suspensions per procedure name (`Atom` keys keep this off the
    /// allocation hot path: bumping a counter is an `Arc` clone at worst).
    pub susp_by_proc: FxHashMap<Atom, u64>,
    /// Client sessions opened against a resident machine (`strand-serve`).
    pub sessions_opened: u64,
    /// Client sessions closed (each makes a collection due).
    pub sessions_closed: u64,
    /// External requests admitted into a resident machine.
    pub requests_admitted: u64,
    /// External requests rejected by backpressure (retry-after issued).
    pub requests_rejected: u64,
    /// Store slots freed by a resident fleet's collections.
    pub vars_reclaimed: u64,
    /// Collections a resident fleet finished.
    pub collections: u64,
    /// The longest collection, hand-over to verdict, in microseconds.
    pub collect_us_max: u64,
    /// Times a resident worker reached global quiescence and parked instead
    /// of exiting (the idle-vs-terminated distinction, DESIGN.md §9).
    pub idle_parks: u64,
    /// `after_unless` deadlines registered: the simulator's `'$timer'`
    /// items, and every deadline a fleet burst harvests, whether it goes
    /// into the deadline queue or was cancelled within its burst.
    pub timers_armed: u64,
    /// Timer deadlines that fired: the cancel flag was still unbound when
    /// the deadline ran, so the timeout value was delivered.
    pub timers_fired: u64,
    /// Timer deadlines cancelled before firing: the cancel flag arrived
    /// first and the deadline evaporated (the simulator's scheduler filter,
    /// a fleet burst's harvest when the flag was bound within the burst
    /// that armed it, the queue's prune, or a fired event that found its
    /// flag bound).
    pub timers_cancelled: u64,
    /// Times a parked worker fired the deadline queue's earliest instant:
    /// a wall deadline fell due on a resident fleet, or a batch fleet's
    /// clock jumped at quiescence.
    pub wakes_for_deadline: u64,
    /// Real (wall-clock) duration of a fleet run in nanoseconds, from the
    /// workers' spawn to their join; 0 on the simulator. Unlike every
    /// virtual-time metric above this depends on the host.
    pub wall_ns: u64,
    /// The fleet's worker threads; 0 on the simulator, which fills in none
    /// of these three.
    pub threads_used: u32,
    /// Reductions each fleet worker performed (its shard's
    /// [`total_reductions`](Metrics::total_reductions)), in worker order;
    /// empty on the simulator.
    pub worker_jobs: Vec<u64>,
    /// Ingress batches a resident fleet reduced on the injecting thread: the
    /// destination worker was parked, so the caller took its machine and
    /// ran the worker's burst itself.
    pub ingress_bursts: u64,
    /// Ingress batches sent down a busy worker's channel instead.
    pub ingress_handoffs: u64,
    /// Empty batches an ingress lender sent to wake the owner of the
    /// machine it borrowed: its burst left work, or armed a live deadline
    /// the owner must re-plan its park around.
    pub ingress_wakes: u64,
}

impl Metrics {
    pub(crate) fn new(nodes: usize) -> Metrics {
        Metrics {
            reductions: vec![0; nodes],
            busy: vec![0; nodes],
            messages: vec![vec![0; nodes]; nodes],
            peak_tracked: vec![0; nodes],
            live_tracked: vec![0; nodes],
            peak_queue: vec![0; nodes],
            ..Default::default()
        }
    }

    pub(crate) fn count_message(&mut self, from: NodeId, to: NodeId) {
        if from != to {
            self.messages[from.0 as usize][to.0 as usize] += 1;
        }
    }

    pub(crate) fn track_spawn(&mut self, node: NodeId) {
        let n = node.0 as usize;
        self.live_tracked[n] += 1;
        if self.live_tracked[n] > self.peak_tracked[n] {
            self.peak_tracked[n] = self.live_tracked[n];
        }
    }

    pub(crate) fn track_done(&mut self, node: NodeId) {
        let n = node.0 as usize;
        debug_assert!(self.live_tracked[n] > 0, "tracked gauge underflow");
        self.live_tracked[n] = self.live_tracked[n].saturating_sub(1);
    }

    pub(crate) fn record_gauge(&mut self, name: &str, node: NodeId, value: u64) {
        let nodes = self.reductions.len();
        let g = self
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| vec![0; nodes]);
        let slot = &mut g[node.0 as usize];
        if value > *slot {
            *slot = value;
        }
    }

    /// Cross-node port messages whose principal functor is `functor`.
    pub fn port_msgs_for(&self, functor: &str) -> u64 {
        self.port_msgs_by_functor
            .get(&Atom::new(functor))
            .copied()
            .unwrap_or(0)
    }

    /// Suspensions by procedure, most first, ties by name: the order to
    /// render them in (the map's own order varies with what the process
    /// interned first).
    pub fn suspensions_by_procedure(&self) -> Vec<(Atom, u64)> {
        let mut by_proc: Vec<(Atom, u64)> =
            self.susp_by_proc.iter().map(|(p, n)| (*p, *n)).collect();
        by_proc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_proc
    }

    /// Largest value a named gauge reached on any node (0 if never set).
    pub fn max_gauge(&self, name: &str) -> u64 {
        self.gauges
            .get(name)
            .and_then(|g| g.iter().copied().max())
            .unwrap_or(0)
    }

    /// Total cross-node messages of any kind.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().flatten().sum()
    }

    /// Load imbalance: max node busy time divided by mean busy time.
    /// 1.0 is perfect balance; returns `None` when nothing ran.
    pub fn imbalance(&self) -> Option<f64> {
        let max = *self.busy.iter().max()? as f64;
        let sum: u64 = self.busy.iter().sum();
        if sum == 0 {
            return None;
        }
        let mean = sum as f64 / self.busy.len() as f64;
        Some(max / mean)
    }

    /// Busy fraction: total busy time over (nodes × makespan). 1.0 means
    /// every node computed for the whole run.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let sum: u64 = self.busy.iter().sum();
        sum as f64 / (self.makespan as f64 * self.busy.len() as f64)
    }

    /// Largest per-node peak of live tracked processes.
    pub fn max_peak_tracked(&self) -> u64 {
        self.peak_tracked.iter().copied().max().unwrap_or(0)
    }

    /// Fold another worker's metrics into this one (sharded execution).
    /// Counters add; per-node peaks and gauges take maxima. Both are exact,
    /// not approximations: each node's queue, busy time and tracked gauge
    /// live entirely on the worker that owns the node, so for any given
    /// index at most one operand is nonzero.
    pub fn merge(&mut self, other: &Metrics) {
        fn add_vec<T: Copy + std::ops::AddAssign>(a: &mut [T], b: &[T]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
        fn max_vec<T: Copy + Ord>(a: &mut [T], b: &[T]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x = (*x).max(*y);
            }
        }
        add_vec(&mut self.reductions, &other.reductions);
        add_vec(&mut self.busy, &other.busy);
        self.suspensions += other.suspensions;
        for (row, orow) in self.messages.iter_mut().zip(&other.messages) {
            add_vec(row, orow);
        }
        for (name, count) in &other.port_msgs_by_functor {
            *self.port_msgs_by_functor.entry(*name).or_insert(0) += count;
        }
        self.port_msgs_cross += other.port_msgs_cross;
        self.port_msgs_local += other.port_msgs_local;
        self.remote_spawns += other.remote_spawns;
        max_vec(&mut self.peak_tracked, &other.peak_tracked);
        add_vec(&mut self.live_tracked, &other.live_tracked);
        max_vec(&mut self.peak_queue, &other.peak_queue);
        self.makespan = self.makespan.max(other.makespan);
        self.total_reductions += other.total_reductions;
        let nodes = self.reductions.len();
        for (name, gauge) in &other.gauges {
            let g = self
                .gauges
                .entry(name.clone())
                .or_insert_with(|| vec![0; nodes]);
            max_vec(g, gauge);
        }
        self.msgs_dropped += other.msgs_dropped;
        self.msgs_duplicated += other.msgs_duplicated;
        self.msgs_delayed += other.msgs_delayed;
        self.nodes_crashed += other.nodes_crashed;
        self.supervisor_restarts += other.supervisor_restarts;
        self.rules_tried += other.rules_tried;
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.compiled_reductions += other.compiled_reductions;
        self.interpreted_reductions += other.interpreted_reductions;
        self.sessions_opened += other.sessions_opened;
        self.sessions_closed += other.sessions_closed;
        self.requests_admitted += other.requests_admitted;
        self.requests_rejected += other.requests_rejected;
        self.vars_reclaimed += other.vars_reclaimed;
        self.collections += other.collections;
        self.collect_us_max = self.collect_us_max.max(other.collect_us_max);
        self.idle_parks += other.idle_parks;
        self.ingress_bursts += other.ingress_bursts;
        self.ingress_handoffs += other.ingress_handoffs;
        self.ingress_wakes += other.ingress_wakes;
        self.timers_armed += other.timers_armed;
        self.timers_fired += other.timers_fired;
        self.timers_cancelled += other.timers_cancelled;
        self.wakes_for_deadline += other.wakes_for_deadline;
        for (name, count) in &other.susp_by_proc {
            *self.susp_by_proc.entry(*name).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_computes_max_over_mean() {
        let mut m = Metrics::new(4);
        m.busy = vec![10, 10, 10, 30];
        let imb = m.imbalance().unwrap();
        assert!((imb - 30.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_none_when_idle() {
        let m = Metrics::new(4);
        assert!(m.imbalance().is_none());
    }

    #[test]
    fn message_matrix_ignores_self_sends() {
        let mut m = Metrics::new(2);
        m.count_message(NodeId(0), NodeId(1));
        m.count_message(NodeId(1), NodeId(1));
        assert_eq!(m.total_messages(), 1);
    }

    #[test]
    fn tracked_gauge_peaks() {
        let mut m = Metrics::new(1);
        m.track_spawn(NodeId(0));
        m.track_spawn(NodeId(0));
        m.track_done(NodeId(0));
        m.track_spawn(NodeId(0));
        assert_eq!(m.peak_tracked[0], 2);
        assert_eq!(m.live_tracked[0], 2);
        assert_eq!(m.max_peak_tracked(), 2);
    }

    #[test]
    fn rule_counters_merge_additively() {
        let mut a = Metrics::new(1);
        a.rules_tried = 5;
        a.index_hits = 2;
        a.compiled_reductions = 3;
        a.susp_by_proc.insert(Atom::new("eval"), 4);
        let mut b = Metrics::new(1);
        b.rules_tried = 7;
        b.index_misses = 1;
        b.interpreted_reductions = 2;
        b.susp_by_proc.insert(Atom::new("eval"), 1);
        b.susp_by_proc.insert(Atom::new("reduce"), 6);
        a.merge(&b);
        assert_eq!(a.rules_tried, 12);
        assert_eq!(a.index_hits, 2);
        assert_eq!(a.index_misses, 1);
        assert_eq!(a.compiled_reductions, 3);
        assert_eq!(a.interpreted_reductions, 2);
        assert_eq!(a.susp_by_proc[&Atom::new("eval")], 5);
        assert_eq!(a.susp_by_proc[&Atom::new("reduce")], 6);
    }

    #[test]
    fn serve_counters_merge_additively() {
        let mut a = Metrics::new(2);
        a.sessions_opened = 10;
        a.sessions_closed = 9;
        a.requests_admitted = 40;
        a.vars_reclaimed = 18;
        a.collections = 2;
        a.collect_us_max = 90;
        let mut b = Metrics::new(2);
        b.sessions_opened = 3;
        b.sessions_closed = 4;
        b.requests_rejected = 2;
        b.vars_reclaimed = 7;
        b.collections = 3;
        b.collect_us_max = 40;
        b.idle_parks = 5;
        a.ingress_bursts = 30;
        a.ingress_handoffs = 1;
        b.ingress_bursts = 8;
        b.ingress_handoffs = 2;
        a.ingress_wakes = 4;
        b.ingress_wakes = 1;
        a.merge(&b);
        assert_eq!(a.sessions_opened, 13);
        assert_eq!(a.sessions_closed, 13);
        assert_eq!(a.requests_admitted, 40);
        assert_eq!(a.requests_rejected, 2);
        assert_eq!(a.vars_reclaimed, 25);
        assert_eq!((a.collections, a.collect_us_max), (5, 90));
        assert_eq!(a.idle_parks, 5);
        assert_eq!((a.ingress_bursts, a.ingress_handoffs), (38, 3));
        assert_eq!(a.ingress_wakes, 5);
    }

    #[test]
    fn timer_counters_merge_additively() {
        let mut a = Metrics::new(2);
        a.timers_armed = 6;
        a.timers_fired = 2;
        a.wakes_for_deadline = 1;
        let mut b = Metrics::new(2);
        b.timers_armed = 4;
        b.timers_fired = 1;
        b.timers_cancelled = 3;
        b.wakes_for_deadline = 2;
        a.merge(&b);
        assert_eq!(a.timers_armed, 10);
        assert_eq!(a.timers_fired, 3);
        assert_eq!(a.timers_cancelled, 3);
        assert_eq!(a.wakes_for_deadline, 3);
    }

    #[test]
    fn utilization_bounds() {
        let mut m = Metrics::new(2);
        m.busy = vec![50, 100];
        m.makespan = 100;
        assert!((m.utilization() - 0.75).abs() < 1e-12);
    }
}
