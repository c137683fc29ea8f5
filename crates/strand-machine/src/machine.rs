//! The shard core of the parallel abstract machine.
//!
//! *"The state of a computation is represented by a pool of lightweight
//! processes. Execution proceeds by repeatedly selecting and attempting to
//! reduce processes in this pool"* (§2.1). A [`Machine`] keeps one pool per
//! virtual node it owns, each with a local clock: a reduction costs
//! `REDUCTION_COST` tick (plus explicit `work/1` costs), and anything
//! crossing nodes — a spawned process, a stream message, a binding that
//! wakes a remote process — is delayed by [`MachineConfig::latency`].
//!
//! The paper says nothing about who picks the next process, and neither does
//! this module. It holds the state and everything one reduction does to it
//! (`Machine::step` and what it calls); *selecting* is a driver's job, and
//! the drivers are sibling modules that reach the core through its
//! `pub(crate)` methods and never a field: the simulator (`sim.rs`: every
//! node, in global virtual-time order), the fleet worker (`worker.rs`: the
//! nodes of one shard, in bursts between channel service) and the ingress
//! machine (`ingress.rs`: no node at all). All three lead one life: each
//! machine is a `Shard` of a `SharedWorld`, the simulator shard 0 of a
//! one-shard world, and only its store and its driver tell them apart.

use crate::config::{Delivery, ExecMode, MachineConfig};
use crate::exec::{self, BlockPool, ExecProgram, Scratch, TryResult};
use crate::metrics::Metrics;
use crate::tier::TierRule;
use crate::trace::{goal_text, TraceEvent};
use crate::world::{Deadline, Goal, Job, QItem, Routed, Shard, SharedWorld, WORKER_PID_SHIFT};
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Display;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use strand_core::{
    sym, Atom, Frame, FxHashMap, FxHashSet, NodeId, SplitMix64, StrandError, StrandResult, Term,
    Time, VarId, Waiters,
};
use strand_parse::CompiledProgram;

// Re-exported so every `strand_machine::machine::…` path keeps resolving.
pub use crate::report::{RunReport, RunStatus};
pub use crate::world::StoreHandle;

/// Ticks one reduction costs on its node's clock, before `work/1` costs and
/// the fault plan's slowdown.
const REDUCTION_COST: Time = 1;

/// Wrap a 1-based language node number onto one of `nodes` internal ids.
fn wrap_node(j: i64, nodes: u32) -> NodeId {
    let v = nodes as i64;
    NodeId((((j - 1) % v + v) % v) as u32)
}

/// A process suspended on a set of variables.
#[derive(Clone, Debug)]
pub(crate) struct Susp {
    /// The process as it was popped; a wake re-queues it unchanged but for
    /// its ready time.
    pub item: QItem,
    pub node: NodeId,
    vars: Vec<VarId>,
}

struct Node {
    clock: Time,
    queue: RunQueue,
    /// Whether this machine owns the node: `node mod threads == index`,
    /// decided once so that no spawn divides.
    owned: bool,
}

/// A node's runnable processes, popped in `(ready_at, pid)` order.
///
/// Most arrivals come in that order already — a reduction's spawns are
/// ready at the node's own clock, which only grows, under pids that only
/// grow — and go to the back of a FIFO for free. The rest (a woken process
/// keeps its old pid; a delivery from another node is ready at the
/// sender's time plus latency) go to a heap. The next process is the
/// smaller of the two fronts; keys are unique per node, so the pop order
/// is exactly that of one heap holding everything.
#[derive(Default)]
struct RunQueue {
    /// Sorted: each item's key is above the one before it.
    fifo: VecDeque<QItem>,
    heap: BinaryHeap<QItem>,
    /// The smallest key queued: what `next_event` asks of every node at
    /// every step, answered without touching an item.
    first: Option<(Time, u64)>,
}

fn key(item: &QItem) -> (Time, u64) {
    (item.ready_at, item.pid)
}

impl RunQueue {
    fn push(&mut self, item: QItem) {
        let k = key(&item);
        if self.first.is_none_or(|f| k < f) {
            self.first = Some(k);
        }
        match self.fifo.back() {
            Some(last) if k < key(last) => self.heap.push(item),
            _ => self.fifo.push_back(item),
        }
    }

    /// Whether the next process is the FIFO's front.
    fn fifo_first(&self) -> bool {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => key(f) < key(h),
            (f, _) => f.is_some(),
        }
    }

    fn peek(&self) -> Option<&QItem> {
        if self.fifo_first() {
            self.fifo.front()
        } else {
            self.heap.peek()
        }
    }

    fn pop(&mut self) -> Option<QItem> {
        let item = if self.fifo_first() {
            self.fifo.pop_front()
        } else {
            self.heap.pop()
        };
        self.first = self.peek().map(key);
        item
    }

    fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }

    /// Empty the queue, in pop order.
    fn drain(&mut self) -> Vec<QItem> {
        let mut items: Vec<QItem> = self.fifo.drain(..).collect();
        items.extend(self.heap.drain());
        items.sort_unstable_by_key(key);
        self.first = None;
        items
    }
}

/// What a reduction reads and reuses beside `&mut Machine`: the lowered
/// (direct-threaded) form of the program for the compiled tier, and the
/// hot-path buffers — rule frame, pending-variable sets, match stack and
/// block pool. One per machine, so each shard of a parallel run owns its
/// own and no reduction allocates on the commit path.
struct Lent {
    exec: ExecProgram,
    scratch: Scratch,
}

/// The abstract machine.
pub struct Machine {
    pub(crate) program: Arc<CompiledProgram>,
    /// `reduce` lends it to each reduction as one pointer, taken out and
    /// put back: nothing is moved or dropped per reduction.
    lent: Option<Box<Lent>>,
    pub(crate) config: MachineConfig,
    pub(crate) store: StoreHandle,
    nodes: Vec<Node>,
    suspended: FxHashMap<u64, Susp>,
    shard: Shard,
    pub(crate) rng: SplitMix64,
    /// `metrics.total_reductions` is live: it is this machine's reduction
    /// count, and on a shard what its budget lane publishes.
    pub(crate) metrics: Metrics,
    next_pid: u64,
    pub(crate) output: Vec<String>,
    pub(crate) errors: Vec<(Time, StrandError)>,
    /// Node currently reducing (valid inside a reduction step).
    pub(crate) current_node: NodeId,
    /// Extra virtual-time cost accumulated by builtins (work/1) during the
    /// current reduction.
    pub(crate) extra_cost: Time,
    /// Foreign (native Rust) procedures — the multilingual approach of
    /// §2.1; see [`crate::foreign`].
    pub(crate) foreign: crate::foreign::ForeignRegistry,
    pub(crate) trace: Vec<TraceEvent>,
    /// Fault injection state (see [`crate::config::FaultPlan`]). The fault
    /// RNG is separate from `rng` so faults never perturb `rand_num`.
    pub(crate) fault_rng: SplitMix64,
    crashed: Vec<bool>,
    /// Scheduled crashes of owned nodes not yet fired, as (node, at),
    /// earliest first.
    pending_crashes: Vec<(NodeId, Time)>,
    /// Per-node reduction-cost multiplier (≥ 1; straggler injection).
    slowdown: Vec<u64>,
    /// Resolved snapshots of goals lost with crashed nodes (capped at 16).
    dead_goals: Vec<Term>,
    dead_count: usize,
    /// Terms held outside the fleet (see [`Machine::hold`]).
    pub(crate) held: Vec<Term>,
}

impl Machine {
    /// The one constructor: `shard` is the machine's place in its world
    /// (see [`SharedWorld::attach`]) and `store` the store it runs on.
    pub(crate) fn build(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        store: StoreHandle,
        shard: Shard,
    ) -> Machine {
        let n = config.nodes as usize;
        let map = |j: u32| wrap_node(j as i64, config.nodes);
        let mut pending_crashes: Vec<(NodeId, Time)> = config
            .faults
            .crashes
            .iter()
            .map(|&(j, t)| (map(j), t))
            .collect();
        // A machine fires the crashes of the nodes it owns. Earliest first;
        // ties broken by node index for determinism.
        let owns = |node: usize| node % shard.threads == shard.index;
        pending_crashes.retain(|&(node, _)| owns(node.0 as usize));
        pending_crashes.sort_by_key(|&(node, t)| (t, node.0));
        let mut slowdown = vec![1u64; n];
        for &(j, f) in &config.faults.slowdowns {
            slowdown[map(j).0 as usize] = f.max(1);
        }
        let lent = Lent {
            exec: ExecProgram::lower(&program),
            scratch: Scratch::default(),
        };
        Machine {
            rng: SplitMix64::new(config.seed),
            fault_rng: SplitMix64::new(config.faults.seed),
            crashed: vec![false; n],
            pending_crashes,
            slowdown,
            dead_goals: Vec::new(),
            dead_count: 0,
            metrics: Metrics::new(n),
            nodes: (0..n)
                .map(|i| Node {
                    clock: 0,
                    queue: RunQueue::default(),
                    owned: owns(i),
                })
                .collect(),
            suspended: FxHashMap::default(),
            next_pid: (shard.index as u64) << WORKER_PID_SHIFT,
            shard,
            store,
            output: Vec::new(),
            errors: Vec::new(),
            current_node: NodeId(0),
            extra_cost: 0,
            foreign: crate::foreign::ForeignRegistry::default(),
            trace: Vec::new(),
            program,
            lent: Some(Box::new(lent)),
            config,
            held: Vec::new(),
        }
    }

    /// Access the store (for seeding goals and reading results).
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// Mutable store access (goal construction).
    pub fn store_mut(&mut self) -> &mut StoreHandle {
        &mut self.store
    }

    /// Mutable metrics access: the service shell counts sessions and
    /// admissions on the machine that fronts them, the parallel backend's
    /// workers count idle parks and timer prunes.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Enqueue `goal` on node 1 at time 0.
    pub fn start(&mut self, goal: Term) {
        self.enqueue(Goal::from_term(goal), NodeId(0), 0);
    }

    /// Map a 1-based language node number onto an internal node id.
    pub(crate) fn map_node(&self, j: i64) -> NodeId {
        wrap_node(j, self.config.nodes)
    }

    pub(crate) fn fresh_pid(&mut self) -> u64 {
        self.next_pid += 1;
        self.next_pid
    }

    /// Does this machine own `node`'s run queue and suspensions?
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].owned
    }

    /// The world this machine is a shard of: its ports and `unique_id`
    /// sequence.
    pub(crate) fn world(&self) -> &SharedWorld {
        &self.shard.world
    }

    // --- The pool --------------------------------------------------------

    /// Enqueue a goal on a node at the given ready time.
    pub(crate) fn enqueue(&mut self, goal: Goal, node: NodeId, ready_at: Time) {
        if self.crashed[node.0 as usize] {
            return; // dead nodes accept no work
        }
        // The empty-set check short-circuits the functor walk and hash on
        // the common untracked configuration (every spawn passes through
        // here).
        let tracked = !self.config.tracked.is_empty()
            && goal
                .name()
                .is_some_and(|name| self.config.tracked.contains(&name));
        // Tracked-process gauges are per-owner: a worker receiving a routed
        // job counts the spawn when it arrives (see `absorb`), so spawn/done
        // pairs always land on the same machine.
        if tracked && self.owns(node) {
            self.metrics.track_spawn(node);
        }
        let pid = self.fresh_pid();
        self.push_item(
            node,
            QItem {
                ready_at,
                pid,
                goal,
                tracked,
            },
        );
    }

    /// Hand a runnable process to the scheduler: the node's run queue when this
    /// machine owns the node, the outbox otherwise.
    pub(crate) fn push_item(&mut self, node: NodeId, item: QItem) {
        let nq = &mut self.nodes[node.0 as usize];
        if !nq.owned {
            self.shard.outbox.push(Routed::Job(Job { item, node }));
            return;
        }
        nq.queue.push(item);
        let qlen = nq.queue.len();
        if qlen > self.metrics.peak_queue[node.0 as usize] {
            self.metrics.peak_queue[node.0 as usize] = qlen;
        }
    }

    /// Node `i`'s next process, if it has one.
    #[inline]
    pub(crate) fn peek(&self, i: usize) -> Option<&QItem> {
        self.nodes[i].queue.peek()
    }

    /// Drop node `i`'s next process unreduced.
    pub(crate) fn pop_unreduced(&mut self, i: usize) {
        self.nodes[i].queue.pop();
    }

    /// Empty node `i`'s queue unreduced, in the order it would have run.
    pub(crate) fn take_queue(&mut self, i: usize) -> Vec<QItem> {
        self.nodes[i].queue.drain()
    }

    /// Node `i`'s clock.
    pub(crate) fn clock(&self, i: usize) -> Time {
        self.nodes[i].clock
    }

    /// The largest node clock.
    pub(crate) fn makespan(&self) -> Time {
        self.nodes.iter().map(|n| n.clock).max().unwrap_or(0)
    }

    // --- Lanes: the reduction budget ---------------------------------------

    /// Reductions performed so far, run-global: this machine's own count,
    /// exact, plus what its peers had done when it last began a drain. The
    /// peers' share is at most one drain quantum per peer stale, so
    /// anything that compares against it (the budget, a crash's `at`) fires
    /// that much late at worst — and never on the simulator or a 1-thread
    /// fleet, which have no peer that reduces.
    #[inline]
    pub(crate) fn budget_spent(&self) -> u64 {
        self.metrics.total_reductions + self.shard.peers_spent
    }

    /// Read the peers' budget lanes, once, for the drain about to begin.
    pub(crate) fn sample_peers(&mut self) {
        // Our own lane holds exactly `total_reductions`.
        let all = self.shard.world.reductions();
        self.shard.peers_spent = all - self.metrics.total_reductions;
    }

    fn charge_reduction(&mut self) {
        self.metrics.total_reductions += 1;
        let spent = self.metrics.total_reductions;
        let lane = &self.shard.world.lanes[self.shard.index];
        lane.budget.store(spent, Ordering::Relaxed);
    }

    /// Is the run's reduction budget spent? An error under `fail_fast`.
    #[inline]
    pub(crate) fn over_budget(&self) -> StrandResult<bool> {
        let spent = self.budget_spent();
        if spent < self.config.max_reductions {
            Ok(false)
        } else if self.config.fail_fast {
            Err(StrandError::BudgetExhausted {
                reductions: spent + 1,
            })
        } else {
            Ok(true)
        }
    }

    // --- One reduction's view of the machine ------------------------------

    /// The executing node's clock (valid inside a reduction step).
    pub(crate) fn now(&self) -> Time {
        self.nodes[self.current_node.0 as usize].clock
    }

    /// Is the node dead per the fault plan?
    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.0 as usize]
    }

    /// Roll the fault dice for one cross-node delivery.
    pub(crate) fn edge_delivery(&mut self) -> Delivery {
        self.config.faults.default_edge.roll(&mut self.fault_rng)
    }

    /// Record a lost delivery (fault injection or dead target).
    pub(crate) fn record_drop(&mut self, to: NodeId, goal: &impl Display) {
        self.metrics.msgs_dropped += 1;
        if self.config.record_trace {
            self.trace.push(TraceEvent::Drop {
                time: self.now(),
                from: self.current_node,
                to,
                goal: goal_text(goal),
            });
        }
    }

    /// Spawn a goal from the current reduction (applies cross-node latency,
    /// message accounting, and — for cross-node spawns — fault injection).
    pub(crate) fn spawn(&mut self, goal: Goal, target: NodeId) {
        let now = self.now();
        if self.is_crashed(target) {
            // Delivery to a dead node is lost silently, like the machine it
            // models; the metrics and trace still see it.
            if target != self.current_node {
                self.metrics.count_message(self.current_node, target);
            }
            self.record_drop(target, &goal);
            return;
        }
        let mut duplicate_at = None;
        let ready_at = if target == self.current_node {
            now
        } else {
            self.metrics.count_message(self.current_node, target);
            self.metrics.remote_spawns += 1;
            let arrival = now + self.config.latency;
            match self.edge_delivery() {
                Delivery::Deliver => arrival,
                Delivery::Drop => {
                    self.record_drop(target, &goal);
                    return;
                }
                Delivery::Duplicate => {
                    self.metrics.msgs_duplicated += 1;
                    if self.config.record_trace {
                        self.trace.push(TraceEvent::Duplicate {
                            time: now,
                            from: self.current_node,
                            to: target,
                            goal: goal_text(&goal),
                        });
                    }
                    duplicate_at = Some(arrival + self.config.latency);
                    arrival
                }
                Delivery::Delay(extra) => {
                    self.metrics.msgs_delayed += 1;
                    arrival + extra
                }
            }
        };
        if self.config.record_trace {
            self.trace.push(TraceEvent::Spawn {
                time: now,
                from: self.current_node,
                to: target,
                goal: goal_text(&goal),
            });
        }
        if let Some(at) = duplicate_at {
            self.enqueue(goal.clone(), target, at);
        }
        self.enqueue(goal, target, ready_at);
    }

    /// Bind a variable from the current reduction, waking any waiters.
    pub(crate) fn bind_now(&mut self, v: VarId, value: Term) -> StrandResult<()> {
        let (now, node) = (self.now(), self.current_node);
        let waiters = self.store.bind(v, value, now, node)?;
        self.wake(waiters, now, node);
        Ok(())
    }

    fn wake(&mut self, waiters: Waiters, bind_time: Time, binder: NodeId) {
        for &pid in waiters.iter() {
            if (pid >> WORKER_PID_SHIFT) as usize != self.shard.index {
                // Another worker owns the suspension: route the wake-up
                // (see `absorb`).
                self.shard.outbox.push(Routed::Wake {
                    pid,
                    time: bind_time,
                    binder,
                });
                continue;
            }
            self.requeue_woken(pid, bind_time, binder);
        }
    }

    /// Make a suspension this machine owns runnable again after a binding at
    /// `bind_time` on `binder`. A stale wake-up — the process already woke
    /// through another variable — is dropped.
    pub(crate) fn requeue_woken(&mut self, pid: u64, bind_time: Time, binder: NodeId) {
        let Some(susp) = self.unsuspend(pid) else {
            return;
        };
        let arrival = if susp.node == binder {
            bind_time
        } else {
            self.metrics.count_message(binder, susp.node);
            bind_time + self.config.latency
        };
        if self.config.record_trace {
            self.trace.push(TraceEvent::Wake {
                time: arrival,
                binder,
                node: susp.node,
                pid,
            });
        }
        self.push_item(
            susp.node,
            QItem {
                ready_at: arrival,
                ..susp.item
            },
        );
    }

    /// Take a suspension out of the table and its waiter registrations out
    /// of the store.
    fn unsuspend(&mut self, pid: u64) -> Option<Susp> {
        let susp = self.suspended.remove(&pid)?;
        for v in &susp.vars {
            self.store.remove_waiter(*v, pid);
        }
        Some(susp)
    }

    /// What a collection marks from: every queued goal, and every
    /// suspended goal by pid.
    pub(crate) fn holdings(&self) -> (Vec<Term>, Vec<(u64, Term)>) {
        let queues = self.nodes.iter().map(|n| &n.queue);
        let queued = queues.flat_map(|q| q.fifo.iter().chain(&q.heap));
        let suspended = self
            .suspended
            .iter()
            .map(|(p, s)| (*p, s.item.goal.to_term()));
        (
            queued.map(|item| item.goal.to_term()).collect(),
            suspended.collect(),
        )
    }

    /// Keep only the suspensions a collection reached: the slots of the
    /// rest are free already, so only the tracked gauge is left to settle.
    pub(crate) fn drop_unreachable(&mut self, reached: &FxHashSet<u64>) {
        let metrics = &mut self.metrics;
        self.suspended.retain(|pid, s| {
            let keep = reached.contains(pid);
            if !keep && s.item.tracked {
                metrics.track_done(s.node);
            }
            keep
        });
    }

    /// The processes suspended on this machine, in no particular order.
    pub(crate) fn suspensions(&self) -> impl ExactSizeIterator<Item = &Susp> {
        self.suspended.values()
    }

    fn suspend(&mut self, item: QItem, vars: Vec<VarId>) {
        debug_assert!(!vars.is_empty(), "suspending on empty var set");
        let pid = item.pid;
        let (now, node) = (self.now(), self.current_node);
        // A variable can be bound between the match that found it unbound
        // and this registration: never on the simulator, where a reduction
        // is atomic, but on a `SharedStore` a peer worker binds concurrently.
        // Roll back the waiters registered so far and retry the very same
        // process — same pid and tracked flag, so the tracked gauge
        // (counted once at spawn, settled once at completion) stays exact.
        for (i, v) in vars.iter().enumerate() {
            if !self.store.add_waiter(*v, pid) {
                for r in &vars[..i] {
                    self.store.remove_waiter(*r, pid);
                }
                self.push_item(
                    node,
                    QItem {
                        ready_at: now,
                        ..item
                    },
                );
                return;
            }
        }
        self.metrics.suspensions += 1;
        if self.config.record_trace {
            self.trace.push(TraceEvent::Suspend {
                time: now,
                node,
                pid,
                goal: goal_text(&item.goal),
                vars: vars.len(),
            });
        }
        self.suspended.insert(pid, Susp { item, node, vars });
    }

    fn record_error(&mut self, e: StrandError) -> StrandResult<()> {
        if self.config.fail_fast {
            return Err(e);
        }
        self.errors.push((self.now(), e));
        Ok(())
    }

    // --- What a driver calls per step -------------------------------------

    /// The owned node with the earliest next event, and that event's time.
    /// Ties go to the lowest node index.
    #[inline]
    pub(crate) fn next_event(&self) -> Option<(Time, usize)> {
        let threads = self.shard.threads;
        let mut best: Option<(Time, usize)> = None;
        // Not `Range::step_by`: its constructor divides, once per step.
        let mut i = self.shard.index;
        while i < self.nodes.len() {
            if let Some((ready_at, _)) = self.nodes[i].queue.first {
                let key = self.nodes[i].clock.max(ready_at);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
            i += threads;
        }
        best
    }

    /// Pop node `i`'s next process and reduce it at time `start`.
    pub(crate) fn step(&mut self, i: usize, start: Time) -> StrandResult<()> {
        let item = self.nodes[i].queue.pop().expect("peeked nonempty queue");
        self.charge_reduction();
        self.current_node = NodeId(i as u32);
        self.extra_cost = 0;
        self.nodes[i].clock = start;
        if self.config.record_trace {
            self.trace.push(TraceEvent::Reduce {
                time: start,
                node: self.current_node,
                pid: item.pid,
                goal: goal_text(&item.goal),
            });
        }
        let step_result = self.reduce(item);
        let cost = (REDUCTION_COST + self.extra_cost) * self.slowdown[i];
        self.nodes[i].clock = start + cost;
        self.metrics.busy[i] += cost;
        self.metrics.reductions[i] += 1;
        step_result
    }

    /// The next scheduled crash of an owned node: the victim, and the
    /// plan's `at` — which clock that is read on is the driver's business.
    pub(crate) fn next_crash(&self) -> Option<(NodeId, Time)> {
        self.pending_crashes.first().copied()
    }

    /// Kill the node [`next_crash`](Machine::next_crash) named, traced at
    /// virtual time `time`.
    pub(crate) fn fire_next_crash(&mut self, time: Time) {
        let (node, _) = self.pending_crashes.remove(0);
        if self.is_crashed(node) {
            return;
        }
        let (lost_queue, lost_suspended) = self.teardown_node(node);
        if self.config.record_trace {
            self.trace.push(TraceEvent::Crash {
                time,
                node,
                lost_queue,
                lost_suspended,
            });
        }
    }

    /// Tear a dead node down: drop its queue, tear its suspended goals out
    /// of the store (they will never wake), drop the deadlines it armed but
    /// the backend has not harvested, balance the tracked gauge and remember
    /// diagnostic snapshots. Returns how many queued and suspended goals
    /// were lost.
    fn teardown_node(&mut self, node: NodeId) -> (usize, usize) {
        let i = node.0 as usize;
        self.crashed[i] = true;
        self.shard.world.crashed[i].store(true, Ordering::Release);
        self.shard.armed.retain(|d| d.node != node);
        // The node's clock stays where computation stopped: a crash is not
        // work, and must not stretch the makespan.
        let lost = self.take_queue(i);
        for item in &lost {
            self.bury(node, item);
        }
        let on_node = self.suspended.iter().filter(|(_, s)| s.node == node);
        let pids: Vec<u64> = on_node.map(|(&pid, _)| pid).collect();
        let torn: Vec<Susp> = pids.into_iter().filter_map(|p| self.unsuspend(p)).collect();
        for susp in &torn {
            self.bury(node, &susp.item);
        }
        self.dead_count += lost.len() + torn.len();
        self.metrics.nodes_crashed += 1;
        (lost.len(), torn.len())
    }

    /// Account for one process lost with `node`.
    fn bury(&mut self, node: NodeId, item: &QItem) {
        if item.tracked {
            self.metrics.track_done(node);
        }
        if self.dead_goals.len() < 16 {
            self.dead_goals
                .push(self.store.resolve(&item.goal.to_term()));
        }
    }

    /// Goals lost with crashed nodes so far, and the snapshots kept of them
    /// since the last call.
    pub(crate) fn take_dead(&mut self) -> (usize, Vec<Term>) {
        (self.dead_count, std::mem::take(&mut self.dead_goals))
    }

    /// Arm an `after_unless` deadline `wait` ticks from the current
    /// reduction, for the driver to harvest with
    /// [`take_deadlines`](Machine::take_deadlines) and run on its clock:
    /// the simulator's virtual time (`sim.rs`) or the fleet's deadline
    /// queue.
    pub(crate) fn arm_timer(&mut self, wait: Time, cancel: Term, timeout: Term) {
        let (node, due) = (self.current_node, self.now() + wait);
        self.metrics.timers_armed += 1;
        self.shard.armed.push(Deadline {
            node,
            wait,
            due,
            cancel,
            timeout,
        });
    }

    /// Harvest the deadlines armed since the last call.
    pub(crate) fn take_deadlines(&mut self) -> Vec<Deadline> {
        std::mem::take(&mut self.shard.armed)
    }

    /// Drain the cross-shard events produced since the last call.
    pub(crate) fn take_outbox(&mut self) -> Vec<Routed> {
        std::mem::take(&mut self.shard.outbox)
    }

    /// True once the unless-var of an armed deadline has been bound — the
    /// queue prunes such entries instead of firing them. Any machine sharing
    /// the store can answer this, whichever shard armed the timer.
    pub(crate) fn cancel_is_bound(&self, cancel: &Term) -> bool {
        !matches!(self.store.deref(cancel), Term::Var(_))
    }

    // --- One reduction ----------------------------------------------------

    fn reduce(&mut self, item: QItem) -> StrandResult<()> {
        let mut lent = self.lent.take().expect("reductions do not nest");
        let reduced = self.reduce_lent(item, &mut lent);
        self.lent = Some(lent);
        reduced
    }

    /// [`reduce`](Machine::reduce) with the program and the buffers in
    /// hand. The goal is read where it is queued; it is consumed only
    /// after the decision, so a goal that is done with hands its blocks to
    /// the pool.
    fn reduce_lent(&mut self, item: QItem, lent: &mut Lent) -> StrandResult<()> {
        let outcome = match &item.goal {
            Goal::Call { name, args } => self.call(*name, args, lent)?,
            Goal::Term(t) => {
                let goal = self.store.deref_cow(t);
                match goal.functor() {
                    Some((&name, _)) => self.call(name, goal.goal_args(), lent)?,
                    None => match *goal {
                        // A goal that is itself an unbound variable: a
                        // metacall waiting for its goal term. Suspend until
                        // provided.
                        Term::Var(v) => CallOutcome::Suspend(vec![v]),
                        _ => {
                            let goal = self.store.resolve(&goal);
                            CallOutcome::Error(StrandError::NoMatchingRule { goal })
                        }
                    },
                }
            }
        };
        match outcome {
            CallOutcome::Done => {
                self.finish_tracked(&item);
                lent.scratch.pool.recycle(item.goal);
            }
            CallOutcome::Suspend(vars) => self.suspend(item, vars),
            CallOutcome::Error(e) => {
                self.finish_tracked(&item);
                self.record_error(e)?;
            }
        }
        Ok(())
    }

    /// Decide the call `name(args…)`: run it as a foreign procedure, a
    /// builtin or a program procedure. `Err` is for errors that end the
    /// run whatever `fail_fast` says.
    fn call(&mut self, name: Atom, args: &[Term], lent: &mut Lent) -> StrandResult<CallOutcome> {
        let arity = args.len();
        // Foreign procedures shadow builtins of the same name.
        let mut called = None;
        if !self.foreign.is_empty() {
            called = self.try_foreign(name, args);
        }
        if called.is_none() {
            called = self.exec_builtin(name, args).transpose();
        }
        if let Some(outcome) = called {
            // Dispatch-level errors go through `record_error` like the
            // outcome-level ones: with `fail_fast` off they must be
            // *collected*, not propagated — a resident service survives a
            // bad request instead of tearing down (DESIGN.md §9).
            return Ok(outcome.unwrap_or_else(CallOutcome::Error));
        }

        // The two tiers differ only in what a rule *is*; `dispatch` is
        // monomorphised per tier (see [`TierRule`]).
        let undefined = || {
            CallOutcome::Error(StrandError::UndefinedProcedure {
                name: name.as_str().to_string(),
                arity,
            })
        };
        let Lent { exec, scratch } = lent;
        match self.config.exec {
            ExecMode::Compiled => {
                let Some(proc) = exec.lookup(name, arity) else {
                    return Ok(undefined());
                };
                self.metrics.compiled_reductions += 1;
                // The first argument, dereferenced, picks the rules to try.
                let arm = match args.first() {
                    Some(a) if proc.indexed => proc.switch.arm(&self.store.deref_cow(a)),
                    _ => proc.switch.all(),
                };
                let otherwise = proc.otherwise.as_deref();
                let cands = arm.walk(&proc.rules);
                self.dispatch(name, args, cands, arm.tail, otherwise, scratch)
            }
            ExecMode::Interpreted => {
                let program = Arc::clone(&self.program);
                let Some(proc) = program.lookup(name, arity) else {
                    return Ok(undefined());
                };
                self.metrics.interpreted_reductions += 1;
                // Only the first `otherwise` rule is ever tried.
                let ordinary = proc.rules.iter().filter(|r| !r.otherwise);
                let otherwise = proc.rules.iter().find(|r| r.otherwise);
                let cands = ordinary.map(|r| (r, 0));
                self.dispatch(name, args, cands, 0, otherwise, scratch)
            }
        }
    }

    /// Rule dispatch, shared by both tiers: try the candidate rules in
    /// order, then commit, suspend on the union of the variables the
    /// undecided rules wait for, or fail with `NoMatchingRule`. Each
    /// candidate comes with the rules the first-argument index skipped
    /// before it, and `tail` is those it skipped after the last one, so
    /// the index counters come out as a walk over every rule that tests
    /// each key with [`IndexKey::admits`](exec::IndexKey::admits) and
    /// stops at the committing rule would count them.
    fn dispatch<'r, R: TierRule + 'r>(
        &mut self,
        name: Atom,
        args: &[Term],
        cands: impl Iterator<Item = (&'r R, u32)>,
        tail: u32,
        otherwise: Option<&'r R>,
        scratch: &mut Scratch,
    ) -> StrandResult<CallOutcome> {
        scratch.pending.clear();
        for (rule, skipped) in cands {
            self.metrics.index_hits += u64::from(skipped);
            if rule.key().is_some() {
                self.metrics.index_misses += 1;
            }
            match self.try_rule(rule, args, scratch)? {
                TryResult::Commit => return Ok(CallOutcome::Done),
                TryResult::Fail => {}
                TryResult::Suspend => {
                    for i in 0..scratch.rule_pending.len() {
                        exec::push_unique(&mut scratch.pending, scratch.rule_pending[i]);
                    }
                }
            }
        }
        self.metrics.index_hits += u64::from(tail);
        // Only once every ordinary rule has failed definitively may the
        // `otherwise` rule run; its suspension set is its own.
        if scratch.pending.is_empty() {
            if let Some(rule) = otherwise {
                match self.try_rule(rule, args, scratch)? {
                    TryResult::Commit => return Ok(CallOutcome::Done),
                    TryResult::Fail => {}
                    TryResult::Suspend => {
                        std::mem::swap(&mut scratch.pending, &mut scratch.rule_pending)
                    }
                }
            }
        }
        if scratch.pending.is_empty() {
            let goal = Term::tuple_from(name, args.iter().map(|a| self.store.resolve(a)));
            return Ok(CallOutcome::Error(StrandError::NoMatchingRule { goal }));
        }
        *self.metrics.susp_by_proc.entry(name).or_insert(0) += 1;
        // The buffer is donated to the suspension record and re-grows on the
        // next suspending reduction (the commit path never pushes, so it
        // stays allocation-free).
        Ok(CallOutcome::Suspend(std::mem::take(&mut scratch.pending)))
    }

    /// Attempt one rule and, if it applies, spawn its body. Inlined, with
    /// [`TierRule::attempt`], so the matcher call sits in the dispatch loop
    /// itself: left to the inliner, each attempt went through two more calls.
    #[inline(always)]
    fn try_rule<R: TierRule>(
        &mut self,
        rule: &R,
        args: &[Term],
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult> {
        self.metrics.rules_tried += 1;
        let tried = rule.attempt(args, &self.store, scratch)?;
        if tried == TryResult::Commit {
            self.commit(rule, &mut scratch.frame, &mut scratch.pool)?;
        }
        Ok(tried)
    }

    fn finish_tracked(&mut self, item: &QItem) {
        if item.tracked {
            self.metrics.track_done(self.current_node);
        }
    }

    /// Spawn a committed rule's body, each call on its `@` placement.
    fn commit<R: TierRule>(
        &mut self,
        rule: &R,
        frame: &mut Frame,
        pool: &mut BlockPool,
    ) -> StrandResult<()> {
        for call in rule.body() {
            let (goal, placement) = R::build(call, frame, &mut self.store, pool);
            let Some(place_term) = placement else {
                let node = self.current_node;
                self.spawn(goal, node);
                continue;
            };
            match strand_core::eval_arith(&place_term, &self.store) {
                Ok(strand_core::arith::Evaled::Num(n)) => {
                    let target = self.map_node(n.as_f64() as i64);
                    self.spawn(goal, target);
                }
                Ok(strand_core::arith::Evaled::Suspend(_)) => {
                    // Placement not yet known: defer via the internal
                    // `'$spawn_at'` builtin, which suspends.
                    let node = self.current_node;
                    let deferred = vec![place_term, goal.to_term()];
                    self.spawn(Goal::call(sym::SPAWN_AT, deferred), node);
                }
                Err(e) => self.record_error(e)?,
            }
        }
        Ok(())
    }
}

/// How a reduction ended: a builtin or foreign call, or rule dispatch
/// (`Done` once a rule committed and its body was spawned). `Error` is a
/// program-level problem that `record_error` collects when `fail_fast` is
/// off.
pub(crate) enum CallOutcome {
    Done,
    Suspend(Vec<VarId>),
    Error(StrandError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::DrainState;
    use strand_parse::{compile_program, parse_program};

    /// On a `SharedStore` a peer can bind a variable between the match that
    /// found it unbound and `suspend`'s waiter registration. The rollback
    /// must retry the very same process: same pid, counted once by the
    /// tracked gauge.
    #[test]
    fn suspend_rollback_requeues_the_same_process() {
        let program = compile_program(&parse_program("p(X) :- true.").unwrap()).unwrap();
        let world = SharedWorld::new(1, 1);
        let store = Arc::new(strand_core::SharedStore::new(1));
        let mut cfg = MachineConfig::default();
        cfg.tracked.insert(Atom::new("p"));
        let mut m = Machine::new_worker(Arc::new(program), cfg, &world, &store, 0);
        let v = m.store.new_var();
        m.start(Term::tuple("p", vec![Term::Var(v)]));
        let item = m.nodes[0].queue.pop().unwrap();
        let pid = item.pid;
        // The "peer" binds first; then the popped process tries to suspend.
        m.store.bind(v, Term::int(1), 0, NodeId(0)).unwrap();
        m.suspend(item, vec![v]);

        assert!(m.suspended.is_empty());
        assert_eq!(m.metrics.suspensions, 0);
        assert_eq!(m.nodes[0].queue.len(), 1, "one runnable process");
        let again = m.nodes[0].queue.peek().unwrap();
        assert_eq!((again.pid, again.tracked), (pid, true));
        assert_eq!(m.metrics.live_tracked[0], 1, "spawn counted twice");

        assert_eq!(m.drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!(m.metrics.live_tracked[0], 0);
        assert_eq!(m.metrics.peak_tracked[0], 1);
    }

    /// The argument block of the goal queued first on node 0.
    fn queued_block(m: &Machine) -> *const Term {
        match &m.peek(0).expect("a queued goal").goal {
            Goal::Call { args, .. } => args.as_ptr(),
            Goal::Term(t) => panic!("a metacall: {t}"),
        }
    }

    /// A goal's own block goes round with no test of ownership: the
    /// reduction that commits `h/2`'s rule builds `k/2` into the very block
    /// `go/2`'s reduction handed back, on both tiers.
    #[test]
    fn a_reduced_goals_block_is_the_one_the_next_build_of_its_arity_fills() {
        let src = "go(A, B) :- h(A, B). h(A, B) :- k(B, A). k(_, _).";
        for exec in [ExecMode::Compiled, ExecMode::Interpreted] {
            let program = compile_program(&parse_program(src).unwrap()).unwrap();
            let mut m = Machine::new(program, MachineConfig::default().exec(exec));
            m.start(Term::tuple("go", vec![Term::int(1), Term::int(2)]));
            let go = queued_block(&m);
            m.step(0, 0).unwrap();
            let h = queued_block(&m);
            assert_ne!(h, go, "{exec:?}: h/2 is built before go/2 is handed back");
            m.step(0, 1).unwrap();
            assert_eq!(queued_block(&m), go, "{exec:?}: k/2 fills go/2's block");
            m.step(0, 2).unwrap();
            assert!(m.peek(0).is_none());
        }
    }

    fn item(ready_at: Time, pid: u64) -> QItem {
        QItem {
            ready_at,
            pid,
            goal: Goal::call(
                Atom::new("g"),
                vec![Term::int(ready_at as i64), Term::int(pid as i64)],
            ),
            tracked: false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The FIFO beside the heap changes nothing but cost: over random
        /// interleavings of pushes and pops it pops exactly what one heap
        /// holding everything pops, and drains in the same order. Pushes
        /// are in order (a spawn: ready now, a fresh pid) or not (a wake:
        /// a pid popped before, ready at any time, often below the last
        /// pop); no two items queued at once share a key, as on a node.
        #[test]
        fn run_queue_pops_exactly_what_one_heap_pops(
            ops in proptest::collection::vec((0u8..4, 0u64..6, 0usize..64), 0..200)
        ) {
            let mut queue = RunQueue::default();
            let mut heap = BinaryHeap::new();
            let (mut now, mut next_pid) = (0, 0);
            let mut popped: Vec<u64> = Vec::new();
            for (kind, dt, pick) in ops {
                let pushed = match kind {
                    0 => {
                        let Some(a) = heap.pop() else { continue };
                        let b = queue.pop().expect("both hold the same items");
                        proptest::prop_assert_eq!(key(&a), key(&b));
                        proptest::prop_assert_eq!(heap.peek().map(key), queue.first);
                        now = now.max(a.ready_at);
                        popped.push(a.pid);
                        continue;
                    }
                    1 | 2 => {
                        next_pid += 1;
                        item(now + dt * u64::from(kind - 1), next_pid)
                    }
                    _ if popped.is_empty() => continue,
                    _ => {
                        let pid = popped.swap_remove(pick % popped.len());
                        item(now.saturating_sub(dt * 2) + dt, pid)
                    }
                };
                heap.push(pushed.clone());
                queue.push(pushed);
                proptest::prop_assert_eq!(heap.peek().map(key), queue.peek().map(key));
                proptest::prop_assert_eq!(heap.peek().map(key), queue.first);
                proptest::prop_assert_eq!(heap.len(), queue.len());
            }
            let want: Vec<_> = heap.into_sorted_vec().iter().rev().map(key).collect();
            let got: Vec<_> = queue.drain().iter().map(key).collect();
            proptest::prop_assert_eq!(want, got);
        }
    }

    /// A crash buries a node's queue in the order it would have run, so
    /// the 16 goals kept for the post-mortem are its 16 earliest — whatever
    /// order they arrived in.
    #[test]
    fn a_crash_keeps_the_16_earliest_dead_goals_by_key_order() {
        let program = compile_program(&parse_program("g(_, _).").unwrap()).unwrap();
        let mut m = Machine::new(program, MachineConfig::with_nodes(2));
        // Latest first: each arrival is the new earliest.
        for k in 0..40 {
            m.push_item(NodeId(1), item(100 - k, k + 1));
        }
        m.teardown_node(NodeId(1));
        let (lost, kept) = m.take_dead();
        assert_eq!(lost, 40);
        let want: Vec<Term> = (24..40)
            .rev()
            .map(|k| item(100 - k, k + 1).goal.to_term())
            .collect();
        assert_eq!(kept, want);
    }
}
