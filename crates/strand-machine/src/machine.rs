//! The parallel abstract machine.
//!
//! *"The state of a computation is represented by a pool of lightweight
//! processes. Execution proceeds by repeatedly selecting and attempting to
//! reduce processes in this pool"* (§2.1). This machine keeps one pool per
//! virtual node and drives them with a deterministic discrete-event
//! scheduler: each node has a local clock; a reduction costs
//! [`MachineConfig::reduction_cost`] ticks (plus explicit `work/1` costs);
//! anything crossing nodes — a spawned process, a stream message, a binding
//! that wakes a remote process — is delayed by [`MachineConfig::latency`].
//!
//! Determinism: the runnable node with the smallest next event time reduces
//! first (ties broken by node index, then process id), and randomness comes
//! only from the seeded `rand_num` primitive. Two runs with the same program,
//! goal and config are identical, metric for metric.

use crate::config::{ExecMode, MachineConfig};
use crate::exec::{self, ExecProgram, IndexKey, Scratch, TryResult};
use crate::metrics::Metrics;
use crate::trace::{goal_text, TraceEvent};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use strand_core::{
    match_args, sym, Atom, Frame, FxHashMap, GuardOutcome, MatchOutcome, NodeId, SharedStore,
    SharedStoreView, SplitMix64, Store, StoreOps, StrandError, StrandResult, Term, Time, VarId,
    Waiter,
};
use strand_parse::{CompiledCall, CompiledProgram, CompiledRule};

/// A queued (runnable) process.
#[derive(Clone, Debug)]
pub(crate) struct QItem {
    pub ready_at: Time,
    pub pid: u64,
    pub goal: Term,
    pub tracked: bool,
    /// Session region this process allocates store variables under
    /// (0 = the untracked boot/batch region). Spawns inherit the spawning
    /// reduction's region, so a whole request's dataflow is reclaimable
    /// when its session closes.
    pub region: u32,
}

impl PartialEq for QItem {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.pid == other.pid
    }
}
impl Eq for QItem {}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest item is on top.
        (other.ready_at, other.pid).cmp(&(self.ready_at, self.pid))
    }
}

/// One runnable process bound for a node. In sharded execution these travel
/// between workers inside [`Routed`] batches; each worker inserts arriving
/// jobs straight into the per-node heaps it owns.
#[derive(Debug)]
pub struct Job {
    pub(crate) item: QItem,
    pub(crate) node: NodeId,
}

/// Bits of a process id reserved for the owning worker's index in sharded
/// execution. Worker `w` allocates pids starting at `w << WORKER_PID_SHIFT`,
/// so any worker can route a wake-up from the pid alone — and worker 0's pids
/// coincide with the deterministic scheduler's, which is what makes 1-thread
/// parallel runs bit-identical to the simulator.
pub const WORKER_PID_SHIFT: u32 = 48;

/// A cross-worker event produced by one shard for another. Senders tag every
/// routed event against the shared in-flight gate before it leaves the
/// machine; receivers apply it via [`Machine::absorb`].
#[derive(Debug)]
pub enum Routed {
    /// A newly runnable process for a node another worker owns.
    Job(Job),
    /// A binding at `time` on `binder` woke a process another worker owns.
    Wake {
        pid: u64,
        time: Time,
        binder: NodeId,
    },
    /// A closed session's region must be swept on `worker`: the receiver
    /// tears out its suspensions tagged with `region` and reclaims its own
    /// store stripe. Carries no in-flight gate unit (reclamation is not
    /// program work); it still rides the quiescence token like any batch.
    Reclaim { region: u32, worker: usize },
}

impl Routed {
    /// Which worker must apply this event, given the routing rule
    /// `worker(node) = node mod threads` and pid-encoded suspension
    /// ownership.
    pub fn dest_worker(&self, threads: usize) -> usize {
        match self {
            Routed::Job(job) => job.node.0 as usize % threads,
            Routed::Wake { pid, .. } => (pid >> WORKER_PID_SHIFT) as usize,
            Routed::Reclaim { worker, .. } => *worker,
        }
    }
}

/// Wrap a 1-based language node number onto one of `nodes` internal ids.
fn wrap_node(j: i64, nodes: u32) -> NodeId {
    let v = nodes as i64;
    NodeId((((j - 1) % v + v) % v) as u32)
}

fn goal_is_timer(goal: &Term) -> bool {
    matches!(goal, Term::Tuple(sym::TIMER, args) if args.len() == 2)
}

/// Deep-substitute like [`StoreHandle::resolve`], but emit at most `budget`
/// term nodes, eliding anything deeper as the atom `'…'`.
///
/// The post-mortem suspended-goal diagnostic must never dominate shutdown:
/// a suspended goal can reference heavily shared structure (the Supervise
/// library's directory and wire records are the canonical case), and
/// expanding that DAG into a tree is exponential in run length. A capped
/// expansion keeps the report readable and `finalize_shard` O(1).
fn resolve_capped(store: &StoreHandle, t: &Term, budget: &mut u32) -> Term {
    if *budget == 0 {
        return Term::Atom(sym::ELIDED);
    }
    *budget -= 1;
    match store.deref(t) {
        Term::Tuple(name, args) => {
            Term::tuple_from(name, args.iter().map(|a| resolve_capped(store, a, budget)))
        }
        Term::List(cell) => Term::cons(
            resolve_capped(store, &cell.0, budget),
            resolve_capped(store, &cell.1, budget),
        ),
        other => other,
    }
}

/// An `after_unless` deadline armed on a sharded machine. A shard has no
/// global clock to order a `'$timer'` item by, so it records the deadline
/// here for the parallel backend to harvest (see
/// [`Machine::take_deadlines`]) into the fleet's one deadline queue. When
/// the queue's clock reaches the entry the backend hands it back through
/// [`Machine::fire_deadline`], which enqueues a `'$timer!'` goal — ordinary
/// gate-counted work, so the token protocol sees a fired deadline exactly
/// as it sees any other event.
#[derive(Clone, Debug)]
pub struct Deadline {
    /// Node the deadline was armed on; the fired goal runs there.
    pub node: NodeId,
    /// Ticks to wait; a resident fleet's wall clock maps 1 tick to 1 ms.
    pub wait: Time,
    /// The arming node's virtual clock plus `wait`: the instant a batch
    /// fleet's quiescence clock orders this deadline by.
    pub due: Time,
    /// The unless-var: if bound before the deadline, the timer is cancelled.
    pub cancel: Term,
    /// The timeout var, bound to `timeout` when the deadline fires.
    pub timeout: Term,
    /// Session region the arming reduction ran under; the backend purges
    /// wheel entries when their region is reclaimed, so a fired timer can
    /// never touch a recycled slot.
    pub region: u32,
}

/// What [`Machine::drain_local`] left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainState {
    /// No runnable work: the shard is idle.
    Idle,
    /// The step quantum expired with runnable work still queued.
    More,
    /// The shared reduction budget is exhausted (`fail_fast` off).
    Budget,
}

/// Store access for one machine: the deterministic scheduler owns a plain
/// [`Store`] outright; sharded workers share a lock-striped [`SharedStore`],
/// each allocating from its own stripe so variable creation is contention-free.
pub enum StoreHandle {
    Local(Store),
    Shared(SharedStoreView),
}

impl StoreHandle {
    /// Allocate a fresh unbound variable.
    pub fn new_var(&mut self) -> VarId {
        match self {
            StoreHandle::Local(s) => s.new_var(),
            StoreHandle::Shared(s) => StoreOps::new_var(s),
        }
    }

    /// Follow variable chains until a non-variable or unbound variable.
    pub fn deref(&self, t: &Term) -> Term {
        match self {
            StoreHandle::Local(s) => s.deref(t),
            StoreHandle::Shared(s) => StoreOps::deref(s, t),
        }
    }

    /// Deep-substitute bound variables throughout a term.
    pub fn resolve(&self, t: &Term) -> Term {
        match self {
            StoreHandle::Local(s) => s.resolve(t),
            StoreHandle::Shared(s) => StoreOps::resolve(s, t),
        }
    }

    /// Bind `v`, returning the waiters to wake.
    pub fn bind(
        &mut self,
        v: VarId,
        value: Term,
        time: Time,
        node: NodeId,
    ) -> StrandResult<Vec<Waiter>> {
        match self {
            StoreHandle::Local(s) => s.bind(v, value, time, node),
            StoreHandle::Shared(s) => s.shared().bind(v, value, time, node),
        }
    }

    /// Register a waiter; `false` if the variable is already bound.
    pub fn add_waiter(&mut self, v: VarId, w: Waiter) -> bool {
        match self {
            StoreHandle::Local(s) => s.add_waiter(v, w),
            StoreHandle::Shared(s) => s.shared().add_waiter(v, w),
        }
    }

    /// Drop a waiter registration (no-op if absent).
    pub fn remove_waiter(&mut self, v: VarId, w: Waiter) {
        match self {
            StoreHandle::Local(s) => s.remove_waiter(v, w),
            StoreHandle::Shared(s) => s.shared().remove_waiter(v, w),
        }
    }

    /// Set the session region subsequent allocations are tagged with
    /// (0 = untracked boot/batch region).
    pub fn set_region(&mut self, region: u32) {
        match self {
            StoreHandle::Local(s) => s.set_region(region),
            StoreHandle::Shared(s) => s.set_region(region),
        }
    }

    /// Variables currently allocated (the live slot-table size; reclaimed
    /// slots are reused, so a bounded resident process keeps this bounded).
    pub fn len(&self) -> usize {
        match self {
            StoreHandle::Local(s) => s.len(),
            StoreHandle::Shared(s) => s.shared().len(),
        }
    }

    /// True when no variable has ever been allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful binds so far (all stripes of a shared store).
    pub fn bind_count(&self) -> u64 {
        match self {
            StoreHandle::Local(s) => s.bind_count(),
            StoreHandle::Shared(s) => s.shared().bind_count(),
        }
    }
}

impl StoreOps for StoreHandle {
    fn deref(&self, t: &Term) -> Term {
        StoreHandle::deref(self, t)
    }
    fn resolve(&self, t: &Term) -> Term {
        StoreHandle::resolve(self, t)
    }
    fn new_var(&mut self) -> VarId {
        StoreHandle::new_var(self)
    }
}

/// Port table access: owned outright by the simulator, shared behind one
/// mutex by sharded workers. The lock covers only id allocation and the
/// tail swap; the actual tail binding happens outside it, so concurrent
/// appends each link a distinct cons cell and the stream stays linear.
pub(crate) enum PortsHandle {
    Local(Vec<PortState>),
    Shared(Arc<Mutex<Vec<PortState>>>),
}

impl PortsHandle {
    fn with<R>(&mut self, f: impl FnOnce(&mut Vec<PortState>) -> R) -> R {
        match self {
            PortsHandle::Local(v) => f(v),
            PortsHandle::Shared(m) => f(&mut m.lock().expect("ports mutex poisoned")),
        }
    }

    /// Register a port, returning its id.
    pub(crate) fn push(&mut self, p: PortState) -> u32 {
        self.with(|v| {
            v.push(p);
            (v.len() - 1) as u32
        })
    }

    /// The node a port lives on (fixed at creation).
    pub(crate) fn owner(&mut self, id: u32) -> NodeId {
        self.with(|v| v[id as usize].owner)
    }

    /// Atomically replace the port's tail variable, returning the old tail.
    pub(crate) fn swap_tail(&mut self, id: u32, new_tail: VarId) -> VarId {
        self.with(|v| std::mem::replace(&mut v[id as usize].tail, new_tail))
    }
}

/// One machine's share of the two run-global counters a reduction moves,
/// on a cache line of its own. Only the owning machine writes it — a plain
/// load and store, no read-modify-write — so no reduction writes a line a
/// peer reads; readers sum the lanes. Everything is `Relaxed`: a lane
/// publishes nothing but itself, and a reader that needs an exact sum reads
/// at quiescence, which it learns through the token counter's
/// acquire/release (`strand-parallel`'s `quiesce.rs`) or a thread join.
#[repr(align(128))]
#[derive(Default)]
struct Lane {
    /// Reductions this machine has performed.
    budget: AtomicU64,
    /// This machine's contribution to the in-flight gate: +1 per item it
    /// queued or routed, −1 per item it reduced or discarded. An item sent
    /// across shards is added on one lane and subtracted on another, so a
    /// lane on its own may be negative; the sum over all lanes is the work
    /// queued or in flight.
    regular: AtomicI64,
}

/// Run-global state one sharded run's machines share.
#[derive(Clone)]
struct WorldHooks {
    /// One lane per machine, indexed by shard: the workers, then the
    /// ingress machine.
    lanes: Arc<[Lane]>,
    /// Global sequence counter backing `unique_id/1`.
    seq: Arc<AtomicU64>,
    /// Per-node crash flags, published by the owning worker when a
    /// [`FaultPlan`](crate::config::FaultPlan) crash tears a node down,
    /// for whoever routes *external* work to read. `spawn` never looks:
    /// for program traffic the owner's `absorb` is the authority.
    crashed: Arc<[AtomicBool]>,
}

impl WorldHooks {
    /// Reductions performed so far by every machine of the run.
    fn reductions(&self) -> u64 {
        let spent = |lane: &Lane| lane.budget.load(AtomicOrdering::Relaxed);
        self.lanes.iter().map(spent).sum()
    }
}

/// Shared state backing one multi-worker run: the striped variable store,
/// the port table, and the run-global counters. Cheap to clone; every worker
/// machine holds the same underlying `Arc`s.
#[derive(Clone)]
pub struct SharedWorld {
    store: Arc<SharedStore>,
    ports: Arc<Mutex<Vec<PortState>>>,
    hooks: WorldHooks,
}

impl SharedWorld {
    /// Shared state for `threads` workers (one store stripe per worker)
    /// hosting `nodes` virtual nodes.
    pub fn new(threads: usize, nodes: usize) -> SharedWorld {
        SharedWorld {
            store: Arc::new(SharedStore::new(threads.max(1) as u32)),
            ports: Arc::new(Mutex::new(Vec::new())),
            hooks: WorldHooks {
                lanes: (0..=threads.max(1)).map(|_| Lane::default()).collect(),
                seq: Arc::new(AtomicU64::new(0)),
                crashed: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            },
        }
    }

    /// Nodes a fault plan has crashed so far (1-based, ascending).
    pub fn crashed_nodes(&self) -> Vec<u32> {
        let flags = self.hooks.crashed.iter().zip(1u32..);
        flags
            .filter(|(dead, _)| dead.load(AtomicOrdering::Acquire))
            .map(|(_, node)| node)
            .collect()
    }

    /// Queued or in-flight work across all machines: the signed sum of the
    /// lanes, clamped at zero. Exact whenever the fleet is quiescent. While
    /// it runs, a sender's +1 and the receiver's −1 sit on different lanes,
    /// so a reader racing them may see the −1 first and read low, or count
    /// an item that finished while it was summing — never more than the
    /// items alive at some point during the read.
    pub fn regular_pending(&self) -> u64 {
        let held = |lane: &Lane| lane.regular.load(AtomicOrdering::Relaxed);
        self.hooks.lanes.iter().map(held).sum::<i64>().max(0) as u64
    }

    /// Reductions performed so far across all workers.
    pub fn reductions(&self) -> u64 {
        self.hooks.reductions()
    }
}

/// One worker's slice of a run report, merged by [`merge_shard_reports`].
pub struct ShardReport {
    pub metrics: Metrics,
    pub output: Vec<String>,
    pub errors: Vec<(Time, StrandError)>,
    pub suspended_goals: Vec<Term>,
    pub suspended: usize,
    pub trace: Vec<TraceEvent>,
    /// Nodes of this shard dead at the end of the run (1-based).
    pub crashed_nodes: Vec<u32>,
    /// Goals lost with this shard's crashed nodes.
    pub dead: usize,
    /// Resolved snapshots of lost goals (capped at 16 per shard).
    pub dead_goals: Vec<Term>,
}

/// A process suspended on a set of variables.
#[derive(Clone, Debug)]
struct Susp {
    /// The process as it was popped; a wake re-queues it unchanged but for
    /// its ready time. A session sweep tears out suspensions by its region.
    item: QItem,
    node: NodeId,
    vars: Vec<VarId>,
}

struct Node {
    clock: Time,
    queue: BinaryHeap<QItem>,
}

/// The write end of a stream (see `strand-core::Term::Port`).
#[derive(Clone, Debug)]
pub(crate) struct PortState {
    pub owner: NodeId,
    pub tail: VarId,
}

/// Why the machine stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum RunStatus {
    /// Every process reduced to completion.
    Completed,
    /// No runnable processes remain, but some are suspended forever — normal
    /// for server networks that idle awaiting messages (quiescence), a bug
    /// for programs expected to deliver results.
    Quiescent { suspended: usize },
    /// Quiescent *and* at least one node is dead: surviving processes are
    /// suspended on bindings that can no longer arrive. `dead` counts the
    /// goals lost with the crashed nodes (snapshots in
    /// [`RunReport::dead_goals`]); `crashed_nodes` is 1-based.
    Partitioned {
        suspended: usize,
        dead: usize,
        crashed_nodes: Vec<u32>,
    },
    /// The reduction budget ran out with `fail_fast` off: the report carries
    /// everything computed so far (partial metrics and output).
    Truncated { reductions: u64 },
}

/// Result of a run: status, metrics and collected `print/1` output.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub status: RunStatus,
    pub metrics: Metrics,
    pub output: Vec<String>,
    /// Runtime errors when `fail_fast` is off (empty otherwise).
    pub errors: Vec<(Time, StrandError)>,
    /// Goals still suspended at quiescence (resolved snapshots, capped).
    pub suspended_goals: Vec<Term>,
    /// Goals lost with crashed nodes (resolved snapshots, capped at 16).
    pub dead_goals: Vec<Term>,
    /// Scheduler trace (empty unless `record_trace` was set).
    pub trace: Vec<TraceEvent>,
}

/// The abstract machine.
pub struct Machine {
    pub(crate) program: Arc<CompiledProgram>,
    /// Lowered (direct-threaded) form of `program` for the compiled tier;
    /// rebuilt whenever the program is replaced (see [`Machine::new_worker`]).
    /// `reduce` takes it out for the length of a dispatch, as `dispatch`
    /// does `scratch`.
    exec: ExecProgram,
    /// Reusable hot-path buffers: rule frame, pending-variable sets and the
    /// match stack. One per machine, so each shard of a parallel run owns
    /// its own and no reduction allocates on the commit path.
    scratch: Scratch,
    pub(crate) config: MachineConfig,
    pub(crate) store: StoreHandle,
    nodes: Vec<Node>,
    suspended: FxHashMap<u64, Susp>,
    pub(crate) ports: PortsHandle,
    pub(crate) rng: SplitMix64,
    pub(crate) metrics: Metrics,
    next_pid: u64,
    pub(crate) output: Vec<String>,
    errors: Vec<(Time, StrandError)>,
    total_reductions: u64,
    /// Node currently reducing (valid inside a reduction step).
    pub(crate) current_node: NodeId,
    /// Extra virtual-time cost accumulated by builtins (work/1) during the
    /// current reduction.
    pub(crate) extra_cost: Time,
    /// Foreign (native Rust) procedures — the multilingual approach of
    /// §2.1; see [`crate::foreign`].
    pub(crate) foreign: crate::foreign::ForeignRegistry,
    trace: Vec<TraceEvent>,
    /// Fault injection state (see [`crate::config::FaultPlan`]). The fault
    /// RNG is separate from `rng` so faults never perturb `rand_num`.
    fault_rng: SplitMix64,
    crashed: Vec<bool>,
    /// Scheduled crashes of owned nodes not yet fired, as (node, at),
    /// earliest first.
    pending_crashes: Vec<(NodeId, Time)>,
    /// Per-node reduction-cost multiplier (≥ 1; straggler injection).
    slowdown: Vec<u64>,
    /// Resolved snapshots of goals lost with crashed nodes (capped at 16).
    dead_goals: Vec<Term>,
    dead_count: usize,
    /// Counter backing the `unique_id/1` builtin (sequence numbers) when the
    /// machine runs alone; sharded workers use the shared `hooks.seq`.
    pub(crate) seq_counter: u64,
    /// `Some((worker_index, threads))` in sharded execution: this machine
    /// owns exactly the nodes with `node mod threads == worker_index`, and
    /// events for other shards accumulate in `outbox`.
    shard: Option<(usize, usize)>,
    /// Cross-shard events awaiting routing (sharded execution only).
    outbox: Vec<Routed>,
    /// Run-global shared state (sharded execution only); this machine's
    /// lane is `hooks.lanes[shard.0]`.
    hooks: Option<WorldHooks>,
    /// What the peers' budget lanes summed to at the top of the current
    /// drain (sharded execution only; see [`Machine::budget_spent`]).
    peers_spent: u64,
    /// Deadlines armed since the last harvest (sharded execution only; see
    /// [`Machine::take_deadlines`]).
    armed_deadlines: Vec<Deadline>,
    /// Region the currently reducing process runs under; spawns from the
    /// reduction inherit it (0 outside any session — the batch default).
    current_region: u32,
}

impl Machine {
    /// Build a machine for a compiled program.
    pub fn new(program: CompiledProgram, config: MachineConfig) -> Machine {
        Machine::with_program(Arc::new(program), config)
    }

    fn with_program(program: Arc<CompiledProgram>, config: MachineConfig) -> Machine {
        let n = config.nodes as usize;
        let map = |j: u32| wrap_node(j as i64, config.nodes);
        let mut pending_crashes: Vec<(NodeId, Time)> = config
            .faults
            .crashes
            .iter()
            .map(|&(j, t)| (map(j), t))
            .collect();
        // Earliest first; ties broken by node index for determinism.
        pending_crashes.sort_by_key(|&(node, t)| (t, node.0));
        let mut slowdown = vec![1u64; n];
        for &(j, f) in &config.faults.slowdowns {
            slowdown[map(j).0 as usize] = f.max(1);
        }
        let exec = ExecProgram::lower(&program);
        Machine {
            rng: SplitMix64::new(config.seed),
            fault_rng: SplitMix64::new(config.faults.seed),
            crashed: vec![false; n],
            pending_crashes,
            slowdown,
            dead_goals: Vec::new(),
            dead_count: 0,
            seq_counter: 0,
            metrics: Metrics::new(n),
            nodes: (0..n)
                .map(|_| Node {
                    clock: 0,
                    queue: BinaryHeap::new(),
                })
                .collect(),
            suspended: FxHashMap::default(),
            ports: PortsHandle::Local(Vec::new()),
            store: StoreHandle::Local(Store::new()),
            next_pid: 0,
            output: Vec::new(),
            errors: Vec::new(),
            total_reductions: 0,
            current_node: NodeId(0),
            extra_cost: 0,
            foreign: crate::foreign::ForeignRegistry::default(),
            trace: Vec::new(),
            program,
            exec,
            scratch: Scratch::default(),
            config,
            shard: None,
            outbox: Vec::new(),
            hooks: None,
            peers_spent: 0,
            armed_deadlines: Vec::new(),
            current_region: 0,
        }
    }

    /// Build one worker's machine for a sharded run: same program and config
    /// as the simulator would use, but variables, ports, budget and sequence
    /// numbers live in the shared `world`, and process ids are offset so
    /// every worker allocates from a disjoint range (see
    /// [`WORKER_PID_SHIFT`]).
    pub fn new_worker(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        idx: usize,
        threads: usize,
    ) -> Machine {
        debug_assert!(idx < threads);
        let mut m = Machine::attached(program, config, world, idx as u32, idx, threads);
        // Worker 0 keeps the configured seeds so 1-thread runs draw the same
        // `rand_num` and fault-dice sequences as the simulator; other
        // workers decorrelate.
        let stride = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.rng = SplitMix64::new(m.config.seed.wrapping_add(stride));
        m.fault_rng = SplitMix64::new(m.config.faults.seed.wrapping_add(stride));
        m
    }

    /// The simulator's machine re-homed into a shared `world`: it allocates
    /// variables from `stripe`, mints pids in shard `idx`'s range and owns
    /// the nodes with `node mod threads == idx`.
    fn attached(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        stripe: u32,
        idx: usize,
        threads: usize,
    ) -> Machine {
        let mut m = Machine::with_program(program, config);
        m.store = StoreHandle::Shared(SharedStoreView::new(Arc::clone(&world.store), stripe));
        m.ports = PortsHandle::Shared(Arc::clone(&world.ports));
        m.next_pid = (idx as u64) << WORKER_PID_SHIFT;
        m.shard = Some((idx, threads));
        m.hooks = Some(world.hooks.clone());
        m.pending_crashes
            .retain(|&(node, _)| node.0 as usize % threads == idx);
        m
    }

    /// Access the store (for seeding goals and reading results).
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// Mutable store access (goal construction).
    pub fn store_mut(&mut self) -> &mut StoreHandle {
        &mut self.store
    }

    /// Map a 1-based language node number onto an internal node id.
    pub(crate) fn map_node(&self, j: i64) -> NodeId {
        wrap_node(j, self.config.nodes)
    }

    fn fresh_pid(&mut self) -> u64 {
        self.next_pid += 1;
        self.next_pid
    }

    /// Record a trace event (no-op unless tracing is on — callers check).
    pub(crate) fn push_trace(&mut self, event: TraceEvent) {
        self.trace.push(event);
    }

    /// Enqueue a goal on a node at the given ready time.
    pub(crate) fn enqueue(&mut self, goal: Term, node: NodeId, ready_at: Time) {
        if self.crashed[node.0 as usize] {
            return; // dead nodes accept no work
        }
        // The empty-set check short-circuits the functor walk and hash on
        // the common untracked configuration (every spawn passes through
        // here).
        let tracked = !self.config.tracked.is_empty()
            && goal
                .functor()
                .is_some_and(|(name, _)| self.config.tracked.contains(name));
        // In sharded execution, tracked-process gauges are per-owner: the
        // receiving worker counts the spawn when the job arrives (see
        // `absorb`), so spawn/done pairs always land on the same machine.
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
                region: self.current_region,
            },
        );
    }

    /// Hand a runnable process to the scheduler: the per-node heap when this
    /// machine owns the node, the outbox otherwise (sharded execution). On
    /// a shard every item raises the global in-flight gate; the count drops
    /// when the item is reduced or discarded.
    fn push_item(&mut self, node: NodeId, item: QItem) {
        if let Some((me, threads)) = self.shard {
            self.gate_add(1);
            if node.0 as usize % threads != me {
                self.outbox.push(Routed::Job(Job { item, node }));
                return;
            }
        }
        self.insert_local(node, item);
    }

    /// Insert into the node's heap without gate accounting (the sender
    /// already counted routed items).
    fn insert_local(&mut self, node: NodeId, item: QItem) {
        let nq = &mut self.nodes[node.0 as usize];
        nq.queue.push(item);
        let qlen = nq.queue.len();
        if qlen > self.metrics.peak_queue[node.0 as usize] {
            self.metrics.peak_queue[node.0 as usize] = qlen;
        }
    }

    /// This machine's lane of the run-global counters (sharded execution).
    fn lane(&self) -> Option<&Lane> {
        let (me, _) = self.shard?;
        Some(&self.hooks.as_ref()?.lanes[me])
    }

    /// Move this machine's gate lane by `delta`. The lane has one writer
    /// (the ingress lane's are serialised by the ingress mutex), so a load
    /// and a store do; see [`Lane`].
    fn gate_move(&self, delta: i64) {
        if let Some(lane) = self.lane() {
            let held = lane.regular.load(AtomicOrdering::Relaxed);
            lane.regular.store(held + delta, AtomicOrdering::Relaxed);
        }
    }

    fn gate_add(&self, n: u64) {
        self.gate_move(n as i64);
    }

    fn gate_sub(&self, n: u64) {
        self.gate_move(-(n as i64));
    }

    /// Reductions performed so far — run-global in sharded execution: this
    /// machine's own count, exact, plus what its peers had done when it
    /// last began a drain. The peers' share is at most one drain quantum
    /// per peer stale, so anything that compares against it (the budget,
    /// a crash's `at`) fires that much late at worst — and never on a
    /// 1-thread fleet, whose only peer is the ingress machine.
    fn budget_spent(&self) -> u64 {
        self.total_reductions + self.peers_spent
    }

    fn charge_reduction(&mut self) {
        self.total_reductions += 1;
        if let Some(lane) = self.lane() {
            lane.budget
                .store(self.total_reductions, AtomicOrdering::Relaxed);
        }
    }

    /// Next `unique_id/1` value — run-global in sharded execution.
    pub(crate) fn next_unique_id(&mut self) -> u64 {
        match &self.hooks {
            Some(h) => h.seq.fetch_add(1, AtomicOrdering::Relaxed) + 1,
            None => {
                self.seq_counter += 1;
                self.seq_counter
            }
        }
    }

    /// The executing node's clock (valid inside a reduction step).
    pub(crate) fn now(&self) -> Time {
        self.nodes[self.current_node.0 as usize].clock
    }

    /// Is the node dead per the fault plan?
    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.0 as usize]
    }

    /// Roll the fault dice for one cross-node delivery. Quiet edges consume
    /// no randomness, so an empty plan leaves runs bit-identical.
    pub(crate) fn edge_delivery(&mut self, from: NodeId, to: NodeId) -> Delivery {
        let ef = self.config.faults.edge_faults(from.0 + 1, to.0 + 1);
        if ef.is_quiet() {
            return Delivery::Deliver;
        }
        let roll = self.fault_rng.next_f64();
        if roll < ef.drop_prob {
            Delivery::Drop
        } else if roll < ef.drop_prob + ef.dup_prob {
            Delivery::Duplicate
        } else if roll < ef.drop_prob + ef.dup_prob + ef.delay_prob {
            Delivery::Delay(ef.delay_ticks)
        } else {
            Delivery::Deliver
        }
    }

    /// Record a lost delivery (fault injection or dead target).
    pub(crate) fn record_drop(&mut self, to: NodeId, goal: &Term) {
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
    pub(crate) fn spawn(&mut self, goal: Term, target: NodeId) {
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
            match self.edge_delivery(self.current_node, target) {
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

    fn wake(&mut self, waiters: Vec<u64>, bind_time: Time, binder: NodeId) {
        for pid in waiters {
            if let Some((me, _)) = self.shard {
                if (pid >> WORKER_PID_SHIFT) as usize != me {
                    // Another worker owns the suspension: route the wake-up.
                    // It counts against the gate until the owner applies it
                    // (see `absorb`), so quiescence cannot be announced with
                    // the wake still in flight.
                    self.gate_add(1);
                    self.outbox.push(Routed::Wake {
                        pid,
                        time: bind_time,
                        binder,
                    });
                    continue;
                }
            }
            self.requeue_woken(pid, bind_time, binder);
        }
    }

    /// Make a suspension this machine owns runnable again after a binding at
    /// `bind_time` on `binder`. A stale wake-up — the process already woke
    /// through another variable — is dropped.
    fn requeue_woken(&mut self, pid: u64, bind_time: Time, binder: NodeId) {
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

    /// Tear out every suspension matching `doomed`: its wake can never
    /// matter again.
    fn tear_out(&mut self, doomed: impl Fn(&Susp) -> bool) -> Vec<Susp> {
        let pids: Vec<u64> = self
            .suspended
            .iter()
            .filter(|(_, s)| doomed(s))
            .map(|(&pid, _)| pid)
            .collect();
        pids.into_iter()
            .map(|pid| self.unsuspend(pid).expect("collected above"))
            .collect()
    }

    fn suspend(&mut self, item: QItem, vars: Vec<VarId>) {
        debug_assert!(!vars.is_empty(), "suspending on empty var set");
        let pid = item.pid;
        let (now, node) = (self.now(), self.current_node);
        // A variable can be bound between the match that found it unbound
        // and this registration: never on the simulator, where a reduction
        // is atomic, but on a `SharedStore` a peer worker binds concurrently.
        // Roll back the waiters registered so far and retry the very same
        // process — same pid, tracked flag and region, so the tracked gauge
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

    /// Run until no process is runnable. The initial goal must have been
    /// enqueued (see [`Machine::start`] or the `run_*` helpers in the crate
    /// root). This is the simulator's driver over the shard core: it owns
    /// every node, advances them in global virtual-time order and fires the
    /// [`FaultPlan`](crate::config::FaultPlan)'s crashes between steps.
    pub fn run(&mut self) -> StrandResult<RunReport> {
        let mut truncated = false;
        loop {
            let best = self.next_event();
            // Fire any scheduled crash due before the next event, so crashes
            // hit idle (suspended) nodes too, in global virtual-time order.
            if let Some(&(node, at)) = self.pending_crashes.first() {
                if best.is_none_or(|(bk, _)| at <= bk) {
                    self.pending_crashes.remove(0);
                    self.apply_crash(node, at);
                    continue;
                }
            }
            let Some((start, i)) = best else { break };
            if self.over_budget()? {
                self.errors.push((
                    start,
                    StrandError::BudgetExhausted {
                        reductions: self.total_reductions,
                    },
                ));
                truncated = true;
                break;
            }
            self.step(i, start)?;
        }
        Ok(merge_shard_reports([self.finalize_shard()], truncated))
    }

    /// The owned node with the earliest next event, and that event's time.
    /// Ties go to the lowest node index.
    fn next_event(&self) -> Option<(Time, usize)> {
        let (me, threads) = self.shard.unwrap_or((0, 1));
        let mut best: Option<(Time, usize)> = None;
        // Not `Range::step_by`: its constructor divides, once per step.
        let mut i = me;
        while i < self.nodes.len() {
            if let Some(top) = self.nodes[i].queue.peek() {
                let key = self.nodes[i].clock.max(top.ready_at);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
            i += threads;
        }
        best
    }

    /// Is the run's reduction budget spent? An error under `fail_fast`.
    fn over_budget(&self) -> StrandResult<bool> {
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

    /// Pop node `i`'s next process and reduce it at time `start`. Returns
    /// `false` when the process was a `'$timer'` whose cancel flag is
    /// already bound: it evaporates at no cost in budget, clock or step
    /// quantum, so cancelled timeouts never stretch the makespan. (Only the
    /// simulator queues `'$timer'` items — its virtual clock orders them; a
    /// shard arms into the fleet's deadline queue instead.)
    fn step(&mut self, i: usize, start: Time) -> StrandResult<bool> {
        let item = self.nodes[i].queue.pop().expect("peeked nonempty queue");
        if goal_is_timer(&item.goal) && self.cancel_is_bound(&item.goal.goal_args()[0]) {
            self.metrics.timers_cancelled += 1;
            self.gate_sub(1);
            return Ok(false);
        }
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
        let cost = (self.config.reduction_cost + self.extra_cost) * self.slowdown[i];
        self.nodes[i].clock = start + cost;
        self.metrics.busy[i] += cost;
        self.metrics.reductions[i] += 1;
        self.gate_sub(1);
        step_result?;
        Ok(true)
    }

    /// Kill a node (a [`FaultPlan`](crate::config::FaultPlan) crash,
    /// traced at virtual time `at`).
    fn apply_crash(&mut self, node: NodeId, at: Time) {
        if self.is_crashed(node) {
            return;
        }
        let (lost_queue, lost_suspended) = self.teardown_node(node);
        if self.config.record_trace {
            self.trace.push(TraceEvent::Crash {
                time: at,
                node,
                lost_queue,
                lost_suspended,
            });
        }
    }

    /// Tear a dead node down: drop its queue (settling the in-flight gate),
    /// tear its suspended goals out of the store (they will never wake),
    /// drop the deadlines it armed but the backend has not harvested,
    /// balance the tracked gauge and remember diagnostic snapshots. Returns
    /// how many queued and suspended goals were lost.
    fn teardown_node(&mut self, node: NodeId) -> (usize, usize) {
        let i = node.0 as usize;
        self.crashed[i] = true;
        if let Some(h) = &self.hooks {
            h.crashed[i].store(true, AtomicOrdering::Release);
        }
        self.armed_deadlines.retain(|d| d.node != node);
        // The node's clock stays where computation stopped: a crash is not
        // work, and must not stretch the makespan.
        let lost: Vec<QItem> = self.nodes[i].queue.drain().collect();
        self.gate_sub(lost.len() as u64);
        for item in &lost {
            self.bury(node, item);
        }
        let torn = self.tear_out(|s| s.node == node);
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
            self.dead_goals.push(self.store.resolve(&item.goal));
        }
    }

    /// Enqueue `goal` on node 1 at time 0.
    pub fn start(&mut self, goal: Term) {
        self.enqueue(goal, NodeId(0), 0);
    }

    // --- Service shell (resident machines; see DESIGN.md §9) --------------

    /// Build the ingress machine for a resident sharded run: it shares the
    /// run's world (store stripe 0, ports, gates) but owns **no** nodes —
    /// its shard index equals `threads`, so `node mod threads` never matches
    /// and every injected goal lands in the outbox for routing. It never
    /// reduces or suspends, so its pids (minted above every worker's range)
    /// never appear in store waiter lists; receivers re-mint pids on
    /// absorption as usual.
    pub fn new_ingress(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        threads: usize,
    ) -> Machine {
        Machine::attached(program, config, world, 0, threads, threads)
    }

    /// Set the session region for subsequent goal construction and
    /// injection: variables allocated while building the request term and
    /// everything its reductions spawn are tagged for
    /// [`reclaim_session`](Machine::reclaim_session).
    pub fn set_session_region(&mut self, region: u32) {
        self.current_region = region;
        self.store.set_region(region);
    }

    /// Inject an external goal onto 1-based node `node` of a resident
    /// machine. On an ingress machine the goal goes to the outbox (flush it
    /// to the workers); on the simulator it enqueues directly — call
    /// [`run`](Machine::run) again to process it (the scheduler loop is
    /// re-entrant: suspensions and the store persist across calls).
    pub fn inject(&mut self, goal: Term, node: i64) {
        let target = self.map_node(node);
        self.enqueue(goal, target, 0);
    }

    /// Sweep a closed session: tear out this machine's suspensions tagged
    /// with `region` (their wakes can never matter again under the
    /// session-locality contract) and reclaim the region's slots in the
    /// store this machine allocates into (its own stripe when sharded).
    /// Returns the number of store slots freed.
    pub fn reclaim_session(&mut self, region: u32) -> usize {
        debug_assert!(region != 0, "region 0 is the untracked batch region");
        for susp in self.tear_out(|s| s.item.region == region) {
            if susp.item.tracked {
                self.metrics.track_done(susp.node);
            }
        }
        let freed = match &mut self.store {
            StoreHandle::Local(s) => s.reclaim_region(region),
            StoreHandle::Shared(s) => {
                let owner = s.owner();
                s.shared().reclaim_region_stripe(owner, region)
            }
        };
        self.metrics.vars_reclaimed += freed as u64;
        freed
    }

    /// Mutable metrics access: the service shell counts sessions and
    /// admissions on the machine that fronts them, the parallel backend's
    /// workers count idle parks and timer prunes.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Live size of the store this machine allocates into (all stripes when
    /// sharded) — the soak tier's bounded-growth probe.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    // --- Sharded execution -----------------------------------------------
    //
    // The multi-threaded backend (crate `strand-parallel`) runs one Machine
    // per worker. Each worker owns the nodes with `node mod threads == idx`
    // outright — run queues, suspension tables, clocks — and shares only the
    // striped variable store, the port table, the `unique_id` sequence and
    // one counter lane per machine (reductions, in-flight gate) that only
    // its owner writes and readers sum. A reduction therefore writes no
    // cache line a peer reads, and reads a peer's line only where the
    // program itself shares data: a variable's published binding.
    // Workers alternate `drain_local` (reduce owned work; no lock wider than
    // a store stripe is ever held) with routing the outbox to peers and
    // absorbing their batches. There is no global machine lock.

    /// Drain the cross-shard events produced since the last call.
    pub fn take_outbox(&mut self) -> Vec<Routed> {
        std::mem::take(&mut self.outbox)
    }

    /// Record the budget-exhausted error once (the worker that first
    /// observes [`DrainState::Budget`] calls this).
    pub fn note_truncated(&mut self) {
        let reductions = self.budget_spent();
        self.errors
            .push((self.now(), StrandError::BudgetExhausted { reductions }));
    }

    /// Does this machine own `node`'s run queue and suspensions?
    fn owns(&self, node: NodeId) -> bool {
        match self.shard {
            Some((me, threads)) => node.0 as usize % threads == me,
            None => true,
        }
    }

    /// Apply a batch of events routed from other workers.
    pub fn absorb(&mut self, batch: Vec<Routed>) {
        for event in batch {
            match event {
                Routed::Job(job) => {
                    let Job { mut item, node } = job;
                    debug_assert!(self.owns(node), "job routed to wrong shard");
                    if self.crashed[node.0 as usize] {
                        // Senders on other workers cannot see this shard's
                        // crashes; the owner's check is the authority.
                        self.gate_sub(1);
                        self.metrics.msgs_dropped += 1;
                        continue;
                    }
                    // Re-mint the pid into this worker's range: the pid
                    // prefix is the wake-routing key, so if this job later
                    // suspends, the binder's wake must route *here* — under
                    // the sender's pid it would route to the sender, miss,
                    // and strand the process. Re-minting also gives
                    // fault-duplicated jobs distinct identities.
                    item.pid = self.fresh_pid();
                    if item.tracked {
                        self.metrics.track_spawn(node);
                    }
                    self.insert_local(node, item);
                }
                Routed::Wake { pid, time, binder } => {
                    self.gate_sub(1); // the wake has arrived, stale or not
                    self.requeue_woken(pid, time, binder);
                }
                Routed::Reclaim { region, .. } => {
                    self.reclaim_session(region);
                }
            }
        }
    }

    /// Reduce up to `max_steps` owned processes — the worker's driver over
    /// the shard core, using the same earliest-event selection and
    /// [`step`](Machine::step) as [`Machine::run`] restricted to this shard's
    /// nodes. A shard has no global virtual time, so its nodes' scheduled
    /// crashes fire here, once the run-global reduction count reaches them;
    /// the peers' share of that count is sampled once, here, and held for
    /// the whole drain (see [`Machine::budget_spent`]).
    pub fn drain_local(&mut self, max_steps: u32) -> StrandResult<DrainState> {
        if let Some(h) = &self.hooks {
            // Our own lane holds exactly `total_reductions`.
            self.peers_spent = h.reductions() - self.total_reductions;
        }
        while let Some(&(node, at)) = self.pending_crashes.first() {
            if self.budget_spent() < at {
                break;
            }
            self.pending_crashes.remove(0);
            self.apply_crash(node, self.nodes[node.0 as usize].clock);
        }
        let mut steps = 0u32;
        while steps < max_steps {
            let Some((start, i)) = self.next_event() else {
                return Ok(DrainState::Idle);
            };
            if self.over_budget()? {
                return Ok(DrainState::Budget);
            }
            if self.step(i, start)? {
                steps += 1;
            }
        }
        Ok(DrainState::More)
    }

    /// Arm an `after_unless` deadline `wait` ticks from the current
    /// reduction. The simulator queues a `'$timer'` item its virtual clock
    /// orders; a shard has no such clock and records the deadline for the
    /// backend's queue instead.
    pub(crate) fn arm_timer(&mut self, wait: Time, cancel: Term, timeout: Term) {
        let (node, due) = (self.current_node, self.now() + wait);
        self.metrics.timers_armed += 1;
        if self.shard.is_none() {
            self.enqueue(Term::tuple(sym::TIMER, vec![cancel, timeout]), node, due);
            return;
        }
        self.armed_deadlines.push(Deadline {
            node,
            wait,
            due,
            cancel,
            timeout,
            region: self.current_region,
        });
    }

    /// Harvest the deadlines armed since the last call. The parallel
    /// backend calls this after every drain and registers the entries into
    /// its deadline queue.
    pub fn take_deadlines(&mut self) -> Vec<Deadline> {
        std::mem::take(&mut self.armed_deadlines)
    }

    /// True once the unless-var of an armed deadline has been bound — the
    /// queue prunes such entries instead of firing them. Any machine sharing
    /// the store can answer this, whichever shard armed the timer.
    pub fn cancel_is_bound(&self, cancel: &Term) -> bool {
        !matches!(self.store.deref(cancel), Term::Var(_))
    }

    /// Deliver a due queue entry back into the shard layer: enqueue a
    /// `'$timer!'` goal on the entry's node. It is ordinary work —
    /// [`Machine::push_item`] raises the in-flight gate for it, and it
    /// routes through the outbox as a [`Routed::Job`] when another worker
    /// owns the node — so the mint-before-send token protocol sees a fired
    /// deadline exactly as it sees any other cross-shard event. Firing at a
    /// crashed node is a no-op, here or in its owner's `absorb` (the
    /// deadline died with the node; supervision recovers through monitors
    /// on live nodes).
    pub fn fire_deadline(&mut self, deadline: Deadline) {
        if self.crashed[deadline.node.0 as usize] {
            return;
        }
        let pid = self.fresh_pid();
        self.push_item(
            deadline.node,
            QItem {
                ready_at: 0,
                pid,
                goal: Term::tuple(sym::WALL_TIMER, vec![deadline.cancel, deadline.timeout]),
                tracked: false,
                region: deadline.region,
            },
        );
    }

    /// Drop all queued work (run aborted or truncated), settling gate and
    /// tracked-process accounting so merged metrics stay consistent.
    pub fn discard_local(&mut self) {
        for i in 0..self.nodes.len() {
            let items: Vec<QItem> = self.nodes[i].queue.drain().collect();
            self.gate_sub(items.len() as u64);
            for item in items {
                if item.tracked {
                    self.metrics.track_done(NodeId(i as u32));
                }
            }
        }
        self.armed_deadlines.clear();
    }

    /// Discard a routed batch unapplied (run aborted): settle the gate.
    pub fn discard_routed(&mut self, batch: Vec<Routed>) {
        for event in batch {
            match event {
                Routed::Job(_) | Routed::Wake { .. } => self.gate_sub(1),
                // Reclaims carry no gate unit; on an aborted run the region
                // simply stays allocated (the process is exiting anyway).
                Routed::Reclaim { .. } => {}
            }
        }
    }

    /// Snapshot this worker's slice of the final report.
    pub fn finalize_shard(&mut self) -> ShardReport {
        self.metrics.makespan = self.nodes.iter().map(|n| n.clock).max().unwrap_or(0);
        self.metrics.total_reductions = self.total_reductions;
        let suspended_goals: Vec<Term> = self
            .suspended
            .values()
            .take(16)
            .map(|s| {
                let mut budget = 256u32;
                resolve_capped(&self.store, &s.item.goal, &mut budget)
            })
            .collect();
        let crashed_nodes: Vec<u32> = self
            .crashed
            .iter()
            .enumerate()
            .filter(|(_, &dead)| dead)
            .map(|(i, _)| i as u32 + 1)
            .collect();
        ShardReport {
            metrics: self.metrics.clone(),
            output: std::mem::take(&mut self.output),
            errors: std::mem::take(&mut self.errors),
            suspended_goals,
            suspended: self.suspended.len(),
            trace: std::mem::take(&mut self.trace),
            crashed_nodes,
            dead: self.dead_count,
            dead_goals: std::mem::take(&mut self.dead_goals),
        }
    }

    /// One reduction step.
    fn reduce(&mut self, item: QItem) -> StrandResult<()> {
        // Allocations made by this reduction (and spawns from it) belong to
        // the process's session region. Batch runs stay on region 0 and
        // never take this branch.
        if self.current_region != item.region {
            self.current_region = item.region;
            self.store.set_region(item.region);
        }
        let goal = self.store.deref(&item.goal);
        if let Term::Var(v) = goal {
            // A goal that is itself an unbound variable: a metacall waiting
            // for its goal term. Suspend until provided.
            self.suspend(item, vec![v]);
            return Ok(());
        }
        let Some((&name, arity)) = goal.functor() else {
            let resolved = self.store.resolve(&goal);
            self.finish_tracked(&item);
            return self.record_error(StrandError::NoMatchingRule { goal: resolved });
        };

        // Foreign procedures shadow builtins of the same name.
        let mut called = None;
        if !self.foreign.is_empty() {
            called = self.try_foreign(name, &goal);
        }
        if called.is_none() {
            called = self.exec_builtin(name, &goal).transpose();
        }
        if let Some(outcome) = called {
            match outcome {
                Ok(CallOutcome::Done) => self.finish_tracked(&item),
                Ok(CallOutcome::Suspend(vars)) => self.suspend(item, vars),
                // Dispatch-level errors go through `record_error` like the
                // outcome-level ones: with `fail_fast` off they must be
                // *collected*, not propagated — a resident service survives
                // a bad request instead of tearing down (DESIGN.md §9).
                Ok(CallOutcome::Error(e)) | Err(e) => {
                    self.finish_tracked(&item);
                    self.record_error(e)?;
                }
            }
            return Ok(());
        }

        // The two tiers differ only in what a rule *is*; `dispatch` is
        // monomorphised per tier (see [`TierRule`]).
        let undefined = || StrandError::UndefinedProcedure {
            name: name.as_str().to_string(),
            arity,
        };
        match self.config.exec {
            ExecMode::Compiled => {
                // Lent to the dispatch (which needs `&mut self`) and put
                // back: no reference count to write per reduction.
                let exec = std::mem::take(&mut self.exec);
                let done = match exec.lookup(name, arity) {
                    Some(proc) => {
                        self.metrics.compiled_reductions += 1;
                        // One up-front deref of the first argument feeds
                        // every index probe.
                        let arg0 = match goal.goal_args().first() {
                            Some(a) if proc.indexed => Some(self.store.deref(a)),
                            _ => None,
                        };
                        let otherwise = proc.otherwise.as_deref();
                        self.dispatch(item, &goal, name, proc.rules.iter(), otherwise, arg0)
                    }
                    None => {
                        self.finish_tracked(&item);
                        self.record_error(undefined())
                    }
                };
                self.exec = exec;
                done
            }
            ExecMode::Interpreted => {
                let program = Arc::clone(&self.program);
                let Some(proc) = program.lookup(name, arity) else {
                    self.finish_tracked(&item);
                    return self.record_error(undefined());
                };
                self.metrics.interpreted_reductions += 1;
                // Only the first `otherwise` rule is ever tried.
                let ordinary = proc.rules.iter().filter(|r| !r.otherwise);
                let otherwise = proc.rules.iter().find(|r| r.otherwise);
                self.dispatch(item, &goal, name, ordinary, otherwise, None)
            }
        }
    }

    /// Rule dispatch, shared by both tiers: try the ordinary rules in
    /// order, then commit, suspend on the union of the variables the
    /// undecided rules wait for, or fail with `NoMatchingRule`.
    fn dispatch<'r, R: TierRule + 'r>(
        &mut self,
        item: QItem,
        goal: &Term,
        name: Atom,
        rules: impl Iterator<Item = &'r R>,
        otherwise: Option<&'r R>,
        arg0: Option<Term>,
    ) -> StrandResult<()> {
        // The goal is a dereferenced local, so its argument slice can be
        // borrowed directly — no `to_vec`.
        let args: &[Term] = goal.goal_args();
        let mut scratch = std::mem::take(&mut self.scratch);
        let decided = self.try_rules(args, rules, otherwise, arg0.as_ref(), &mut scratch);
        self.scratch = scratch;
        match decided? {
            Dispatched::Committed => self.finish_tracked(&item),
            Dispatched::Suspend(vars) => {
                *self.metrics.susp_by_proc.entry(name).or_insert(0) += 1;
                self.suspend(item, vars);
            }
            Dispatched::NoMatch => {
                let resolved = self.store.resolve(goal);
                self.finish_tracked(&item);
                self.record_error(StrandError::NoMatchingRule { goal: resolved })?;
            }
        }
        Ok(())
    }

    /// The decision half of [`dispatch`](Machine::dispatch); `?` may leave
    /// early because the caller owns putting `scratch` back.
    fn try_rules<'r, R: TierRule + 'r>(
        &mut self,
        args: &[Term],
        rules: impl Iterator<Item = &'r R>,
        otherwise: Option<&'r R>,
        arg0: Option<&Term>,
        scratch: &mut Scratch,
    ) -> StrandResult<Dispatched> {
        scratch.pending.clear();
        for rule in rules {
            if let (Some(key), Some(a0)) = (rule.key(), arg0) {
                if !key.admits(a0) {
                    self.metrics.index_hits += 1;
                    continue;
                }
                self.metrics.index_misses += 1;
            }
            match self.try_rule(rule, args, scratch)? {
                TryResult::Commit => return Ok(Dispatched::Committed),
                TryResult::Fail => {}
                TryResult::Suspend => {
                    for i in 0..scratch.rule_pending.len() {
                        exec::push_unique(&mut scratch.pending, scratch.rule_pending[i]);
                    }
                }
            }
        }
        if !scratch.pending.is_empty() {
            // The buffer is donated to the suspension record and re-grows on
            // the next suspending reduction (the commit path never pushes,
            // so it stays allocation-free).
            return Ok(Dispatched::Suspend(std::mem::take(&mut scratch.pending)));
        }
        // All ordinary rules failed definitively: only now may the
        // `otherwise` rule run.
        if let Some(rule) = otherwise {
            match self.try_rule(rule, args, scratch)? {
                TryResult::Commit => return Ok(Dispatched::Committed),
                TryResult::Fail => {}
                TryResult::Suspend => {
                    let vars = std::mem::take(&mut scratch.rule_pending);
                    return Ok(Dispatched::Suspend(vars));
                }
            }
        }
        Ok(Dispatched::NoMatch)
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
            self.commit(rule, &mut scratch.frame)?;
        }
        Ok(tried)
    }

    fn finish_tracked(&mut self, item: &QItem) {
        if item.tracked {
            self.metrics.track_done(self.current_node);
        }
    }

    /// Spawn a committed rule's body, each call on its `@` placement.
    fn commit<R: TierRule>(&mut self, rule: &R, frame: &mut Frame) -> StrandResult<()> {
        for call in rule.body() {
            let (goal, placement) = R::build(call, frame, &mut self.store);
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
                    self.spawn(Term::tuple(sym::SPAWN_AT, vec![place_term, goal]), node);
                }
                Err(e) => self.record_error(e)?,
            }
        }
        Ok(())
    }
}

/// What rule dispatch needs from an execution tier: how one rule is indexed,
/// attempted into a [`Scratch`], and how its body is instantiated. The
/// driver ([`Machine::dispatch`]) is generic over this and monomorphised for
/// the two implementors, so neither tier pays a dynamic call per rule.
trait TierRule {
    type Call;
    /// First-argument index key; `None` = the rule is never filtered.
    fn key(&self) -> Option<&IndexKey> {
        None
    }
    /// Match the head and evaluate the guards. On `Commit` the bindings are
    /// in `scratch.frame`; on `Suspend` the variables are in
    /// `scratch.rule_pending`.
    fn attempt(
        &self,
        args: &[Term],
        store: &StoreHandle,
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult>;
    fn body(&self) -> &[Self::Call];
    /// Instantiate one body call: its goal, then its placement expression.
    fn build(call: &Self::Call, frame: &mut Frame, store: &mut StoreHandle)
        -> (Term, Option<Term>);
}

/// The compiled tier (`ExecMode::Compiled`, the default): direct-threaded
/// match ops, clause indexing and pre-lowered body templates (see
/// [`crate::exec`]). Must stay observably identical to the interpreter.
impl TierRule for exec::ExecRule {
    type Call = exec::ExecCall;

    fn key(&self) -> Option<&IndexKey> {
        self.key.as_ref()
    }

    #[inline(always)]
    fn attempt(
        &self,
        args: &[Term],
        store: &StoreHandle,
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult> {
        // Store dispatch happens here, once per attempt, so the matcher is
        // compiled against the concrete store and never re-dispatches per
        // deref.
        match store {
            StoreHandle::Local(s) => exec::try_rule(self, args, s, scratch),
            StoreHandle::Shared(s) => exec::try_rule(self, args, s, scratch),
        }
    }

    fn body(&self) -> &[exec::ExecCall] {
        &self.body
    }

    fn build(
        call: &exec::ExecCall,
        frame: &mut Frame,
        store: &mut StoreHandle,
    ) -> (Term, Option<Term>) {
        let goal = call.goal.build(frame, store);
        (goal, call.placement.as_ref().map(|p| p.build(frame, store)))
    }
}

/// The reference interpreter (`ExecMode::Interpreted`): per-reduction `Pat`
/// walking. Kept as the executable semantics the compiled tier is diffed
/// against.
impl TierRule for CompiledRule {
    type Call = CompiledCall;

    fn attempt(
        &self,
        args: &[Term],
        store: &StoreHandle,
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult> {
        scratch.rule_pending.clear();
        scratch.frame.reset(self.n_locals);
        match match_args(args, &self.head, store, &mut scratch.frame) {
            MatchOutcome::Fail => return Ok(TryResult::Fail),
            // A match-time suspension returns before any guard runs.
            MatchOutcome::Suspend(vs) => {
                scratch.rule_pending.extend(vs);
                return Ok(TryResult::Suspend);
            }
            MatchOutcome::Match => {}
        }
        for guard in &self.guards {
            // A guard mentioning a variable not bound by the head can never
            // be decided; treat as failure (and surface a programmer error).
            let Some(gterm) = guard.instantiate_ro(&scratch.frame) else {
                return Ok(TryResult::Fail);
            };
            match strand_core::eval_guard(&gterm, store)? {
                GuardOutcome::True => {}
                GuardOutcome::False => return Ok(TryResult::Fail),
                GuardOutcome::Suspend(vs) => {
                    for v in vs {
                        exec::push_unique(&mut scratch.rule_pending, v);
                    }
                }
            }
        }
        Ok(if scratch.rule_pending.is_empty() {
            TryResult::Commit
        } else {
            TryResult::Suspend
        })
    }

    fn body(&self) -> &[CompiledCall] {
        &self.body
    }

    fn build(
        call: &CompiledCall,
        frame: &mut Frame,
        store: &mut StoreHandle,
    ) -> (Term, Option<Term>) {
        let goal = call.goal.instantiate(frame, store);
        let placement = call.placement.as_ref().map(|p| p.instantiate(frame, store));
        (goal, placement)
    }
}

/// How rule dispatch ended for one goal.
enum Dispatched {
    /// A rule applied; its body has been spawned.
    Committed,
    Suspend(Vec<VarId>),
    /// Every rule failed definitively.
    NoMatch,
}

/// Outcome of a builtin or foreign call. `Error` is a program-level problem
/// that `record_error` collects when `fail_fast` is off.
pub(crate) enum CallOutcome {
    Done,
    Suspend(Vec<VarId>),
    Error(StrandError),
}

/// Outcome of the fault dice for one cross-node delivery.
pub(crate) enum Delivery {
    Deliver,
    Drop,
    Duplicate,
    Delay(Time),
}

/// Merge per-worker shard reports into one run report. Output concatenates
/// in worker order, so a 1-thread parallel run reads exactly like the
/// simulator. Per-node counters add and per-node peaks/gauges take maxima —
/// both exact, since each node lives on exactly one worker.
pub fn merge_shard_reports(
    parts: impl IntoIterator<Item = ShardReport>,
    truncated: bool,
) -> RunReport {
    let mut metrics: Option<Metrics> = None;
    let mut output = Vec::new();
    let mut errors = Vec::new();
    let mut suspended_goals = Vec::new();
    let mut suspended = 0usize;
    let mut trace = Vec::new();
    let mut crashed_nodes = Vec::new();
    let mut dead = 0usize;
    let mut dead_goals = Vec::new();
    for part in parts {
        match &mut metrics {
            Some(m) => m.merge(&part.metrics),
            None => metrics = Some(part.metrics),
        }
        output.extend(part.output);
        errors.extend(part.errors);
        suspended_goals.extend(part.suspended_goals);
        suspended += part.suspended;
        trace.extend(part.trace);
        crashed_nodes.extend(part.crashed_nodes);
        dead += part.dead;
        dead_goals.extend(part.dead_goals);
    }
    let metrics = metrics.unwrap_or_else(|| Metrics::new(0));
    crashed_nodes.sort_unstable();
    let status = if truncated {
        RunStatus::Truncated {
            reductions: metrics.total_reductions,
        }
    } else if !crashed_nodes.is_empty() && suspended > 0 {
        // Survivors are stuck on bindings a dead node will never make.
        RunStatus::Partitioned {
            suspended,
            dead,
            crashed_nodes,
        }
    } else if suspended == 0 {
        RunStatus::Completed
    } else {
        RunStatus::Quiescent { suspended }
    };
    suspended_goals.sort_by_key(|t| t.to_string());
    suspended_goals.truncate(16);
    dead_goals.sort_by_key(|t| t.to_string());
    dead_goals.truncate(16);
    RunReport {
        status,
        metrics,
        output,
        errors,
        suspended_goals,
        dead_goals,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_parse::{compile_program, parse_program};

    /// On a `SharedStore` a peer can bind a variable between the match that
    /// found it unbound and `suspend`'s waiter registration. The rollback
    /// must retry the very same process: same pid, counted once by the
    /// tracked gauge, holding one gate unit.
    #[test]
    fn suspend_rollback_requeues_the_same_process() {
        let program = compile_program(&parse_program("p(X) :- true.").unwrap()).unwrap();
        let world = SharedWorld::new(1, 1);
        let mut cfg = MachineConfig::default();
        cfg.tracked.insert(Atom::new("p"));
        let mut m = Machine::new_worker(Arc::new(program), cfg, &world, 0, 1);
        m.set_session_region(7);
        let v = m.store.new_var();
        m.start(Term::tuple("p", vec![Term::Var(v)]));
        let item = m.nodes[0].queue.pop().unwrap();
        let pid = item.pid;
        // The "peer" binds first; then the popped process tries to suspend.
        m.store.bind(v, Term::int(1), 0, NodeId(0)).unwrap();
        m.suspend(item, vec![v]);
        m.gate_sub(1); // `step` settles the popped item's unit after `reduce`

        assert!(m.suspended.is_empty());
        assert_eq!(m.metrics.suspensions, 0);
        assert_eq!(m.nodes[0].queue.len(), 1, "one runnable process");
        let again = m.nodes[0].queue.peek().unwrap();
        assert_eq!((again.pid, again.tracked, again.region), (pid, true, 7));
        assert_eq!(m.metrics.live_tracked[0], 1, "spawn counted twice");
        assert_eq!(world.regular_pending(), 1, "gate out of balance");

        assert_eq!(m.drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!(m.metrics.live_tracked[0], 0);
        assert_eq!(m.metrics.peak_tracked[0], 1);
        assert_eq!(world.regular_pending(), 0);
    }

    /// The in-flight gate is a sum of per-machine lanes. An item injected by
    /// the ingress machine, forwarded by worker 0 and finished on worker 1
    /// is added on two lanes and subtracted on two others: a lane on its own
    /// may go negative, the sum is exact at every quiescent instant.
    #[test]
    fn gate_lanes_sum_exactly_across_two_workers_and_an_ingress_machine() {
        let src = "go(V) :- set(V)@2. set(V) :- V := ok.";
        let program = Arc::new(compile_program(&parse_program(src).unwrap()).unwrap());
        let world = SharedWorld::new(2, 4);
        let cfg = MachineConfig::with_nodes(4);
        let mut workers: Vec<Machine> = (0..2)
            .map(|i| Machine::new_worker(Arc::clone(&program), cfg.clone(), &world, i, 2))
            .collect();
        let mut ingress = Machine::new_ingress(program, cfg, &world, 2);
        let lanes = || -> Vec<i64> {
            let held = |l: &Lane| l.regular.load(AtomicOrdering::Relaxed);
            world.hooks.lanes.iter().map(held).collect()
        };
        let deliver = |events: Vec<Routed>, workers: &mut [Machine]| {
            for r in events {
                workers[r.dest_worker(2)].absorb(vec![r]);
            }
        };

        let v = ingress.store.new_var();
        ingress.inject(Term::tuple("go", vec![Term::Var(v)]), 1);
        deliver(ingress.take_outbox(), &mut workers);
        assert_eq!((lanes(), world.regular_pending()), (vec![0, 0, 1], 1));

        // Worker 0 reduces go/1 (-1) and spawns set/1 at node 2 (+1).
        assert_eq!(workers[0].drain_local(8).unwrap(), DrainState::Idle);
        let routed = workers[0].take_outbox();
        deliver(routed, &mut workers);
        assert_eq!((lanes(), world.regular_pending()), (vec![0, 0, 1], 1));

        // Worker 1 reduces it (and the `:=` it spawns): its lane never held
        // the +1 it settles.
        assert_eq!(workers[1].drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!((lanes(), world.regular_pending()), (vec![0, -1, 1], 0));
        assert_eq!(ingress.store.deref(&Term::Var(v)), Term::atom("ok"));

        // go/1 on worker 0; set/1 and its `:=` on worker 1. Each worker's
        // clock is its own count plus the peer's as of its last drain.
        assert_eq!(world.reductions(), 3);
        let clocks: Vec<u64> = workers.iter().map(Machine::budget_spent).collect();
        assert_eq!(clocks, [1, 3]);
    }
}
