//! A machine's place in the world: its [`Role`] (alone, or one [`Shard`] of
//! a run that shares a [`SharedWorld`]), the [`StoreHandle`] that goes with
//! it, and what sharded machines send each other — [`Routed`] events between
//! shards, [`Deadline`]s to the backend.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use strand_core::{
    NodeId, SharedStore, SharedStoreView, Store, StoreOps, StrandResult, Term, Time, VarId, Waiter,
};

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
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
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
/// machine; receivers apply it via [`Machine::absorb`](crate::Machine::absorb).
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

/// An `after_unless` deadline armed on a sharded machine. A shard has no
/// global clock to order a `'$timer'` item by, so it records the deadline
/// here for the parallel backend to harvest (see
/// [`Machine::take_deadlines`](crate::Machine::take_deadlines)) into the
/// fleet's one deadline queue. When the queue's clock reaches the entry the
/// backend hands it back through
/// [`Machine::fire_deadline`](crate::Machine::fire_deadline), which enqueues
/// a `'$timer!'` goal — ordinary gate-counted work, so the token protocol
/// sees a fired deadline exactly as it sees any other event.
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

/// Which life a machine leads. Its constructor is handed exactly one of
/// these two states, so everything a machine has only "when sharded" is here
/// or nowhere.
pub(crate) enum Role {
    /// The simulator's machine: it owns every node, and with them the port
    /// table and the `unique_id/1` counter.
    Alone { ports: Vec<PortState>, seq: u64 },
    /// One machine of a sharded run: a fleet worker, or the ingress machine.
    Sharded(Shard),
}

/// What only a machine of a sharded run has.
///
/// The multi-threaded backend (crate `strand-parallel`) runs one machine per
/// worker. Each owns its nodes outright — run queues, suspension tables,
/// clocks — and shares only what [`SharedWorld`] holds: the striped variable
/// store, the port table, the `unique_id` sequence and one counter lane per
/// machine (reductions, in-flight gate) that only its owner writes and
/// readers sum. A reduction therefore writes no cache line a peer reads, and
/// reads a peer's line only where the program itself shares data: a
/// variable's published binding. There is no global machine lock.
pub(crate) struct Shard {
    /// This machine owns exactly the nodes with `node mod threads == index`.
    /// A worker's index is below `threads`; the ingress machine's equals it,
    /// so it owns none.
    pub index: usize,
    pub threads: usize,
    /// The run's shared state; this machine's lane is `world.lanes[index]`.
    pub world: SharedWorld,
    /// Cross-shard events awaiting routing.
    pub outbox: Vec<Routed>,
    /// What the peers' budget lanes summed to at the top of the current
    /// drain (see `Machine::budget_spent`).
    pub peers_spent: u64,
    /// Deadlines armed since the backend last harvested them.
    pub armed: Vec<Deadline>,
}

impl Shard {
    #[inline]
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        node.0 as usize % self.threads == self.index
    }

    /// The store stripe this machine allocates from: a worker's own, and
    /// stripe 0 for the ingress machine.
    pub(crate) fn stripe(&self) -> u32 {
        (self.index % self.threads) as u32
    }

    #[inline]
    pub(crate) fn lane(&self) -> &Lane {
        &self.world.lanes[self.index]
    }

    /// Move this machine's gate lane by `delta`. The lane has one writer
    /// (the ingress lane's are serialised by the ingress mutex), so a load
    /// and a store do; see [`Lane`].
    #[inline]
    pub(crate) fn gate_move(&self, delta: i64) {
        let lane = self.lane();
        let held = lane.regular.load(Ordering::Relaxed);
        lane.regular.store(held + delta, Ordering::Relaxed);
    }
}

impl Role {
    /// The simulator's role, with the [`StoreHandle`] that goes with it.
    pub(crate) fn alone() -> (StoreHandle, Role) {
        let role = Role::Alone {
            ports: Vec::new(),
            seq: 0,
        };
        (StoreHandle::Local(Store::new()), role)
    }

    /// Does this machine own `node`'s run queue and suspensions?
    #[inline]
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        match self {
            Role::Sharded(shard) => shard.owns(node),
            Role::Alone { .. } => true,
        }
    }

    /// The first pid of this machine's range (see [`WORKER_PID_SHIFT`]).
    pub(crate) fn pid_base(&self) -> u64 {
        match self {
            Role::Sharded(shard) => (shard.index as u64) << WORKER_PID_SHIFT,
            Role::Alone { .. } => 0,
        }
    }

    /// Next `unique_id/1` value — run-global in sharded execution.
    pub(crate) fn next_unique_id(&mut self) -> u64 {
        match self {
            Role::Sharded(shard) => shard.world.seq.fetch_add(1, Ordering::Relaxed) + 1,
            Role::Alone { seq, .. } => {
                *seq += 1;
                *seq
            }
        }
    }

    /// The port table: owned outright, or shared behind the world's mutex.
    /// The lock covers only id allocation and the tail swap; the actual tail
    /// binding happens outside it, so concurrent appends each link a
    /// distinct cons cell and the stream stays linear.
    fn with_ports<R>(&mut self, f: impl FnOnce(&mut Vec<PortState>) -> R) -> R {
        match self {
            Role::Sharded(shard) => f(&mut shard.world.ports.lock().expect("ports mutex poisoned")),
            Role::Alone { ports, .. } => f(ports),
        }
    }

    /// Register a port, returning its id.
    pub(crate) fn open_port(&mut self, p: PortState) -> u32 {
        self.with_ports(|v| {
            v.push(p);
            (v.len() - 1) as u32
        })
    }

    /// The node a port lives on (fixed at creation).
    pub(crate) fn port_owner(&mut self, id: u32) -> NodeId {
        self.with_ports(|v| v[id as usize].owner)
    }

    /// Atomically replace the port's tail variable, returning the old tail.
    pub(crate) fn swap_port_tail(&mut self, id: u32, new_tail: VarId) -> VarId {
        self.with_ports(|v| std::mem::replace(&mut v[id as usize].tail, new_tail))
    }
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

/// The write end of a stream (see `strand-core::Term::Port`).
#[derive(Clone, Debug)]
pub(crate) struct PortState {
    pub owner: NodeId,
    pub tail: VarId,
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
pub(crate) struct Lane {
    /// Reductions this machine has performed.
    pub budget: AtomicU64,
    /// This machine's contribution to the in-flight gate: +1 per item it
    /// queued or routed, −1 per item it reduced or discarded. An item sent
    /// across shards is added on one lane and subtracted on another, so a
    /// lane on its own may be negative; the sum over all lanes is the work
    /// queued or in flight.
    pub regular: AtomicI64,
}

/// Shared state backing one multi-worker run: the striped variable store,
/// the port table, and the run-global counters. Cheap to clone; every
/// machine of the run holds the same underlying `Arc`s.
#[derive(Clone)]
pub struct SharedWorld {
    pub(crate) store: Arc<SharedStore>,
    ports: Arc<Mutex<Vec<PortState>>>,
    /// One lane per machine, indexed by shard: the workers, then the
    /// ingress machine.
    pub(crate) lanes: Arc<[Lane]>,
    /// Global sequence counter backing `unique_id/1`.
    pub(crate) seq: Arc<AtomicU64>,
    /// Per-node crash flags, published by the owning worker when a
    /// [`FaultPlan`](crate::config::FaultPlan) crash tears a node down,
    /// for whoever routes *external* work to read. `spawn` never looks:
    /// for program traffic the owner's `absorb` is the authority.
    pub(crate) crashed: Arc<[AtomicBool]>,
}

impl SharedWorld {
    /// Shared state for `threads` workers (one store stripe per worker)
    /// hosting `nodes` virtual nodes.
    pub fn new(threads: usize, nodes: usize) -> SharedWorld {
        SharedWorld {
            store: Arc::new(SharedStore::new(threads.max(1) as u32)),
            ports: Arc::new(Mutex::new(Vec::new())),
            lanes: (0..=threads.max(1)).map(|_| Lane::default()).collect(),
            seq: Arc::new(AtomicU64::new(0)),
            crashed: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The role of machine `index` of this world's `threads`-worker run,
    /// with the [`StoreHandle`] that goes with it: it owns the nodes with
    /// `node mod threads == index` and allocates variables from
    /// [`Shard::stripe`].
    pub(crate) fn attach(&self, index: usize, threads: usize) -> (StoreHandle, Role) {
        let shard = Shard {
            index,
            threads,
            world: self.clone(),
            outbox: Vec::new(),
            peers_spent: 0,
            armed: Vec::new(),
        };
        let view = SharedStoreView::new(Arc::clone(&self.store), shard.stripe());
        (StoreHandle::Shared(view), Role::Sharded(shard))
    }

    /// Nodes a fault plan has crashed so far (1-based, ascending).
    pub fn crashed_nodes(&self) -> Vec<u32> {
        let flags = self.crashed.iter().zip(1u32..);
        flags
            .filter(|(dead, _)| dead.load(Ordering::Acquire))
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
        let held = |lane: &Lane| lane.regular.load(Ordering::Relaxed);
        self.lanes.iter().map(held).sum::<i64>().max(0) as u64
    }

    /// Reductions performed so far across all workers.
    pub fn reductions(&self) -> u64 {
        let spent = |lane: &Lane| lane.budget.load(Ordering::Relaxed);
        self.lanes.iter().map(spent).sum()
    }

    /// Each machine's gate lane, in shard order.
    #[cfg(test)]
    pub(crate) fn gate_lanes(&self) -> Vec<i64> {
        let held = |lane: &Lane| lane.regular.load(Ordering::Relaxed);
        self.lanes.iter().map(held).collect()
    }
}
