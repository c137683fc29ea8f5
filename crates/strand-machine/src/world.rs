//! A machine's place in the world: the [`Shard`] it is of a [`SharedWorld`],
//! the [`StoreHandle`] it reads and binds through, and what it hands on —
//! [`Routed`] events to other shards, [`Deadline`]s to its driver.

use std::borrow::Cow;
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use strand_core::{
    fmt_call, Atom, NodeId, SharedStoreView, Store, StoreOps, StrandResult, Term, Time, VarId,
    Waiter, Waiters,
};

/// What a process is to reduce.
///
/// A call owns its argument block outright: a rule's body builds each call
/// straight into one ([`GoalTmpl::build`](crate::exec::GoalTmpl::build)),
/// usually one a reduced goal handed back to the
/// [`BlockPool`](crate::exec::BlockPool), and the reduction that is done
/// with it hands it back again. Nothing else can hold the block, so neither
/// end asks whether anything does.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Goal {
    /// `name(args…)`, or the atom `name` when `args` is empty.
    Call { name: Atom, args: Box<[Term]> },
    /// A metacall's goal: a variable, or the data bound to one,
    /// dereferenced when reduced.
    Term(Term),
}

impl Goal {
    /// The goal a term denotes: a tuple's arguments copied into a block of
    /// its own, an atom as a call of none, anything else as a metacall.
    pub(crate) fn from_term(t: Term) -> Goal {
        match t {
            Term::Tuple(name, args) => Goal::Call {
                name,
                args: Box::from(&args[..]),
            },
            Term::Atom(name) => Goal::Call {
                name,
                args: Box::new([]),
            },
            other => Goal::Term(other),
        }
    }

    /// The call `name(args…)`.
    pub(crate) fn call(name: Atom, args: Vec<Term>) -> Goal {
        Goal::Call {
            name,
            args: args.into_boxed_slice(),
        }
    }

    /// The name a tracked process is known by: a call's, or a metacall
    /// term's functor as queued (a variable has none).
    pub(crate) fn name(&self) -> Option<Atom> {
        match self {
            Goal::Call { name, .. } => Some(*name),
            Goal::Term(t) => t.functor().map(|(name, _)| *name),
        }
    }

    /// The goal as a term, for what reads it as data: diagnostics and the
    /// collector's roots.
    pub(crate) fn to_term(&self) -> Term {
        match self {
            Goal::Call { name, args } => Term::tuple_from(*name, args.iter().cloned()),
            Goal::Term(t) => t.clone(),
        }
    }
}

/// Written as the goal's term is.
impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::Call { name, args } => fmt_call(f, *name, args),
            Goal::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A queued (runnable) process.
#[derive(Clone, Debug)]
pub(crate) struct QItem {
    pub ready_at: Time,
    pub pid: u64,
    pub goal: Goal,
    pub tracked: bool,
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
pub(crate) struct Job {
    pub(crate) item: QItem,
    pub(crate) node: NodeId,
}

/// Bits of a process id reserved for the owning worker's index in sharded
/// execution. Worker `w` allocates pids starting at `w << WORKER_PID_SHIFT`,
/// so any worker can route a wake-up from the pid alone — and worker 0's pids
/// coincide with the deterministic scheduler's, which is what makes 1-thread
/// parallel runs bit-identical to the simulator.
pub(crate) const WORKER_PID_SHIFT: u32 = 48;

/// A cross-worker event produced by one shard for another; the receiver
/// applies it via [`Machine::absorb`](crate::Machine::absorb).
#[derive(Debug)]
pub(crate) enum Routed {
    /// A newly runnable process for a node another worker owns.
    Job(Job),
    /// A binding at `time` on `binder` woke a process another worker owns.
    Wake {
        pid: u64,
        time: Time,
        binder: NodeId,
    },
}

impl Routed {
    /// Which worker must apply this event, given the routing rule
    /// `worker(node) = node mod threads` and pid-encoded suspension
    /// ownership.
    pub fn dest_worker(&self, threads: usize) -> usize {
        match self {
            Routed::Job(job) => job.node.0 as usize % threads,
            Routed::Wake { pid, .. } => (pid >> WORKER_PID_SHIFT) as usize,
        }
    }
}

/// An `after_unless` deadline a reduction armed (see
/// [`Machine::take_deadlines`](crate::Machine::take_deadlines)). The driver
/// decides what clock it runs on: the simulator queues it straight after
/// the step as a `'$timer'` item its virtual clock orders like any other
/// process; a fleet worker hands it to the fleet's one deadline queue,
/// which gives it back through
/// [`Machine::fire_deadline`](crate::Machine::fire_deadline) as the same
/// `'$timer'` goal — ordinary work, so the token protocol sees a fired
/// deadline exactly as it sees any other event.
#[derive(Clone, Debug)]
pub(crate) struct Deadline {
    /// Node the deadline was armed on; the fired goal runs there.
    pub node: NodeId,
    /// Ticks to wait; a resident fleet's wall clock maps 1 tick to 1 ms.
    pub wait: Time,
    /// The arming node's virtual clock plus `wait`: the instant the
    /// simulator and a batch fleet's quiescence clock order this deadline by.
    pub due: Time,
    /// The unless-var: if bound before the deadline, the timer is cancelled.
    pub cancel: Term,
    /// The timeout var, bound to `timeout` when the deadline fires.
    pub timeout: Term,
}

/// A machine's place in its [`SharedWorld`].
///
/// Every machine is one shard of a world: the simulator is shard 0 of a
/// one-shard world, a fleet worker is shard `index < threads` of its
/// fleet's world (`fleet/`), and the ingress machine is shard
/// `threads`, which owns no node. A machine owns its nodes outright — run
/// queues, suspension tables, clocks — and shares only what the world
/// holds: the port table, the `unique_id` sequence, one reduction-count
/// lane per worker that only its owner writes and readers sum, and the
/// crash flags. A reduction therefore writes no cache line a peer reads,
/// and reads a peer's line only where the program itself shares data: a
/// variable's published binding. There is no global machine lock.
pub(crate) struct Shard {
    /// This machine owns exactly the nodes with `node mod threads == index`.
    pub index: usize,
    pub threads: usize,
    /// The world's shared state; a worker's lane is `world.lanes[index]`.
    pub world: SharedWorld,
    /// Cross-shard events awaiting routing.
    pub outbox: Vec<Routed>,
    /// What the peers' budget lanes summed to at the top of the current
    /// drain (see `Machine::budget_spent`).
    pub peers_spent: u64,
    /// Deadlines armed since the driver last harvested them.
    pub armed: Vec<Deadline>,
}

/// Store access for one machine: the simulator owns a plain [`Store`]
/// outright; a fleet's machines share a lock-striped
/// [`SharedStore`](strand_core::SharedStore), each worker allocating from
/// its own stripe so variable creation is contention-free.
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

    /// [`deref`](StoreHandle::deref) for a term that is only read: a
    /// non-variable is borrowed where it is, with no reference count
    /// written.
    pub(crate) fn deref_cow<'t>(&self, t: &'t Term) -> Cow<'t, Term> {
        match t {
            Term::Var(_) => Cow::Owned(self.deref(t)),
            t => Cow::Borrowed(t),
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
    ) -> StrandResult<Waiters> {
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

    /// Slots ever created — the slot tables' high-water mark: a resident
    /// fleet reuses collected slots, so a bounded service keeps it bounded.
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

/// One worker's share of the run-global reduction count, on a cache line
/// of its own. Only the thread holding the worker's machine writes it — the
/// worker, or an ingress lender on a parked worker's machine, ordered by
/// the machine's mutex — with a plain store, no read-modify-write, so no
/// reduction writes a line a peer reads; readers sum the lanes. Everything
/// is `Relaxed`: a lane publishes nothing but itself, and a reader that
/// needs an exact sum reads at quiescence, which it learns through the
/// token counter's acquire/release (`fleet/quiesce.rs`) or a thread join.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Lane {
    /// Reductions this worker has performed.
    pub budget: AtomicU64,
}

/// Shared state of one world: the port table and the run-global counters.
/// Cheap to clone; every machine of the world holds the same underlying
/// `Arc`s. The variable store is not here: the simulator keeps a plain
/// [`Store`], and a fleet hands each machine its view of the fleet's
/// `SharedStore`.
#[derive(Clone)]
pub(crate) struct SharedWorld {
    ports: Arc<Mutex<Vec<PortState>>>,
    /// One lane per worker, indexed by shard. The ingress machine never
    /// reduces, so it has none.
    pub(crate) lanes: Arc<[Lane]>,
    /// Global sequence counter backing `unique_id/1`.
    seq: Arc<AtomicU64>,
    /// Per-node crash flags, published by the owning worker when a
    /// [`FaultPlan`](crate::config::FaultPlan) crash tears a node down,
    /// for whoever routes *external* work to read. `spawn` never looks:
    /// for program traffic the owner's `absorb` is the authority.
    pub(crate) crashed: Arc<[AtomicBool]>,
}

impl SharedWorld {
    /// Shared state for `threads` workers hosting `nodes` virtual nodes.
    pub fn new(threads: usize, nodes: usize) -> SharedWorld {
        SharedWorld {
            ports: Arc::new(Mutex::new(Vec::new())),
            lanes: (0..threads.max(1)).map(|_| Lane::default()).collect(),
            seq: Arc::new(AtomicU64::new(0)),
            crashed: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Shard `index` of this world: it owns the nodes with
    /// `node mod threads == index`, `threads` being the world's lane count.
    pub(crate) fn attach(&self, index: usize) -> Shard {
        Shard {
            index,
            threads: self.lanes.len(),
            world: self.clone(),
            outbox: Vec::new(),
            peers_spent: 0,
            armed: Vec::new(),
        }
    }

    /// Next `unique_id/1` value, run-global.
    pub(crate) fn next_unique_id(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The port table, behind the world's mutex. The lock covers only id
    /// allocation and the tail swap; the actual tail binding happens
    /// outside it, so concurrent appends each link a distinct cons cell and
    /// the stream stays linear.
    fn ports(&self) -> MutexGuard<'_, Vec<PortState>> {
        self.ports.lock().expect("ports mutex poisoned")
    }

    /// Register a port, returning its id.
    pub(crate) fn open_port(&self, p: PortState) -> u32 {
        let mut ports = self.ports();
        ports.push(p);
        (ports.len() - 1) as u32
    }

    /// The node a port lives on (fixed at creation).
    pub(crate) fn port_owner(&self, id: u32) -> NodeId {
        self.ports()[id as usize].owner
    }

    /// Atomically replace the port's tail variable, returning the old tail.
    pub(crate) fn swap_port_tail(&self, id: u32, new_tail: VarId) -> VarId {
        std::mem::replace(&mut self.ports()[id as usize].tail, new_tail)
    }

    /// Every port's current tail, the end of a stream anyone may still
    /// send on: roots of a collection.
    pub fn port_tails(&self) -> Vec<Term> {
        self.ports().iter().map(|p| Term::Var(p.tail)).collect()
    }

    /// Nodes a fault plan has crashed so far (1-based, ascending).
    pub fn crashed_nodes(&self) -> Vec<u32> {
        let flags = self.crashed.iter().zip(1u32..);
        flags
            .filter(|(dead, _)| dead.load(Ordering::Acquire))
            .map(|(_, node)| node)
            .collect()
    }

    /// Reductions performed so far across all workers.
    pub fn reductions(&self) -> u64 {
        let spent = |lane: &Lane| lane.budget.load(Ordering::Relaxed);
        self.lanes.iter().map(spent).sum()
    }
}
