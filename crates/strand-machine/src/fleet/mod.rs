//! The fleet: the multi-threaded engine. It runs the same compiled programs
//! as the simulator (`sim.rs`) on real worker threads, with **sharded
//! state** and no global machine lock.
//! [`run_parsed_goal_with_lib`](crate::run_parsed_goal_with_lib) runs a goal
//! here when the config asks for
//! [`MachineConfig::parallel`](crate::MachineConfig::parallel), and a
//! [`ResidentHandle`] keeps a fleet alive between bursts (`resident.rs`):
//!
//! * each virtual node is assigned to one worker (node `i` → worker
//!   `i % threads`); the worker *owns* its nodes' run queues, suspension
//!   table and metrics outright and touches them without synchronisation;
//! * logic variables live in a striped
//!   [`strand_core::SharedStore`] — every `VarId` carries the stripe of
//!   the worker that created it, so a worker binding its own variables
//!   takes only its own stripe's lock (cross-stripe binds lock the two
//!   stripes in index order);
//! * cross-worker events — remote spawns, port sends, binding wakeups —
//!   are buffered per destination and shipped as *batches* over unbounded
//!   `std::sync::mpsc` channels (a batch flushes at `BATCH_MAX` events or
//!   when the worker runs out of local work), amortising channel traffic;
//! * *pure* foreign procedures ([`ForeignLib`]) run inline
//!   on the owning worker — there is no lock to hold, so native
//!   computation on one worker genuinely overlaps everything else;
//! * idle workers park inside a blocking `recv`, letting go of their
//!   machines; termination is detected by a single token counter over busy
//!   workers, in-flight batches and ingress lenders (incremented *before*
//!   every send), model-checked in `quiesce.rs` — reaching zero proves
//!   global quiescence and the worker that observes it broadcasts stop;
//! * on a resident fleet, an ingress batch for a parked worker is not sent
//!   to wake it: the injecting thread takes the worker's machine and runs
//!   the worker's own [`burst`] on it ([`lend`]), sending the owner an
//!   empty batch only if work or a deadline is left for it. A busy worker's
//!   batch goes down its channel.
//!
//! The simulator stays the deterministic reference. On **one** worker
//! thread the fleet is an exact replica of it for programs without
//! `merge/2` or `after_unless/3` — worker 0 allocates the same process ids
//! and variables, draws the same `rand_num` and fault dice and selects work
//! from the same heaps — and above one it promises *confluence* (DESIGN.md
//! §6a; `tests/conformance.rs` checks both on every inventory motif program
//! at 1, 2, 4 and 8 threads). A [`FaultPlan`](crate::FaultPlan) is injected
//! in the shard core every worker runs, not here (DESIGN.md §8), and every
//! `after_unless/3` deadline goes into the fleet's one deadline queue,
//! whose clock follows from what the fleet is (`timers.rs`).

mod collect;
mod quiesce;
mod resident;
mod timers;

pub use resident::ResidentHandle;

use crate::report::merge_shard_reports;
use crate::worker::DrainState;
use crate::world::{Routed, SharedWorld};
use crate::{seed, Backend, ForeignLib, GoalResult, Machine, MachineConfig, RunReport};
use quiesce::Tokens;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use strand_core::{SharedStore, StrandError, StrandResult, Term};
use strand_parse::{Ast, CompiledProgram};

/// Cross-worker events buffered per destination before a batch ships.
/// Batches also flush whenever the sending worker runs out of local work,
/// so a small value only costs throughput, never liveness.
const BATCH_MAX: usize = 32;

/// Reductions a worker performs per scheduling turn before it services its
/// channel and flushes outbound batches. Bounds the latency between a peer
/// sending us work and us seeing it.
const DRAIN_STEPS: u32 = 64;

/// Lock a mutex a panicked holder cannot leave invalid (an `Option` swap, a
/// list push or removal): a worker that panics is reported through `fatal`,
/// and must not take the locks it held down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

enum Msg {
    /// Cross-worker events for the receiving worker's shard. Carries one
    /// quiescence token, minted by the sender before the send.
    Batch(Vec<Routed>),
    Stop,
}

struct Shared {
    /// Busy workers + in-flight batches + ingress lenders; zero ⇒ global
    /// quiescence.
    tokens: Tokens,
    /// Each worker's machine, locked by its worker except while parked on
    /// its channel, when a collector (`collect.rs`) or an ingress lender
    /// ([`lend`]) may take it.
    machines: Vec<Mutex<Machine>>,
    /// Ingress batches sent down a busy worker's channel rather than lent
    /// (`Metrics::ingress_handoffs`): the sender holds no machine to count
    /// them in.
    ingress_handoffs: AtomicU64,
    senders: Vec<Sender<Msg>>,
    /// Set on fatal error, budget exhaustion or quiescence: workers discard
    /// local work and exit.
    stopping: AtomicBool,
    truncated: AtomicBool,
    fatal: Mutex<Option<StrandError>>,
    world: SharedWorld,
    /// The fleet's striped variable store; each machine allocates from its
    /// own stripe of it (the ingress machine from stripe 0).
    store: Arc<SharedStore>,
    threads: usize,
    /// Resident (service) mode: global quiescence means *idle*, not
    /// terminated — the last worker to surrender its token parks instead of
    /// broadcasting stop, and the machine stays live for the next ingress
    /// batch. See DESIGN.md §9.
    resident: bool,
    /// The fleet's `after_unless` deadlines. The idle-park arm consults it
    /// before parking; its clock is the wall when `resident`, and otherwise
    /// jumps to the earliest deadline at quiescence (see [`park`]).
    wheel: timers::TimerWheel,
    /// A resident fleet's ingress machine, behind the lock that serialises
    /// injection and collection; `None` on a batch fleet and once shut down.
    ingress: Mutex<Option<collect::Ingress>>,
    /// Signalled on the ingress lock when a collection finishes.
    quiet: Condvar,
    /// The boot goal's variables: roots of a resident fleet's collections.
    boot: Vec<Term>,
}

/// Worker threads a config resolves to: explicit request, or the host's
/// available parallelism, both capped by the node count (a worker without a
/// node would never receive work).
pub(crate) fn resolve_threads(config: &MachineConfig) -> usize {
    let nodes = config.nodes.max(1) as usize;
    let requested = match config.backend {
        Backend::Parallel { threads } => threads as usize,
        Backend::Deterministic => 1,
    };
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, nodes)
}

/// Run `goal` on a batch fleet: the workers stop themselves at global
/// quiescence.
pub(crate) fn run(
    compiled: CompiledProgram,
    goal: &Ast,
    config: MachineConfig,
    lib: &ForeignLib,
) -> StrandResult<GoalResult> {
    let mut fleet = Fleet::launch(compiled, goal, config, lib, false);
    let vars = std::mem::take(&mut fleet.vars);
    let shared = Arc::clone(&fleet.shared);
    let report = fleet.collect(None)?;
    let worker0 = lock(&shared.machines[0]);
    Ok(GoalResult::resolved(report, vars, worker0.store()))
}

/// A launched fleet: one worker thread per shard running [`worker_loop`].
/// A batch run ([`run`]) collects it straight away — the workers
/// stop themselves at global quiescence; a resident run
/// ([`ResidentHandle`]) keeps it, feeds it through the ingress machine and
/// stops it on shutdown.
struct Fleet {
    shared: Arc<Shared>,
    /// One per shard, in index order.
    workers: Vec<JoinHandle<()>>,
    /// The seed goal's named variables.
    vars: BTreeMap<String, Term>,
    t0: Instant,
}

impl Fleet {
    /// Seed `goal` on node 1 and spawn the workers. A resident fleet also
    /// gets the ingress machine external threads inject through (see
    /// [`Machine::new_ingress`]).
    fn launch(
        compiled: CompiledProgram,
        goal: &Ast,
        config: MachineConfig,
        lib: &ForeignLib,
        resident: bool,
    ) -> Fleet {
        let threads = resolve_threads(&config);
        let compiled = Arc::new(compiled);
        let world = SharedWorld::new(threads, config.nodes.max(1) as usize);
        let store = Arc::new(SharedStore::new(threads as u32));
        let mut machines: Vec<Machine> = (0..threads)
            .map(|idx| {
                Machine::new_worker(Arc::clone(&compiled), config.clone(), &world, &store, idx)
            })
            .collect();
        let mut ingress =
            resident.then(|| Machine::new_ingress(compiled, config.clone(), &world, &store));
        for m in machines.iter_mut().chain(&mut ingress) {
            m.install_lib(lib);
        }
        // Node 0 belongs to worker 0, so the seed goal lands in its own heap.
        let vars = seed(&mut machines[0], goal);

        let (senders, receivers): (Vec<_>, Vec<_>) = (0..threads).map(|_| channel::<Msg>()).unzip();
        let shared = Arc::new(Shared {
            tokens: Tokens::new(threads as u64),
            machines: machines.into_iter().map(Mutex::new).collect(),
            ingress_handoffs: AtomicU64::new(0),
            senders,
            stopping: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            fatal: Mutex::new(None),
            world,
            store,
            threads,
            resident,
            wheel: timers::TimerWheel::new(resident),
            ingress: Mutex::new(ingress.map(|machine| collect::Ingress {
                machine,
                due: collect::Due::default(),
            })),
            quiet: Condvar::new(),
            boot: vars.values().cloned().collect(),
        });
        let t0 = Instant::now();
        let name = if resident {
            "strand-serve"
        } else {
            "strand-node"
        };
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{idx}"))
                    .spawn(move || {
                        // A panic anywhere in the shard (engine bug, foreign
                        // closure) must not leave peers parked forever:
                        // surface it and stop.
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, idx, &rx)));
                        if outcome.is_err() {
                            fatal(&shared, worker_panicked());
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Fleet {
            shared,
            workers,
            vars,
            t0,
        }
    }

    /// Join the workers in index order (they must have been told, or have
    /// decided, to stop) and merge every shard's report — plus `ingress`'s,
    /// so a service's serve counters and collection totals survive into the
    /// summary.
    fn collect(self, mut ingress: Option<Machine>) -> StrandResult<RunReport> {
        let joined: Vec<_> = self.workers.into_iter().map(|h| h.join()).collect();
        let wall_ns = self.t0.elapsed().as_nanos() as u64;
        if let Some(e) = lock(&self.shared.fatal).take() {
            return Err(e);
        }
        if joined.iter().any(Result::is_err) {
            return Err(worker_panicked());
        }
        let mut machines: Vec<_> = self.shared.machines.iter().map(lock).collect();
        let truncated = self.shared.truncated.load(Ordering::Acquire);
        let threads = self.shared.threads;
        let parts = machines.iter_mut().map(|m| m.finalize_shard());
        let parts: Vec<_> = parts
            .chain(ingress.as_mut().map(Machine::finalize_shard))
            .collect();
        let worker_jobs: Vec<u64> = parts
            .iter()
            .take(threads)
            .map(|p| p.metrics.total_reductions)
            .collect();
        let mut report = merge_shard_reports(parts, truncated);
        report.metrics.wall_ns = wall_ns;
        report.metrics.threads_used = threads as u32;
        report.metrics.worker_jobs = worker_jobs;
        report.metrics.ingress_handoffs = self.shared.ingress_handoffs.load(Ordering::Relaxed);
        Ok(report)
    }
}

/// Split `events` by owning worker: one batch per destination.
fn by_worker(shared: &Shared, events: Vec<Routed>) -> impl Iterator<Item = (usize, Vec<Routed>)> {
    let mut bufs: Vec<Vec<Routed>> = (0..shared.threads).map(|_| Vec::new()).collect();
    for r in events {
        bufs[r.dest_worker(shared.threads)].push(r);
    }
    bufs.into_iter().enumerate().filter(|(_, b)| !b.is_empty())
}

/// Route scheduler events (never rolled on the fault dice: they are not
/// network messages) to their owning workers, one batch and one freshly
/// minted token per destination.
fn send_direct(shared: &Shared, events: Vec<Routed>) {
    for (w, batch) in by_worker(shared, events) {
        send_batch(shared, w, batch);
    }
}

/// Hand worker `w` an ingress batch whose token the caller minted under the
/// ingress lock and has let go of since. If the worker is parked — its
/// machine free — the calling thread reduces the batch as the worker would
/// have: the batch's token is its busy token; it absorbs the batch, runs
/// one [`burst`], ships everything the burst routed (each batch minted
/// before it is sent), wakes the owner with an empty minted batch if work
/// is left or a deadline was armed (so it re-plans its park), and only then
/// surrenders the token — doing, if it was the last, what the last worker
/// to go idle does. A panic here stops the fleet as a worker's would. A
/// busy worker, or a stopping fleet's, is sent the batch.
fn lend(shared: &Shared, w: usize, batch: Vec<Routed>) {
    let stopping = shared.stopping.load(Ordering::Acquire);
    let Some(mut machine) = shared.machines[w].try_lock().ok().filter(|_| !stopping) else {
        shared.ingress_handoffs.fetch_add(1, Ordering::Relaxed);
        return post(shared, w, batch);
    };
    let m = &mut *machine;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        m.metrics_mut().ingress_bursts += 1;
        m.absorb(batch);
        let mut buffers: Vec<Vec<Routed>> = (0..shared.threads).map(|_| Vec::new()).collect();
        let Some((state, armed)) = burst(shared, w, m, &mut buffers) else {
            return;
        };
        flush(shared, &mut buffers);
        if state == DrainState::More || armed {
            send_batch(shared, w, Vec::new());
        }
        if shared.tokens.release() {
            m.metrics_mut().idle_parks += 1;
            collect::at_quiescence(shared, w, m);
        }
    }));
    if outcome.is_err() {
        fatal(shared, worker_panicked());
    }
}

/// One scheduling turn on shard `me`'s machine — the step its worker takes
/// between channel services, and the one an ingress lender takes for a
/// parked worker ([`lend`]): reduce a bounded burst, publish the deadlines
/// it armed, and route its cross-worker events into `buffers`, shipping
/// every batch that fills. Returns the drain's state and whether a deadline
/// was armed; `None` after a fatal error, which is reported (so `stopping`
/// is set).
fn burst(
    shared: &Shared,
    me: usize,
    m: &mut Machine,
    buffers: &mut [Vec<Routed>],
) -> Option<(DrainState, bool)> {
    let state = match m.drain_local(DRAIN_STEPS) {
        Ok(s) => s,
        Err(e) => {
            fatal(shared, e);
            return None;
        }
    };
    // Publish the burst's deadlines. Arming is a local harvest — no token,
    // no channel traffic: the entry sits in the shared wheel until a parked
    // worker pops it (the pop mints the busy token; see `park`).
    let deadlines = m.take_deadlines();
    let armed = !deadlines.is_empty();
    for deadline in deadlines {
        shared.wheel.arm(deadline);
    }
    for r in m.take_outbox() {
        let w = r.dest_worker(shared.threads);
        debug_assert_ne!(w, me, "own-shard events never reach the outbox");
        buffers[w].push(r);
        if buffers[w].len() >= BATCH_MAX {
            send_batch(shared, w, std::mem::take(&mut buffers[w]));
        }
    }
    if state == DrainState::Budget {
        // Budget exhausted without fail-fast: truncate the run.
        if !shared.truncated.swap(true, Ordering::AcqRel) {
            m.note_truncated();
        }
        stop(shared);
    }
    Some((state, armed))
}

/// Ship every partly filled batch in `buffers`.
fn flush(shared: &Shared, buffers: &mut [Vec<Routed>]) {
    for (w, buf) in buffers.iter_mut().enumerate() {
        if !buf.is_empty() {
            send_batch(shared, w, std::mem::take(buf));
        }
    }
}

/// One worker's scheduling loop over its own shard. Alternates bounded
/// reduction bursts with channel service; see the module docs for the
/// batching and quiescence rules.
fn worker_loop(shared: &Shared, me: usize, rx: &Receiver<Msg>) {
    let mut m = lock(&shared.machines[me]);
    let mut buffers: Vec<Vec<Routed>> = (0..shared.threads).map(|_| Vec::new()).collect();
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            // Fatal error, budget exhaustion or quiescence: drop what is
            // still queued locally (settling the tracked gauges) and exit.
            m.discard_local();
            return;
        }
        // 1. Reduce, publish and route one burst (a fatal error sets
        // `stopping`, which the next iteration sees).
        let Some((state, _)) = burst(shared, me, &mut m, &mut buffers) else {
            continue;
        };
        // 2. Absorb whatever peers sent meanwhile (non-blocking).
        let mut received = false;
        loop {
            match rx.try_recv() {
                Ok(Msg::Batch(batch)) => {
                    // Busy: the batch's token dissolves into our own.
                    shared.tokens.absorb();
                    m.absorb(batch);
                    received = true;
                }
                Ok(Msg::Stop) => received = true, // loop top sees `stopping`
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        if state != DrainState::Idle || received {
            continue;
        }
        flush(shared, &mut buffers);
        // Last non-blocking look before surrendering the token.
        match rx.try_recv() {
            Ok(Msg::Batch(batch)) => {
                shared.tokens.absorb();
                m.absorb(batch);
                continue;
            }
            Ok(Msg::Stop) => continue,
            Err(_) => {}
        }
        // Surrender the token and park. A batch arriving now wakes us and
        // its token becomes our busy token — no counter update. A deadline
        // falling due wakes us too; firing it mints a fresh token, so
        // quiescence accounting stays exact. While we wait on the channel
        // an ingress lender may take our machine (see `lend`).
        let last = shared.tokens.release();
        if last && shared.resident {
            // Resident mode: global quiescence is *idle*, not termination.
            // Only the last releaser ticks the burst-to-idle transition, so
            // one park per burst, and collects if one is due.
            m.metrics_mut().idle_parks += 1;
            collect::at_quiescence(shared, me, &mut m);
        }
        let parked;
        (parked, m) = park(shared, me, rx, m, last);
        match parked {
            Parked::Batch(batch) => m.absorb(batch),
            Parked::Fired => {}
            Parked::Stop => return,
        }
    }
}

/// How a deadline-aware park ended.
enum Parked {
    /// A peer's batch arrived; its token became ours.
    Batch(Vec<Routed>),
    /// A deadline fell due and we fired it; we hold a freshly minted busy
    /// token and (possibly) new local work.
    Fired,
    /// Stop was broadcast, the channel died, or we observed terminal
    /// quiescence ourselves.
    Stop,
}

/// Park a worker that has just surrendered its token — `last` says it was
/// the last one, i.e. the fleet is quiescent — until work arrives, a
/// deadline falls due, or the run is over. Every worker parks here, one
/// whose nodes have all crashed included, so every
/// `Tokens::release() == true` site either fires, stops on a dry wheel, or
/// sleeps on a wall deadline.
///
/// Which deadline bounds the park depends on the wheel's clock. On a
/// resident fleet's wall clock every parked worker sleeps until the
/// earliest live deadline and races to fire it. A batch fleet's clock
/// *jumps* to the earliest live deadline at quiescence: the worker that
/// surrendered the last token fires that instant at once (nothing else can
/// run — every peer is parked in an unbounded `recv` and no batch is in
/// flight), or, over a dry wheel, announces termination; its peers never
/// look at the wheel, so a batch deadline never fires while any worker
/// holds a token.
///
/// It lets go of its machine only while waiting on its channel.
///
/// Token discipline (model-checked in `quiesce::check_timers` and
/// `quiesce::check_batch_timers`): the worker holds **no** token while
/// parked. When a deadline fires, the busy token is minted **before** the
/// wheel entry is popped — a peer scanning the counter can never observe
/// "zero tokens, yet work is about to materialise". Racing parked workers
/// are safe: `pop_due` removes entries under the wheel's lock, so every
/// deadline fires exactly once; the losers re-release the token they
/// minted.
fn park<'a>(
    shared: &'a Shared,
    me: usize,
    rx: &Receiver<Msg>,
    mut m: MutexGuard<'a, Machine>,
    mut last: bool,
) -> (Parked, MutexGuard<'a, Machine>) {
    loop {
        let mut next = None;
        if shared.resident || last {
            let (due, pruned) = shared.wheel.next_due(|c| m.cancel_is_bound(c));
            m.metrics_mut().timers_cancelled += pruned;
            next = due;
        }
        let Some(due) = next else {
            if last && !shared.resident {
                // Quiescent over a dry wheel: nothing can ever make work
                // again — an all-cancelled wheel must stop the fleet, not
                // hang it. Tell everyone.
                stop(shared);
                return (Parked::Stop, m);
            }
            drop(m);
            let got = rx.recv();
            let m = lock(&shared.machines[me]);
            return match got {
                Ok(Msg::Batch(batch)) => (Parked::Batch(batch), m),
                Ok(Msg::Stop) | Err(_) => (Parked::Stop, m),
            };
        };
        // The quiescence clock has no reading of its own: it is at `due`.
        let now = shared.wheel.now_ms().unwrap_or(due);
        if due > now {
            drop(m);
            let got = rx.recv_timeout(Duration::from_millis(due - now));
            m = lock(&shared.machines[me]);
            match got {
                Ok(Msg::Batch(batch)) => return (Parked::Batch(batch), m),
                Ok(Msg::Stop) | Err(RecvTimeoutError::Disconnected) => return (Parked::Stop, m),
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // The deadline fell due. Mint our busy token BEFORE touching the
        // wheel — the mirror of mint-before-send for batches.
        shared.tokens.add();
        let now = shared.wheel.now_ms().unwrap_or(due);
        let (fired, pruned) = shared.wheel.pop_due(now, |c| m.cancel_is_bound(c));
        m.metrics_mut().timers_cancelled += pruned;
        if fired.is_empty() {
            // A racing parked peer popped every due entry (or the cancels
            // bound meanwhile). Give the token back and park again.
            last = shared.tokens.release();
            continue;
        }
        m.metrics_mut().wakes_for_deadline += 1;
        for deadline in fired {
            m.fire_deadline(deadline);
        }
        // A fired deadline is scheduler work, not a network message.
        send_direct(shared, m.take_outbox());
        return (Parked::Fired, m);
    }
}

/// Mint the batch's quiescence token and ship it. The increment MUST
/// precede the send: see `quiesce.rs` for the model-checked argument.
fn send_batch(shared: &Shared, w: usize, batch: Vec<Routed>) {
    shared.tokens.add();
    post(shared, w, batch);
}

/// Send a batch whose token is already minted.
fn post(shared: &Shared, w: usize, batch: Vec<Routed>) {
    if shared.senders[w].send(Msg::Batch(batch)).is_err() {
        // Receivers only disappear once the run is over; keep the counter
        // honest regardless.
        shared.tokens.retract();
    }
}

/// Ask every worker — parked or busy — to wind down.
fn stop(shared: &Shared) {
    shared.stopping.store(true, Ordering::Release);
    for s in &shared.senders {
        // Sends may fail once peers have already exited; that's fine.
        let _ = s.send(Msg::Stop);
    }
}

fn worker_panicked() -> StrandError {
    StrandError::Other("worker panicked during reduction".to_string())
}

fn fatal(shared: &Shared, e: StrandError) {
    let mut slot = lock(&shared.fatal);
    if slot.is_none() {
        *slot = Some(e);
    }
    drop(slot);
    stop(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_goal, run_parsed_goal_with_lib, FaultPlan, RunStatus};

    fn par(threads: u32) -> MachineConfig {
        MachineConfig::with_nodes(4).parallel(threads)
    }

    #[test]
    fn thread_resolution_caps_at_nodes() {
        let c = MachineConfig::with_nodes(4).parallel(16);
        assert_eq!(resolve_threads(&c), 4);
        let c = MachineConfig::with_nodes(8).parallel(3);
        assert_eq!(resolve_threads(&c), 3);
        let c = MachineConfig::with_nodes(8).parallel(0);
        assert!(resolve_threads(&c) >= 1);
    }

    #[test]
    fn simple_goal_completes() {
        let r = run_goal("double(X, Y) :- Y := X * 2.", "double(21, V)", par(2)).unwrap();
        assert!(matches!(r.report.status, RunStatus::Completed));
        assert_eq!(r.bindings["V"].to_string(), "42");
        assert_eq!(r.report.metrics.threads_used, 2);
        assert!(r.report.metrics.wall_ns > 0);
    }

    #[test]
    fn a_slowdown_multiplies_the_cost_of_the_node_it_names() {
        // Nodes 2 and 3 do the same work on different workers; the plan
        // makes every reduction on node 2 cost seven times as much.
        let src = r#"
            fan(A, B) :- leaf(10, A)@2, leaf(20, B)@3.
            leaf(X, Y) :- Y := X + 1.
        "#;
        let cfg = par(2).faults(FaultPlan::default().slowdown(2, 7));
        let r = run_goal(src, "fan(A, B)", cfg).unwrap();
        assert!(matches!(r.report.status, RunStatus::Completed));
        assert_eq!(r.bindings["A"].to_string(), "11");
        let busy = &r.report.metrics.busy;
        assert!(busy[2] > 0, "{busy:?}");
        assert_eq!(busy[1], 7 * busy[2], "{busy:?}");
    }

    #[test]
    fn routed_suspension_wakes_across_workers() {
        // A job routed to another worker that suspends THERE must be woken
        // by a later binding from the sending worker. Suspensions are keyed
        // by pid, and pids carry their minting worker in the top bits — so
        // `Machine::absorb` re-mints them on arrival; without that the wake
        // would route back to the *sender* and be dropped, stranding the
        // process. The fan(40) padding overflows BATCH_MAX so p(X) ships
        // early, while slow/2 keeps X unbound long enough for p(X) to
        // suspend on worker 1 first.
        let src = r#"
            go :- fan(40), p(X)@2, bind(X).
            fan(0).
            fan(N) :- N > 0 | noop@2, M := N - 1, fan(M).
            noop.
            p(a) :- print(got).
            bind(X) :- slow(5000, X).
            slow(0, X) :- X := a.
            slow(N, X) :- N > 0 | M := N - 1, slow(M, X).
        "#;
        let mut cfg = par(2);
        cfg.max_reductions = 1_000_000;
        let r = run_goal(src, "go", cfg).unwrap();
        assert!(
            matches!(r.report.status, RunStatus::Completed),
            "{:?}",
            r.report.status
        );
        assert_eq!(r.report.output, vec!["got".to_string()]);
    }

    #[test]
    fn a_crashed_node_partitions_the_run() {
        // Node 2 dies before its worker ever reduces; the spawn routed to it
        // is dropped by the owner's `absorb`, V stays unbound, and the
        // waiter on node 1 suspends forever. The merged status must say
        // *why*: the crashed node alongside the live suspension. Node 4,
        // on the same worker, is untouched.
        let src = r#"
            go(V, W) :- set(V)@2, set(W)@4, wait(V).
            set(V) :- V := ok.
            wait(V) :- V == ok | true.
        "#;
        let mut cfg = par(2).faults(FaultPlan::default().crash(2, 0));
        cfg.fail_fast = false;
        let r = run_goal(src, "go(V, W)", cfg).unwrap();
        match r.report.status {
            RunStatus::Partitioned {
                suspended,
                crashed_nodes,
                ..
            } => {
                assert!(suspended >= 1);
                assert_eq!(crashed_nodes, vec![2]);
            }
            ref s => panic!("expected Partitioned, got {s:?}"),
        }
        assert_eq!(r.bindings["W"].to_string(), "ok");
        assert_eq!(r.report.metrics.nodes_crashed, 1);
        assert_eq!(r.report.metrics.msgs_dropped, 1);
    }

    #[test]
    fn dropped_deliveries_never_run_and_the_run_terminates() {
        // Every cross-node delivery is dropped — to node 3 on the sender's
        // own worker as surely as to nodes 2 and 4 on the other — so the
        // leaves never run; nobody waits on their results, so the run still
        // quiesces.
        let src = r#"
            fan(A, B, C) :- leaf(10, A)@2, leaf(20, B)@4, leaf(30, C)@3.
            leaf(X, Y) :- Y := X + 1.
        "#;
        let cfg = par(2).faults(FaultPlan::default().drop_prob(1.0).seed(7));
        let r = run_goal(src, "fan(A, B, C)", cfg).unwrap();
        assert!(
            matches!(r.report.status, RunStatus::Completed),
            "{:?}",
            r.report.status
        );
        assert_eq!(r.report.metrics.msgs_dropped, 3);
        for v in ["A", "B", "C"] {
            assert!(matches!(r.bindings[v], Term::Var(_)), "{v} was bound");
        }
    }

    #[test]
    fn duplicated_deliveries_arrive_twice_with_distinct_pids() {
        // Every delivery arrives twice. ack/2-style idempotent bind: both
        // copies run `set(V)`, the first binds, the second's bind must not
        // crash the run — ack/1 tolerates the rebind.
        let src = r#"
            go(V) :- set(V)@2.
            set(V) :- ack(V).
            ack(V) :- unknown(V) | V := ok.
            ack(ok).
        "#;
        let cfg = par(2).faults(FaultPlan::default().dup_prob(1.0).seed(11));
        let r = run_goal(src, "go(V)", cfg).unwrap();
        assert!(
            matches!(r.report.status, RunStatus::Completed),
            "{:?}",
            r.report.status
        );
        assert_eq!(r.bindings["V"].to_string(), "ok");
        assert_eq!(r.report.metrics.msgs_duplicated, 1);
    }

    #[test]
    fn runtime_errors_surface_with_fail_fast() {
        let err = run_goal("boom(X) :- X := 1, X := 2.", "boom(X)", par(2)).unwrap_err();
        assert!(matches!(err, StrandError::DoubleAssign { .. }), "{err}");
    }

    #[test]
    fn worker_panic_fails_a_batch_run_without_stranding_its_peer() {
        // `boom/2` (a bug in foreign code) panics on worker 1, node 2's
        // owner, while worker 0 is parked waiting for X. The panic must
        // reach the caller as an error and wake worker 0; a peer left parked
        // would hang the join, so the run goes on a thread of its own and is
        // given a wall-time bound.
        let program =
            strand_parse::parse_program("go :- boom(1, X)@2, wait(X). wait(X) :- X > 0 | true.")
                .unwrap();
        let mut lib = ForeignLib::new();
        lib.register("boom", 2, |_| panic!("foreign procedure bug"));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = run_parsed_goal_with_lib(&program, "go", par(2), &lib);
            let _ = tx.send(r.map(|r| r.report.status));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a worker panic left the run hanging");
        let err = outcome.unwrap_err();
        assert!(
            err.to_string().contains("worker panicked during reduction"),
            "{err}"
        );
    }

    #[test]
    fn budget_exhaustion_is_fatal_with_fail_fast() {
        let mut cfg = par(2);
        cfg.max_reductions = 500;
        let err = run_goal("spin :- spin. spin :- spin.", "spin", cfg).unwrap_err();
        assert!(matches!(err, StrandError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn budget_exhaustion_truncates_without_fail_fast() {
        let mut cfg = par(2);
        cfg.max_reductions = 500;
        cfg.fail_fast = false;
        let r = run_goal("spin :- spin.", "spin", cfg).unwrap();
        assert!(
            matches!(r.report.status, RunStatus::Truncated { .. }),
            "{:?}",
            r.report.status
        );
        assert!(!r.report.errors.is_empty());
    }

    #[test]
    fn budget_lanes_cut_off_exactly_at_one_thread_and_within_a_drain_per_peer_above() {
        // Each worker counts its own reductions exactly and its peers' as of
        // the top of its drain, so the cut-off can run late by one drain
        // quantum per peer — and not at all on one thread, the exact tier.
        let src = "go :- spin@1, spin@2. spin :- spin.";
        let budget = 5_000;
        let truncated_at = |mut cfg: MachineConfig| {
            cfg.max_reductions = budget;
            cfg.fail_fast = false;
            match run_goal(src, "go", cfg).unwrap().report.status {
                RunStatus::Truncated { reductions } => reductions,
                other => panic!("expected Truncated, got {other:?}"),
            }
        };
        assert_eq!(truncated_at(MachineConfig::with_nodes(4)), budget);
        assert_eq!(truncated_at(par(1)), budget);
        let threads = 2;
        let late = u64::from(DRAIN_STEPS * (threads - 1));
        for round in 0..20 {
            let spent = truncated_at(par(threads));
            assert!(
                (budget..=budget + late).contains(&spent),
                "round {round}: cut off at {spent}"
            );
        }
    }

    #[test]
    fn cross_worker_spawns_complete() {
        // Fan work across all four nodes (two per worker at 2 threads) and
        // join the results through shared variables.
        let src = r#"
            fan(A, B, C, D) :-
                leaf(10, A)@1, leaf(20, B)@2, leaf(30, C)@3, leaf(40, D)@0.
            leaf(X, Y) :- Y := X + 1.
        "#;
        let r = run_goal(src, "fan(A, B, C, D)", par(2)).unwrap();
        assert!(matches!(r.report.status, RunStatus::Completed));
        assert_eq!(r.bindings["A"].to_string(), "11");
        assert_eq!(r.bindings["B"].to_string(), "21");
        assert_eq!(r.bindings["C"].to_string(), "31");
        assert_eq!(r.bindings["D"].to_string(), "41");
    }

    #[test]
    fn a_timer_loop_cannot_starve_a_parked_deadline() {
        // A heartbeat on node 1 (fire, `fill` reductions, re-arm) whose
        // third beat starts a guard on node 3, same worker, with a 1-tick
        // deadline. The beat body is long enough that the guard's deadline
        // pops while the beat is still running, so it is parked. It must
        // fire at the very next idle instant — ahead of the next beat,
        // being earlier — and stop the heartbeat. It used to wait until a
        // 64-step drain happened to *end* on an idle instant, which for a
        // beat cycle of 20 reductions is never: the run spun to its budget.
        for fill in 11..=20 {
            let nops = "nop, ".repeat(fill);
            let src = format!(
                "go(Done) :- beat(Stop, Done, 0)@1.
                 beat(Stop, Done, N) :- after_unless(Stop, 500, T), beat1(T, Stop, Done, N).
                 beat1(_, Stop, _, _) :- Stop == ok | true.
                 beat1(timeout, Stop, Done, 3) :- unknown(Stop) |
                     guard(Stop, Done)@3, {nops}beat(Stop, Done, 4).
                 beat1(timeout, Stop, Done, N) :- unknown(Stop), N =\\= 3 |
                     N1 := N + 1, {nops}beat(Stop, Done, N1).
                 nop.
                 guard(Stop, Done) :- after_unless(_, 1, T), fire(T, Stop, Done).
                 fire(timeout, Stop, Done) :- ack(Stop), Done := yes."
            );
            let mut cfg = par(2);
            cfg.max_reductions = 100_000;
            cfg.fail_fast = false;
            let r = run_goal(&src, "go(Done)", cfg).unwrap();
            let m = &r.report.metrics;
            assert!(
                matches!(r.report.status, RunStatus::Completed),
                "fill {fill}: {:?} after {} timers",
                r.report.status,
                m.timers_fired
            );
            assert_eq!(r.bindings["Done"].to_string(), "yes");
            assert_eq!(m.timers_fired, 5, "fill {fill}: four beats, then the guard");
        }
    }

    #[test]
    fn batch_deadlines_fire_at_quiescence_earliest_first_one_instant_at_a_time() {
        // Two hour-scale deadlines on different workers. A batch fleet's
        // clock jumps, so neither is slept on; the earlier one (armed on
        // worker 1) fires alone at the first quiescence and its timeout
        // cancels the later one before the clock can reach it.
        let src = "go(A, B) :- late(C, A)@1, early(C, B)@2.
                   late(C, A) :- after_unless(C, 7200000, A).
                   early(C, B) :- after_unless(_, 3600000, B), defuse(B, C).
                   defuse(timeout, C) :- C := done.";
        for round in 0..20 {
            let t0 = Instant::now();
            let r = run_goal(src, "go(A, B)", par(2)).unwrap();
            assert!(t0.elapsed() < Duration::from_secs(60), "slept on the wall");
            let m = &r.report.metrics;
            assert!(
                matches!(r.report.status, RunStatus::Completed),
                "round {round}: {:?}",
                r.report.status
            );
            assert_eq!(r.bindings["B"].to_string(), "timeout");
            assert_ne!(r.bindings["A"].to_string(), "timeout", "round {round}");
            assert_eq!((m.timers_armed, m.timers_fired), (2, 1), "round {round}");
            assert_eq!(m.timers_cancelled, 1, "round {round}: {m:?}");
        }
    }

    #[test]
    fn a_worker_whose_nodes_are_dead_still_fires_the_deadline_it_is_left_with() {
        // Both of worker 1's nodes crash at once; whether it or worker 0
        // surrenders the last token over the armed wheel is a race, and
        // whoever does must fire — the other is parked in an unbounded
        // `recv` and would never wake for it.
        let src = "go(V) :- after_unless(_, 10, V).";
        for round in 0..50 {
            let cfg = par(2).faults(FaultPlan::default().crash(2, 0).crash(4, 0));
            let r = run_goal(src, "go(V)", cfg).unwrap();
            assert_eq!(r.bindings["V"].to_string(), "timeout", "round {round}");
            assert_eq!(r.report.metrics.timers_fired, 1, "round {round}");
            assert_eq!(r.report.metrics.nodes_crashed, 2, "round {round}");
        }
    }

    /// The simulator is shard 0 of a one-shard world, so a 1-thread fleet
    /// differs from it only in its store and its driver: the same bindings,
    /// output and reduction count — ports and the `unique_id` sequence
    /// included, which both take from their world.
    #[test]
    fn one_thread_matches_simulator_exactly() {
        let tree = r#"
            tree(0, Acc, Out) :- Out := Acc.
            tree(N, Acc, Out) :- N > 0 |
                M := N - 1, A := Acc + N, tree(M, A, Out).
        "#;
        let ids = r#"
            go(A, B, C, S) :- open_port(P, S),
                unique_id(A), unique_id(B), unique_id(C),
                feed(3, P)@2.
            feed(0, _).
            feed(N, P) :- N > 0 | send_port(P, item(N)), N1 := N - 1, feed(N1, P).
        "#;
        for (src, goal, want) in [
            (tree, "tree(40, 0, S)", vec![("S", "820")]),
            (
                ids,
                "go(A, B, C, S)",
                vec![
                    ("A", "1"),
                    ("B", "2"),
                    ("C", "3"),
                    ("S", "[item(3),item(2),item(1)|_"),
                ],
            ),
        ] {
            let sim = run_goal(src, goal, MachineConfig::with_nodes(4)).unwrap();
            let par1 = run_goal(src, goal, par(1)).unwrap();
            for (var, value) in want {
                assert!(sim.bindings[var].to_string().starts_with(value), "{var}");
                assert_eq!(sim.bindings[var], par1.bindings[var], "{var}");
            }
            assert_eq!(sim.report.output, par1.report.output);
            assert_eq!(
                sim.report.metrics.total_reductions,
                par1.report.metrics.total_reductions
            );
        }
    }

    /// Tuples that reach the store — by data `:=`, `put_arg` and port
    /// messages — are read back long after the goals that built them were
    /// reduced and their blocks recycled, while two churn loops refill and
    /// drain every machine's pool. `remote/3` goals are built on node 1's
    /// worker and reduced on node 2's, so at two threads their own blocks
    /// cross shards into the consumer's pool, whose `consume/3` builds
    /// reuse them, while the `box/2` tuple each carried stays bound in the
    /// store. Both backends must read back exactly what was stored.
    #[test]
    fn stored_tuples_read_back_intact_while_pools_recycle_across_shards() {
        let src = r#"
            go(Data, Slots, Got) :-
                open_port(P, S), make_tuple(4, Slots),
                produce(0, 40, P, Slots, Data),
                consume(S, 40, Got)@2,
                churn(2000)@2, churn(2000).
            produce(N, N, _, _, Data) :- Data := [].
            produce(I, N, P, Slots, Data) :- I < N |
                Data := [rec(I, pair(I, [I]), Q)|Rest],
                remote(I, box(I, I), Q)@2,
                send_port(P, msg(I, box(I, [I]))),
                fill(I, Slots),
                I1 := I + 1,
                spin(20, I1, N, P, Slots, Rest).
            remote(I, B, Q) :- Q := held(I, B).
            spin(0, I, N, P, Slots, Rest) :- produce(I, N, P, Slots, Rest).
            spin(K, I, N, P, Slots, Rest) :- K > 0 |
                K1 := K - 1, spin(K1, I, N, P, Slots, Rest).
            fill(I, Slots) :- I < 4 | J := I + 1, put_arg(J, Slots, cell(I, inner(I))).
            fill(I, _) :- I >= 4 | true.
            consume(_, 0, Got) :- Got := [].
            consume([msg(I, B)|S], K, Got) :- K > 0 |
                Got := [got(I, B)|Got1], K1 := K - 1, consume(S, K1, Got1).
            churn(0).
            churn(K) :- K > 0 | t(f(K), g(K, K)), K1 := K - 1, churn(K1).
            t(_, _).
        "#;
        let list = |item: &dyn Fn(usize) -> String| {
            let items: Vec<String> = (0..40).map(item).collect();
            format!("[{}]", items.join(","))
        };
        let data = list(&|i| format!("rec({i},pair({i},[{i}]),held({i},box({i},{i})))"));
        let slots = (0..4).map(|i| format!("cell({i},inner({i}))"));
        let slots = format!("dt({})", slots.collect::<Vec<_>>().join(","));
        let got = list(&|i| format!("got({i},box({i},[{i}]))"));
        let goal = "go(Data, Slots, Got)";
        let sim = run_goal(src, goal, MachineConfig::with_nodes(4)).unwrap();
        let fleet = run_goal(src, goal, par(2)).unwrap();
        for r in [&sim, &fleet] {
            assert!(matches!(r.report.status, RunStatus::Completed));
            assert_eq!(r.bindings["Data"].to_string(), data);
            assert_eq!(r.bindings["Slots"].to_string(), slots);
            assert_eq!(r.bindings["Got"].to_string(), got);
        }
        assert_eq!(sim.bindings, fleet.bindings);
        assert_eq!(fleet.report.metrics.threads_used, 2);
    }
}
