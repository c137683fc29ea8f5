//! # strand-parallel
//!
//! A real multi-threaded execution backend for the motif language. The
//! paper's programs describe *genuinely parallel* computations; the
//! deterministic simulator in `strand-machine` schedules them on one OS
//! thread under virtual clocks, while this crate runs the same compiled
//! programs on real worker threads with **sharded state** — there is no
//! global machine lock:
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
//!   are buffered per destination and shipped as *batches* over crossbeam
//!   channels (a batch flushes at [`BATCH_MAX`] events or when the worker
//!   runs out of local work), amortising channel traffic;
//! * *pure* foreign procedures ([`strand_machine::ForeignLib`]) run inline
//!   on the owning worker — there is no lock to hold, so native
//!   computation on one worker genuinely overlaps everything else;
//! * idle workers park inside a blocking `recv`; termination is detected
//!   by a single token counter over busy workers and in-flight batches
//!   (incremented *before* every send), model-checked in [`quiesce`] —
//!   reaching zero proves global quiescence and the worker that observes
//!   it broadcasts stop.
//!
//! ## Determinism contract
//!
//! The simulator stays the deterministic reference. On **one** worker
//! thread this backend is an exact replica of it for programs without
//! `merge/2` or `after_unless/4`: worker 0 allocates the same process ids,
//! draws the same `rand_num` and fault-dice sequences, selects runnable
//! work from the same heaps in the same order and allocates variables in
//! the same order, so status, bindings *and* print order coincide. On more
//! threads it promises *confluence*: final bindings equal the simulator's,
//! and `print/1` output and `merge/2` results agree as multisets.
//! Virtual-time metrics (makespan, busy) are still collected but depend on
//! the interleaving.
//!
//! A [`strand_machine::FaultPlan`] is honoured as on the simulator because
//! it is injected in the shard core every worker runs, and nowhere in this
//! crate: `spawn` and `port_send` roll the per-delivery dice for every
//! cross-*node* message whether or not the two nodes share a worker, `step`
//! applies slowdowns, and a crashed node is torn down by the worker that
//! owns it — which then carries on as an ordinary worker. Two things
//! follow from having no global virtual clock (DESIGN.md §8): a crash's
//! `at` is read on the run-global reduction count, and above one thread a
//! plan replays in distribution, not bit for bit (each worker strides the
//! plan's seed into its own dice stream; at one thread the stream is the
//! simulator's).
//!
//! For the same reason every `after_unless/4` deadline goes into one shared
//! deadline queue (`timers.rs`) that the idle-park arm consults, and the
//! queue's clock follows from what the fleet is. A *batch* fleet's clock
//! jumps to the earliest live deadline exactly when the last quiescence
//! token is surrendered: a timeout can only be observed once the value it
//! guards has had every chance to arrive, which is exactly the simulator's
//! behaviour for fault-free runs. A *resident* fleet parks at quiescence,
//! so "the system is idle" is precisely when its timeouts must fire: its
//! clock is the wall (1 tick = 1 ms) and a fully parked fleet wakes when
//! the earliest deadline falls due — determinism is deliberately traded
//! away there. See DESIGN.md §6a. The
//! conformance harness in the workspace root (`tests/conformance.rs`)
//! checks the contract on every inventory motif program at 1, 2, 4 and 8
//! threads.
//!
//! ## Usage
//!
//! ```
//! use strand_machine::{run_goal, MachineConfig};
//! strand_parallel::install();
//! let r = run_goal(
//!     "double(X, Y) :- Y := X * 2.",
//!     "double(21, V)",
//!     MachineConfig::default().parallel(2),
//! )
//! .unwrap();
//! assert_eq!(r.bindings["V"].to_string(), "42");
//! ```

mod quiesce;
mod resident;
mod timers;

pub use resident::ResidentHandle;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use quiesce::Tokens;
use skeletons::WorkerSet;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use strand_core::{StrandError, StrandResult, Term};
use strand_machine::{
    ast_to_term, merge_shard_reports, Backend, DrainState, ExecBackend, ForeignLib, GoalResult,
    Machine, MachineConfig, Routed, RunReport, SharedWorld,
};
use strand_parse::{compile_program, parse_term, Program};

/// Per-worker channel capacity (in batches). The vendored crossbeam stub
/// has no unbounded channels; a deep bound keeps `send` from blocking in
/// practice (a full channel would only deadlock if two workers blocked
/// sending to each other — at this depth that means ~10⁶ undelivered
/// batches per worker, far beyond any workload in the repo).
const CHANNEL_CAP: usize = 1 << 20;

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
    /// Busy workers + in-flight batches; zero ⇒ global quiescence.
    tokens: Tokens,
    senders: Vec<Sender<Msg>>,
    /// Set on fatal error, budget exhaustion or quiescence: workers discard
    /// local work and exit.
    stopping: AtomicBool,
    truncated: AtomicBool,
    fatal: Mutex<Option<StrandError>>,
    world: SharedWorld,
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
}

/// The multi-threaded engine. Select it with
/// [`MachineConfig::parallel`](strand_machine::MachineConfig::parallel)
/// after calling [`install`].
pub struct ParallelBackend;

impl ExecBackend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn run_program(
        &self,
        program: &Program,
        goal_src: &str,
        config: MachineConfig,
        lib: &ForeignLib,
    ) -> StrandResult<GoalResult> {
        run_parallel(program, goal_src, config, lib)
    }
}

/// Register this engine for [`Backend::Parallel`] configs. Idempotent; call
/// once anywhere before running a goal with a parallel config.
pub fn install() {
    strand_machine::register_parallel_backend(Box::new(ParallelBackend));
}

/// Worker threads a config resolves to: explicit request, or the host's
/// available parallelism, both capped by the node count (a worker without a
/// node would never receive work).
pub fn resolve_threads(config: &MachineConfig) -> usize {
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

fn run_parallel(
    program: &Program,
    goal_src: &str,
    config: MachineConfig,
    lib: &ForeignLib,
) -> StrandResult<GoalResult> {
    let (fleet, _) = Fleet::launch(program, goal_src, config, lib, false)?;
    let (report, machines) = fleet.collect(None)?;
    let bindings = fleet
        .vars
        .into_iter()
        .map(|(name, term)| (name, machines[0].store().resolve(&term)))
        .collect();
    Ok(GoalResult { report, bindings })
}

/// A launched fleet: one worker thread per shard running [`worker_loop`].
/// A batch run ([`run_parallel`]) collects it straight away — the workers
/// stop themselves at global quiescence; a resident run
/// ([`ResidentHandle`]) keeps it, feeds it through the ingress machine and
/// stops it on shutdown.
struct Fleet {
    shared: Arc<Shared>,
    workers: WorkerSet,
    /// Each worker takes its machine out of its slot and puts it back on
    /// exit, so the shard reports can be merged after the join.
    slots: Arc<Vec<Mutex<Option<Machine>>>>,
    /// The seed goal's named variables.
    vars: BTreeMap<String, Term>,
    t0: Instant,
}

impl Fleet {
    /// Compile `program`, seed `goal_src` on node 1 and spawn the workers.
    /// A resident fleet also gets the ingress machine external threads
    /// inject through (see [`Machine::new_ingress`]).
    fn launch(
        program: &Program,
        goal_src: &str,
        config: MachineConfig,
        lib: &ForeignLib,
        resident: bool,
    ) -> StrandResult<(Fleet, Option<Machine>)> {
        let threads = resolve_threads(&config);
        let goal_ast = parse_term(goal_src).map_err(|e| StrandError::Other(e.to_string()))?;
        let compiled =
            Arc::new(compile_program(program).map_err(|e| StrandError::Other(e.to_string()))?);
        let world = SharedWorld::new(threads, config.nodes.max(1) as usize);
        let mut machines: Vec<Machine> = (0..threads)
            .map(|idx| {
                Machine::new_worker(Arc::clone(&compiled), config.clone(), &world, idx, threads)
            })
            .collect();
        let mut ingress =
            resident.then(|| Machine::new_ingress(compiled, config.clone(), &world, threads));
        for m in machines.iter_mut().chain(&mut ingress) {
            m.install_lib(lib);
        }
        let mut vars = BTreeMap::new();
        let goal = ast_to_term(&goal_ast, &mut machines[0], &mut vars);
        // Node 0 belongs to worker 0, so the seed goal lands in its own heap.
        machines[0].start(goal);

        let mut senders = Vec::with_capacity(threads);
        let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = bounded::<Msg>(CHANNEL_CAP);
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let shared = Arc::new(Shared {
            tokens: Tokens::new(threads as u64),
            senders,
            stopping: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            fatal: Mutex::new(None),
            world,
            threads,
            resident,
            wheel: timers::TimerWheel::new(resident),
        });
        let slots: Arc<Vec<Mutex<Option<Machine>>>> =
            Arc::new(machines.into_iter().map(|m| Mutex::new(Some(m))).collect());

        let t0 = Instant::now();
        let name = if resident {
            "strand-serve"
        } else {
            "strand-node"
        };
        let workers = WorkerSet::spawn(threads, name, |idx| {
            let shared = Arc::clone(&shared);
            let slots = Arc::clone(&slots);
            let rx = receivers[idx].take().expect("one receiver per worker");
            Box::new(move || {
                let mut m = lock(&slots[idx]).take().expect("one machine per worker");
                // A panic anywhere in the shard (engine bug, foreign closure)
                // must not leave peers parked forever: surface it and stop.
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, idx, &rx, &mut m)));
                if outcome.is_err() {
                    fatal(
                        &shared,
                        StrandError::Other("worker panicked during reduction".to_string()),
                    );
                }
                *lock(&slots[idx]) = Some(m);
            })
        });
        let fleet = Fleet {
            shared,
            workers,
            slots,
            vars,
            t0,
        };
        Ok((fleet, ingress))
    }

    /// Join the workers (which must have been told, or have decided, to
    /// stop) and merge every shard's report — plus `ingress`'s, so a
    /// service's serve counters and reclamation totals survive into the
    /// summary. Returns the machines too: their stores hold the answers.
    fn collect(&self, ingress: Option<Machine>) -> StrandResult<(RunReport, Vec<Machine>)> {
        self.workers.join();
        let wall_ns = self.t0.elapsed().as_nanos() as u64;
        if let Some(e) = lock(&self.shared.fatal).take() {
            return Err(e);
        }
        let truncated = self.shared.truncated.load(Ordering::Acquire);
        let threads = self.shared.threads;
        let mut machines: Vec<Machine> = self
            .slots
            .iter()
            .map(|s| lock(s).take().expect("worker returned its machine"))
            .chain(ingress)
            .collect();
        let parts: Vec<_> = machines.iter_mut().map(|m| m.finalize_shard()).collect();
        let worker_jobs: Vec<u64> = parts
            .iter()
            .take(threads)
            .map(|p| p.metrics.total_reductions)
            .collect();
        let mut report = merge_shard_reports(parts, truncated);
        report.metrics.wall_ns = wall_ns;
        report.metrics.threads_used = threads as u32;
        report.metrics.worker_jobs = worker_jobs;
        Ok((report, machines))
    }
}

/// Route scheduler and ingress events (never rolled on the fault dice: they
/// are not network messages) to their owning workers, one batch and one
/// freshly minted token per destination.
fn send_direct(shared: &Shared, events: Vec<Routed>) {
    let mut bufs: Vec<Vec<Routed>> = (0..shared.threads).map(|_| Vec::new()).collect();
    for r in events {
        bufs[r.dest_worker(shared.threads)].push(r);
    }
    for (w, buf) in bufs.into_iter().enumerate() {
        if !buf.is_empty() {
            send_batch(shared, w, buf);
        }
    }
}

/// One worker's scheduling loop over its own shard. Alternates bounded
/// reduction bursts with channel service; see the module docs for the
/// batching and quiescence rules.
fn worker_loop(shared: &Shared, me: usize, rx: &Receiver<Msg>, m: &mut Machine) {
    let mut buffers: Vec<Vec<Routed>> = (0..shared.threads).map(|_| Vec::new()).collect();
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            // Fatal error, budget exhaustion or quiescence: settle the
            // shared gate for everything still queued locally and exit.
            m.discard_local();
            for buf in &mut buffers {
                m.discard_routed(std::mem::take(buf));
            }
            return;
        }
        // 1. Reduce a bounded burst of the shard's own work.
        let state = match m.drain_local(DRAIN_STEPS) {
            Ok(s) => s,
            Err(e) => {
                fatal(shared, e);
                continue; // stopping is set; the next iteration discards
            }
        };
        // 1b. Publish the burst's deadlines. Arming is a local harvest —
        // no token, no channel traffic: the entry sits in the shared wheel
        // until a parked worker pops it (the pop mints the busy token; see
        // `park`).
        for deadline in m.take_deadlines() {
            shared.wheel.arm(deadline);
        }
        // 2. Route the burst's cross-worker events; ship full batches.
        for r in m.take_outbox() {
            let w = r.dest_worker(shared.threads);
            debug_assert_ne!(w, me, "own-shard events never reach the outbox");
            buffers[w].push(r);
            if buffers[w].len() >= BATCH_MAX {
                send_batch(shared, w, std::mem::take(&mut buffers[w]));
            }
        }
        // 3. Absorb whatever peers sent meanwhile (non-blocking).
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
        match state {
            DrainState::More => {}
            DrainState::Budget => {
                // Budget exhausted without fail-fast: truncate the run.
                if !shared.truncated.swap(true, Ordering::AcqRel) {
                    m.note_truncated();
                }
                stop(shared);
            }
            DrainState::Idle => {
                if received {
                    continue;
                }
                for (w, buf) in buffers.iter_mut().enumerate() {
                    if !buf.is_empty() {
                        send_batch(shared, w, std::mem::take(buf));
                    }
                }
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
                // Surrender the token and park. A batch arriving now wakes
                // us and its token becomes our busy token — no counter
                // update. A deadline falling due wakes us too; firing it
                // mints a fresh token, so quiescence accounting stays exact.
                let last = shared.tokens.release();
                if last && shared.resident {
                    // Resident mode: global quiescence is *idle*, not
                    // termination. Only the last releaser ticks the
                    // burst-to-idle transition, so one park per burst.
                    m.metrics_mut().idle_parks += 1;
                }
                match park(shared, rx, m, last) {
                    Parked::Batch(batch) => m.absorb(batch),
                    Parked::Fired => {}
                    Parked::Stop => return,
                }
            }
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
/// Token discipline (model-checked in `quiesce::check_timers` and
/// `quiesce::check_batch_timers`): the worker holds **no** token while
/// parked. When a deadline fires, the busy token is minted **before** the
/// wheel entry is popped — a peer scanning the counter can never observe
/// "zero tokens, yet work is about to materialise". Racing parked workers
/// are safe: `pop_due` removes entries under the wheel's lock, so every
/// deadline fires exactly once; the losers re-release the token they
/// minted.
fn park(shared: &Shared, rx: &Receiver<Msg>, m: &mut Machine, mut last: bool) -> Parked {
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
                return Parked::Stop;
            }
            return match rx.recv() {
                Ok(Msg::Batch(batch)) => Parked::Batch(batch),
                Ok(Msg::Stop) | Err(_) => Parked::Stop,
            };
        };
        // The quiescence clock has no reading of its own: it is at `due`.
        let now = shared.wheel.now_ms().unwrap_or(due);
        if due > now {
            match rx.recv_timeout(Duration::from_millis(due - now)) {
                Ok(Msg::Batch(batch)) => return Parked::Batch(batch),
                Ok(Msg::Stop) | Err(RecvTimeoutError::Disconnected) => return Parked::Stop,
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
        return Parked::Fired;
    }
}

/// Mint the batch's quiescence token and ship it. The increment MUST
/// precede the send: see `quiesce.rs` for the model-checked argument.
fn send_batch(shared: &Shared, w: usize, batch: Vec<Routed>) {
    shared.tokens.add();
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
    use strand_machine::{run_goal, FaultPlan, RunStatus};

    fn par(threads: u32) -> MachineConfig {
        install();
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
    fn dropped_deliveries_settle_the_gate_and_terminate() {
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

    #[test]
    fn one_thread_matches_simulator_exactly() {
        let src = r#"
            tree(0, Acc, Out) :- Out := Acc.
            tree(N, Acc, Out) :- N > 0 |
                M := N - 1, A := Acc + N, tree(M, A, Out).
        "#;
        let sim = run_goal(src, "tree(40, 0, S)", MachineConfig::with_nodes(4)).unwrap();
        let par1 = run_goal(src, "tree(40, 0, S)", par(1)).unwrap();
        assert_eq!(sim.bindings["S"], par1.bindings["S"]);
        assert_eq!(sim.report.output, par1.report.output);
        assert_eq!(
            sim.report.metrics.total_reductions,
            par1.report.metrics.total_reductions
        );
    }
}
