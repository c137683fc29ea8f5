//! Resident execution: keep a parallel machine alive between bursts.
//!
//! A batch run (`fleet::run`) treats global quiescence as
//! termination: the last worker to surrender its token broadcasts stop and
//! everyone exits. A *service* wants the opposite — the program (a Server
//! motif, typically) drains to quiescence and then waits, suspended on its
//! port streams, for the next external request. This module provides that
//! mode over the very `Fleet` a batch run launches and collects — only who
//! calls `stop` differs:
//!
//! * workers run the unmodified [`worker_loop`](super::worker_loop); the
//!   only behavioural difference is the `resident` flag on the shared
//!   state, which turns the stop-broadcast on last-token-release into an
//!   ordinary park (counted as `idle_parks` in the metrics). Quiescence
//!   becomes re-entrant: the counter climbs off zero as soon as an ingress
//!   batch is minted.
//! * an extra **ingress** [`Machine`] ([`Machine::new_ingress`]) lives on
//!   the caller's side of the channels. It owns no nodes and never reduces
//!   (the machine; the caller's thread may, below), and exists so external
//!   threads can build terms against the shared store and enqueue goals.
//!   Everything it enqueues lands in its outbox, and is handed to the
//!   owning workers under the same token protocol as worker-to-worker
//!   traffic: one token per destination, minted under the ingress lock.
//! * **who reduces**: once the tokens are minted and the ingress lock is
//!   let go, the injecting thread tries each destination worker's machine.
//!   A parked worker's is free: the thread takes it and runs the worker's
//!   own [`burst`](super::burst) on it ([`lend`](super::lend)), with the
//!   batch's token as its busy token, so the worker is never woken. It
//!   ships what the burst routed (mint before send), sends the owner an
//!   empty minted batch only if work is left or a live deadline was armed
//!   (one cancelled within the burst is never armed), and only then
//!   surrenders the token — as the last worker to go idle would, if
//!   it is the last. A busy worker's machine is locked: it is sent the
//!   batch down its channel. `quiesce.rs` model-checks the order; the
//!   metrics count both paths (`ingress_bursts`, `ingress_handoffs`) and
//!   the lenders' wakes (`ingress_wakes`).
//! * the store is reclaimed by reachability at quiescence (`collect.rs`):
//!   [`ResidentHandle::reclaim`] makes a collection due and runs it — at
//!   once when the fleet is idle, else once the in-flight work drains. A
//!   caller that reads a variable across ingress calls holds it
//!   ([`Machine::hold`]). A collection takes every worker's machine, so it
//!   never runs while a lender holds one.
//!
//! A [`FaultPlan`](crate::FaultPlan) is honoured like on any
//! fleet (the shard core injects it): a supervised resident program (the
//! `Supervise ∘ Server` composition) is exactly the thing that is
//! *supposed* to survive a crashed node, and the chaos-on-serve conformance
//! tier drives it through this path. Ingress injections are not network
//! messages and are never rolled on the dice, but one aimed at a crashed
//! node is discarded by its owner — callers routing external work should
//! consult [`ResidentHandle::is_crashed`] so new sessions land on nodes
//! that will actually reduce them.

use super::{by_worker, collect, lend, lock, stop, Fleet};
use crate::{prepare, ForeignLib, Machine, MachineConfig, RunReport};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use strand_core::{StrandResult, Term};
use strand_parse::Program;

/// A running resident machine: worker threads parked-or-reducing behind
/// channels, plus the ingress machine external threads inject through.
///
/// The handle is `Sync`; clone it behind an `Arc` and inject from as many
/// connection threads as you like — building a request serialises on the
/// ingress lock, reduction stays parallel across the workers' machines.
pub struct ResidentHandle {
    fleet: Fleet,
}

impl ResidentHandle {
    /// Compile `program`, seed `boot_goal` and spawn resident workers.
    /// Returns as soon as the workers are running; call
    /// [`wait_idle`](ResidentHandle::wait_idle) to block until the boot
    /// burst has drained (the Server motif's loops are then suspended on
    /// their streams, waiting for [`inject`](ResidentHandle::with_ingress)).
    pub fn start(
        program: &Program,
        boot_goal: &str,
        config: MachineConfig,
        lib: &ForeignLib,
    ) -> StrandResult<ResidentHandle> {
        let (goal, compiled) = prepare(program, boot_goal)?;
        let fleet = Fleet::launch(compiled, &goal, config, lib, true);
        Ok(ResidentHandle { fleet })
    }

    /// Worker threads behind this handle.
    pub fn threads(&self) -> usize {
        self.fleet.shared.threads
    }

    /// A named variable from the boot goal (e.g. the server directory tuple
    /// that request goals distribute over).
    pub fn boot_var(&self, name: &str) -> Option<Term> {
        self.fleet.vars.get(name).cloned()
    }

    /// Run `f` against the ingress machine — build terms,
    /// [`inject`](Machine::inject) goals, bump serve counters — and hand
    /// everything it enqueued to the owning workers. One quiescence token
    /// per destination is minted before the ingress lock is let go: until
    /// then a request lives only in the outbox, where a collector would miss
    /// it. Then, with the lock free, a parked worker's machine is lent to
    /// this thread, which reduces the batch with the worker's own burst; a
    /// busy worker is sent its batch (see the module docs). A due
    /// collection runs first.
    pub fn with_ingress<R>(&self, f: impl FnOnce(&mut Machine) -> R) -> R {
        let shared = &self.fleet.shared;
        let mut ingress = collect::hold_back(shared, lock(&shared.ingress));
        let m = &mut ingress
            .as_mut()
            .expect("the ingress lives until shutdown")
            .machine;
        let out = f(m);
        // The ingress machine owns no node, so it never reduces and has no
        // deadlines to harvest: the outbox is all it produces. Counter bumps
        // and store reads enqueue nothing.
        let outbox = m.take_outbox();
        if outbox.is_empty() {
            return out;
        }
        // Every destination's token is minted before the lock is let go;
        // only then may this thread reduce, on a parked worker's machine.
        let minted = by_worker(shared, outbox).inspect(|_| shared.tokens.add());
        let batches: Vec<_> = minted.collect();
        drop(ingress);
        for (w, batch) in batches {
            lend(shared, w, batch);
        }
        out
    }

    /// A session closed: collect at once if the fleet is idle, else once
    /// it drains (see [`with_ingress`](ResidentHandle::with_ingress)).
    pub fn reclaim(&self) {
        let shared = &self.fleet.shared;
        let mut ingress = lock(&shared.ingress);
        if let Some(ingress) = ingress.as_mut() {
            ingress.due.closed = true;
        }
        drop(collect::hold_back(shared, ingress));
    }

    /// Milliseconds until the earliest wall-clock deadline in the wheel
    /// (minimum 1), or `None` when no deadline is pending. The serve layer
    /// derives its BUSY retry hint from this: "come back when the scheduler
    /// next plans to wake" beats a fixed hint when the fleet is parked on a
    /// supervision beat.
    pub fn timer_horizon_ms(&self) -> Option<u64> {
        let wheel = &self.fleet.shared.wheel;
        Some(wheel.next_due_raw()?.saturating_sub(wheel.now_ms()?).max(1))
    }

    /// Nodes (1-based) the [`FaultPlan`](crate::FaultPlan) has
    /// crashed so far. Route external injections elsewhere — a goal
    /// delivered to a crashed node is discarded.
    pub fn crashed_nodes(&self) -> Vec<u32> {
        self.fleet.shared.world.crashed_nodes()
    }

    /// Whether the fault plan has crashed `node` (1-based), read in place:
    /// the per-request form of [`crashed_nodes`](ResidentHandle::crashed_nodes).
    /// `false` for a node the fleet does not have.
    pub fn is_crashed(&self, node: u32) -> bool {
        let crashed = &self.fleet.shared.world.crashed;
        let flag = node.checked_sub(1).and_then(|i| crashed.get(i as usize));
        flag.is_some_and(|dead| dead.load(Ordering::Acquire))
    }

    /// How many nodes the fault plan has crashed so far.
    pub fn crashed_count(&self) -> usize {
        let crashed = self.fleet.shared.world.crashed.iter();
        crashed.filter(|dead| dead.load(Ordering::Acquire)).count()
    }

    /// Reductions performed so far, all workers combined.
    pub fn reductions(&self) -> u64 {
        self.fleet.shared.world.reductions()
    }

    /// True when the machine is globally quiescent: every worker parked,
    /// no batch in flight. New injections flip this false immediately.
    pub fn is_idle(&self) -> bool {
        self.fleet.shared.tokens.is_zero()
    }

    /// True once a fatal error (or shutdown) has told the workers to wind
    /// down; the service should stop admitting.
    pub fn is_stopping(&self) -> bool {
        self.fleet.shared.stopping.load(Ordering::Acquire)
    }

    /// Block until the machine reads idle, polling the token counter.
    /// Returns `false` on timeout. (Idle is a steady state until the next
    /// injection, so a poll is race-free where a woken-too-early condvar
    /// would not be.)
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.fleet.shared.tokens.is_zero() || self.is_stopping() {
                return true;
            }
            if Instant::now() >= deadline {
                return self.fleet.shared.tokens.is_zero();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Wind the service down: wait (bounded) for in-flight work to drain,
    /// stop and join the workers, and merge every shard's report — the
    /// ingress machine's included, so serve counters and collection
    /// totals survive into the summary.
    pub fn shutdown(self) -> StrandResult<RunReport> {
        let _ = self.wait_idle(Duration::from_secs(10));
        // Taking the ingress ends collection; one under way finishes first.
        let ingress = lock(&self.fleet.shared.ingress).take().map(|i| i.machine);
        stop(&self.fleet.shared);
        self.fleet.collect(ingress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ast_to_term, FaultPlan};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex as StdMutex};
    use strand_core::StrandError;
    use strand_parse::{parse_program, parse_term};

    fn handle(threads: u32) -> ResidentHandle {
        let program = parse_program("boot. double(X, Y) :- Y := X * 2.").unwrap();
        let cfg = MachineConfig::with_nodes(4).parallel(threads);
        ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap()
    }

    fn inject_goal(h: &ResidentHandle, src: &str) -> BTreeMap<String, Term> {
        inject_goal_at(h, 1, src)
    }

    /// Inject `src` on `node`, holding its named variables so the test can
    /// read them after the fleet is done with them.
    fn inject_goal_at(h: &ResidentHandle, node: i64, src: &str) -> BTreeMap<String, Term> {
        h.with_ingress(|m| {
            let ast = parse_term(src).unwrap();
            let mut vars = BTreeMap::new();
            let goal = ast_to_term(&ast, m, &mut vars);
            for v in vars.values() {
                m.hold(v.clone());
            }
            m.inject(goal, node);
            vars
        })
    }

    /// Slots the fleet's collections have freed so far.
    fn reclaimed(h: &ResidentHandle) -> u64 {
        h.with_ingress(|m| m.metrics_mut().vars_reclaimed)
    }

    #[test]
    fn answers_bursts_and_returns_to_idle_between_them() {
        let h = handle(2);
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        for x in [21i64, 100] {
            let vars = inject_goal(&h, &format!("double({x}, V)"));
            assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
            let v = h.with_ingress(|m| {
                m.release(&vars["V"]);
                m.store().resolve(&vars["V"])
            });
            assert_eq!(v.to_string(), (x * 2).to_string());
            // Idle: the collection runs at once, and `V` is free.
            let before = reclaimed(&h);
            h.reclaim();
            assert_eq!(reclaimed(&h), before + 1);
        }
        assert!(h.wait_idle(Duration::from_secs(5)));
        let report = h.shutdown().unwrap();
        // Each drained burst parks the fleet exactly once (boot + two
        // requests ⇒ at least one, typically several).
        assert!(report.metrics.idle_parks >= 1, "{:?}", report.metrics);
        assert!(report.metrics.collections >= 2, "{:?}", report.metrics);
        assert!(report.metrics.vars_reclaimed >= 2, "{:?}", report.metrics);
    }

    #[test]
    fn ingress_batches_for_a_parked_shard_reduce_on_the_injecting_thread() {
        // Each request is one batch for node 1's worker, which is parked
        // when it arrives: the injecting thread reduces it, so the owner
        // never wakes. Only the first injection can find the worker still
        // holding its machine on its way to park after the boot burst.
        let h = handle(2);
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        let requests = 200;
        let mut answers = Vec::new();
        for x in 0..requests {
            let vars = inject_goal(&h, &format!("double({x}, V)"));
            assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
            answers.push(h.with_ingress(|m| {
                m.release(&vars["V"]);
                m.store().resolve(&vars["V"]).to_string()
            }));
        }
        let want: Vec<String> = (0..requests).map(|x| (2 * x).to_string()).collect();
        assert_eq!(answers, want);
        let m = h.shutdown().unwrap().metrics;
        assert_eq!(m.ingress_bursts + m.ingress_handoffs, requests, "{m:?}");
        assert!(m.ingress_bursts >= requests - 1, "{m:?}");
    }

    #[test]
    fn a_sink_runs_on_ground_inputs_and_binds_nothing_on_two_workers() {
        // `note/2` is a sink; the producers of its inputs run on the other
        // worker's nodes, so it suspends and is woken across shards.
        let program = parse_program(
            "boot. go :- note(X, Y)@1, one(X)@2, other(Y)@2. \
             one(X) :- X := 6. other(Y) :- Y := 7. bad :- note(poison, 0).",
        )
        .unwrap();
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let mut lib = ForeignLib::new();
        {
            let seen = Arc::clone(&seen);
            lib.register_sink("note", 2, move |args| {
                if args[0] == Term::atom("poison") {
                    return Err(StrandError::Other("sink failure".to_string()));
                }
                seen.lock()
                    .unwrap()
                    .push(format!("{} {}", args[0], args[1]));
                Ok(500)
            });
        }
        let mut cfg = MachineConfig::with_nodes(4).parallel(2);
        cfg.fail_fast = false;
        let h = ResidentHandle::start(&program, "boot", cfg, &lib).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        let binds = || h.with_ingress(|m| m.store().bind_count());
        let before = binds();
        inject_goal(&h, "go");
        assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
        assert_eq!(*seen.lock().unwrap(), ["6 7"], "ran once, on ground inputs");
        // The two producers' binds and nothing else: a procedure with an
        // out-arg would have added a third.
        assert_eq!(binds() - before, 2);
        // With `fail_fast` off a failing sink is collected, not fatal.
        inject_goal(&h, "bad");
        assert!(h.wait_idle(Duration::from_secs(5)));
        assert!(!h.is_stopping(), "sink error stopped the fleet");
        let report = h.shutdown().unwrap();
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report.metrics.makespan >= 500, "cost not charged");
        assert!(report.metrics.suspensions >= 1, "{:?}", report.metrics);
    }

    #[test]
    fn worker_panic_stops_a_resident_fleet_and_shutdown_reports_it() {
        // `boom/2` (a bug in foreign code) panics on node 2's worker. The
        // service must read as stopping, so it stops admitting, and
        // shutdown must return the panic instead of a report.
        let program =
            parse_program("boot. go :- boom(1, X)@2, wait(X). wait(X) :- X > 0 | true.").unwrap();
        let mut lib = ForeignLib::new();
        lib.register("boom", 2, |_| panic!("foreign procedure bug"));
        let cfg = MachineConfig::with_nodes(4).parallel(2);
        let h = ResidentHandle::start(&program, "boot", cfg, &lib).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        assert!(!h.is_stopping());
        inject_goal(&h, "go");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !h.is_stopping() {
            assert!(
                Instant::now() < deadline,
                "the panic never stopped the fleet"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let err = h.shutdown().unwrap_err();
        assert!(
            err.to_string().contains("worker panicked during reduction"),
            "{err}"
        );
    }

    #[test]
    fn a_panic_on_the_injecting_thread_stops_the_fleet_and_shutdown_reports_it() {
        // Node 1's worker is parked, so the injecting thread reduces `go`
        // and the `boom/2` it spawns on the same node itself. The panic is
        // caught there: the caller carries on, the fleet stops as for a
        // worker's panic, and shutdown returns it.
        let program = parse_program("boot. ok. go :- boom(1, _).").unwrap();
        let mut lib = ForeignLib::new();
        lib.register("boom", 2, |_| panic!("foreign procedure bug"));
        let cfg = MachineConfig::with_nodes(4).parallel(2);
        let h = ResidentHandle::start(&program, "boot", cfg, &lib).unwrap();
        // Until one request is lent, the worker may still be on its way to
        // park after the boot burst (or the last handed-off request).
        let handoffs = || h.fleet.shared.ingress_handoffs.load(Ordering::Relaxed);
        loop {
            assert!(h.wait_idle(Duration::from_secs(5)), "fleet never drained");
            let before = handoffs();
            inject_goal(&h, "ok");
            if handoffs() == before {
                break;
            }
        }
        assert!(h.wait_idle(Duration::from_secs(5)), "`ok` never drained");
        inject_goal(&h, "go");
        assert!(h.is_stopping(), "the lent panic did not stop the fleet");
        let err = h.shutdown().unwrap_err();
        assert!(
            err.to_string().contains("worker panicked during reduction"),
            "{err}"
        );
    }

    /// A resident fleet over `src` (plus a no-op `boot`), drained to idle.
    fn timer_fleet(src: &str) -> ResidentHandle {
        let program = parse_program(&format!("boot. {src}")).unwrap();
        let cfg = MachineConfig::with_nodes(4).parallel(2);
        let h = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        h
    }

    /// Poll until `t` is bound (the fleet reads idle while a deadline is
    /// pending, so `wait_idle` cannot wait for a timeout).
    fn await_bound(h: &ResidentHandle, t: &Term) -> Term {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let v = h.with_ingress(|m| m.store().resolve(t));
            if !matches!(v, Term::Var(_)) {
                return v;
            }
            assert!(Instant::now() < deadline, "deadline never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn wall_clock_timer_fires_while_fleet_is_parked() {
        // The deadline lands in the shared wheel; every worker goes idle,
        // surrenders its token and parks — and the fleet must wake ~30ms
        // later to fire the timeout. Quiescence alone must neither fire it
        // nor lose it.
        let h = timer_fleet("go(V) :- after_unless(C, 30, V).");
        let vars = inject_goal(&h, "go(V)");
        assert_eq!(await_bound(&h, &vars["V"]).to_string(), "timeout");
        let report = h.shutdown().unwrap();
        assert!(
            matches!(report.status, crate::RunStatus::Completed),
            "{:?}",
            report.status
        );
        assert_eq!(report.metrics.timers_armed, 1, "{:?}", report.metrics);
        assert_eq!(report.metrics.timers_fired, 1, "{:?}", report.metrics);
        assert!(report.metrics.wakes_for_deadline >= 1);
    }

    #[test]
    fn cancelled_wall_timer_neither_fires_nor_hangs_the_run() {
        // The cancel binds in the burst that arms the hour-long deadline,
        // so it is never armed: the wheel stays empty, no owner is woken,
        // and shutdown must not sleep on it.
        let h = timer_fleet("go(V) :- after_unless(C, 3600000, V), C := done.");
        let t0 = Instant::now();
        let vars = inject_goal(&h, "go(V)");
        assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
        assert_eq!(h.timer_horizon_ms(), None, "a cancelled deadline was armed");
        let v = h.with_ingress(|m| m.store().resolve(&vars["V"]));
        let report = h.shutdown().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "run hung on a cancelled deadline"
        );
        assert_ne!(v.to_string(), "timeout");
        let m = &report.metrics;
        assert_eq!(m.timers_armed, 1);
        assert_eq!(m.timers_fired, 0);
        assert_eq!(m.timers_cancelled, 1, "{m:?}");
        assert_eq!(m.ingress_wakes, 0, "{m:?}");
    }

    #[test]
    fn a_deadline_cancelled_inside_its_burst_never_reaches_the_wheel() {
        // Each request arms an hour-long deadline and binds its cancel in
        // the same burst, whether the injecting thread or the owner runs
        // it: the wheel is empty the moment the injection returns, and no
        // lender wakes the owner for it.
        let h = timer_fleet("go(V) :- after_unless(C, 3600000, V), C := done.");
        let requests = 100;
        for _ in 0..requests {
            inject_goal(&h, "go(_)");
            assert_eq!(h.timer_horizon_ms(), None, "a cancelled deadline was armed");
        }
        assert!(h.wait_idle(Duration::from_secs(5)), "never drained");
        let m = h.shutdown().unwrap().metrics;
        assert_eq!((m.timers_armed, m.timers_cancelled), (requests, requests));
        assert_eq!((m.timers_fired, m.ingress_wakes), (0, 0), "{m:?}");

        // A live deadline does reach the wheel, and every lent burst that
        // armed one wakes its owner to re-plan its park around it.
        let h = timer_fleet("go(V) :- after_unless(_, 3600000, V).");
        for _ in 0..5 {
            inject_goal(&h, "go(_)");
            assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
            assert!(h.timer_horizon_ms().is_some(), "a live deadline was lost");
        }
        let m = h.shutdown().unwrap().metrics;
        assert_eq!((m.timers_armed, m.timers_cancelled), (5, 0), "{m:?}");
        assert!(m.ingress_bursts >= 1, "{m:?}");
        assert_eq!(m.ingress_wakes, m.ingress_bursts, "{m:?}");
    }

    #[test]
    fn an_unsupervised_resident_deadline_waits_out_its_wall_time() {
        // No Supervise, no configuration: a resident fleet's deadlines run
        // on the wall clock because it is resident. The fleet goes idle the
        // moment `go` has armed, and again after every `double` burst below;
        // none of those idle instants may fire the 30-tick deadline — only
        // 30 ms of wall time may. (The wheel counts whole milliseconds, so
        // the bound is 29.)
        let h = timer_fleet(
            "go(T) :- after_unless(_, 30, T). \
             double(X, Y) :- Y := X * 2.",
        );
        let armed = Instant::now();
        let vars = inject_goal(&h, "go(T)");
        for _ in 2..6 {
            inject_goal(&h, "double(1, _)");
            assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
            let t = h.with_ingress(|m| m.store().resolve(&vars["T"]));
            let early = armed.elapsed() < Duration::from_millis(29);
            assert!(
                !early || matches!(t, Term::Var(_)),
                "fired at an idle instant, {:?} after arming",
                armed.elapsed()
            );
        }
        assert_eq!(await_bound(&h, &vars["T"]).to_string(), "timeout");
        assert!(
            armed.elapsed() >= Duration::from_millis(29),
            "fired {:?} after arming",
            armed.elapsed()
        );
        h.shutdown().unwrap();
    }

    #[test]
    fn ingress_goals_are_never_rolled_but_the_deliveries_they_make_are() {
        // Every delivery is dropped. The injected goal is ingress traffic,
        // not a network message: it arrives and reduces. Its remote spawn
        // is a delivery and is lost.
        let program = parse_program("boot. go(V) :- set(V)@2. set(V) :- V := ok.").unwrap();
        let cfg = MachineConfig::with_nodes(4)
            .parallel(2)
            .faults(FaultPlan::default().drop_prob(1.0));
        let h = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        let before = h.reductions();
        let vars = inject_goal(&h, "go(V)");
        assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
        assert_eq!(h.reductions() - before, 1, "go/1 reduced, set/1 never ran");
        let v = h.with_ingress(|m| m.store().resolve(&vars["V"]));
        assert!(matches!(v, Term::Var(_)), "{v}");
        let report = h.shutdown().unwrap();
        assert_eq!(report.metrics.msgs_dropped, 1, "{:?}", report.metrics);
    }

    #[test]
    fn a_crashed_node_surfaces_in_crashed_nodes_and_its_worker_carries_on() {
        // Crash node 2 immediately. The resident machine must (a) start,
        // (b) report the dead node through `crashed_nodes` so callers can
        // route around it, (c) discard a goal injected at it anyway, and
        // (d) keep answering on node 4, which the same worker owns.
        let program = parse_program("boot. double(X, Y) :- Y := X * 2.").unwrap();
        let cfg = MachineConfig::with_nodes(4)
            .parallel(2)
            .faults(FaultPlan::default().crash(2, 0));
        let h = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        // The crash is due at reduction 0: worker 1 fires it at the top of
        // its first drain, before it first parks.
        assert_eq!(h.crashed_nodes(), vec![2]);
        assert_eq!(h.crashed_count(), 1);
        let dead: Vec<bool> = (0..=5).map(|node| h.is_crashed(node)).collect();
        assert_eq!(dead, [false, false, true, false, false, false]);
        let ask = |node: i64| {
            let vars = inject_goal_at(&h, node, "double(21, V)");
            assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
            h.with_ingress(|m| m.store().resolve(&vars["V"]))
        };
        assert!(matches!(ask(2), Term::Var(_)), "a dead node answered");
        assert_eq!(ask(4).to_string(), "42");
        let report = h.shutdown().unwrap();
        assert_eq!(report.metrics.nodes_crashed, 1, "{:?}", report.metrics);
        assert_eq!(report.metrics.msgs_dropped, 1, "{:?}", report.metrics);
    }

    #[test]
    fn a_worker_whose_nodes_crashed_still_hands_over_and_its_stripe_is_swept() {
        // `serve/2` runs on node 2, so `T` and `Go` are allocated on the
        // stripe of worker 1, where `wait/3` suspends. `Go` is held, which
        // keeps the suspension and all three slots alive. Then both of
        // worker 1's nodes crash: it is still a worker, it must answer every
        // collection, and once `Go` is released the sweep frees the
        // request's slots on its stripe as on any other.
        let program = parse_program(
            "boot. serve(Q, Go, R) :- T := Q * 2, wait(T, Go, R). \
             wait(T, Go, R) :- Go == go | R := T. \
             walk([]). walk([_|Xs]) :- walk(Xs).",
        )
        .unwrap();
        let crash_at = 40;
        let cfg = MachineConfig::with_nodes(4)
            .parallel(2)
            .faults(FaultPlan::default().crash(2, crash_at).crash(4, crash_at));
        let h = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap();
        let idle = || assert!(h.wait_idle(Duration::from_secs(5)), "never drained");
        idle();
        let go = h.with_ingress(|m| {
            let go = Term::Var(m.store_mut().new_var());
            let r = Term::Var(m.store_mut().new_var());
            m.hold(go.clone());
            m.inject(Term::tuple("serve", vec![Term::int(21), go.clone(), r]), 2);
            go
        });
        idle();
        assert!(h.reductions() < crash_at && h.crashed_nodes().is_empty());
        let before = reclaimed(&h);

        // Run the reduction count past the crash point on node 1 (a ground
        // list walk allocates nothing), then give worker 1 a reason to look.
        let steps = "a,".repeat(crash_at as usize);
        inject_goal(&h, &format!("walk([{steps}a])"));
        idle();
        inject_goal_at(&h, 2, "boot");
        idle();
        assert_eq!(h.crashed_nodes(), vec![2, 4]);

        h.with_ingress(|m| m.release(&go));
        h.reclaim();
        idle();
        assert_eq!(reclaimed(&h) - before, 3, "R, T and Go");
        let report = h.shutdown().unwrap();
        assert!(report.metrics.collections >= 1, "{:?}", report.metrics);
    }
}
