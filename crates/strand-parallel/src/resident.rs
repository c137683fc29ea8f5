//! Resident execution: keep a parallel machine alive between bursts.
//!
//! The batch entry point ([`run_parallel`](crate::ParallelBackend)) treats
//! global quiescence as termination: the last worker to surrender its token
//! broadcasts stop and everyone exits. A *service* wants the opposite — the
//! program (a Server motif, typically) drains to quiescence and then waits,
//! suspended on its port streams, for the next external request. This
//! module provides that mode over the very `Fleet` a batch run launches
//! and collects — only who calls `stop` differs:
//!
//! * workers run the unmodified [`worker_loop`](crate::worker_loop); the
//!   only behavioural difference is the `resident` flag on the shared
//!   state, which turns the stop-broadcast on last-token-release into an
//!   ordinary park (counted as `idle_parks` in the metrics). Quiescence
//!   becomes re-entrant: the counter climbs off zero as soon as an ingress
//!   batch is minted and the parked workers wake exactly as they would for
//!   a peer's batch.
//! * an extra **ingress** [`Machine`] ([`Machine::new_ingress`]) lives on
//!   the caller's side of the channels. It owns no nodes, never reduces,
//!   and exists so external threads can build terms against the shared
//!   store and enqueue goals; everything it enqueues lands in its outbox
//!   and is shipped to the owning workers under the same token protocol as
//!   worker-to-worker traffic.
//! * session cleanup rides the same channels: [`ResidentHandle::reclaim`]
//!   sends each worker a [`Routed::Reclaim`] event, which sweeps that
//!   shard's suspensions and store stripe for the region inline with its
//!   normal scheduling — no stop-the-world.
//!
//! A [`FaultPlan`](strand_machine::FaultPlan) is honoured like on any
//! fleet (the shard core injects it): a supervised resident program (the
//! `Supervise ∘ Server` composition) is exactly the thing that is
//! *supposed* to survive a crashed node, and the chaos-on-serve conformance
//! tier drives it through this path. Ingress injections are not network
//! messages and are never rolled on the dice, but one aimed at a crashed
//! node is discarded by its owner — callers routing external work should
//! consult [`ResidentHandle::crashed_nodes`] so new sessions land on nodes
//! that will actually reduce them.

use crate::{lock, send_batch, send_direct, stop, Fleet};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use strand_core::{StrandResult, Term};
use strand_machine::{ForeignLib, Machine, MachineConfig, Routed, RunReport};
use strand_parse::Program;

/// A running resident machine: worker threads parked-or-reducing behind
/// channels, plus the ingress machine external threads inject through.
///
/// The handle is `Sync`; clone it behind an `Arc` and inject from as many
/// connection threads as you like — injection serialises on the ingress
/// lock, reduction stays parallel across the workers.
pub struct ResidentHandle {
    fleet: Fleet,
    /// The ingress machine. Term construction, goal injection and the
    /// serve-side metrics counters all happen under this lock.
    ingress: Mutex<Machine>,
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
        let (fleet, ingress) = Fleet::launch(program, boot_goal, config, lib, true)?;
        let ingress = Mutex::new(ingress.expect("a resident fleet has an ingress machine"));
        Ok(ResidentHandle { fleet, ingress })
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

    /// Run `f` against the ingress machine — build terms, set the session
    /// region, [`inject`](Machine::inject) goals, bump serve counters —
    /// then flush everything it enqueued to the owning workers (minting
    /// quiescence tokens per batch, so a parked fleet wakes).
    pub fn with_ingress<R>(&self, f: impl FnOnce(&mut Machine) -> R) -> R {
        let mut m = lock(&self.ingress);
        let out = f(&mut m);
        // An ingress machine owns no node, so it never reduces and has no
        // deadlines to harvest: the outbox is all it produces.
        let outbox = m.take_outbox();
        drop(m);
        // Counter bumps and store reads enqueue nothing: no buffers to
        // build, no worker to visit.
        if !outbox.is_empty() {
            send_direct(&self.fleet.shared, outbox);
        }
        out
    }

    /// Close a session: every worker sweeps its suspensions and store
    /// stripe for `region`, inline with its normal scheduling. The sweep
    /// events carry quiescence tokens like any batch, so reclamation is
    /// complete once the machine next reads idle.
    pub fn reclaim(&self, region: u32) {
        // Purge the session's wall deadlines first: a wheel entry that
        // outlived its region could fire into a *recycled* store slot and
        // bind some other session's variable.
        self.fleet.shared.wheel.purge_region(region);
        for w in 0..self.threads() {
            send_batch(
                &self.fleet.shared,
                w,
                vec![Routed::Reclaim { region, worker: w }],
            );
        }
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

    /// Nodes (1-based) the [`FaultPlan`](strand_machine::FaultPlan) has
    /// crashed so far. Route external injections elsewhere — a goal
    /// delivered to a crashed node is discarded.
    pub fn crashed_nodes(&self) -> Vec<u32> {
        self.fleet.shared.world.crashed_nodes()
    }

    /// Work pending anywhere (armed deadlines are not work until they
    /// fire) — the backpressure gauge admission checks against its budget.
    pub fn pending(&self) -> u64 {
        self.fleet.shared.world.regular_pending()
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
    /// ingress machine's included, so serve counters and reclamation
    /// totals survive into the summary.
    pub fn shutdown(self) -> StrandResult<RunReport> {
        let _ = self.wait_idle(Duration::from_secs(10));
        stop(&self.fleet.shared);
        let ingress = self.ingress.into_inner().unwrap_or_else(|e| e.into_inner());
        Ok(self.fleet.collect(Some(ingress))?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex as StdMutex};
    use strand_core::StrandError;
    use strand_machine::{ast_to_term, FaultPlan};
    use strand_parse::{parse_program, parse_term};

    fn handle(threads: u32) -> ResidentHandle {
        let program = parse_program("boot. double(X, Y) :- Y := X * 2.").unwrap();
        let cfg = MachineConfig::with_nodes(4).parallel(threads);
        ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap()
    }

    fn inject_goal(h: &ResidentHandle, region: u32, src: &str) -> BTreeMap<String, Term> {
        inject_goal_at(h, region, 1, src)
    }

    fn inject_goal_at(
        h: &ResidentHandle,
        region: u32,
        node: i64,
        src: &str,
    ) -> BTreeMap<String, Term> {
        h.with_ingress(|m| {
            m.set_session_region(region);
            let ast = parse_term(src).unwrap();
            let mut vars = BTreeMap::new();
            let goal = ast_to_term(&ast, m, &mut vars);
            m.inject(goal, node);
            vars
        })
    }

    #[test]
    fn answers_bursts_and_returns_to_idle_between_them() {
        let h = handle(2);
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        for (session, x) in [(1u32, 21i64), (2, 100)] {
            let vars = inject_goal(&h, session, &format!("double({x}, V)"));
            assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
            let v = h.with_ingress(|m| m.store().resolve(&vars["V"]));
            assert_eq!(v.to_string(), (x * 2).to_string());
            // Injected on the ingress lane, settled on a worker's.
            assert_eq!(h.pending(), 0, "gate lanes out of balance");
            h.reclaim(session);
        }
        assert!(h.wait_idle(Duration::from_secs(5)));
        assert_eq!(h.pending(), 0);
        let report = h.shutdown().unwrap();
        // Each drained burst parks the fleet exactly once (boot + two
        // requests + reclaim wakes ⇒ at least one, typically several).
        assert!(report.metrics.idle_parks >= 1, "{:?}", report.metrics);
        // Session-tagged request variables were swept on reclaim.
        assert!(report.metrics.vars_reclaimed >= 2, "{:?}", report.metrics);
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
        inject_goal(&h, 1, "go");
        assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
        assert_eq!(*seen.lock().unwrap(), ["6 7"], "ran once, on ground inputs");
        // The two producers' binds and nothing else: a procedure with an
        // out-arg would have added a third.
        assert_eq!(binds() - before, 2);
        // With `fail_fast` off a failing sink is collected, not fatal.
        inject_goal(&h, 1, "bad");
        assert!(h.wait_idle(Duration::from_secs(5)));
        assert!(!h.is_stopping(), "sink error stopped the fleet");
        let report = h.shutdown().unwrap();
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report.metrics.makespan >= 500, "cost not charged");
        assert!(report.metrics.suspensions >= 1, "{:?}", report.metrics);
    }

    #[test]
    fn pending_lanes_never_wrap_while_two_workers_trade_spawns() {
        // Every hop is spawned on one worker's lane and settled on the
        // other's, so a reader summing the lanes mid-run can catch a -1
        // before its +1. The sum is clamped, never wrapped: it reads at most
        // the goals the run ever holds, and exactly zero once idle.
        let program = parse_program(
            "boot. \
             ping(0). ping(N) :- N > 0 | M := N - 1, pong(M)@2. \
             pong(0). pong(N) :- N > 0 | M := N - 1, ping(M)@1.",
        )
        .unwrap();
        let cfg = MachineConfig::with_nodes(4).parallel(2);
        let h = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        let (chains, hops) = (8u64, 2_000u64);
        // A hop is the ping/pong goal and its `:=`.
        let ever = chains * (2 * hops + 1);
        for _ in 0..chains {
            inject_goal(&h, 1, &format!("ping({hops})"));
        }
        let (mut peak, mut reads) = (0, 0u64);
        while !h.is_idle() {
            let pending = h.pending();
            assert!(
                pending <= ever,
                "gate read {pending} with {ever} goals ever made"
            );
            peak = peak.max(pending);
            reads += 1;
        }
        assert_eq!(h.pending(), 0, "after {reads} reads peaking at {peak}");
        // (More only if a hop outran its `:=` and had to suspend once.)
        assert!(h.reductions() > ever, "boot, then every hop");
        h.shutdown().unwrap();
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
        let vars = inject_goal(&h, 1, "go(V)");
        assert_eq!(await_bound(&h, &vars["V"]).to_string(), "timeout");
        let report = h.shutdown().unwrap();
        assert!(
            matches!(report.status, strand_machine::RunStatus::Completed),
            "{:?}",
            report.status
        );
        assert_eq!(report.metrics.timers_armed, 1, "{:?}", report.metrics);
        assert_eq!(report.metrics.timers_fired, 1, "{:?}", report.metrics);
        assert!(report.metrics.wakes_for_deadline >= 1);
    }

    #[test]
    fn cancelled_wall_timer_neither_fires_nor_hangs_the_run() {
        // The cancel binds immediately; the hour-long deadline must be
        // pruned at the park boundary, and shutdown must not sleep on a
        // dead wheel entry.
        let h = timer_fleet("go(V) :- after_unless(C, 3600000, V), C := done.");
        let t0 = Instant::now();
        let vars = inject_goal(&h, 1, "go(V)");
        assert!(h.wait_idle(Duration::from_secs(5)), "burst never drained");
        let v = h.with_ingress(|m| m.store().resolve(&vars["V"]));
        let report = h.shutdown().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "run hung on a cancelled deadline"
        );
        assert_ne!(v.to_string(), "timeout");
        assert_eq!(report.metrics.timers_armed, 1);
        assert_eq!(report.metrics.timers_fired, 0);
        assert_eq!(report.metrics.timers_cancelled, 1, "{:?}", report.metrics);
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
        let vars = inject_goal(&h, 1, "go(T)");
        for session in 2..6 {
            inject_goal(&h, session, "double(1, _)");
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
        let vars = inject_goal(&h, 1, "go(V)");
        assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
        assert_eq!(h.reductions() - before, 1, "go/1 reduced, set/1 never ran");
        assert_eq!(h.pending(), 0, "a dropped delivery holds no gate unit");
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
        let ask = |node: i64| {
            let vars = inject_goal_at(&h, 8, node, "double(21, V)");
            assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
            h.with_ingress(|m| m.store().resolve(&vars["V"]))
        };
        assert!(matches!(ask(2), Term::Var(_)), "a dead node answered");
        assert_eq!(h.pending(), 0, "the discarded goal's gate unit was settled");
        assert_eq!(ask(4).to_string(), "42");
        let report = h.shutdown().unwrap();
        assert_eq!(report.metrics.nodes_crashed, 1, "{:?}", report.metrics);
        assert_eq!(report.metrics.msgs_dropped, 1, "{:?}", report.metrics);
    }

    #[test]
    fn a_session_closed_after_its_nodes_crashed_is_still_swept() {
        // The handler shape `server([req(Q, R)|In]) :- T := Q * 2, R := T,
        // ...`: `T` is a body variable, allocated under the session's
        // region on the stripe of the worker that served the request. Both
        // of that worker's nodes then crash. It is still a worker: the
        // close-time `Routed::Reclaim` must sweep its stripe. (A killed
        // shard used to discard the event and leak the slot.)
        let program = parse_program(
            "boot. serve(Q, R) :- T := Q * 2, R := T. \
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
        let store_len = || h.with_ingress(|m| m.store().len());
        let before = store_len();

        let session = 5;
        let vars = inject_goal_at(&h, session, 2, "serve(21, R)");
        idle();
        let r = h.with_ingress(|m| m.store().resolve(&vars["R"]));
        assert_eq!(r.to_string(), "42", "answered before the crash");
        assert_eq!(
            store_len(),
            before + 2,
            "R on the ingress stripe, T on worker 1's"
        );
        assert!(h.reductions() < crash_at && h.crashed_nodes().is_empty());

        // Run the reduction count past the crash point on node 1 (a ground
        // list walk allocates nothing), then give worker 1 a reason to look.
        let steps = "a,".repeat(crash_at as usize);
        inject_goal(&h, session, &format!("walk([{steps}a])"));
        idle();
        inject_goal_at(&h, session, 2, "boot");
        idle();
        assert_eq!(h.crashed_nodes(), vec![2, 4]);

        // `store_len` is a high-water mark (freed slots wait on a free
        // list), so the sweep shows in the reclaim count: both slots, not
        // just the ingress stripe's.
        h.reclaim(session);
        idle();
        let report = h.shutdown().unwrap();
        assert_eq!(report.metrics.vars_reclaimed, 2, "{:?}", report.metrics);
    }
}
