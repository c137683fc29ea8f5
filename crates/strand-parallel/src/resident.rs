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
//! Virtual-time fault plans are rejected (they need the simulator's clock),
//! but wall-clock [`ChaosPlan`](strand_machine::ChaosPlan)s are accepted:
//! a supervised resident
//! program (the `Supervise ∘ Server` composition) is exactly the thing that
//! is *supposed* to survive a killed shard, and the chaos-on-serve
//! conformance tier drives it through this path. Callers routing external
//! injections should consult [`ResidentHandle::dead_shards`] so new
//! sessions land on shards that will actually reduce them.

use crate::{send_batch, send_direct, stop, Fleet};
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
        let mut m = self.ingress.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut m);
        let outbox = m.take_outbox();
        // Ingress never reduces, so it should never *arm* — but if a caller
        // ever drives a reduction through it, losing the deadline silently
        // would be worse than arming it here.
        for deadline in m.take_deadlines() {
            self.fleet.shared.wheel.arm(deadline);
        }
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

    /// Bitmask of workers whose shards a
    /// [`ChaosPlan`](strand_machine::ChaosPlan) has killed (bit `i`
    /// ⇔ worker `i` is dead). Route external injections at nodes owned by
    /// live workers — a goal delivered to a dead shard is discarded.
    pub fn dead_shards(&self) -> u64 {
        self.fleet.shared.dead.load(Ordering::Acquire)
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
    use strand_machine::{ast_to_term, ChaosPlan};
    use strand_parse::{parse_program, parse_term};

    fn handle(threads: u32) -> ResidentHandle {
        let program = parse_program("boot. double(X, Y) :- Y := X * 2.").unwrap();
        let cfg = MachineConfig::with_nodes(4).parallel(threads);
        ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap()
    }

    fn inject_goal(h: &ResidentHandle, region: u32, src: &str) -> BTreeMap<String, Term> {
        h.with_ingress(|m| {
            m.set_session_region(region);
            let ast = parse_term(src).unwrap();
            let mut vars = BTreeMap::new();
            let goal = ast_to_term(&ast, m, &mut vars);
            m.inject(goal, 1);
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
            h.reclaim(session);
        }
        assert!(h.wait_idle(Duration::from_secs(5)));
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
    fn fault_plans_are_rejected_in_resident_mode() {
        let program = parse_program("boot.").unwrap();
        let cfg = MachineConfig::with_nodes(2)
            .parallel(2)
            .faults(strand_machine::FaultPlan::default().crash(1, 100));
        let err = match ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()) {
            Err(e) => e,
            Ok(_) => panic!("virtual-time fault plan accepted in resident mode"),
        };
        assert!(
            matches!(err, StrandError::UnsupportedFaultPlan { .. }),
            "{err}"
        );
        // The hint must steer the user to the wall-clock analogue.
        assert!(err.to_string().contains("ChaosPlan"), "{err}");
    }

    #[test]
    fn chaos_plans_are_accepted_and_kills_surface_in_dead_shards() {
        // Kill worker 1 immediately. The resident machine must (a) start,
        // (b) keep answering on the surviving shard, and (c) report the
        // dead worker through `dead_shards` so callers can route around it.
        let program = parse_program("boot. double(X, Y) :- Y := X * 2.").unwrap();
        let cfg = MachineConfig::with_nodes(4)
            .parallel(2)
            .chaos(ChaosPlan::default().kill(1, 0));
        let h = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::default()).unwrap();
        assert!(h.wait_idle(Duration::from_secs(5)), "boot never drained");
        // Worker 1's kill deadline is reduction 0; it dies at its first
        // loop top. Wait for the bit to show up.
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.dead_shards() & 0b10 == 0 {
            assert!(Instant::now() < deadline, "worker 1 never died");
            std::thread::sleep(Duration::from_millis(2));
        }
        // The surviving shard still answers: node 1 belongs to worker 0.
        let vars = h.with_ingress(|m| {
            m.set_session_region(8);
            let ast = parse_term("double(21, V)").unwrap();
            let mut vars = BTreeMap::new();
            let goal = ast_to_term(&ast, m, &mut vars);
            m.inject(goal, 1);
            vars
        });
        assert!(h.wait_idle(Duration::from_secs(5)), "request never drained");
        let v = h.with_ingress(|m| m.store().resolve(&vars["V"]));
        assert_eq!(v.to_string(), "42");
        let report = h.shutdown().unwrap();
        assert_eq!(report.metrics.shards_killed, 1, "{:?}", report.metrics);
    }
}
