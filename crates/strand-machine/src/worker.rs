//! The fleet worker's driver over the shard core: one machine per worker
//! thread of a sharded run (crate `strand-parallel`), owning the nodes with
//! `node mod threads == index`. A worker alternates [`Machine::drain_local`]
//! (reduce owned work; no lock wider than a store stripe is ever held) with
//! routing its outbox to peers and [`Machine::absorb`]ing their batches, and
//! hands the deadlines it armed to the backend's one deadline queue.

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::world::{Deadline, Job, QItem, Role, Routed, SharedWorld};
use std::sync::Arc;
use strand_core::{sym, NodeId, SplitMix64, StrandError, StrandResult, Term};
use strand_parse::CompiledProgram;

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

impl Machine {
    /// Build one worker's machine for a sharded run: same program and config
    /// as the simulator would use, but variables, ports, budget and sequence
    /// numbers live in the shared `world`, and process ids are offset so
    /// every worker allocates from a disjoint range (see
    /// [`WORKER_PID_SHIFT`](crate::WORKER_PID_SHIFT)).
    pub fn new_worker(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        idx: usize,
        threads: usize,
    ) -> Machine {
        debug_assert!(idx < threads);
        let (store, role) = world.attach(idx, threads);
        let mut m = Machine::build(program, config, store, role);
        // Worker 0 keeps the configured seeds so 1-thread runs draw the same
        // `rand_num` and fault-dice sequences as the simulator; other
        // workers decorrelate.
        let stride = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.rng = SplitMix64::new(m.config.seed.wrapping_add(stride));
        m.fault_rng = SplitMix64::new(m.config.faults.seed.wrapping_add(stride));
        m
    }

    /// Reduce up to `max_steps` owned processes, by the same earliest-event
    /// selection and [`step`](Machine::step) as the simulator's `run`
    /// restricted to this shard's nodes. A shard has no global virtual time,
    /// so its nodes' scheduled crashes fire here, once the run-global
    /// reduction count reaches them; the peers' share of that count is
    /// sampled once, here, and held for the whole drain (see
    /// [`Machine::budget_spent`]).
    pub fn drain_local(&mut self, max_steps: u32) -> StrandResult<DrainState> {
        self.sample_peers();
        while let Some((node, at)) = self.next_crash() {
            if self.budget_spent() < at {
                break;
            }
            self.fire_next_crash(self.clock(node.0 as usize));
        }
        for _ in 0..max_steps {
            let Some((start, i)) = self.next_event() else {
                return Ok(DrainState::Idle);
            };
            if self.over_budget()? {
                return Ok(DrainState::Budget);
            }
            self.step(i, start)?;
        }
        Ok(DrainState::More)
    }

    /// Apply a batch of events routed from other workers.
    pub fn absorb(&mut self, batch: Vec<Routed>) {
        for event in batch {
            match event {
                Routed::Job(job) => {
                    let Job { mut item, node } = job;
                    debug_assert!(self.role().owns(node), "job routed to wrong shard");
                    if self.is_crashed(node) {
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
                Routed::Reclaim { region, .. } => self.reclaim_session(region),
            }
        }
    }

    /// Sweep a closed session: tear out this machine's suspensions tagged
    /// with `region` (their wakes can never matter again under the
    /// session-locality contract) and reclaim the region's slots in this
    /// worker's stripe of the store.
    fn reclaim_session(&mut self, region: u32) {
        debug_assert!(region != 0, "region 0 is the untracked batch region");
        for susp in self.tear_out(|s| s.item.region == region) {
            if susp.item.tracked {
                self.metrics.track_done(susp.node);
            }
        }
        let Role::Sharded(shard) = self.role() else {
            unreachable!("only a sharded machine absorbs");
        };
        let store = &shard.world.store;
        let freed = store.reclaim_region_stripe(shard.stripe(), region);
        self.metrics.vars_reclaimed += freed as u64;
    }

    /// Drain the cross-shard events produced since the last call.
    pub fn take_outbox(&mut self) -> Vec<Routed> {
        match self.role_mut() {
            Role::Sharded(shard) => std::mem::take(&mut shard.outbox),
            Role::Alone { .. } => Vec::new(),
        }
    }

    /// Harvest the deadlines armed since the last call. The parallel
    /// backend calls this after every drain and registers the entries into
    /// its deadline queue.
    pub fn take_deadlines(&mut self) -> Vec<Deadline> {
        match self.role_mut() {
            Role::Sharded(shard) => std::mem::take(&mut shard.armed),
            Role::Alone { .. } => Vec::new(),
        }
    }

    /// Deliver a due queue entry back into the shard layer: enqueue a
    /// `'$timer!'` goal on the entry's node. It is ordinary work —
    /// `push_item` raises the in-flight gate for it, and it routes through
    /// the outbox as a [`Routed::Job`] when another worker owns the node —
    /// so the mint-before-send token protocol sees a fired deadline exactly
    /// as it sees any other cross-shard event. Firing at a crashed node is a
    /// no-op, here or in its owner's `absorb` (the deadline died with the
    /// node; supervision recovers through monitors on live nodes).
    pub fn fire_deadline(&mut self, deadline: Deadline) {
        if self.is_crashed(deadline.node) {
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

    /// Record the budget-exhausted error once (the worker that first
    /// observes [`DrainState::Budget`] calls this).
    pub fn note_truncated(&mut self) {
        let reductions = self.budget_spent();
        self.errors
            .push((self.now(), StrandError::BudgetExhausted { reductions }));
    }

    /// Drop all queued work (run aborted or truncated), settling gate and
    /// tracked-process accounting so merged metrics stay consistent.
    pub fn discard_local(&mut self) {
        for i in 0..self.config.nodes {
            for item in self.take_queue(i as usize) {
                if item.tracked {
                    self.metrics.track_done(NodeId(i));
                }
            }
        }
        if let Role::Sharded(shard) = self.role_mut() {
            shard.armed.clear();
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_parse::{compile_program, parse_program};

    fn two_workers(src: &str, world: &SharedWorld) -> (Arc<CompiledProgram>, Vec<Machine>) {
        let program = Arc::new(compile_program(&parse_program(src).unwrap()).unwrap());
        let cfg = MachineConfig::with_nodes(4);
        let workers = (0..2)
            .map(|i| Machine::new_worker(Arc::clone(&program), cfg.clone(), world, i, 2))
            .collect();
        (program, workers)
    }

    /// The in-flight gate is a sum of per-machine lanes. An item injected by
    /// the ingress machine, forwarded by worker 0 and finished on worker 1
    /// is added on two lanes and subtracted on two others: a lane on its own
    /// may go negative, the sum is exact at every quiescent instant.
    #[test]
    fn gate_lanes_sum_exactly_across_two_workers_and_an_ingress_machine() {
        let world = SharedWorld::new(2, 4);
        let (program, mut workers) = two_workers("go(V) :- set(V)@2. set(V) :- V := ok.", &world);
        let mut ingress = Machine::new_ingress(program, MachineConfig::with_nodes(4), &world, 2);
        let gate = || (world.gate_lanes(), world.regular_pending());
        let deliver = |events: Vec<Routed>, workers: &mut [Machine]| {
            for r in events {
                workers[r.dest_worker(2)].absorb(vec![r]);
            }
        };

        let v = ingress.store.new_var();
        ingress.inject(Term::tuple("go", vec![Term::Var(v)]), 1);
        deliver(ingress.take_outbox(), &mut workers);
        assert_eq!(gate(), (vec![0, 0, 1], 1));

        // Worker 0 reduces go/1 (-1) and spawns set/1 at node 2 (+1).
        assert_eq!(workers[0].drain_local(8).unwrap(), DrainState::Idle);
        let routed = workers[0].take_outbox();
        deliver(routed, &mut workers);
        assert_eq!(gate(), (vec![0, 0, 1], 1));

        // Worker 1 reduces it (and the `:=` it spawns): its lane never held
        // the +1 it settles.
        assert_eq!(workers[1].drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!(gate(), (vec![0, -1, 1], 0));
        assert_eq!(ingress.store.deref(&Term::Var(v)), Term::atom("ok"));

        // go/1 on worker 0; set/1 and its `:=` on worker 1. Each worker's
        // clock is its own count plus the peer's as of its last drain.
        assert_eq!(world.reductions(), 3);
        let clocks: Vec<u64> = workers.iter().map(Machine::budget_spent).collect();
        assert_eq!(clocks, [1, 3]);
    }

    /// The worker role: what it spawns off its shard goes to its outbox, and
    /// the gate unit for it is raised on its own lane — a peer's lane is
    /// never written from here.
    #[test]
    fn a_workers_off_shard_spawn_raises_its_own_lane_and_nobody_elses() {
        let world = SharedWorld::new(2, 4);
        let (_, mut workers) = two_workers("go :- there@2. there.", &world);
        workers[0].start(Term::atom("go"));
        assert_eq!(world.gate_lanes(), [1, 0, 0]);
        assert_eq!(workers[0].drain_local(8).unwrap(), DrainState::Idle);
        // go/0 settled (-1), there/0 routed (+1): both on lane 0.
        assert_eq!(world.gate_lanes(), [1, 0, 0]);
        let outbox = workers[0].take_outbox();
        assert!(matches!(outbox[..], [Routed::Job(_)]));
        assert_eq!(outbox[0].dest_worker(2), 1);
    }
}
