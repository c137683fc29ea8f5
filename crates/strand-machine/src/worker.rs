//! The fleet worker's driver over the shard core: one machine per worker
//! thread of a sharded run (`fleet/`), owning the nodes with
//! `node mod threads == index`. A worker alternates [`Machine::drain_local`]
//! (reduce owned work; no lock wider than a store stripe is ever held) with
//! routing its outbox to peers and [`Machine::absorb`]ing their batches, and
//! hands the deadlines it armed to the backend's one deadline queue. A
//! resident backend collects while it is parked ([`Machine::holdings`],
//! [`Machine::drop_unreachable`]).

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::world::{Deadline, Goal, Job, QItem, Routed, SharedWorld, StoreHandle};
use std::sync::Arc;
use strand_core::{
    sym, NodeId, SharedStore, SharedStoreView, SplitMix64, StrandError, StrandResult,
};
use strand_parse::CompiledProgram;

/// What [`Machine::drain_local`] left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DrainState {
    /// No runnable work: the shard is idle.
    Idle,
    /// The step quantum expired with runnable work still queued.
    More,
    /// The shared reduction budget is exhausted (`fail_fast` off).
    Budget,
}

impl Machine {
    /// Build worker `idx`'s machine for a sharded run: same program and
    /// config as the simulator would use, shard `idx` of the fleet's `world`,
    /// allocating variables from its own stripe of the fleet's `store`.
    /// Process ids are offset so every worker allocates from a disjoint
    /// range (see [`WORKER_PID_SHIFT`](crate::world::WORKER_PID_SHIFT)).
    pub(crate) fn new_worker(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        store: &Arc<SharedStore>,
        idx: usize,
    ) -> Machine {
        let shard = world.attach(idx);
        debug_assert!(idx < shard.threads);
        let view = SharedStoreView::new(Arc::clone(store), idx as u32);
        let mut m = Machine::build(program, config, StoreHandle::Shared(view), shard);
        // Worker 0 keeps the configured seeds so 1-thread runs draw the same
        // `rand_num` and fault-dice sequences as the simulator; other
        // workers decorrelate.
        let stride = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.rng = SplitMix64::new(m.config.seed.wrapping_add(stride));
        m.fault_rng = SplitMix64::new(m.config.faults.seed.wrapping_add(stride));
        m
    }

    /// Reduce up to `max_steps` owned processes, by the same earliest-event
    /// selection and `step` as the simulator's `run` restricted to this
    /// shard's nodes. A shard has no global virtual time, so its nodes'
    /// scheduled crashes fire here, once the run-global reduction count
    /// reaches them; the peers' share of that count is sampled once, here,
    /// and held for the whole drain (see `Machine::budget_spent`).
    pub(crate) fn drain_local(&mut self, max_steps: u32) -> StrandResult<DrainState> {
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
    pub(crate) fn absorb(&mut self, batch: Vec<Routed>) {
        for event in batch {
            match event {
                Routed::Job(job) => {
                    let Job { mut item, node } = job;
                    debug_assert!(self.owns(node), "job routed to wrong shard");
                    if self.is_crashed(node) {
                        // Senders on other workers cannot see this shard's
                        // crashes; the owner's check is the authority.
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
                    self.push_item(node, item);
                }
                Routed::Wake { pid, time, binder } => self.requeue_woken(pid, time, binder),
            }
        }
    }

    /// Deliver a due queue entry back into the shard layer: enqueue a
    /// `'$timer'` goal on the entry's node. It is ordinary work — it
    /// routes through the outbox as a [`Routed::Job`] when another worker
    /// owns the node — so the mint-before-send token protocol sees a fired deadline exactly
    /// as it sees any other cross-shard event. Firing at a crashed node is a
    /// no-op, here or in its owner's `absorb` (the deadline died with the
    /// node; supervision recovers through monitors on live nodes).
    pub(crate) fn fire_deadline(&mut self, deadline: Deadline) {
        if self.is_crashed(deadline.node) {
            return;
        }
        let pid = self.fresh_pid();
        self.push_item(
            deadline.node,
            QItem {
                ready_at: 0,
                pid,
                goal: Goal::call(sym::TIMER, vec![deadline.cancel, deadline.timeout]),
                tracked: false,
            },
        );
    }

    /// Record the budget-exhausted error once (the worker that first
    /// observes [`DrainState::Budget`] calls this).
    pub(crate) fn note_truncated(&mut self) {
        let reductions = self.budget_spent();
        self.errors
            .push((self.now(), StrandError::BudgetExhausted { reductions }));
    }

    /// Drop all queued work (run aborted or truncated), settling
    /// tracked-process accounting so merged metrics stay consistent.
    pub(crate) fn discard_local(&mut self) {
        for i in 0..self.config.nodes {
            for item in self.take_queue(i as usize) {
                if item.tracked {
                    self.metrics.track_done(NodeId(i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_core::Term;
    use strand_parse::{compile_program, parse_program};

    fn two_workers(
        src: &str,
        world: &SharedWorld,
        store: &Arc<SharedStore>,
    ) -> (Arc<CompiledProgram>, Vec<Machine>) {
        let program = Arc::new(compile_program(&parse_program(src).unwrap()).unwrap());
        let cfg = MachineConfig::with_nodes(4);
        let workers = (0..2)
            .map(|i| Machine::new_worker(Arc::clone(&program), cfg.clone(), world, store, i))
            .collect();
        (program, workers)
    }

    /// An item injected by the ingress machine, forwarded by worker 0 and
    /// finished on worker 1 binds the ingress machine's variable across
    /// both workers, and each worker's budget clock counts its own
    /// reductions plus its peer's as of its last drain.
    #[test]
    fn budget_lanes_clock_an_ingress_goal_that_binds_across_two_workers() {
        let (world, store) = (SharedWorld::new(2, 4), Arc::new(SharedStore::new(2)));
        let src = "go(V) :- set(V)@2. set(V) :- V := ok.";
        let (program, mut workers) = two_workers(src, &world, &store);
        let cfg = MachineConfig::with_nodes(4);
        let mut ingress = Machine::new_ingress(program, cfg, &world, &store);
        let deliver = |events: Vec<Routed>, workers: &mut [Machine]| {
            for r in events {
                workers[r.dest_worker(2)].absorb(vec![r]);
            }
        };

        let v = ingress.store.new_var();
        ingress.inject(Term::tuple("go", vec![Term::Var(v)]), 1);
        deliver(ingress.take_outbox(), &mut workers);

        // Worker 0 reduces go/1 and spawns set/1 at node 2, worker 1's.
        assert_eq!(workers[0].drain_local(8).unwrap(), DrainState::Idle);
        let routed = workers[0].take_outbox();
        deliver(routed, &mut workers);

        // Worker 1 reduces it and the `:=` it spawns.
        assert_eq!(workers[1].drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!(ingress.store.deref(&Term::Var(v)), Term::atom("ok"));

        // go/1 on worker 0; set/1 and its `:=` on worker 1. Each worker's
        // clock is its own count plus the peer's as of its last drain.
        assert_eq!(world.reductions(), 3);
        let clocks: Vec<u64> = workers.iter().map(Machine::budget_spent).collect();
        assert_eq!(clocks, [1, 3]);
    }

    /// A worker: what it spawns off its shard goes to its outbox, addressed
    /// to the node's owner.
    #[test]
    fn a_workers_off_shard_spawn_is_routed_to_the_owning_worker() {
        let (world, store) = (SharedWorld::new(2, 4), Arc::new(SharedStore::new(2)));
        let (_, mut workers) = two_workers("go :- there@2. there.", &world, &store);
        workers[0].start(Term::atom("go"));
        assert_eq!(workers[0].drain_local(8).unwrap(), DrainState::Idle);
        let outbox = workers[0].take_outbox();
        assert!(matches!(outbox[..], [Routed::Job(_)]));
        assert_eq!(outbox[0].dest_worker(2), 1);
    }
}
