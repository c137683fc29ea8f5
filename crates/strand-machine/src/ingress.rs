//! The ingress machine: the one on the caller's side of a resident fleet's
//! channels (DESIGN.md §9), through which external threads build terms
//! against the shared store and enqueue goals.

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::world::{Goal, SharedWorld, StoreHandle};
use std::sync::Arc;
use strand_core::{SharedStore, SharedStoreView, Term};
use strand_parse::CompiledProgram;

impl Machine {
    /// Build the ingress machine for a resident sharded run: it shares the
    /// run's world and store (allocating from stripe 0) but owns **no**
    /// nodes — its shard index equals the world's thread count, so
    /// `node mod threads` never matches and every injected goal lands in
    /// the outbox for routing. It never reduces or suspends, so its pids
    /// (minted above every worker's range) never appear in store waiter
    /// lists; receivers re-mint pids on absorption as usual. (The thread
    /// that injects may reduce, but on a parked worker's machine, never on
    /// this one: see `ResidentHandle::with_ingress`.)
    pub(crate) fn new_ingress(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        store: &Arc<SharedStore>,
    ) -> Machine {
        let shard = world.attach(world.lanes.len());
        let view = SharedStoreView::new(Arc::clone(store), 0);
        Machine::build(program, config, StoreHandle::Shared(view), shard)
    }

    /// Hold `t` outside the fleet: until [`release`](Machine::release),
    /// every collection keeps what it reaches. A caller that reads a
    /// variable across ingress calls holds it.
    pub fn hold(&mut self, t: Term) {
        self.held.push(t);
    }

    /// Undo one [`hold`](Machine::hold) of `t`.
    pub fn release(&mut self, t: &Term) {
        let held = self.held.iter().position(|h| h == t);
        held.map(|i| self.held.swap_remove(i));
    }

    /// The terms held outside the fleet: roots of every collection.
    pub fn held(&self) -> &[Term] {
        &self.held
    }

    /// Inject an external goal onto 1-based node `node`: it goes to the
    /// outbox — flush it to the workers.
    pub fn inject(&mut self, goal: Term, node: i64) {
        let target = self.map_node(node);
        self.enqueue(Goal::from_term(goal), target, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::DrainState;
    use strand_core::NodeId;
    use strand_parse::{compile_program, parse_program};

    /// The ingress machine owns no node, so it never has anything to
    /// reduce, and every goal it enqueues — whichever node it names — lands
    /// in its outbox.
    #[test]
    fn an_ingress_machine_owns_no_node_and_everything_it_enqueues_lands_in_its_outbox() {
        let program = Arc::new(compile_program(&parse_program("tick.").unwrap()).unwrap());
        let (world, store) = (SharedWorld::new(2, 4), Arc::new(SharedStore::new(2)));
        let cfg = MachineConfig::with_nodes(4);
        let mut ingress = Machine::new_ingress(program, cfg, &world, &store);
        for node in 1..=4i64 {
            assert!(!ingress.owns(NodeId(node as u32 - 1)));
            ingress.inject(Term::atom("tick"), node);
        }
        assert_eq!(ingress.next_event(), None);
        assert_eq!(ingress.drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!(world.reductions(), 0);
        let dests: Vec<usize> = ingress
            .take_outbox()
            .iter()
            .map(|r| r.dest_worker(2))
            .collect();
        assert_eq!(dests, [0, 1, 0, 1]);
    }
}
