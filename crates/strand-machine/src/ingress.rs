//! The ingress role: the machine on the caller's side of a resident fleet's
//! channels (DESIGN.md §9), through which external threads build terms
//! against the shared store and enqueue goals.

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::world::SharedWorld;
use std::sync::Arc;
use strand_core::Term;
use strand_parse::CompiledProgram;

impl Machine {
    /// Build the ingress machine for a resident sharded run: it shares the
    /// run's world (store stripe 0, ports, gates) but owns **no** nodes —
    /// its shard index equals `threads`, so `node mod threads` never matches
    /// and every injected goal lands in the outbox for routing. It never
    /// reduces or suspends, so its pids (minted above every worker's range)
    /// never appear in store waiter lists; receivers re-mint pids on
    /// absorption as usual.
    pub fn new_ingress(
        program: Arc<CompiledProgram>,
        config: MachineConfig,
        world: &SharedWorld,
        threads: usize,
    ) -> Machine {
        let (store, role) = world.attach(threads, threads);
        Machine::build(program, config, store, role)
    }

    /// Set the session region for subsequent goal construction and
    /// injection: variables allocated while building the request term and
    /// everything its reductions spawn are tagged with it, for the workers
    /// to sweep when a [`Routed::Reclaim`](crate::Routed::Reclaim) closes
    /// the session.
    pub fn set_session_region(&mut self, region: u32) {
        self.enter_region(region);
    }

    /// Inject an external goal onto 1-based node `node`: it goes to the
    /// outbox — flush it to the workers.
    pub fn inject(&mut self, goal: Term, node: i64) {
        let target = self.map_node(node);
        self.enqueue(goal, target, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::DrainState;
    use strand_core::NodeId;
    use strand_parse::{compile_program, parse_program};

    /// The ingress role: it owns no node, so it never has anything to
    /// reduce, and every goal it enqueues — whichever node it names — lands
    /// in its outbox, counted on its own lane.
    #[test]
    fn an_ingress_machine_owns_no_node_and_everything_it_enqueues_lands_in_its_outbox() {
        let program = Arc::new(compile_program(&parse_program("tick.").unwrap()).unwrap());
        let world = SharedWorld::new(2, 4);
        let mut ingress = Machine::new_ingress(program, MachineConfig::with_nodes(4), &world, 2);
        for node in 1..=4i64 {
            assert!(!ingress.role().owns(NodeId(node as u32 - 1)));
            ingress.inject(Term::atom("tick"), node);
        }
        assert_eq!(ingress.next_event(), None);
        assert_eq!(ingress.drain_local(8).unwrap(), DrainState::Idle);
        assert_eq!(world.reductions(), 0);
        assert_eq!(world.gate_lanes(), [0, 0, 4], "its own lane, the last");
        let dests: Vec<usize> = ingress
            .take_outbox()
            .iter()
            .map(|r| r.dest_worker(2))
            .collect();
        assert_eq!(dests, [0, 1, 0, 1]);
    }
}
