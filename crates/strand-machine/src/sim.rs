//! The simulator's driver over the shard core: one machine that owns every
//! node, advances them in global virtual-time order and reads the
//! [`FaultPlan`](crate::config::FaultPlan)'s crash times and every
//! `after_unless` deadline on that one clock.
//!
//! Determinism: the runnable node with the smallest next event time reduces
//! first (ties broken by node index, then process id), and randomness comes
//! only from the seeded `rand_num` primitive. Two runs with the same program,
//! goal and config are identical, metric for metric.

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::report::{merge_shard_reports, RunReport};
use crate::world::Role;
use std::sync::Arc;
use strand_core::{sym, NodeId, StrandError, StrandResult, Term, Time};
use strand_parse::CompiledProgram;

impl Machine {
    /// Build a machine for a compiled program.
    pub fn new(program: CompiledProgram, config: MachineConfig) -> Machine {
        let (store, role) = Role::alone();
        Machine::build(Arc::new(program), config, store, role)
    }

    /// Run until no process is runnable. The initial goal must have been
    /// enqueued (see [`Machine::start`] or the `run_*` helpers in the crate
    /// root). Re-entrant: suspensions and the store persist across calls.
    pub fn run(&mut self) -> StrandResult<RunReport> {
        let mut truncated = false;
        loop {
            let best = self.next_event();
            // Fire any scheduled crash due before the next event, so crashes
            // hit idle (suspended) nodes too, in global virtual-time order.
            if let Some((_, at)) = self.next_crash() {
                if best.is_none_or(|(bk, _)| at <= bk) {
                    self.fire_next_crash(at);
                    continue;
                }
            }
            let Some((start, i)) = best else { break };
            if self.over_budget()? {
                let reductions = self.budget_spent();
                self.errors
                    .push((start, StrandError::BudgetExhausted { reductions }));
                truncated = true;
                break;
            }
            if !self.drop_cancelled_timer(i) {
                self.step(i, start)?;
            }
        }
        Ok(merge_shard_reports([self.finalize_shard()], truncated))
    }

    /// The simulator's `after_unless`: a `'$timer'` item its virtual clock
    /// orders like any other process. (A shard has no such clock and hands
    /// the backend a [`Deadline`](crate::Deadline) instead.)
    pub(crate) fn queue_timer(&mut self, node: NodeId, due: Time, cancel: Term, timeout: Term) {
        self.enqueue(Term::tuple(sym::TIMER, vec![cancel, timeout]), node, due);
    }

    /// If node `i`'s next process is a `'$timer'` whose cancel flag is
    /// already bound, drop it: it evaporates at no cost in budget or clock,
    /// so cancelled timeouts never stretch the makespan.
    fn drop_cancelled_timer(&mut self, i: usize) -> bool {
        let cancelled = match self.peek(i).map(|item| &item.goal) {
            Some(Term::Tuple(sym::TIMER, args)) if args.len() == 2 => {
                self.cancel_is_bound(&args[0])
            }
            _ => false,
        };
        if cancelled {
            self.pop_unreduced(i);
            self.metrics.timers_cancelled += 1;
        }
        cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_parse::{compile_program, parse_program};

    /// The simulator's role: sequence numbers come from the machine's own
    /// counter — there is no shared world to ask.
    #[test]
    fn a_lone_machine_hands_out_unique_ids_1_2_3_without_a_world() {
        let src = "go(A, B, C) :- unique_id(A), unique_id(B), unique_id(C).";
        let program = compile_program(&parse_program(src).unwrap()).unwrap();
        let mut m = Machine::new(program, MachineConfig::default());
        assert!(matches!(m.role(), Role::Alone { .. }));
        let ids: Vec<Term> = (0..3).map(|_| Term::Var(m.store_mut().new_var())).collect();
        m.start(Term::tuple("go", ids.clone()));
        m.run().unwrap();
        let got: Vec<String> = ids
            .iter()
            .map(|v| m.store().resolve(v).to_string())
            .collect();
        assert_eq!(got, ["1", "2", "3"]);
    }
}
