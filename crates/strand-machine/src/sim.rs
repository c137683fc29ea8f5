//! The simulator's driver over the shard core: shard 0 of a one-shard world,
//! so it owns every node, advances them in global virtual-time order and
//! reads the [`FaultPlan`](crate::config::FaultPlan)'s crash times and every
//! `after_unless` deadline on that one clock.
//!
//! Determinism: the runnable node with the smallest next event time reduces
//! first (ties broken by node index, then process id), and randomness comes
//! only from the seeded `rand_num` primitive. Two runs with the same program,
//! goal and config are identical, metric for metric.

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::report::{merge_shard_reports, RunReport};
use crate::world::{Goal, SharedWorld, StoreHandle};
use std::sync::Arc;
use strand_core::{sym, Store, StrandError, StrandResult};
use strand_parse::CompiledProgram;

impl Machine {
    /// Build a machine for a compiled program: shard 0 of a one-shard
    /// world, on a plain store of its own.
    pub fn new(program: CompiledProgram, config: MachineConfig) -> Machine {
        let shard = SharedWorld::new(1, config.nodes as usize).attach(0);
        let store = StoreHandle::Local(Store::new());
        Machine::build(Arc::new(program), config, store, shard)
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
                self.queue_armed();
            }
        }
        Ok(merge_shard_reports([self.finalize_shard()], truncated))
    }

    /// The simulator's `after_unless`: each deadline the step armed
    /// becomes a `'$timer'` item its virtual clock orders like any other
    /// process.
    fn queue_armed(&mut self) {
        for d in self.take_deadlines() {
            let goal = Goal::call(sym::TIMER, vec![d.cancel, d.timeout]);
            self.enqueue(goal, d.node, d.due);
        }
    }

    /// If node `i`'s next process is a `'$timer'` whose cancel flag is
    /// already bound, drop it: it evaporates at no cost in budget or clock,
    /// so cancelled timeouts never stretch the makespan.
    fn drop_cancelled_timer(&mut self, i: usize) -> bool {
        let cancelled = match self.peek(i).map(|item| &item.goal) {
            Some(Goal::Call {
                name: sym::TIMER,
                args,
            }) if args.len() == 2 => self.cancel_is_bound(&args[0]),
            _ => false,
        };
        if cancelled {
            self.pop_unreduced(i);
            self.metrics.timers_cancelled += 1;
        }
        cancelled
    }
}
