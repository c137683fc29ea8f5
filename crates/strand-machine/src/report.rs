//! What a run has to say for itself: each machine snapshots its slice as a
//! [`ShardReport`] and [`merge_shard_reports`] folds the slices into the one
//! [`RunReport`] callers see — a simulator run is the one-slice case.

use crate::machine::Machine;
use crate::metrics::Metrics;
use crate::trace::TraceEvent;
use crate::world::StoreHandle;
use strand_core::{sym, NodeId, StrandError, Term, Time};

/// One worker's slice of a run report, merged by [`merge_shard_reports`].
pub struct ShardReport {
    pub metrics: Metrics,
    pub output: Vec<String>,
    pub errors: Vec<(Time, StrandError)>,
    pub suspended_goals: Vec<Term>,
    pub suspended: usize,
    pub trace: Vec<TraceEvent>,
    /// Nodes of this shard dead at the end of the run (1-based).
    pub crashed_nodes: Vec<u32>,
    /// Goals lost with this shard's crashed nodes.
    pub dead: usize,
    /// Resolved snapshots of lost goals (capped at 16 per shard).
    pub dead_goals: Vec<Term>,
}

/// Why the machine stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum RunStatus {
    /// Every process reduced to completion.
    Completed,
    /// No runnable processes remain, but some are suspended forever — normal
    /// for server networks that idle awaiting messages (quiescence), a bug
    /// for programs expected to deliver results.
    Quiescent { suspended: usize },
    /// Quiescent *and* at least one node is dead: surviving processes are
    /// suspended on bindings that can no longer arrive. `dead` counts the
    /// goals lost with the crashed nodes (snapshots in
    /// [`RunReport::dead_goals`]); `crashed_nodes` is 1-based.
    Partitioned {
        suspended: usize,
        dead: usize,
        crashed_nodes: Vec<u32>,
    },
    /// The reduction budget ran out with `fail_fast` off: the report carries
    /// everything computed so far (partial metrics and output).
    Truncated { reductions: u64 },
}

/// Result of a run: status, metrics and collected `print/1` output.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub status: RunStatus,
    pub metrics: Metrics,
    pub output: Vec<String>,
    /// Runtime errors when `fail_fast` is off (empty otherwise).
    pub errors: Vec<(Time, StrandError)>,
    /// Goals still suspended at quiescence (resolved snapshots, capped).
    pub suspended_goals: Vec<Term>,
    /// Goals lost with crashed nodes (resolved snapshots, capped at 16).
    pub dead_goals: Vec<Term>,
    /// Scheduler trace (empty unless `record_trace` was set).
    pub trace: Vec<TraceEvent>,
}

/// Deep-substitute like [`StoreHandle::resolve`], but emit at most `budget`
/// term nodes, eliding anything deeper as the atom `'…'`.
///
/// The post-mortem suspended-goal diagnostic must never dominate shutdown:
/// a suspended goal can reference heavily shared structure (the Supervise
/// library's directory and wire records are the canonical case), and
/// expanding that DAG into a tree is exponential in run length. A capped
/// expansion keeps the report readable and `finalize_shard` O(1).
fn resolve_capped(store: &StoreHandle, t: &Term, budget: &mut u32) -> Term {
    if *budget == 0 {
        return Term::Atom(sym::ELIDED);
    }
    *budget -= 1;
    match store.deref(t) {
        Term::Tuple(name, args) => {
            Term::tuple_from(name, args.iter().map(|a| resolve_capped(store, a, budget)))
        }
        Term::List(cell) => Term::cons(
            resolve_capped(store, &cell.0, budget),
            resolve_capped(store, &cell.1, budget),
        ),
        other => other,
    }
}

impl Machine {
    /// Snapshot this worker's slice of the final report.
    pub fn finalize_shard(&mut self) -> ShardReport {
        self.metrics.makespan = self.makespan();
        let suspended_goals: Vec<Term> = self
            .suspensions()
            .take(16)
            .map(|s| {
                let mut budget = 256u32;
                resolve_capped(&self.store, &s.item.goal, &mut budget)
            })
            .collect();
        let crashed_nodes: Vec<u32> = (0..self.config.nodes)
            .filter(|&i| self.is_crashed(NodeId(i)))
            .map(|i| i + 1)
            .collect();
        let suspended = self.suspensions().len();
        let (dead, dead_goals) = self.take_dead();
        ShardReport {
            metrics: self.metrics.clone(),
            output: std::mem::take(&mut self.output),
            errors: std::mem::take(&mut self.errors),
            suspended_goals,
            suspended,
            trace: std::mem::take(&mut self.trace),
            crashed_nodes,
            dead,
            dead_goals,
        }
    }
}

/// Merge per-worker shard reports into one run report. Output concatenates
/// in worker order, so a 1-thread parallel run reads exactly like the
/// simulator. Per-node counters add and per-node peaks/gauges take maxima —
/// both exact, since each node lives on exactly one worker.
pub fn merge_shard_reports(
    parts: impl IntoIterator<Item = ShardReport>,
    truncated: bool,
) -> RunReport {
    let mut metrics: Option<Metrics> = None;
    let mut output = Vec::new();
    let mut errors = Vec::new();
    let mut suspended_goals = Vec::new();
    let mut suspended = 0usize;
    let mut trace = Vec::new();
    let mut crashed_nodes = Vec::new();
    let mut dead = 0usize;
    let mut dead_goals = Vec::new();
    for part in parts {
        match &mut metrics {
            Some(m) => m.merge(&part.metrics),
            None => metrics = Some(part.metrics),
        }
        output.extend(part.output);
        errors.extend(part.errors);
        suspended_goals.extend(part.suspended_goals);
        suspended += part.suspended;
        trace.extend(part.trace);
        crashed_nodes.extend(part.crashed_nodes);
        dead += part.dead;
        dead_goals.extend(part.dead_goals);
    }
    let metrics = metrics.unwrap_or_else(|| Metrics::new(0));
    crashed_nodes.sort_unstable();
    let status = if truncated {
        RunStatus::Truncated {
            reductions: metrics.total_reductions,
        }
    } else if !crashed_nodes.is_empty() && suspended > 0 {
        // Survivors are stuck on bindings a dead node will never make.
        RunStatus::Partitioned {
            suspended,
            dead,
            crashed_nodes,
        }
    } else if suspended == 0 {
        RunStatus::Completed
    } else {
        RunStatus::Quiescent { suspended }
    };
    suspended_goals.sort_by_key(|t| t.to_string());
    suspended_goals.truncate(16);
    dead_goals.sort_by_key(|t| t.to_string());
    dead_goals.truncate(16);
    RunReport {
        status,
        metrics,
        output,
        errors,
        suspended_goals,
        dead_goals,
        trace,
    }
}
