//! Optional execution tracing.
//!
//! When [`MachineConfig::record_trace`](crate::MachineConfig) is set, the
//! machine records one [`TraceEvent`] per scheduler action. Traces make the
//! simulator's behaviour inspectable — which process ran where and when,
//! what suspended on what, which messages crossed nodes — and back the
//! debugging story a language implementation owes its users.

use strand_core::{NodeId, Term, Time};

/// One scheduler event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A process reduced (committed, executed a builtin, or ran a foreign
    /// procedure).
    Reduce {
        time: Time,
        node: NodeId,
        pid: u64,
        goal: String,
    },
    /// A process suspended on unbound variables.
    Suspend {
        time: Time,
        node: NodeId,
        pid: u64,
        goal: String,
        vars: usize,
    },
    /// A suspended process was woken by a binding.
    Wake {
        time: Time,
        binder: NodeId,
        node: NodeId,
        pid: u64,
    },
    /// A goal was spawned onto a node (possibly remote).
    Spawn {
        time: Time,
        from: NodeId,
        to: NodeId,
        goal: String,
    },
    /// A node died per the fault plan: its queue and suspensions are lost.
    Crash {
        time: Time,
        node: NodeId,
        lost_queue: usize,
        lost_suspended: usize,
    },
    /// A cross-node delivery was lost (fault injection or dead target).
    Drop {
        time: Time,
        from: NodeId,
        to: NodeId,
        goal: String,
    },
    /// A cross-node delivery arrived twice (fault injection).
    Duplicate {
        time: Time,
        from: NodeId,
        to: NodeId,
        goal: String,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Time {
        match self {
            TraceEvent::Reduce { time, .. }
            | TraceEvent::Suspend { time, .. }
            | TraceEvent::Wake { time, .. }
            | TraceEvent::Spawn { time, .. }
            | TraceEvent::Crash { time, .. }
            | TraceEvent::Drop { time, .. }
            | TraceEvent::Duplicate { time, .. } => *time,
        }
    }

    /// One-line rendering, timeline style.
    pub fn render(&self) -> String {
        match self {
            TraceEvent::Reduce {
                time,
                node,
                pid,
                goal,
            } => {
                format!("[{time:>6}] n{} reduce  p{pid} {goal}", node.0 + 1)
            }
            TraceEvent::Suspend {
                time,
                node,
                pid,
                goal,
                vars,
            } => {
                format!(
                    "[{time:>6}] n{} suspend p{pid} on {vars} var(s): {goal}",
                    node.0 + 1
                )
            }
            TraceEvent::Wake {
                time,
                binder,
                node,
                pid,
            } => {
                format!(
                    "[{time:>6}] n{} wake    p{pid} (bound on n{})",
                    node.0 + 1,
                    binder.0 + 1
                )
            }
            TraceEvent::Spawn {
                time,
                from,
                to,
                goal,
            } => {
                format!(
                    "[{time:>6}] n{} spawn   -> n{}: {goal}",
                    from.0 + 1,
                    to.0 + 1
                )
            }
            TraceEvent::Crash {
                time,
                node,
                lost_queue,
                lost_suspended,
            } => {
                format!(
                    "[{time:>6}] n{} CRASH   ({lost_queue} queued, {lost_suspended} suspended lost)",
                    node.0 + 1
                )
            }
            TraceEvent::Drop {
                time,
                from,
                to,
                goal,
            } => {
                format!(
                    "[{time:>6}] n{} drop    -> n{}: {goal}",
                    from.0 + 1,
                    to.0 + 1
                )
            }
            TraceEvent::Duplicate {
                time,
                from,
                to,
                goal,
            } => {
                format!(
                    "[{time:>6}] n{} dup     -> n{}: {goal}",
                    from.0 + 1,
                    to.0 + 1
                )
            }
        }
    }
}

/// Render a whole trace as a timeline.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render());
        out.push('\n');
    }
    out
}

/// Summarize a trace: events by kind, suggesting where time went.
pub fn trace_summary(events: &[TraceEvent]) -> String {
    let (mut reduces, mut suspends, mut wakes, mut spawns, mut remote) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut crashes, mut drops, mut dups) = (0u64, 0u64, 0u64);
    for e in events {
        match e {
            TraceEvent::Reduce { .. } => reduces += 1,
            TraceEvent::Suspend { .. } => suspends += 1,
            TraceEvent::Wake { .. } => wakes += 1,
            TraceEvent::Spawn { from, to, .. } => {
                spawns += 1;
                if from != to {
                    remote += 1;
                }
            }
            TraceEvent::Crash { .. } => crashes += 1,
            TraceEvent::Drop { .. } => drops += 1,
            TraceEvent::Duplicate { .. } => dups += 1,
        }
    }
    let mut summary = format!(
        "{reduces} reductions, {suspends} suspensions, {wakes} wakes, \
         {spawns} spawns ({remote} remote)"
    );
    if crashes + drops + dups > 0 {
        summary.push_str(&format!(
            ", {crashes} crashes, {drops} drops, {dups} duplicates"
        ));
    }
    summary
}

/// Helper used by the machine to stringify goals lazily (only when tracing
/// is on — the common case pays nothing).
pub(crate) fn goal_text(goal: &Term) -> String {
    let s = goal.to_string();
    if s.len() > 80 {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(79)
                .last()
                .map_or(0, |(i, c)| i + c.len_utf8())]
        )
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_goal, MachineConfig};

    fn traced(src: &str, goal: &str, nodes: u32) -> Vec<TraceEvent> {
        let mut cfg = MachineConfig::with_nodes(nodes);
        cfg.record_trace = true;
        run_goal(src, goal, cfg).expect("runs").report.trace
    }

    #[test]
    fn trace_records_reductions_and_suspensions() {
        let src = r#"
            go(V) :- add(A, B, V), feed(A, B).
            add(A, B, V) :- V := A + B.
            feed(A, B) :- A := 1, B := 2.
        "#;
        let events = traced(src, "go(V)", 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Reduce { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Suspend { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Wake { .. })));
        // Timestamps never decrease per node... globally they are the
        // scheduler's event order; check monotone non-decreasing overall
        // is NOT guaranteed across nodes, but the trace is non-empty and
        // renders.
        let text = render_trace(&events);
        assert!(text.contains("reduce"));
        assert!(text.contains("suspend"));
        let summary = trace_summary(&events);
        assert!(summary.contains("reductions"), "{summary}");
    }

    #[test]
    fn trace_records_remote_spawns() {
        let src = "go :- ping@2. ping.";
        let events = traced(src, "go", 2);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Spawn { from, to, .. } if from != to)),
            "{events:?}"
        );
        assert!(trace_summary(&events).contains("(1 remote)"));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let r = run_goal("go.", "go", MachineConfig::default()).unwrap();
        assert!(r.report.trace.is_empty());
    }

    #[test]
    fn long_goals_truncate() {
        let long = strand_core::Term::list((0..100).map(strand_core::Term::int));
        let text = goal_text(&long);
        assert!(text.chars().count() <= 80);
        assert!(text.ends_with('…'));
    }
}
