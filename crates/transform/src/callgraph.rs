//! Call-graph analysis.
//!
//! The Server transformation must add the stream-tuple argument `DT` to
//! every process definition that calls `send`, `nodes`, or `halt` *"and the
//! process definitions of these processes' ancestors in the call graph"*
//! (§3.2, step 1). This module builds that graph and computes the
//! backward-reachable set.

use std::collections::{BTreeMap, BTreeSet};
use strand_parse::Program;

/// A procedure key: name and arity.
pub type Key = (String, usize);

/// The static call graph of a program.
///
/// Nodes are procedure keys; an edge `a → b` means some rule of `a` calls
/// `b` in its body. Callees that have no definition in the program (e.g.
/// motif primitives like `send/2`) still appear as graph nodes, so
/// reachability questions about them are answerable.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// caller → set of callees.
    pub calls: BTreeMap<Key, BTreeSet<Key>>,
    /// callee → set of callers (the transpose).
    pub callers: BTreeMap<Key, BTreeSet<Key>>,
}

impl CallGraph {
    /// Build the call graph of a program.
    pub fn build(p: &Program) -> CallGraph {
        let mut g = CallGraph::default();
        for proc in p.procedures() {
            let caller: Key = (proc.name.clone(), proc.arity);
            g.calls.entry(caller.clone()).or_default();
            for rule in &proc.rules {
                for call in &rule.body {
                    if let Some((name, arity)) = call.goal.functor() {
                        let callee: Key = (name.to_string(), arity);
                        g.calls
                            .entry(caller.clone())
                            .or_default()
                            .insert(callee.clone());
                        g.callers.entry(callee).or_default().insert(caller.clone());
                    }
                }
            }
        }
        g
    }

    /// All procedures from which any of `targets` is reachable by a chain
    /// of calls — the targets' transitive *ancestors*. The targets
    /// themselves are not included unless they also call a target.
    pub fn ancestors_of(&self, targets: &[Key]) -> BTreeSet<Key> {
        let mut out = BTreeSet::new();
        let mut frontier: Vec<Key> = targets.to_vec();
        while let Some(t) = frontier.pop() {
            if let Some(callers) = self.callers.get(&t) {
                for c in callers {
                    if out.insert(c.clone()) {
                        frontier.push(c.clone());
                    }
                }
            }
        }
        out
    }

    /// Does `caller` (transitively) reach `target`?
    pub fn reaches(&self, caller: &Key, target: &Key) -> bool {
        self.ancestors_of(std::slice::from_ref(target))
            .contains(caller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_parse::parse_program;

    fn key(name: &str, arity: usize) -> Key {
        (name.to_string(), arity)
    }

    #[test]
    fn builds_edges_including_undefined_callees() {
        let p = parse_program(
            r#"
            a(X) :- b(X), send(1, X).
            b(X) :- c(X).
            c(_).
        "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        assert!(g.calls[&key("a", 1)].contains(&key("send", 2)));
        assert!(g.calls[&key("a", 1)].contains(&key("b", 1)));
        assert!(g.callers[&key("c", 1)].contains(&key("b", 1)));
        // send/2 is undefined but still a graph node on the callee side.
        assert!(g.callers.contains_key(&key("send", 2)));
    }

    #[test]
    fn ancestors_is_transitive() {
        let p = parse_program(
            r#"
            main :- middle(X), other(X).
            middle(X) :- leafy(X).
            leafy(X) :- send(1, X).
            other(_).
        "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let anc = g.ancestors_of(&[key("send", 2)]);
        assert!(anc.contains(&key("leafy", 1)));
        assert!(anc.contains(&key("middle", 1)));
        assert!(anc.contains(&key("main", 0)));
        assert!(!anc.contains(&key("other", 1)));
    }

    #[test]
    fn recursion_terminates() {
        let p = parse_program("loop(X) :- loop(X), send(1, X).").unwrap();
        let g = CallGraph::build(&p);
        let anc = g.ancestors_of(&[key("send", 2)]);
        assert_eq!(anc.len(), 1);
        assert!(anc.contains(&key("loop", 1)));
    }

    #[test]
    fn reaches_answers_reachability() {
        let p = parse_program("a :- b. b :- halt. c :- a.").unwrap();
        let g = CallGraph::build(&p);
        assert!(g.reaches(&key("a", 0), &key("halt", 0)));
        assert!(g.reaches(&key("c", 0), &key("halt", 0)));
        assert!(!g.reaches(&key("b", 0), &key("c", 0)));
    }

    #[test]
    fn arity_distinguishes_procedures() {
        let p = parse_program(
            r#"
            f(X) :- send(1, X).
            f(X, Y) :- g(X, Y).
            g(_, _).
        "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let anc = g.ancestors_of(&[key("send", 2)]);
        assert!(anc.contains(&key("f", 1)));
        assert!(!anc.contains(&key("f", 2)));
    }
}
