//! Static checks for motif-language programs.
//!
//! The paper's vision is a *programming system* (§4: "a comprehensive
//! parallel programming system"); a usable system diagnoses the classic
//! concurrent-logic mistakes before they become runtime deadlocks:
//!
//! * calls to procedures that are defined nowhere (typos in the rule name
//!   or arity — these surface as `UndefinedProcedure` only when reached at
//!   runtime);
//! * singleton variables (a variable used exactly once is usually a typo —
//!   and in a single-assignment language it silently never binds);
//! * exact duplicate rules (dead weight from a botched merge);
//! * assignments whose left side can never be a variable (`5 := X`).

use crate::ast::{Ast, Program, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct Lint {
    pub kind: LintKind,
    /// `name/arity` of the procedure the finding is in (or about).
    pub procedure: String,
    pub detail: String,
}

/// Categories of finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintKind {
    UndefinedCall,
    SingletonVariable,
    DuplicateRule,
    UnassignableTarget,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            LintKind::UndefinedCall => "undefined call",
            LintKind::SingletonVariable => "singleton variable",
            LintKind::DuplicateRule => "duplicate rule",
            LintKind::UnassignableTarget => "unassignable target",
        };
        write!(f, "{kind} in {}: {}", self.procedure, self.detail)
    }
}

/// Builtins and primitives the abstract machine provides — never flagged
/// as undefined.
pub const MACHINE_BUILTINS: &[(&str, usize)] = &[
    (":=", 2),
    ("=", 2),
    ("true", 0),
    ("length", 2),
    ("rand_num", 2),
    ("distribute", 3),
    ("distribute", 4),
    ("make_tuple", 2),
    ("put_arg", 3),
    ("put_arg", 4),
    ("sup_restart", 0),
    ("open_port", 2),
    ("send_port", 2),
    ("merge", 2),
    ("work", 1),
    ("print", 1),
    ("current_node", 1),
    ("arg", 3),
    ("gauge", 2),
    ("after_unless", 3),
    ("ack", 1),
    ("unique_id", 1),
];

/// Motif-level operations resolved by transformations (Server/Rand/Sched),
/// legitimate in pre-transformation sources.
pub const MOTIF_PRIMITIVES: &[(&str, usize)] =
    &[("send", 2), ("send", 3), ("nodes", 1), ("halt", 0)];

/// Lint a program. `assume_defined` lists extra name/arity pairs the
/// caller knows will be provided elsewhere (e.g. the user's `eval/4` when
/// linting a motif library on its own).
pub fn lint(program: &Program, assume_defined: &[(&str, usize)]) -> Vec<Lint> {
    let mut findings = Vec::new();
    let defined: BTreeSet<(String, usize)> = program.defined_keys().into_iter().collect();
    let known: BTreeSet<(String, usize)> = MACHINE_BUILTINS
        .iter()
        .chain(MOTIF_PRIMITIVES.iter())
        .chain(assume_defined.iter())
        .map(|(n, a)| (n.to_string(), *a))
        .collect();

    for proc in program.procedures() {
        let key = format!("{}/{}", proc.name, proc.arity);
        // Duplicate rules.
        let mut seen: Vec<&Rule> = Vec::new();
        for rule in &proc.rules {
            if seen.iter().any(|r| **r == *rule) {
                findings.push(Lint {
                    kind: LintKind::DuplicateRule,
                    procedure: key.clone(),
                    detail: format!("rule `{}` appears more than once", rule.head),
                });
            }
            seen.push(rule);
        }
        for rule in &proc.rules {
            // Undefined calls.
            for call in &rule.body {
                if let Some((name, arity)) = call.goal.functor() {
                    let k = (name.to_string(), arity);
                    if !defined.contains(&k) && !known.contains(&k) {
                        findings.push(Lint {
                            kind: LintKind::UndefinedCall,
                            procedure: key.clone(),
                            detail: format!("call to undefined {name}/{arity}"),
                        });
                    }
                    // Unassignable := / = target.
                    if (name == ":=" || name == "=")
                        && !matches!(call.goal.args()[0], Ast::Var(_) | Ast::Wild)
                    {
                        findings.push(Lint {
                            kind: LintKind::UnassignableTarget,
                            procedure: key.clone(),
                            detail: format!("`{}` assigns to a non-variable", call.goal),
                        });
                    }
                }
            }
            // Singleton variables (underscore-prefixed names are exempt).
            let mut uses: BTreeMap<String, u32> = BTreeMap::new();
            let mut count = |t: &Ast| {
                for v in t.vars() {
                    *uses.entry(v).or_insert(0) += 1;
                }
            };
            count(&rule.head);
            for g in &rule.guards {
                count(g);
            }
            for c in &rule.body {
                count(&c.goal);
                if let Some(crate::ast::Annotation::Node(n)) = &c.annotation {
                    count(n);
                }
            }
            for (name, n) in uses {
                if n == 1 && !name.starts_with('_') {
                    findings.push(Lint {
                        kind: LintKind::SingletonVariable,
                        procedure: key.clone(),
                        detail: format!("variable {name} occurs once in `{}`", rule.head),
                    });
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn kinds(src: &str) -> Vec<LintKind> {
        lint(&parse_program(src).unwrap(), &[])
            .into_iter()
            .map(|l| l.kind)
            .collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let src = r#"
            go(N) :- producer(N, Xs, sync), consumer(Xs).
            producer(N, Xs, sync) :- N > 0 |
                Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).
            producer(0, Xs, _) :- Xs := [].
            consumer([X|Xs]) :- X := sync, consumer(Xs).
            consumer([]).
        "#;
        assert!(
            kinds(src).is_empty(),
            "{:?}",
            lint(&parse_program(src).unwrap(), &[])
        );
    }

    #[test]
    fn undefined_call_detected() {
        let src = "go(X) :- helpr(X). helper(_)."; // typo'd call
        let ks = kinds(src);
        assert!(ks.contains(&LintKind::UndefinedCall), "{ks:?}");
    }

    #[test]
    fn arity_mismatch_is_undefined() {
        let src = "go(X) :- helper(X, X). helper(_).";
        let ls = lint(&parse_program(src).unwrap(), &[]);
        assert!(
            ls.iter()
                .any(|l| l.kind == LintKind::UndefinedCall && l.detail.contains("helper/2")),
            "{ls:?}"
        );
    }

    #[test]
    fn motif_primitives_allowed() {
        let src = "f(X) :- nodes(N), send(N, X), halt.";
        let ls = lint(&parse_program(src).unwrap(), &[]);
        assert!(
            !ls.iter().any(|l| l.kind == LintKind::UndefinedCall),
            "{ls:?}"
        );
    }

    #[test]
    fn assume_defined_suppresses() {
        let src = "r(T, V) :- eval(T, V).";
        let ls = lint(&parse_program(src).unwrap(), &[("eval", 2)]);
        assert!(
            !ls.iter().any(|l| l.kind == LintKind::UndefinedCall),
            "{ls:?}"
        );
    }

    #[test]
    fn singleton_detected_and_underscore_exempt() {
        let ls = lint(&parse_program("f(X, Y) :- g(X). g(_).").unwrap(), &[]);
        assert!(
            ls.iter()
                .any(|l| l.kind == LintKind::SingletonVariable && l.detail.contains("variable Y")),
            "{ls:?}"
        );
        let ls = lint(&parse_program("f(X, _Y) :- g(X). g(_).").unwrap(), &[]);
        assert!(
            !ls.iter().any(|l| l.kind == LintKind::SingletonVariable),
            "{ls:?}"
        );
    }

    #[test]
    fn duplicate_rule_detected() {
        let src = "f(1). f(2). f(1).";
        let ls = lint(&parse_program(src).unwrap(), &[]);
        assert_eq!(
            ls.iter()
                .filter(|l| l.kind == LintKind::DuplicateRule)
                .count(),
            1,
            "{ls:?}"
        );
    }

    #[test]
    fn unassignable_target_detected() {
        let src = "f(X) :- 5 := X.";
        let ls = lint(&parse_program(src).unwrap(), &[]);
        assert!(
            ls.iter().any(|l| l.kind == LintKind::UnassignableTarget),
            "{ls:?}"
        );
    }
}
