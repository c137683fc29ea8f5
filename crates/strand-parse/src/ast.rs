//! The surface AST manipulated by source-to-source transformations.
//!
//! Unlike the runtime [`strand_core::Term`], surface terms use *named*
//! variables — transformations introduce arguments with meaningful names
//! (the Server motif's `DT` stream tuple, for instance), and the
//! pretty-printed output must stay readable because motif libraries are
//! "archives of expertise" (paper §1).

use std::collections::BTreeMap;
use std::fmt;

/// A surface term.
#[derive(Clone, Debug, PartialEq)]
pub enum Ast {
    /// Named variable (`Xs`, `N1`, …).
    Var(String),
    /// Anonymous variable `_`.
    Wild,
    Int(i64),
    Float(f64),
    /// Atom (`sync`, `halt`, quoted `'+'`, …).
    Atom(String),
    /// String literal.
    Str(String),
    /// Compound term `f(T1,…,Tn)`, n ≥ 1.
    Tuple(String, Vec<Ast>),
    /// List cell `[H|T]`.
    List(Box<Ast>, Box<Ast>),
    /// Empty list `[]`.
    Nil,
}

impl Ast {
    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Ast {
        Ast::Var(name.into())
    }

    /// Atom constructor.
    pub fn atom(name: impl Into<String>) -> Ast {
        Ast::Atom(name.into())
    }

    /// Compound constructor; degenerates to an atom with no args.
    pub fn tuple(name: impl Into<String>, args: Vec<Ast>) -> Ast {
        let name = name.into();
        if args.is_empty() {
            Ast::Atom(name)
        } else {
            Ast::Tuple(name, args)
        }
    }

    /// Cons cell.
    pub fn cons(head: Ast, tail: Ast) -> Ast {
        Ast::List(Box::new(head), Box::new(tail))
    }

    /// Proper list.
    pub fn list(items: impl IntoIterator<Item = Ast>) -> Ast {
        let items: Vec<Ast> = items.into_iter().collect();
        items
            .into_iter()
            .rev()
            .fold(Ast::Nil, |t, h| Ast::cons(h, t))
    }

    /// Functor name and arity if the term can be a goal.
    pub fn functor(&self) -> Option<(&str, usize)> {
        match self {
            Ast::Atom(a) => Some((a, 0)),
            Ast::Tuple(f, args) => Some((f, args.len())),
            _ => None,
        }
    }

    /// Goal arguments (empty for atoms).
    pub fn args(&self) -> &[Ast] {
        match self {
            Ast::Tuple(_, args) => args,
            _ => &[],
        }
    }

    /// All named variables, in first-occurrence order, deduplicated.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Ast::Var(v) if !out.iter().any(|o| o == v) => {
                out.push(v.clone());
            }
            Ast::Tuple(_, args) => args.iter().for_each(|a| a.collect_vars(out)),
            Ast::List(h, t) => {
                h.collect_vars(out);
                t.collect_vars(out);
            }
            _ => {}
        }
    }

    /// Structurally replace subterms: apply `f` bottom-up everywhere.
    pub fn map(&self, f: &impl Fn(Ast) -> Ast) -> Ast {
        let rebuilt = match self {
            Ast::Tuple(name, args) => {
                Ast::Tuple(name.clone(), args.iter().map(|a| a.map(f)).collect())
            }
            Ast::List(h, t) => Ast::cons(h.map(f), t.map(f)),
            other => other.clone(),
        };
        f(rebuilt)
    }
}

impl Drop for Ast {
    /// Unlink a list's spine iteratively, as `strand_core::term::Cons`
    /// does: the derived drop of `[H|T]` recurses once per cell, and a
    /// flat 32 000-element list — 64 KB of request line — overflows a
    /// connection thread's stack, which aborts the process. Each cell's
    /// tail is detached before the cell drops, so no drop sees more than
    /// one; heads still drop recursively (their depth is the term's
    /// nesting, which the parser bounds).
    fn drop(&mut self) {
        let Ast::List(_, tail) = self else { return };
        let mut next = std::mem::replace(&mut **tail, Ast::Nil);
        while let Ast::List(_, tail) = &mut next {
            next = std::mem::replace(&mut **tail, Ast::Nil);
        }
    }
}

/// Placement annotation on a body call.
#[derive(Clone, Debug, PartialEq)]
pub enum Annotation {
    /// `Goal@Expr` — execute on the node `Expr` evaluates to (the low-level
    /// Strand placement feature used by the server library, Figure 3).
    Node(Ast),
    /// `Goal@random` — the pragma resolved by the `Rand` motif (§3.3).
    Random,
    /// `Goal@task` — the pragma resolved by the `Sched` motif (§2.2): the
    /// process becomes a task dispatched to an idle processor.
    Task,
}

/// A body call: a goal plus an optional placement annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    pub goal: Ast,
    pub annotation: Option<Annotation>,
}

impl Call {
    /// Unannotated call.
    pub fn new(goal: Ast) -> Call {
        Call {
            goal,
            annotation: None,
        }
    }

    /// Call with `@random` pragma.
    pub fn random(goal: Ast) -> Call {
        Call {
            goal,
            annotation: Some(Annotation::Random),
        }
    }

    /// Call with `@task` pragma.
    pub fn task(goal: Ast) -> Call {
        Call {
            goal,
            annotation: Some(Annotation::Task),
        }
    }

    /// Call with `@node` placement.
    pub fn at(goal: Ast, node: Ast) -> Call {
        Call {
            goal,
            annotation: Some(Annotation::Node(node)),
        }
    }
}

/// One guarded rule `head :- guards | body.`
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    pub head: Ast,
    pub guards: Vec<Ast>,
    pub body: Vec<Call>,
}

impl Rule {
    /// The rule's procedure key.
    pub fn key(&self) -> (String, usize) {
        let (name, arity) = self
            .head
            .functor()
            .expect("rule head must be an atom or tuple");
        (name.to_string(), arity)
    }

    /// Is this an `otherwise` rule (guard list exactly `[otherwise]`)?
    pub fn is_otherwise(&self) -> bool {
        matches!(self.guards.as_slice(), [Ast::Atom(a)] if a == "otherwise")
    }
}

/// A procedure: all rules sharing one name/arity, in source order.
#[derive(Clone, Debug, PartialEq)]
pub struct Procedure {
    pub name: String,
    pub arity: usize,
    pub rules: Vec<Rule>,
}

/// A program: an ordered collection of procedures.
///
/// Ordered so pretty-printing round-trips stably; indexed so
/// transformations can look procedures up by name/arity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    procedures: Vec<Procedure>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// All procedures in source order.
    pub fn procedures(&self) -> &[Procedure] {
        &self.procedures
    }

    /// Look up a procedure.
    pub fn get(&self, name: &str, arity: usize) -> Option<&Procedure> {
        self.procedures
            .iter()
            .find(|p| p.name == name && p.arity == arity)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str, arity: usize) -> Option<&mut Procedure> {
        self.procedures
            .iter_mut()
            .find(|p| p.name == name && p.arity == arity)
    }

    /// Add a rule, creating or extending its procedure.
    pub fn push_rule(&mut self, rule: Rule) {
        let (name, arity) = rule.key();
        match self.get_mut(&name, arity) {
            Some(p) => p.rules.push(rule),
            None => self.procedures.push(Procedure {
                name,
                arity,
                rules: vec![rule],
            }),
        }
    }

    /// Remove a procedure, returning it if present.
    pub fn remove(&mut self, name: &str, arity: usize) -> Option<Procedure> {
        let idx = self
            .procedures
            .iter()
            .position(|p| p.name == name && p.arity == arity)?;
        Some(self.procedures.remove(idx))
    }

    /// Program union — the paper's `T(A) ∪ L` linking step. Procedures from
    /// `other` with a name/arity already present have their rules appended
    /// (later definitions extend earlier ones); new procedures are added at
    /// the end.
    pub fn union(&self, other: &Program) -> Program {
        let mut out = self.clone();
        for p in &other.procedures {
            for r in &p.rules {
                out.push_rule(r.clone());
            }
        }
        out
    }

    /// Every rule in the program, with its procedure key.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.procedures.iter().flat_map(|p| p.rules.iter())
    }

    /// Total number of rules (the paper's informal "lines of code" measure
    /// for motif libraries, experiment E5).
    pub fn rule_count(&self) -> usize {
        self.procedures.iter().map(|p| p.rules.len()).sum()
    }

    /// The set of procedure keys defined here.
    pub fn defined_keys(&self) -> Vec<(String, usize)> {
        self.procedures
            .iter()
            .map(|p| (p.name.clone(), p.arity))
            .collect()
    }

    /// The set of procedure keys *called* in rule bodies, with multiplicity
    /// collapsed. Guard calls are excluded (guards are tests, not spawns).
    pub fn called_keys(&self) -> Vec<(String, usize)> {
        let mut set = BTreeMap::new();
        for rule in self.rules() {
            for call in &rule.body {
                if let Some((name, arity)) = call.goal.functor() {
                    set.insert((name.to_string(), arity), ());
                }
            }
        }
        set.into_keys().collect()
    }
}

impl fmt::Display for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_ast(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_goal(name: &str, args: Vec<Ast>) -> Call {
        Call::new(Ast::tuple(name, args))
    }

    #[test]
    fn push_rule_groups_by_key() {
        let mut p = Program::new();
        p.push_rule(Rule {
            head: Ast::tuple("f", vec![Ast::Int(0)]),
            guards: vec![],
            body: vec![],
        });
        p.push_rule(Rule {
            head: Ast::tuple("f", vec![Ast::var("N")]),
            guards: vec![],
            body: vec![],
        });
        p.push_rule(Rule {
            head: Ast::tuple("g", vec![Ast::var("X")]),
            guards: vec![],
            body: vec![],
        });
        assert_eq!(p.procedures().len(), 2);
        assert_eq!(p.get("f", 1).unwrap().rules.len(), 2);
        assert_eq!(p.rule_count(), 3);
    }

    #[test]
    fn union_appends_rules() {
        let mut a = Program::new();
        a.push_rule(Rule {
            head: Ast::tuple("f", vec![Ast::Int(0)]),
            guards: vec![],
            body: vec![],
        });
        let mut b = Program::new();
        b.push_rule(Rule {
            head: Ast::tuple("f", vec![Ast::Int(1)]),
            guards: vec![],
            body: vec![],
        });
        b.push_rule(Rule {
            head: Ast::atom("go"),
            guards: vec![],
            body: vec![call_goal("f", vec![Ast::Int(0)])],
        });
        let u = a.union(&b);
        assert_eq!(u.get("f", 1).unwrap().rules.len(), 2);
        assert!(u.get("go", 0).is_some());
        // Union does not mutate operands.
        assert_eq!(a.get("f", 1).unwrap().rules.len(), 1);
    }

    #[test]
    fn called_keys_are_collected() {
        let mut p = Program::new();
        p.push_rule(Rule {
            head: Ast::atom("go"),
            guards: vec![Ast::tuple(">", vec![Ast::var("N"), Ast::Int(0)])],
            body: vec![
                call_goal("producer", vec![Ast::var("N")]),
                call_goal("consumer", vec![Ast::var("Xs")]),
                Call::new(Ast::atom("halt")),
            ],
        });
        let keys = p.called_keys();
        assert!(keys.contains(&("producer".into(), 1)));
        assert!(keys.contains(&("halt".into(), 0)));
        // Guard calls are not body calls.
        assert!(!keys.iter().any(|(n, _)| n == ">"));
    }

    #[test]
    fn ast_vars_and_map() {
        let t = Ast::tuple(
            "f",
            vec![Ast::var("X"), Ast::cons(Ast::var("Y"), Ast::var("X"))],
        );
        assert_eq!(t.vars(), vec!["X".to_string(), "Y".to_string()]);
        let renamed = t.map(&|a| match a {
            Ast::Var(ref v) if v == "X" => Ast::var("Z"),
            other => other,
        });
        assert_eq!(renamed.vars(), vec!["Z".to_string(), "Y".to_string()]);
    }

    #[test]
    fn otherwise_detection() {
        let r = Rule {
            head: Ast::tuple("f", vec![Ast::Wild]),
            guards: vec![Ast::atom("otherwise")],
            body: vec![],
        };
        assert!(r.is_otherwise());
    }
}
