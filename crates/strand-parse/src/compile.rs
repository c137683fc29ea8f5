//! Compiler from the surface AST to the executable pattern form.
//!
//! Each rule's named variables are mapped to dense local slots
//! ([`strand_core::Pat::Local`]); guards and body goals become pattern
//! templates instantiated per reduction. Compilation also performs the
//! sanity checks the machine relies on:
//!
//! * `otherwise` must be a rule's only guard;
//! * the `@random` pragma must have been transformed away (applying the
//!   `Rand` motif) — it is a *pragma*, not an executable construct (§3.3);
//! * singleton variables are reported as warnings (the classic
//!   concurrent-logic lint: a variable used once is usually a typo).

use crate::ast::{Annotation, Ast, Program, Rule};
use std::collections::HashMap;
use std::fmt;
use strand_core::{Atom, FxHashMap, Pat};

/// Compilation error.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// `Goal@random` survived to compilation.
    UnresolvedRandomPragma { procedure: String },
    /// `Goal@task` survived to compilation.
    UnresolvedTaskPragma { procedure: String },
    /// `otherwise` mixed with other guards.
    MalformedOtherwise { procedure: String },
    /// More rule-local variables than the slot width allows (u16).
    TooManyLocals { procedure: String },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnresolvedRandomPragma { procedure } => write!(
                f,
                "procedure {procedure}: `@random` is a pragma, not an executable construct; \
                 apply the Rand motif transformation before running"
            ),
            CompileError::UnresolvedTaskPragma { procedure } => write!(
                f,
                "procedure {procedure}: `@task` is a pragma, not an executable construct; \
                 apply the Sched motif transformation before running"
            ),
            CompileError::MalformedOtherwise { procedure } => write!(
                f,
                "procedure {procedure}: `otherwise` must be a rule's only guard"
            ),
            CompileError::TooManyLocals { procedure } => {
                write!(f, "procedure {procedure}: too many rule-local variables")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled body call: a goal template plus optional placement template.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledCall {
    pub goal: Pat,
    /// `Some(expr)` for `Goal@expr`; the machine evaluates the expression to
    /// a node number at reduction time.
    pub placement: Option<Pat>,
}

/// A compiled rule.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledRule {
    pub head: Vec<Pat>,
    pub guards: Vec<Pat>,
    pub body: Vec<CompiledCall>,
    pub n_locals: u16,
    /// True for `H :- otherwise | B` rules: applies only when every other
    /// rule has definitively failed (not suspended).
    pub otherwise: bool,
}

/// A compiled procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledProc {
    pub name: String,
    pub arity: usize,
    pub rules: Vec<CompiledRule>,
}

/// A compiled program, indexed by name/arity.
///
/// Procedures are keyed by [`Atom`] name with a small per-name vector of
/// arities. An `Atom` hashes and compares as its id, and the table uses
/// [`strand_core::fxhash`], so [`CompiledProgram::lookup`] — which sits on
/// the interpreter's per-reduction path — costs one multiply and a probe.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    procs: FxHashMap<Atom, Vec<CompiledProc>>,
    /// Singleton-variable warnings, as `procedure: VarName` strings.
    pub warnings: Vec<String>,
}

impl CompiledProgram {
    /// Look up a procedure by name and arity. Interns `name`: for callers
    /// holding text, off the reduction path.
    pub fn get(&self, name: &str, arity: usize) -> Option<&CompiledProc> {
        self.lookup(Atom::new(name), arity)
    }

    /// Look up a procedure by symbol and arity.
    pub fn lookup(&self, name: Atom, arity: usize) -> Option<&CompiledProc> {
        self.procs.get(&name)?.iter().find(|p| p.arity == arity)
    }

    /// Iterate over all procedures, in unspecified order (it varies with
    /// what the process interned first: sort by name before rendering).
    pub fn procs(&self) -> impl Iterator<Item = &CompiledProc> {
        self.procs.values().flatten()
    }

    /// Number of procedures.
    pub fn len(&self) -> usize {
        self.procs.values().map(Vec::len).sum()
    }

    /// True if no procedures were compiled.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

/// Compile a program.
pub fn compile_program(p: &Program) -> Result<CompiledProgram, CompileError> {
    let mut out = CompiledProgram::default();
    for proc in p.procedures() {
        let mut rules = Vec::with_capacity(proc.rules.len());
        for rule in &proc.rules {
            rules.push(compile_rule(rule, &proc.name, &mut out.warnings)?);
        }
        let slot = out.procs.entry(Atom::new(proc.name.as_str())).or_default();
        slot.retain(|p| p.arity != proc.arity);
        slot.push(CompiledProc {
            name: proc.name.clone(),
            arity: proc.arity,
            rules,
        });
    }
    Ok(out)
}

struct Slots {
    map: HashMap<String, u16>,
    uses: HashMap<String, u32>,
}

impl Slots {
    fn slot(&mut self, name: &str) -> u16 {
        *self.uses.entry(name.to_string()).or_insert(0) += 1;
        if let Some(i) = self.map.get(name) {
            return *i;
        }
        let i = self.map.len() as u16;
        self.map.insert(name.to_string(), i);
        i
    }
}

fn compile_rule(
    rule: &Rule,
    proc_name: &str,
    warnings: &mut Vec<String>,
) -> Result<CompiledRule, CompileError> {
    let mut slots = Slots {
        map: HashMap::new(),
        uses: HashMap::new(),
    };

    // Pre-count: u16 slots bound the variable count per rule.
    if rule
        .head
        .vars()
        .len()
        .saturating_add(rule.body.iter().map(|c| c.goal.vars().len()).sum())
        > u16::MAX as usize
    {
        return Err(CompileError::TooManyLocals {
            procedure: proc_name.to_string(),
        });
    }

    let head: Vec<Pat> = rule
        .head
        .args()
        .iter()
        .map(|a| ast_to_pat(a, &mut slots))
        .collect();

    let otherwise = rule.is_otherwise();
    if !otherwise
        && rule
            .guards
            .iter()
            .any(|g| matches!(g, Ast::Atom(a) if a == "otherwise"))
    {
        return Err(CompileError::MalformedOtherwise {
            procedure: proc_name.to_string(),
        });
    }
    let guards: Vec<Pat> = if otherwise {
        Vec::new()
    } else {
        rule.guards
            .iter()
            .map(|g| ast_to_pat(g, &mut slots))
            .collect()
    };

    let mut body = Vec::with_capacity(rule.body.len());
    for call in &rule.body {
        let placement = match &call.annotation {
            None => None,
            Some(Annotation::Node(e)) => Some(ast_to_pat(e, &mut slots)),
            Some(Annotation::Random) => {
                return Err(CompileError::UnresolvedRandomPragma {
                    procedure: proc_name.to_string(),
                })
            }
            Some(Annotation::Task) => {
                return Err(CompileError::UnresolvedTaskPragma {
                    procedure: proc_name.to_string(),
                })
            }
        };
        body.push(CompiledCall {
            goal: ast_to_pat(&call.goal, &mut slots),
            placement,
        });
    }

    for (name, uses) in &slots.uses {
        if *uses == 1 && !name.starts_with('_') {
            warnings.push(format!("{proc_name}: singleton variable {name}"));
        }
    }

    Ok(CompiledRule {
        head,
        guards,
        body,
        n_locals: slots.map.len() as u16,
        otherwise,
    })
}

fn ast_to_pat(a: &Ast, slots: &mut Slots) -> Pat {
    match a {
        Ast::Var(v) => Pat::Local(slots.slot(v)),
        Ast::Wild => Pat::Wild,
        Ast::Int(i) => Pat::Int(*i),
        Ast::Float(x) => Pat::Float(*x),
        Ast::Atom(s) => Pat::Atom(Atom::new(s.as_str())),
        Ast::Str(s) => Pat::Str(s.as_str().into()),
        Ast::Nil => Pat::Nil,
        Ast::Tuple(name, args) => Pat::tuple(
            Atom::new(name.as_str()),
            args.iter().map(|x| ast_to_pat(x, slots)).collect(),
        ),
        Ast::List(h, t) => Pat::cons(ast_to_pat(h, slots), ast_to_pat(t, slots)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn compiles_producer_consumer() {
        let p = parse_program(
            "producer(N, Xs, _) :- N > 0 | Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).",
        )
        .unwrap();
        let c = compile_program(&p).unwrap();
        let proc = c.get("producer", 3).unwrap();
        let r = &proc.rules[0];
        assert_eq!(r.head.len(), 3);
        assert_eq!(r.guards.len(), 1);
        assert_eq!(r.body.len(), 3);
        // N, Xs, X, Xs1, N1 = five named locals.
        assert_eq!(r.n_locals, 5);
        assert!(!r.otherwise);
    }

    #[test]
    fn shared_variables_share_slots() {
        let p = parse_program("f(X, X).").unwrap();
        let c = compile_program(&p).unwrap();
        let r = &c.get("f", 2).unwrap().rules[0];
        assert_eq!(r.head, vec![Pat::Local(0), Pat::Local(0)]);
        assert_eq!(r.n_locals, 1);
    }

    #[test]
    fn random_pragma_is_rejected() {
        let p = parse_program("r(T) :- reduce(T, V)@random, use(V).").unwrap();
        let e = compile_program(&p).unwrap_err();
        assert!(matches!(e, CompileError::UnresolvedRandomPragma { .. }));
        assert!(e.to_string().contains("Rand motif"));
    }

    #[test]
    fn placement_expression_compiles() {
        let p = parse_program("r(T, J) :- go(T)@J.").unwrap();
        let c = compile_program(&p).unwrap();
        let r = &c.get("r", 2).unwrap().rules[0];
        assert!(r.body[0].placement.is_some());
        // The placement shares the rule's local slots: J is one variable.
        assert_eq!(r.n_locals, 2);
    }

    #[test]
    fn otherwise_compiles_to_flag() {
        let p = parse_program("f(X) :- otherwise | g(X).").unwrap();
        let c = compile_program(&p).unwrap();
        let r = &c.get("f", 1).unwrap().rules[0];
        assert!(r.otherwise);
        assert!(r.guards.is_empty());

        let bad = parse_program("f(X) :- otherwise, X > 0 | g(X).").unwrap();
        assert!(matches!(
            compile_program(&bad),
            Err(CompileError::MalformedOtherwise { .. })
        ));
    }

    #[test]
    fn singleton_warning_reported() {
        let p = parse_program("f(X, Y) :- g(X).").unwrap();
        let c = compile_program(&p).unwrap();
        assert!(c
            .warnings
            .iter()
            .any(|w| w.contains("singleton variable Y")));
        // Underscore-prefixed names are exempt.
        let p = parse_program("f(X, _Unused) :- g(X).").unwrap();
        let c = compile_program(&p).unwrap();
        assert!(c.warnings.is_empty());
    }
}
