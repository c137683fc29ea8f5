//! The compiled execution tier: rules lowered to direct-threaded code.
//!
//! [`ExecProgram::lower`] translates each [`CompiledRule`]'s `Pat` trees
//! into flat, pre-resolved forms executed without recursion and without
//! per-try allocation:
//!
//! * head patterns become pre-order [`MatchOp`] streams with subtree skip
//!   counts, run against an explicit reusable term stack;
//! * the outermost constructor of each rule's first head pattern becomes an
//!   [`IndexKey`], and each procedure's keys become a [`Switch`]: a table
//!   from the constructor of a goal's dereferenced first argument to the
//!   [`Arm`] of rules that could match it, so selecting the candidate rules
//!   costs one hash lookup however many clauses the procedure has
//!   (first-argument clause indexing);
//! * guards become [`GuardOp`]s: a pre-computed set of required slots
//!   checked before any evaluation, plus a specialized evaluator for the
//!   common comparison / equality / type tests (generic over [`StoreOps`],
//!   so both `Store` and the striped `SharedStore` monomorphize to the same
//!   fast path);
//! * body goals become [`Tmpl`] templates whose ground subtrees are
//!   pre-built `Term`s shared by every instantiation — match and
//!   instantiate are fused through one slot [`Frame`] with no intermediate
//!   structure rebuilt per reduction; each tuple a template does build is
//!   one heap block, filled in place from its arguments.
//!
//! Functor and guard names are [`Atom`] symbols throughout: a match op
//! compares ids, guard lowering switches on [`strand_core::sym`] constants,
//! and [`ExecProgram::lookup`] hashes one `u32`.
//!
//! The interpreter in `tier.rs` remains the semantic reference. This
//! module must be *observably identical* to it: same suspension variable
//! sets in the same order, same fresh-variable allocation order, same
//! errors surfaced at the same time. The conformance suite diffs the two
//! tiers bit-for-bit (see `tests/conformance.rs`).

use std::sync::Arc;

use strand_core::arith::Evaled;
use strand_core::matching::{term_eq, EqOutcome};
use strand_core::{
    eval_arith, eval_guard, sym, Atom, Frame, FxHashMap, GuardOutcome, Num, Pat, Store, StoreOps,
    StrandResult, Term, VarId,
};
use strand_parse::{CompiledProgram, CompiledRule};

pub(crate) fn push_unique(vs: &mut Vec<VarId>, v: VarId) {
    if !vs.contains(&v) {
        vs.push(v);
    }
}

// ---------------------------------------------------------------------------
// Scratch buffers
// ---------------------------------------------------------------------------

/// Reusable per-machine buffers for the reduction hot path. Under the
/// parallel backend each shard's `Machine` owns its own `Scratch`, so no
/// reduction allocates a fresh `Frame` or `Vec` per rule try.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Rule-local slot bindings, reset (capacity kept) per rule attempt.
    pub frame: Frame,
    /// Suspension variables accumulated across a goal's rule attempts.
    pub pending: Vec<VarId>,
    /// Suspension variables of the current rule attempt only.
    pub rule_pending: Vec<VarId>,
    /// Explicit term stack driving [`run_match`].
    pub stack: Vec<Term>,
}

// ---------------------------------------------------------------------------
// First-argument clause indexing
// ---------------------------------------------------------------------------

/// The outermost constructor of a rule's first head pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexKey {
    Int(i64),
    Float(f64),
    Atom(Atom),
    Str(Arc<str>),
    Nil,
    Cons,
    Tuple(Atom, usize),
}

impl IndexKey {
    /// The key of a first head pattern, or `None` when the rule must never
    /// be index-filtered (variable or wildcard heads match anything).
    pub fn of(head0: &Pat) -> Option<IndexKey> {
        match head0 {
            Pat::Local(_) | Pat::Wild => None,
            Pat::Int(i) => Some(IndexKey::Int(*i)),
            Pat::Float(x) => Some(IndexKey::Float(*x)),
            Pat::Atom(a) => Some(IndexKey::Atom(*a)),
            Pat::Str(s) => Some(IndexKey::Str(s.clone())),
            Pat::Nil => Some(IndexKey::Nil),
            Pat::List(_) => Some(IndexKey::Cons),
            Pat::Tuple(name, args) => Some(IndexKey::Tuple(*name, args.len())),
        }
    }

    /// Whether a goal whose *dereferenced* first argument is `arg` could
    /// possibly match a head with this key. `false` only when the match is
    /// certain to fail at the first argument: an unbound goal variable
    /// always admits (the rule must get its chance to suspend on it), and
    /// int/float keys admit cross-type numeric equality, mirroring
    /// `match_one`. The specification a [`Switch`] is checked against: an
    /// arm holds exactly the rules this lets through.
    pub fn admits(&self, arg: &Term) -> bool {
        match arg {
            Term::Var(_) => true,
            Term::Int(i) => {
                matches!(self, IndexKey::Int(j) if j == i)
                    || matches!(self, IndexKey::Float(x) if *x == *i as f64)
            }
            Term::Float(x) => {
                matches!(self, IndexKey::Float(y) if y == x)
                    || matches!(self, IndexKey::Int(j) if *x == *j as f64)
            }
            Term::Atom(a) => matches!(self, IndexKey::Atom(b) if b == a),
            Term::Str(s) => matches!(self, IndexKey::Str(t) if t == s),
            Term::Nil => matches!(self, IndexKey::Nil),
            Term::List(_) => matches!(self, IndexKey::Cons),
            Term::Tuple(name, args) => {
                matches!(self, IndexKey::Tuple(n, a) if n == name && *a == args.len())
            }
            Term::Port(_) => false,
        }
    }
}

/// One rule an [`Arm`] lets through, with the number of rules the filter
/// skips just before it — the `index_hits` a linear walk over the
/// procedure counts on its way there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cand {
    pub rule: u32,
    pub skipped: u32,
}

/// The rules, in source order, that [`IndexKey::admits`] lets through for
/// one kind of first argument, and `tail`, the rules it skips after the
/// last of them.
#[derive(Clone, Copy, Debug)]
pub struct Arm<'s> {
    pub cands: &'s [Cand],
    pub tail: u32,
}

impl<'s> Arm<'s> {
    /// The candidates in order, each with its skip count.
    pub fn walk(self, rules: &'s [ExecRule]) -> impl Iterator<Item = (&'s ExecRule, u32)> {
        self.cands
            .iter()
            .map(move |c| (&rules[c.rule as usize], c.skipped))
    }
}

/// What a [`Switch`] looks a first argument up by: its outermost
/// constructor, a number by value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Ctor {
    /// An integer equal to some `Int` key.
    Int(i64),
    /// An integer equal to no `Int` key, by its value as a float: only
    /// `Float` keys can admit it.
    IntAsFloat(u64),
    /// A float, by value.
    Float(u64),
    Atom(Atom),
    Str(Arc<str>),
    Nil,
    Cons,
    Tuple(Atom, usize),
}

/// The bits a float value is looked up by: `0.0` and `-0.0` are equal, and
/// so share them. (No key is a NaN — a NaN key admits nothing bound — so a
/// NaN argument finds no entry.)
fn float_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Where an arm's candidates sit in [`Switch::cands`].
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    end: u32,
    tail: u32,
}

/// The arm of every rule: an unbound first argument is admitted by all.
const ALL: usize = 0;
/// The arm of the unkeyed rules alone: for a first argument no key admits.
const UNKEYED: usize = 1;

/// First-argument clause selection for one procedure, built at lowering: the
/// [`Arm`] for every constructor some key admits, so that choosing the rules
/// to try is one lookup, not an [`IndexKey::admits`] test per clause.
#[derive(Clone, Debug)]
pub struct Switch {
    /// The arm of each constructor some key admits.
    table: FxHashMap<Ctor, u32>,
    /// Arms by number: [`ALL`], [`UNKEYED`], then the table's.
    arms: Box<[Span]>,
    cands: Box<[Cand]>,
}

impl Switch {
    fn build(rules: &[ExecRule]) -> Switch {
        let n = rules.len() as u32;
        // Integer keys by their value as a float, sorted: a float key equal
        // to that value admits the same integer goals they do.
        let mut ints_by_value: Vec<(u64, i64)> = rules
            .iter()
            .filter_map(|r| match r.key {
                Some(IndexKey::Int(i)) => Some((float_bits(i as f64), i)),
                _ => None,
            })
            .collect();
        ints_by_value.sort_unstable();
        // (arm, rule) for every keyed rule each entry admits.
        let mut table: FxHashMap<Ctor, u32> = FxHashMap::default();
        table.reserve(2 * rules.len());
        let mut members: Vec<(u32, u32)> = Vec::with_capacity(2 * rules.len());
        let mut unkeyed = Vec::new();
        for (rule, r) in (0..n).zip(rules) {
            let mut enter = |ctor: Ctor| {
                let next = (UNKEYED + 1 + table.len()) as u32;
                members.push((*table.entry(ctor).or_insert(next), rule));
            };
            match &r.key {
                None => unkeyed.push(rule),
                Some(IndexKey::Int(i)) => {
                    enter(Ctor::Int(*i));
                    enter(Ctor::Float(float_bits(*i as f64)));
                }
                Some(IndexKey::Float(y)) if y.is_nan() => {}
                Some(IndexKey::Float(y)) => {
                    let bits = float_bits(*y);
                    enter(Ctor::Float(bits));
                    enter(Ctor::IntAsFloat(bits));
                    let from = ints_by_value.partition_point(|&(b, _)| b < bits);
                    for &(_, i) in ints_by_value[from..]
                        .iter()
                        .take_while(|&&(b, _)| b == bits)
                    {
                        enter(Ctor::Int(i));
                    }
                }
                Some(IndexKey::Atom(a)) => enter(Ctor::Atom(*a)),
                Some(IndexKey::Str(s)) => enter(Ctor::Str(s.clone())),
                Some(IndexKey::Nil) => enter(Ctor::Nil),
                Some(IndexKey::Cons) => enter(Ctor::Cons),
                Some(IndexKey::Tuple(name, arity)) => enter(Ctor::Tuple(*name, *arity)),
            }
        }
        // Arms are numbered in order of first sight, so sorting groups each
        // table arm's members, in source order, after the one before.
        members.sort_unstable();
        members.dedup();
        let mut arms = Vec::with_capacity(UNKEYED + 1 + table.len());
        let mut cands = Vec::new();
        let mut admitted = Vec::new();
        let mut push_arm = |admitted: &mut Vec<u32>| {
            admitted.sort_unstable();
            let start = cands.len() as u32;
            let mut next = 0;
            for &rule in admitted.iter() {
                cands.push(Cand {
                    rule,
                    skipped: rule - next,
                });
                next = rule + 1;
            }
            arms.push(Span {
                start,
                end: cands.len() as u32,
                tail: n - next,
            });
        };
        admitted.extend(0..n);
        push_arm(&mut admitted);
        admitted.clone_from(&unkeyed);
        push_arm(&mut admitted);
        for group in members.chunk_by(|a, b| a.0 == b.0) {
            admitted.clone_from(&unkeyed);
            admitted.extend(group.iter().map(|&(_, rule)| rule));
            push_arm(&mut admitted);
        }
        Switch {
            table,
            arms: arms.into(),
            cands: cands.into(),
        }
    }

    fn arm_at(&self, i: usize) -> Arm<'_> {
        let span = self.arms[i];
        Arm {
            cands: &self.cands[span.start as usize..span.end as usize],
            tail: span.tail,
        }
    }

    /// The arm for a goal whose *dereferenced* first argument is `arg`.
    pub fn arm(&self, arg: &Term) -> Arm<'_> {
        let found = match arg {
            Term::Var(_) => return self.all(),
            Term::Int(i) => self
                .table
                .get(&Ctor::Int(*i))
                .or_else(|| self.table.get(&Ctor::IntAsFloat(float_bits(*i as f64)))),
            Term::Float(x) => self.table.get(&Ctor::Float(float_bits(*x))),
            Term::Atom(a) => self.table.get(&Ctor::Atom(*a)),
            Term::Str(s) => self.table.get(&Ctor::Str(s.clone())),
            Term::Nil => self.table.get(&Ctor::Nil),
            Term::List(_) => self.table.get(&Ctor::Cons),
            Term::Tuple(name, args) => self.table.get(&Ctor::Tuple(*name, args.len())),
            Term::Port(_) => None,
        };
        self.arm_at(found.map_or(UNKEYED, |&i| i as usize))
    }

    /// Every rule, for a goal whose first argument is not looked at.
    pub fn all(&self) -> Arm<'_> {
        self.arm_at(ALL)
    }
}

// ---------------------------------------------------------------------------
// Head matching ops
// ---------------------------------------------------------------------------

/// One step of a flattened head pattern, visited in pre-order. Each op
/// consumes exactly one term from the stack; structural ops push their
/// children (right-to-left, so the left child is popped first) and carry
/// the op count of their subtree so a suspension on an unbound goal
/// variable can skip it.
#[derive(Clone, Debug)]
pub enum MatchOp {
    /// Rule-local slot: set on first sight, compare (`term_eq`) on repeats.
    /// The set/compare decision is dynamic because a suspension-skipped
    /// subtree may leave the textually-first occurrence unset.
    Slot(u16),
    /// `_`: matches anything.
    Wild,
    Int(i64),
    Float(f64),
    Atom(Atom),
    Str(Arc<str>),
    Nil,
    /// `name(…)` with `arity` children lowered into the next `skip` ops.
    Tuple {
        name: Atom,
        arity: usize,
        skip: usize,
    },
    /// `[H|T]` with both children lowered into the next `skip` ops.
    Cons {
        skip: usize,
    },
}

fn lower_match(p: &Pat, out: &mut Vec<MatchOp>) {
    match p {
        Pat::Local(i) => out.push(MatchOp::Slot(*i)),
        Pat::Wild => out.push(MatchOp::Wild),
        Pat::Int(i) => out.push(MatchOp::Int(*i)),
        Pat::Float(x) => out.push(MatchOp::Float(*x)),
        Pat::Atom(a) => out.push(MatchOp::Atom(*a)),
        Pat::Str(s) => out.push(MatchOp::Str(s.clone())),
        Pat::Nil => out.push(MatchOp::Nil),
        Pat::Tuple(name, args) => {
            let at = out.len();
            out.push(MatchOp::Tuple {
                name: *name,
                arity: args.len(),
                skip: 0,
            });
            for a in args.iter() {
                lower_match(a, out);
            }
            let n = out.len() - at - 1;
            if let MatchOp::Tuple { skip, .. } = &mut out[at] {
                *skip = n;
            }
        }
        Pat::List(cell) => {
            let at = out.len();
            out.push(MatchOp::Cons { skip: 0 });
            lower_match(&cell.0, out);
            lower_match(&cell.1, out);
            let n = out.len() - at - 1;
            if let MatchOp::Cons { skip } = &mut out[at] {
                *skip = n;
            }
        }
    }
}

/// Run a rule's match ops over the goal arguments. Returns `false` on a
/// definitive mismatch; on `true`, an empty `pending` means the head
/// matched and `frame` holds the bindings, a non-empty one lists the goal
/// variables the rule must wait for (in the interpreter's collection
/// order).
pub fn run_match<S: StoreOps>(
    ops: &[MatchOp],
    args: &[Term],
    store: &S,
    frame: &mut Frame,
    pending: &mut Vec<VarId>,
    stack: &mut Vec<Term>,
) -> bool {
    stack.clear();
    stack.extend(args.iter().rev().cloned());
    let mut pc = 0;
    while pc < ops.len() {
        let op = &ops[pc];
        pc += 1;
        let t = stack.pop().expect("op stream aligned with term stream");
        let g = store.deref_owned(t);
        match op {
            MatchOp::Wild => {}
            MatchOp::Slot(i) => {
                let slot = &mut frame.slots[*i as usize];
                match slot {
                    None => *slot = Some(g),
                    Some(prev) => match term_eq(prev, &g, store) {
                        EqOutcome::Eq => {}
                        EqOutcome::Neq => return false,
                        EqOutcome::Unknown(vs) => {
                            for v in vs {
                                push_unique(pending, v);
                            }
                        }
                    },
                }
            }
            MatchOp::Int(j) => match &g {
                Term::Var(v) => push_unique(pending, *v),
                Term::Int(i) if i == j => {}
                Term::Float(x) if *x == *j as f64 => {}
                _ => return false,
            },
            MatchOp::Float(y) => match &g {
                Term::Var(v) => push_unique(pending, *v),
                Term::Float(x) if x == y => {}
                Term::Int(i) if *y == *i as f64 => {}
                _ => return false,
            },
            MatchOp::Atom(b) => match &g {
                Term::Var(v) => push_unique(pending, *v),
                Term::Atom(a) if a == b => {}
                _ => return false,
            },
            MatchOp::Str(u) => match &g {
                Term::Var(v) => push_unique(pending, *v),
                Term::Str(s) if s == u => {}
                _ => return false,
            },
            MatchOp::Nil => match &g {
                Term::Var(v) => push_unique(pending, *v),
                Term::Nil => {}
                _ => return false,
            },
            MatchOp::Tuple { name, arity, skip } => match &g {
                Term::Var(v) => {
                    push_unique(pending, *v);
                    pc += skip;
                }
                Term::Tuple(n, a) if n == name && a.len() == *arity => {
                    stack.extend(a.iter().rev().cloned());
                }
                _ => return false,
            },
            MatchOp::Cons { skip } => match &g {
                Term::Var(v) => {
                    push_unique(pending, *v);
                    pc += skip;
                }
                Term::List(cell) => {
                    stack.push(cell.1.clone());
                    stack.push(cell.0.clone());
                }
                _ => return false,
            },
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Body templates
// ---------------------------------------------------------------------------

/// A body/placement template. Unlike `Pat`, ground subtrees are pre-built
/// terms cloned in O(1) per instantiation (interior `Arc`s).
#[derive(Clone, Debug)]
pub enum Tmpl {
    Slot(u16),
    Wild,
    /// Pre-built ground subtree shared by every instantiation.
    Const(Term),
    Tuple(Atom, Box<[Tmpl]>),
    Cons(Box<(Tmpl, Tmpl)>),
}

impl Tmpl {
    /// Build a term, allocating fresh store variables for unset slots and
    /// wildcards in the same depth-first left-to-right order as
    /// `Pat::instantiate` — ground subtrees allocate nothing, so skipping
    /// them preserves the allocation sequence exactly.
    pub fn build<S: StoreOps>(&self, frame: &mut Frame, store: &mut S) -> Term {
        match self {
            Tmpl::Slot(i) => {
                let slot = &mut frame.slots[*i as usize];
                match slot {
                    Some(t) => t.clone(),
                    None => {
                        let v = Term::Var(store.new_var());
                        *slot = Some(v.clone());
                        v
                    }
                }
            }
            Tmpl::Wild => Term::Var(store.new_var()),
            Tmpl::Const(t) => t.clone(),
            Tmpl::Tuple(name, args) => {
                Term::tuple_from(*name, args.iter().map(|a| a.build(frame, store)))
            }
            Tmpl::Cons(cell) => Term::cons(cell.0.build(frame, store), cell.1.build(frame, store)),
        }
    }

    /// Read-only build: `None` on an unset slot or a wildcard (mirrors
    /// `Pat::instantiate_ro`).
    pub fn build_ro(&self, frame: &Frame) -> Option<Term> {
        match self {
            Tmpl::Slot(i) => frame.get(*i).cloned(),
            Tmpl::Wild => None,
            Tmpl::Const(t) => Some(t.clone()),
            Tmpl::Tuple(name, args) => {
                let args: Option<Vec<Term>> = args.iter().map(|a| a.build_ro(frame)).collect();
                Some(Term::tuple(*name, args?))
            }
            Tmpl::Cons(cell) => Some(Term::cons(cell.0.build_ro(frame)?, cell.1.build_ro(frame)?)),
        }
    }
}

/// The ground term a pattern denotes, if it contains no slots or wildcards.
fn pat_ground_term(p: &Pat) -> Option<Term> {
    Some(match p {
        Pat::Local(_) | Pat::Wild => return None,
        Pat::Int(i) => Term::Int(*i),
        Pat::Float(x) => Term::Float(*x),
        Pat::Atom(a) => Term::Atom(*a),
        Pat::Str(s) => Term::Str(s.clone()),
        Pat::Nil => Term::Nil,
        Pat::Tuple(name, args) => {
            let args: Option<Vec<Term>> = args.iter().map(pat_ground_term).collect();
            Term::tuple(*name, args?)
        }
        Pat::List(cell) => Term::cons(pat_ground_term(&cell.0)?, pat_ground_term(&cell.1)?),
    })
}

fn lower_tmpl(p: &Pat) -> Tmpl {
    if let Some(t) = pat_ground_term(p) {
        return Tmpl::Const(t);
    }
    match p {
        Pat::Local(i) => Tmpl::Slot(*i),
        Pat::Wild => Tmpl::Wild,
        Pat::Tuple(name, args) => Tmpl::Tuple(*name, args.iter().map(lower_tmpl).collect()),
        Pat::List(cell) => Tmpl::Cons(Box::new((lower_tmpl(&cell.0), lower_tmpl(&cell.1)))),
        // Constant leaves are ground and returned above.
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// A lowered guard test.
#[derive(Clone, Debug)]
pub struct GuardOp {
    /// Slots the guard reads. If any is still unset the rule fails — the
    /// interpreter's `instantiate_ro == None` case — *before* any operand
    /// is evaluated, so no error the interpreter would not surface can leak
    /// out of a specialized evaluator.
    needs: Box<[u16]>,
    kind: GuardKind,
}

#[derive(Clone, Debug)]
enum GuardKind {
    /// `true`.
    True,
    /// The guard pattern contains `_` and can never be instantiated
    /// read-only: the interpreter always fails such a rule.
    AlwaysFail,
    /// `< > =< >=`.
    Cmp {
        op: CmpOp,
        lhs: ArithOperand,
        rhs: ArithOperand,
    },
    /// `==` / `=\=`.
    Eq {
        positive: bool,
        lhs: TermOperand,
        rhs: TermOperand,
    },
    /// `integer/1 float/1 number/1 atom/1 string/1 list/1 tuple/1 data/1`.
    Type { test: TypeTest, arg: TermOperand },
    /// Nonmonotonic `unknown/1`: true iff currently unbound, never
    /// suspends.
    Unknown { arg: TermOperand },
    /// Anything else — including unknown guard names, whose `BadBuiltin`
    /// error must surface only if the guard is actually evaluated: fall
    /// back to the interpreter's instantiate-then-eval path.
    Other(Pat),
}

#[derive(Clone, Copy, Debug)]
enum CmpOp {
    Lt,
    Gt,
    Le,
    Ge,
}

#[derive(Clone, Copy, Debug)]
enum TypeTest {
    Integer,
    Float,
    Number,
    Atom,
    Str,
    List,
    Tuple,
    Data,
}

/// An arithmetic comparison operand.
#[derive(Clone, Debug)]
enum ArithOperand {
    /// A bare rule-local: evaluate the slot's term.
    Slot(u16),
    /// Ground expression pre-folded to a number at lowering time.
    Num(Num),
    /// Ground expression that does not fold cleanly (a type error or
    /// division by zero): kept as a term so the runtime error is identical
    /// to the interpreter's, and only raised if the guard is reached.
    Term(Term),
    /// Non-ground expression rebuilt from slots per evaluation.
    Tmpl(Tmpl),
}

/// A term-valued operand (equality and type-test guards).
#[derive(Clone, Debug)]
enum TermOperand {
    Slot(u16),
    Const(Term),
    Tmpl(Tmpl),
}

fn pat_slots(p: &Pat, out: &mut Vec<u16>) {
    match p {
        Pat::Local(i) if !out.contains(i) => out.push(*i),
        Pat::Local(_) => {}
        Pat::Tuple(_, args) => {
            for a in args.iter() {
                pat_slots(a, out);
            }
        }
        Pat::List(cell) => {
            pat_slots(&cell.0, out);
            pat_slots(&cell.1, out);
        }
        _ => {}
    }
}

fn pat_has_wild(p: &Pat) -> bool {
    match p {
        Pat::Wild => true,
        Pat::Tuple(_, args) => args.iter().any(pat_has_wild),
        Pat::List(cell) => pat_has_wild(&cell.0) || pat_has_wild(&cell.1),
        _ => false,
    }
}

fn lower_arith_operand(p: &Pat) -> ArithOperand {
    if let Some(t) = pat_ground_term(p) {
        return match eval_arith(&t, &Store::new()) {
            Ok(Evaled::Num(n)) => ArithOperand::Num(n),
            _ => ArithOperand::Term(t),
        };
    }
    match p {
        Pat::Local(i) => ArithOperand::Slot(*i),
        _ => ArithOperand::Tmpl(lower_tmpl(p)),
    }
}

fn lower_term_operand(p: &Pat) -> TermOperand {
    if let Some(t) = pat_ground_term(p) {
        return TermOperand::Const(t);
    }
    match p {
        Pat::Local(i) => TermOperand::Slot(*i),
        _ => TermOperand::Tmpl(lower_tmpl(p)),
    }
}

fn lower_guard(p: &Pat) -> GuardOp {
    let mut needs = Vec::new();
    pat_slots(p, &mut needs);
    let needs = needs.into_boxed_slice();
    if pat_has_wild(p) {
        return GuardOp {
            needs,
            kind: GuardKind::AlwaysFail,
        };
    }
    let cmp = |op: CmpOp, args: &[Pat]| GuardKind::Cmp {
        op,
        lhs: lower_arith_operand(&args[0]),
        rhs: lower_arith_operand(&args[1]),
    };
    let ty = |test: TypeTest, args: &[Pat]| GuardKind::Type {
        test,
        arg: lower_term_operand(&args[0]),
    };
    let kind = match p {
        Pat::Atom(sym::TRUE) => GuardKind::True,
        Pat::Tuple(name, args) => match (*name, args.len()) {
            (sym::LT, 2) => cmp(CmpOp::Lt, args),
            (sym::GT, 2) => cmp(CmpOp::Gt, args),
            (sym::LE, 2) => cmp(CmpOp::Le, args),
            (sym::GE, 2) => cmp(CmpOp::Ge, args),
            (sym::EQ, 2) | (sym::NEQ, 2) => GuardKind::Eq {
                positive: *name == sym::EQ,
                lhs: lower_term_operand(&args[0]),
                rhs: lower_term_operand(&args[1]),
            },
            (sym::INTEGER, 1) => ty(TypeTest::Integer, args),
            (sym::FLOAT, 1) => ty(TypeTest::Float, args),
            (sym::NUMBER, 1) => ty(TypeTest::Number, args),
            (sym::ATOM, 1) => ty(TypeTest::Atom, args),
            (sym::STRING, 1) => ty(TypeTest::Str, args),
            (sym::LIST, 1) => ty(TypeTest::List, args),
            (sym::TUPLE, 1) => ty(TypeTest::Tuple, args),
            (sym::DATA, 1) => ty(TypeTest::Data, args),
            (sym::UNKNOWN, 1) => GuardKind::Unknown {
                arg: lower_term_operand(&args[0]),
            },
            _ => GuardKind::Other(p.clone()),
        },
        _ => GuardKind::Other(p.clone()),
    };
    GuardOp { needs, kind }
}

enum GuardStep {
    Pass,
    Fail,
    /// Variables already merged into the caller's pending set.
    Suspend,
}

fn eval_operand<S: StoreOps>(op: &ArithOperand, frame: &Frame, store: &S) -> StrandResult<Evaled> {
    match op {
        ArithOperand::Slot(i) => eval_arith(frame.get(*i).expect("needs-checked"), store),
        ArithOperand::Num(n) => Ok(Evaled::Num(*n)),
        ArithOperand::Term(t) => eval_arith(t, store),
        ArithOperand::Tmpl(t) => {
            let term = t
                .build_ro(frame)
                .expect("needs-checked, wilds lowered to AlwaysFail");
            eval_arith(&term, store)
        }
    }
}

fn materialize(op: &TermOperand, frame: &Frame) -> Term {
    match op {
        TermOperand::Slot(i) => frame.get(*i).expect("needs-checked").clone(),
        TermOperand::Const(t) => t.clone(),
        TermOperand::Tmpl(t) => t
            .build_ro(frame)
            .expect("needs-checked, wilds lowered to AlwaysFail"),
    }
}

fn eval_guard_op<S: StoreOps>(
    g: &GuardOp,
    frame: &Frame,
    store: &S,
    pending: &mut Vec<VarId>,
) -> StrandResult<GuardStep> {
    if g.needs.iter().any(|i| frame.get(*i).is_none()) {
        return Ok(GuardStep::Fail);
    }
    match &g.kind {
        GuardKind::True => Ok(GuardStep::Pass),
        GuardKind::AlwaysFail => Ok(GuardStep::Fail),
        GuardKind::Cmp { op, lhs, rhs } => {
            let l = eval_operand(lhs, frame, store)?;
            let r = eval_operand(rhs, frame, store)?;
            match (l, r) {
                (Evaled::Num(a), Evaled::Num(b)) => {
                    let (a, b) = (a.as_f64(), b.as_f64());
                    let ok = match op {
                        CmpOp::Lt => a < b,
                        CmpOp::Gt => a > b,
                        CmpOp::Le => a <= b,
                        CmpOp::Ge => a >= b,
                    };
                    Ok(if ok { GuardStep::Pass } else { GuardStep::Fail })
                }
                (l, r) => {
                    if let Evaled::Suspend(vs) = l {
                        for v in vs {
                            push_unique(pending, v);
                        }
                    }
                    if let Evaled::Suspend(vs) = r {
                        for v in vs {
                            push_unique(pending, v);
                        }
                    }
                    Ok(GuardStep::Suspend)
                }
            }
        }
        GuardKind::Eq { positive, lhs, rhs } => {
            let a = materialize(lhs, frame);
            let b = materialize(rhs, frame);
            match term_eq(&a, &b, store) {
                EqOutcome::Eq => Ok(if *positive {
                    GuardStep::Pass
                } else {
                    GuardStep::Fail
                }),
                EqOutcome::Neq => Ok(if *positive {
                    GuardStep::Fail
                } else {
                    GuardStep::Pass
                }),
                EqOutcome::Unknown(vs) => {
                    for v in vs {
                        push_unique(pending, v);
                    }
                    Ok(GuardStep::Suspend)
                }
            }
        }
        GuardKind::Type { test, arg } => {
            let t = store.deref(&materialize(arg, frame));
            if let Term::Var(v) = t {
                push_unique(pending, v);
                return Ok(GuardStep::Suspend);
            }
            let ok = match test {
                TypeTest::Integer => matches!(t, Term::Int(_)),
                TypeTest::Float => matches!(t, Term::Float(_)),
                TypeTest::Number => t.is_number(),
                TypeTest::Atom => matches!(t, Term::Atom(_)),
                TypeTest::Str => matches!(t, Term::Str(_)),
                TypeTest::List => matches!(t, Term::List(_) | Term::Nil),
                TypeTest::Tuple => matches!(t, Term::Tuple(_, _)),
                TypeTest::Data => true,
            };
            Ok(if ok { GuardStep::Pass } else { GuardStep::Fail })
        }
        GuardKind::Unknown { arg } => {
            let t = store.deref(&materialize(arg, frame));
            Ok(if t.is_var() {
                GuardStep::Pass
            } else {
                GuardStep::Fail
            })
        }
        GuardKind::Other(pat) => {
            let Some(gterm) = pat.instantiate_ro(frame) else {
                return Ok(GuardStep::Fail);
            };
            match eval_guard(&gterm, store)? {
                GuardOutcome::True => Ok(GuardStep::Pass),
                GuardOutcome::False => Ok(GuardStep::Fail),
                GuardOutcome::Suspend(vs) => {
                    for v in vs {
                        push_unique(pending, v);
                    }
                    Ok(GuardStep::Suspend)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rules, procedures, program
// ---------------------------------------------------------------------------

/// A lowered body call.
#[derive(Clone, Debug)]
pub struct ExecCall {
    pub goal: Tmpl,
    /// `Some(expr)` for `Goal@expr` placements.
    pub placement: Option<Tmpl>,
}

/// A rule lowered to direct-threaded form.
#[derive(Clone, Debug)]
pub struct ExecRule {
    /// First-argument index key; `None` = the rule is never filtered.
    pub key: Option<IndexKey>,
    pub ops: Box<[MatchOp]>,
    pub guards: Box<[GuardOp]>,
    pub body: Box<[ExecCall]>,
    pub n_locals: u16,
}

/// A lowered procedure.
#[derive(Clone, Debug)]
pub struct ExecProc {
    pub name: Atom,
    pub arity: usize,
    /// Non-`otherwise` rules, in source order.
    pub rules: Box<[ExecRule]>,
    /// The first `otherwise` rule, if any — the machine only ever tries the
    /// first, matching the interpreter.
    pub otherwise: Option<Box<ExecRule>>,
    /// At least one rule carries an index key, so the first argument
    /// selects the arm of `switch` to walk.
    pub indexed: bool,
    pub switch: Switch,
}

/// A whole program in lowered form, keyed by symbol: a lookup hashes one
/// `u32`.
#[derive(Clone, Debug, Default)]
pub struct ExecProgram {
    procs: FxHashMap<Atom, Vec<ExecProc>>,
}

impl ExecProgram {
    /// Lower every procedure of a compiled program.
    pub fn lower(program: &CompiledProgram) -> ExecProgram {
        let mut out = ExecProgram::default();
        for proc in program.procs() {
            let lowered = lower_proc(Atom::new(&proc.name), proc.arity, &proc.rules);
            out.procs.entry(lowered.name).or_default().push(lowered);
        }
        out
    }

    /// Look up a procedure by symbol and arity.
    pub fn lookup(&self, name: Atom, arity: usize) -> Option<&ExecProc> {
        self.procs.get(&name)?.iter().find(|p| p.arity == arity)
    }
}

/// Derive an index key from a leading `Arg == const` guard.
///
/// Guard-dispatched tables — `p(K, …) :- K == 3 | …` with a bare-variable
/// head — are how motif programs encode decision tables, and without help
/// every clause pays a full match-plus-guard evaluation per goal. When the
/// first head argument is pinned to a ground constant by the rule's *first*
/// guard, the rule admits exactly the same goals as one with that constant
/// in head position, so it can ride the first-argument index.
///
/// Exactness demands two conditions:
/// * the head must be a pure binder — pairwise-distinct fresh variables or
///   wildcards only — so matching can neither fail nor suspend and the
///   first guard really is the rule's first chance to reject a goal;
/// * the `==` guard must be the first guard, so no earlier guard can
///   suspend before the rejection. The guard itself never suspends when
///   the argument is bound (the other side is ground), and an unbound
///   argument always admits.
fn guard_derived_key(rule: &CompiledRule) -> Option<IndexKey> {
    let mut seen: Vec<u16> = Vec::new();
    for h in &rule.head {
        match h {
            Pat::Wild => {}
            Pat::Local(i) => {
                if seen.contains(i) {
                    return None;
                }
                seen.push(*i);
            }
            _ => return None,
        }
    }
    let slot = match rule.head.first()? {
        Pat::Local(i) => *i,
        _ => return None,
    };
    let args = match rule.guards.first()? {
        Pat::Tuple(sym::EQ, args) if args.len() == 2 => args,
        _ => return None,
    };
    let is_slot = |p: &Pat| matches!(p, Pat::Local(j) if *j == slot);
    let const_key = |p: &Pat| match p {
        Pat::Int(i) => Some(IndexKey::Int(*i)),
        Pat::Float(x) => Some(IndexKey::Float(*x)),
        Pat::Atom(a) => Some(IndexKey::Atom(*a)),
        Pat::Str(s) => Some(IndexKey::Str(s.clone())),
        Pat::Nil => Some(IndexKey::Nil),
        _ => None,
    };
    if is_slot(&args[0]) {
        const_key(&args[1])
    } else if is_slot(&args[1]) {
        const_key(&args[0])
    } else {
        None
    }
}

fn lower_rule(rule: &CompiledRule) -> ExecRule {
    let key = rule
        .head
        .first()
        .and_then(IndexKey::of)
        .or_else(|| guard_derived_key(rule));
    let mut ops = Vec::new();
    for h in &rule.head {
        lower_match(h, &mut ops);
    }
    ExecRule {
        key,
        ops: ops.into_boxed_slice(),
        guards: rule.guards.iter().map(lower_guard).collect(),
        body: rule
            .body
            .iter()
            .map(|c| ExecCall {
                goal: lower_tmpl(&c.goal),
                placement: c.placement.as_ref().map(lower_tmpl),
            })
            .collect(),
        n_locals: rule.n_locals,
    }
}

fn lower_proc(name: Atom, arity: usize, rules: &[CompiledRule]) -> ExecProc {
    let mut lowered = Vec::new();
    let mut otherwise = None;
    for r in rules {
        if r.otherwise {
            if otherwise.is_none() {
                otherwise = Some(Box::new(lower_rule(r)));
            }
        } else {
            lowered.push(lower_rule(r));
        }
    }
    let indexed = lowered.iter().any(|r| r.key.is_some());
    let switch = Switch::build(&lowered);
    ExecProc {
        name,
        arity,
        rules: lowered.into_boxed_slice(),
        otherwise,
        indexed,
        switch,
    }
}

// ---------------------------------------------------------------------------
// Rule attempt
// ---------------------------------------------------------------------------

/// Outcome of one compiled rule attempt. On `Suspend` the variables are in
/// `scratch.rule_pending`; on `Commit` the bindings are in `scratch.frame`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TryResult {
    Commit,
    Fail,
    Suspend,
}

/// Attempt one lowered rule: match the head, then evaluate the guards.
/// Mirrors the interpreter's attempt (`TierRule for CompiledRule` in
/// `tier.rs`) exactly, including the rule that a match-time suspension
/// returns before any guard runs.
pub fn try_rule<S: StoreOps>(
    rule: &ExecRule,
    args: &[Term],
    store: &S,
    scratch: &mut Scratch,
) -> StrandResult<TryResult> {
    scratch.rule_pending.clear();
    scratch.frame.reset(rule.n_locals);
    if !run_match(
        &rule.ops,
        args,
        store,
        &mut scratch.frame,
        &mut scratch.rule_pending,
        &mut scratch.stack,
    ) {
        return Ok(TryResult::Fail);
    }
    if !scratch.rule_pending.is_empty() {
        return Ok(TryResult::Suspend);
    }
    for g in rule.guards.iter() {
        match eval_guard_op(g, &scratch.frame, store, &mut scratch.rule_pending)? {
            GuardStep::Pass => {}
            GuardStep::Fail => return Ok(TryResult::Fail),
            GuardStep::Suspend => {}
        }
    }
    if scratch.rule_pending.is_empty() {
        Ok(TryResult::Commit)
    } else {
        Ok(TryResult::Suspend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_core::matching::{match_args, MatchOutcome};
    use strand_core::{NodeId, Store};
    use strand_parse::{compile_program, parse_program};

    fn lower_first_rule(src: &str, name: &str, arity: usize) -> ExecRule {
        let p = compile_program(&parse_program(src).unwrap()).unwrap();
        lower_rule(&p.get(name, arity).unwrap().rules[0])
    }

    fn attempt(rule: &ExecRule, args: &[Term], store: &Store) -> (TryResult, Vec<VarId>) {
        let mut scratch = Scratch::default();
        let r = try_rule(rule, args, store, &mut scratch).unwrap();
        (r, scratch.rule_pending.clone())
    }

    // -- first-argument indexing ------------------------------------------

    #[test]
    fn var_headed_first_args_have_no_key() {
        let r = lower_first_rule("f(X, Y) :- g(X, Y).", "f", 2);
        assert_eq!(r.key, None);
        let r = lower_first_rule("f(_, Y) :- g(Y).", "f", 2);
        assert_eq!(r.key, None);
    }

    #[test]
    fn zero_arity_rules_have_no_key() {
        let r = lower_first_rule("boot :- go(1).", "boot", 0);
        assert_eq!(r.key, None);
    }

    #[test]
    fn constructor_keys_and_admission() {
        let r = lower_first_rule("f([H|T]) :- g(H, T).", "f", 1);
        let key = r.key.clone().unwrap();
        assert_eq!(key, IndexKey::Cons);
        assert!(key.admits(&Term::cons(Term::int(1), Term::Nil)));
        assert!(!key.admits(&Term::Nil));
        // An unbound goal variable must never be filtered out: the rule has
        // to get its chance to *suspend* on it.
        assert!(key.admits(&Term::Var(VarId(7))));

        let r = lower_first_rule("g(probe(K)) :- h(K).", "g", 1);
        let key = r.key.clone().unwrap();
        assert_eq!(key, IndexKey::Tuple(Atom::new("probe"), 1));
        assert!(key.admits(&Term::tuple("probe", vec![Term::int(1)])));
        assert!(!key.admits(&Term::tuple("probe", vec![Term::int(1), Term::int(2)])));
        assert!(!key.admits(&Term::atom("probe")));
    }

    #[test]
    fn numeric_keys_admit_cross_type_equality() {
        // match_one lets Pat::Int(0) match Term::Float(0.0) and vice versa;
        // the index must not be stricter than the match.
        let r = lower_first_rule("f(0) :- g.", "f", 1);
        let key = r.key.clone().unwrap();
        assert!(key.admits(&Term::int(0)));
        assert!(key.admits(&Term::float(0.0)));
        assert!(!key.admits(&Term::float(0.5)));
        let r = lower_first_rule("f(2.0) :- g.", "f", 1);
        let key = r.key.clone().unwrap();
        assert!(key.admits(&Term::int(2)));
        assert!(!key.admits(&Term::int(3)));
    }

    #[test]
    fn ports_admit_nothing() {
        let r = lower_first_rule("f(a) :- g.", "f", 1);
        assert!(!r.key.clone().unwrap().admits(&Term::Port(3)));
    }

    #[test]
    fn otherwise_rules_are_segregated() {
        let p = compile_program(
            &parse_program("f(X) :- X > 0 | pos.\nf(_) :- otherwise | neg.").unwrap(),
        )
        .unwrap();
        let proc = p.get("f", 1).unwrap();
        let lowered = lower_proc(Atom::new("f"), 1, &proc.rules);
        assert_eq!(lowered.rules.len(), 1);
        assert!(lowered.otherwise.is_some());
    }

    // -- the switch table against its specification, `admits` -------------

    /// A procedure whose rules carry `keys` and nothing else.
    fn keyed(keys: &[Option<IndexKey>]) -> Vec<ExecRule> {
        keys.iter()
            .map(|key| ExecRule {
                key: key.clone(),
                ops: Box::new([]),
                guards: Box::new([]),
                body: Box::new([]),
                n_locals: 0,
            })
            .collect()
    }

    /// What a walk over every rule that tests each key with `admits` does:
    /// the rules it tries, each with how many it skipped just before, and
    /// how many it skipped after the last.
    fn linear_walk(rules: &[ExecRule], arg: &Term) -> (Vec<Cand>, u32) {
        let mut cands = Vec::new();
        let mut skipped = 0;
        for (rule, r) in (0..).zip(rules) {
            if r.key.as_ref().is_some_and(|k| !k.admits(arg)) {
                skipped += 1;
            } else {
                cands.push(Cand { rule, skipped });
                skipped = 0;
            }
        }
        (cands, skipped)
    }

    const TWO_53: i64 = 1 << 53;

    /// Keys that collide in every way `admits` distinguishes: integers
    /// equal as floats but not as integers (beyond 2^53), floats equal to
    /// integers, `0.0` and `-0.0`, a NaN, and each constructor kind.
    fn key_pool() -> Vec<Option<IndexKey>> {
        vec![
            None,
            Some(IndexKey::Int(0)),
            Some(IndexKey::Int(3)),
            Some(IndexKey::Int(-1)),
            Some(IndexKey::Int(TWO_53)),
            Some(IndexKey::Int(TWO_53 + 1)),
            Some(IndexKey::Int(i64::MAX)),
            Some(IndexKey::Int(i64::MIN)),
            Some(IndexKey::Float(0.0)),
            Some(IndexKey::Float(-0.0)),
            Some(IndexKey::Float(3.0)),
            Some(IndexKey::Float(0.5)),
            Some(IndexKey::Float(TWO_53 as f64)),
            Some(IndexKey::Float(i64::MAX as f64)),
            Some(IndexKey::Float(f64::NAN)),
            Some(IndexKey::Atom(Atom::new("a"))),
            Some(IndexKey::Atom(Atom::new("b"))),
            Some(IndexKey::Str(Arc::from("a"))),
            Some(IndexKey::Nil),
            Some(IndexKey::Cons),
            Some(IndexKey::Tuple(Atom::new("a"), 1)),
            Some(IndexKey::Tuple(Atom::new("a"), 2)),
            Some(IndexKey::Tuple(Atom::new("b"), 1)),
        ]
    }

    /// First arguments: one of each kind the keys meet, an unbound
    /// variable, a port, and numbers on both sides of every collision.
    fn arg_pool() -> Vec<Term> {
        let mut args = vec![
            Term::Var(VarId(0)),
            Term::Port(1),
            Term::Float(f64::NAN),
            Term::Float(1e300),
            Term::Int(7),
            Term::atom("a"),
            Term::atom("c"),
            Term::str("a"),
            Term::str("b"),
            Term::Nil,
            Term::cons(Term::Nil, Term::Nil),
            Term::tuple("a", vec![Term::Nil]),
            Term::tuple("a", vec![Term::Nil, Term::Nil]),
            Term::tuple("c", vec![Term::Nil]),
        ];
        for i in [0, 3, -1, TWO_53, TWO_53 + 1, TWO_53 - 1, i64::MAX, i64::MIN] {
            args.push(Term::Int(i));
            args.push(Term::Float(i as f64));
        }
        args.extend([-0.0, 0.5, 3.5].map(Term::Float));
        args
    }

    #[test]
    fn every_argument_against_every_key_gets_the_linear_walks_arm() {
        let rules = keyed(&key_pool());
        let switch = Switch::build(&rules);
        for arg in arg_pool() {
            let arm = switch.arm(&arg);
            assert_eq!(
                (arm.cands.to_vec(), arm.tail),
                linear_walk(&rules, &arg),
                "{arg}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Random key sets — repeats, any order, unkeyed rules anywhere —
        /// against every argument: the arm holds exactly the rules
        /// `admits` lets through, with the skip counts a linear walk
        /// records.
        #[test]
        fn switch_arms_select_exactly_what_admits_lets_through(
            picks in proptest::collection::vec(0..key_pool().len(), 0..24)
        ) {
            let pool = key_pool();
            let keys: Vec<Option<IndexKey>> = picks.iter().map(|&i| pool[i].clone()).collect();
            let rules = keyed(&keys);
            let switch = Switch::build(&rules);
            for arg in arg_pool() {
                let arm = switch.arm(&arg);
                proptest::prop_assert_eq!(
                    (arm.cands.to_vec(), arm.tail),
                    linear_walk(&rules, &arg),
                    "{} with keys {:?}", arg, keys
                );
            }
            proptest::prop_assert_eq!(switch.all().cands.len(), rules.len());
        }
    }

    // -- match op execution vs the interpreter ----------------------------

    fn assert_same_as_interpreter(src: &str, name: &str, args: &[Term], store: &Store) {
        let p = compile_program(&parse_program(src).unwrap()).unwrap();
        let rule = &p.get(name, args.len()).unwrap().rules[0];
        let exec = lower_rule(rule);
        let mut frame = Frame::with_locals(rule.n_locals);
        let interp = match_args(args, &rule.head, store, &mut frame);
        let mut scratch = Scratch::default();
        scratch.frame.reset(rule.n_locals);
        let ok = run_match(
            &exec.ops,
            args,
            store,
            &mut scratch.frame,
            &mut scratch.rule_pending,
            &mut scratch.stack,
        );
        match interp {
            MatchOutcome::Fail => assert!(!ok, "{src}: interpreter failed, compiled did not"),
            MatchOutcome::Match => {
                assert!(ok && scratch.rule_pending.is_empty(), "{src}: should match");
                assert_eq!(frame.slots, scratch.frame.slots, "{src}: frames diverge");
            }
            MatchOutcome::Suspend(vs) => {
                assert!(ok, "{src}: interpreter suspended, compiled failed");
                assert_eq!(vs, scratch.rule_pending, "{src}: suspension sets diverge");
            }
        }
    }

    #[test]
    fn compiled_match_mirrors_interpreter() {
        let mut store = Store::new();
        let v = store.new_var();
        let cases: Vec<(&str, &str, Vec<Term>)> = vec![
            (
                "f(tree(L, R), A) :- g(L, R, A).",
                "f",
                vec![
                    Term::tuple("tree", vec![Term::int(1), Term::int(2)]),
                    Term::atom("x"),
                ],
            ),
            (
                "f(tree(L, R), A) :- g(L, R, A).",
                "f",
                vec![Term::Var(v), Term::atom("x")],
            ),
            ("f([H|T]) :- g(H, T).", "f", vec![Term::Nil]),
            (
                "f([H|T]) :- g(H, T).",
                "f",
                vec![Term::cons(Term::Var(v), Term::Nil)],
            ),
            ("f(1, 2.0) :- g.", "f", vec![Term::int(1), Term::int(2)]),
            ("f(1, 2.0) :- g.", "f", vec![Term::float(1.0), Term::Var(v)]),
            ("f(X, X) :- g(X).", "f", vec![Term::int(1), Term::int(1)]),
            ("f(X, X) :- g(X).", "f", vec![Term::int(1), Term::int(2)]),
            ("f(X, X) :- g(X).", "f", vec![Term::int(1), Term::Var(v)]),
        ];
        for (src, name, args) in cases {
            assert_same_as_interpreter(src, name, &args, &store);
        }
    }

    #[test]
    fn suspension_skipped_subtree_leaves_later_occurrence_to_set() {
        // Head f(g(X), X) against goal f(V, 5) with V unbound: the first
        // occurrence of X sits inside the skipped subtree, so the second
        // occurrence must *set* the slot, not compare against it. This is
        // why Slot is a dynamic set-or-compare op.
        let mut store = Store::new();
        let v = store.new_var();
        assert_same_as_interpreter(
            "f(g(X), X) :- h(X).",
            "f",
            &[Term::Var(v), Term::int(5)],
            &store,
        );
    }

    #[test]
    fn port_goal_fails_constructor_ops() {
        let store = Store::new();
        let r = lower_first_rule("f([H|T]) :- g(H, T).", "f", 1);
        let (res, _) = attempt(&r, &[Term::Port(1)], &store);
        assert_eq!(res, TryResult::Fail);
    }

    // -- guards -----------------------------------------------------------

    #[test]
    fn guard_comparisons_and_suspension() {
        let mut store = Store::new();
        let r = lower_first_rule("f(N) :- N > 0 | g(N).", "f", 1);
        assert_eq!(attempt(&r, &[Term::int(3)], &store).0, TryResult::Commit);
        assert_eq!(attempt(&r, &[Term::int(-1)], &store).0, TryResult::Fail);
        let v = store.new_var();
        let (res, pend) = attempt(&r, &[Term::Var(v)], &store);
        assert_eq!(res, TryResult::Suspend);
        assert_eq!(pend, vec![v]);
    }

    #[test]
    fn ground_guard_operands_prefold() {
        let store = Store::new();
        let r = lower_first_rule("f(N) :- N < 1 + 2 | g.", "f", 1);
        assert_eq!(attempt(&r, &[Term::int(2)], &store).0, TryResult::Commit);
        assert_eq!(attempt(&r, &[Term::int(3)], &store).0, TryResult::Fail);
    }

    #[test]
    fn unknown_guard_name_errors_only_when_reached() {
        let store = Store::new();
        // Lowering must not reject the program: the interpreter surfaces
        // BadBuiltin only when the rule's guards actually run.
        let r = lower_first_rule("f(a) :- frobnicate(1) | g.", "f", 1);
        let mut scratch = Scratch::default();
        assert!(try_rule(&r, &[Term::atom("b")], &store, &mut scratch).is_ok());
        assert!(try_rule(&r, &[Term::atom("a")], &store, &mut scratch).is_err());
    }

    #[test]
    fn type_tests_suspend_on_unbound() {
        let mut store = Store::new();
        let r = lower_first_rule("f(X) :- integer(X) | g.", "f", 1);
        assert_eq!(attempt(&r, &[Term::int(1)], &store).0, TryResult::Commit);
        assert_eq!(attempt(&r, &[Term::atom("a")], &store).0, TryResult::Fail);
        let v = store.new_var();
        assert_eq!(attempt(&r, &[Term::Var(v)], &store).0, TryResult::Suspend);
    }

    // -- body templates ---------------------------------------------------

    #[test]
    fn ground_body_subtrees_are_prebuilt() {
        let p = compile_program(&parse_program("f(X) :- g(X, h(1, [a, b])).").unwrap()).unwrap();
        let r = lower_rule(&p.get("f", 1).unwrap().rules[0]);
        let Tmpl::Tuple(_, args) = &r.body[0].goal else {
            panic!("expected tuple template");
        };
        assert!(matches!(&args[0], Tmpl::Slot(_)));
        assert!(matches!(&args[1], Tmpl::Const(_)));
    }

    #[test]
    fn tmpl_build_matches_pat_instantiate_var_order() {
        let p =
            compile_program(&parse_program("f(A) :- g(A, X, h(Y, 1), _, X).").unwrap()).unwrap();
        let rule = &p.get("f", 1).unwrap().rules[0];
        let exec = lower_rule(rule);

        let mut store1 = Store::new();
        let mut frame1 = Frame::with_locals(rule.n_locals);
        frame1.set(0, Term::int(9));
        let want = rule.body[0].goal.instantiate(&mut frame1, &mut store1);

        let mut store2 = Store::new();
        let mut frame2 = Frame::with_locals(rule.n_locals);
        frame2.set(0, Term::int(9));
        let got = exec.body[0].goal.build(&mut frame2, &mut store2);

        assert_eq!(want, got);
        assert_eq!(store1.len(), store2.len());
        let _ = NodeId(0);
    }
}
