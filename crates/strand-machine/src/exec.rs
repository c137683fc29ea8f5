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
//! * guards become [`GuardOp`]s: the slots a guard reads, checked before
//!   anything is evaluated, and its operands as slot reads, ground terms
//!   built once (a comparison's folded to its number) or templates, so no
//!   guard tuple is built per attempt. What a guard test means is
//!   [`guard_test`]'s alone, for the interpreter too: this tier hands it
//!   at most two materialized operands, and it is generic over
//!   [`StoreOps`], so both stores monomorphize it;
//! * body goals become [`GoalTmpl`]s over [`Tmpl`] templates whose ground
//!   subtrees are pre-built `Term`s shared by every instantiation — match
//!   and instantiate are fused through one slot [`Frame`] with no
//!   intermediate structure rebuilt per reduction; a call is built into an
//!   argument block the goal owns, and each tuple a template does build is
//!   one shared block, each filled in place from its arguments — a block
//!   of its kind a consumed goal handed back to the [`BlockPool`] when
//!   there is one, a new heap block otherwise;
//! * the right-hand side of a `:=` that is an arithmetic tuple becomes a
//!   [`Tmpl::Arith`]: when every leaf is bound to a number as the body is
//!   spawned, the goal is built with the expression's value (`N1 := 49999`,
//!   one block), and otherwise with the tuple, exactly as any template.
//!
//! Functor and guard names are [`Atom`] symbols throughout: a match op
//! compares ids, [`guard_test`] switches on [`strand_core::sym`] constants,
//! and [`ExecProgram::lookup`] hashes one `u32`.
//!
//! The interpreter in `tier.rs` remains the semantic reference. This
//! module must be *observably identical* to it: same suspension variable
//! sets in the same order, same fresh-variable allocation order, same
//! errors surfaced at the same time. The conformance suite diffs the two
//! tiers bit-for-bit (see `tests/conformance.rs`). Two renderings of a
//! folded `:=` show its value where the interpreter shows the expression:
//! a traced `Reduce`/`Spawn` goal text, and a `DoubleAssign`'s
//! `attempted` value.

use std::sync::Arc;

use strand_core::arith::{apply_op, is_arith_expr, is_arith_op, Evaled};
use strand_core::matching::{term_eq, EqOutcome};
use strand_core::{
    eval_arith, eval_guard, guard_test, sym, Atom, Frame, FxHashMap, GuardOutcome, Num, Pat, Store,
    StoreOps, StrandResult, Term, VarId,
};
use strand_parse::{CompiledProgram, CompiledRule};

use crate::world::Goal;

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
#[derive(Debug, Default)]
pub struct Scratch {
    /// Rule-local slot bindings, reset (capacity kept) per rule attempt.
    pub frame: Frame,
    /// Suspension variables accumulated across a goal's rule attempts.
    pub pending: Vec<VarId>,
    /// Suspension variables of the current rule attempt only.
    pub rule_pending: Vec<VarId>,
    /// Explicit term stack driving [`run_match`].
    pub stack: Vec<Term>,
    /// Argument blocks of the goals this machine has reduced, for
    /// `GoalTmpl::build` to fill again.
    pub pool: BlockPool,
}

/// The largest arity whose blocks a [`BlockPool`] keeps; wider goals and
/// tuples are allocated and freed as before.
const POOLED_ARITIES: usize = 8;

/// The most blocks a [`BlockPool`] keeps of one kind and arity. Unbounded,
/// the pool peaks at 6 blocks on `eval-chain`, where builds and hand-backs
/// alternate, but grows with the input where one arity is handed back and
/// another built: to thousands on `dispatch-tree` (every `tree/3` and
/// `combine/4` block) and `motif-tree-par`. Past 64 a larger cap saves
/// under 0.5 % of the allocations an unbounded pool saves on either, and
/// a full pool holds about 64 KB of each kind.
const POOL_CAP: usize = 64;

/// Argument blocks of goals a reduction is done with, by arity, each
/// holding nothing but `[]`s. A reduction's goals are built, reduced once
/// and dropped — on `eval-chain` every block lived for one reduction — so
/// handing the blocks back lets the next build overwrite them instead of
/// asking the allocator, and on a fleet a block built on one shard and
/// reduced on another is kept by the consumer, while its pool has room,
/// instead of freed across threads.
///
/// A goal's own block is owned (`Box`): it has one owner by construction,
/// and goes in and out with no test. A nested tuple's block is an `Arc`,
/// which a frame, the store or another shard may share, so it is taken
/// back only where the goal held the last reference.
///
/// Deliberately not `Clone`: a clone would share the pooled tuple blocks,
/// and [`Tmpl::build`] counts on being their only owner.
#[derive(Debug, Default)]
pub struct BlockPool {
    /// Goal blocks of `n` arguments at `goals[n - 1]`.
    goals: [Vec<Box<[Term]>>; POOLED_ARITIES],
    /// Nested tuple blocks of `n` arguments at `tuples[n - 1]`.
    tuples: [Vec<Arc<[Term]>>; POOLED_ARITIES],
}

/// The free list of blocks of `arity` arguments, if the pool keeps them.
fn of_arity<B>(free: &mut [Vec<B>; POOLED_ARITIES], arity: usize) -> Option<&mut Vec<B>> {
    free.get_mut(arity.checked_sub(1)?)
}

impl BlockPool {
    /// The call `name(args…)` of `arity` arguments, `arg(i, pool)` building
    /// the `i`th of them in order: in a block a reduced goal handed back
    /// when there is one, else in a new one.
    pub(crate) fn goal(
        &mut self,
        name: Atom,
        arity: usize,
        mut arg: impl FnMut(usize, &mut BlockPool) -> Term,
    ) -> Goal {
        let args = match of_arity(&mut self.goals, arity).and_then(Vec::pop) {
            Some(mut block) => {
                for (i, slot) in block.iter_mut().enumerate() {
                    *slot = arg(i, self);
                }
                block
            }
            None => (0..arity).map(|i| arg(i, self)).collect(),
        };
        Goal::Call { name, args }
    }

    /// Hand back a goal the reduction is done with: its own block, and
    /// every nested tuple's where the goal held the last reference —
    /// exactly the blocks dropping it would free — and the rest is
    /// dropped. Lists are dropped, not walked: their spines are unlinked by
    /// `Cons`'s own drop.
    pub(crate) fn recycle(&mut self, goal: Goal) {
        match goal {
            Goal::Call { mut args, .. } => {
                self.empty(&mut args);
                let free = of_arity(&mut self.goals, args.len());
                if let Some(free) = free.filter(|free| free.len() < POOL_CAP) {
                    free.push(args);
                }
            }
            Goal::Term(Term::Tuple(_, block)) => self.recycle_tuple(block),
            Goal::Term(_) => {}
        }
    }

    /// Take a nested tuple's block if nothing else holds it: `Arc::get_mut`
    /// is the test, so a block still bound in the store, held by a
    /// suspended goal or a frame, or read by another shard is never taken.
    fn recycle_tuple(&mut self, mut block: Arc<[Term]>) {
        let Some(args) = Arc::get_mut(&mut block) else {
            return;
        };
        self.empty(args);
        let free = of_arity(&mut self.tuples, args.len());
        if let Some(free) = free.filter(|free| free.len() < POOL_CAP) {
            free.push(block);
        }
    }

    /// Set every argument to `[]`, taking back the nested tuples' blocks.
    fn empty(&mut self, args: &mut [Term]) {
        for arg in args.iter_mut() {
            if let Term::Tuple(_, inner) = std::mem::replace(arg, Term::Nil) {
                self.recycle_tuple(inner);
            }
        }
    }
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
    /// Some `Float` key admits integers, so an integer no `Int` key equals
    /// is looked up a second time, by its value as a float. Without one,
    /// an integer costs one probe.
    int_as_float: bool,
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
        let mut int_as_float = false;
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
                    int_as_float = true;
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
            int_as_float,
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
            Term::Int(i) => match self.table.get(&Ctor::Int(*i)) {
                None if self.int_as_float => {
                    self.table.get(&Ctor::IntAsFloat(float_bits(*i as f64)))
                }
                found => found,
            },
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
    /// The arithmetic tuple on the right of a `:=`: built as the number it
    /// evaluates to when every leaf is bound to one, else as `Tuple`.
    Arith(Atom, Box<[Tmpl]>),
}

fn number(t: &Term) -> Option<Num> {
    match t {
        Term::Int(i) => Some(Num::Int(*i)),
        Term::Float(x) => Some(Num::Float(*x)),
        _ => None,
    }
}

/// A nested tuple of `args`' builds, in a block from `pool` when one of
/// its arity is there.
fn build_tuple<S: StoreOps>(
    name: Atom,
    args: &[Tmpl],
    frame: &mut Frame,
    store: &mut S,
    pool: &mut BlockPool,
) -> Term {
    match of_arity(&mut pool.tuples, args.len()).and_then(Vec::pop) {
        Some(mut block) => {
            let slots = Arc::get_mut(&mut block).expect("a pooled block has one owner");
            for (slot, a) in slots.iter_mut().zip(args.iter()) {
                *slot = a.build(frame, store, pool);
            }
            Term::Tuple(name, block)
        }
        None => Term::tuple_from(name, args.iter().map(|a| a.build(frame, store, pool))),
    }
}

/// A body goal's template.
#[derive(Clone, Debug)]
pub enum GoalTmpl {
    /// A call, built into a goal block of its own.
    Call(Atom, Box<[Tmpl]>),
    /// A metacall: the goal is whatever the template builds.
    Term(Tmpl),
}

impl GoalTmpl {
    /// Build the goal, allocating fresh store variables in
    /// `Pat::instantiate`'s order (see [`Tmpl::build`]). A call's
    /// arguments fill a goal block from `pool` in place when one of its
    /// arity is there.
    pub(crate) fn build<S: StoreOps>(
        &self,
        frame: &mut Frame,
        store: &mut S,
        pool: &mut BlockPool,
    ) -> Goal {
        match self {
            GoalTmpl::Call(name, args) => pool.goal(*name, args.len(), |i, pool| {
                args[i].build(frame, store, pool)
            }),
            GoalTmpl::Term(t) => Goal::Term(t.build(frame, store, pool)),
        }
    }
}

impl Tmpl {
    /// Build a term, allocating fresh store variables for unset slots and
    /// wildcards in the same depth-first left-to-right order as
    /// `Pat::instantiate` — ground subtrees allocate nothing, so skipping
    /// them preserves the allocation sequence exactly. A tuple fills a
    /// block from `pool` in place, in that same order, when one of its
    /// arity is there.
    pub fn build<S: StoreOps>(
        &self,
        frame: &mut Frame,
        store: &mut S,
        pool: &mut BlockPool,
    ) -> Term {
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
            Tmpl::Tuple(name, args) => build_tuple(*name, args, frame, store, pool),
            Tmpl::Arith(name, args) => match self.fold(frame, store) {
                Some(n) => n.to_term(),
                None => build_tuple(*name, args, frame, store, pool),
            },
            Tmpl::Cons(cell) => Term::cons(
                cell.0.build(frame, store, pool),
                cell.1.build(frame, store, pool),
            ),
        }
    }

    /// The value of an arithmetic template, or `None` at the first leaf
    /// that is neither a number nor a variable bound to one, or when an
    /// operator faults — the cases the `:=` reduction must see for itself.
    /// Reads the frame and the store, and changes neither.
    fn fold<S: StoreOps>(&self, frame: &Frame, store: &S) -> Option<Num> {
        match self {
            Tmpl::Slot(i) => match frame.get(*i)? {
                leaf @ Term::Var(_) => number(&store.deref(leaf)),
                leaf => number(leaf),
            },
            Tmpl::Const(t) => number(t).or_else(|| match eval_arith(t, store) {
                Ok(Evaled::Num(n)) => Some(n),
                _ => None,
            }),
            // `apply_op` refuses any other operator or arity.
            Tmpl::Tuple(op, args) | Tmpl::Arith(op, args) => match &args[..] {
                [a] => apply_op(*op, &[a.fold(frame, store)?]).ok(),
                [a, b] => apply_op(*op, &[a.fold(frame, store)?, b.fold(frame, store)?]).ok(),
                _ => None,
            },
            Tmpl::Wild | Tmpl::Cons(_) => None,
        }
    }

    /// Read-only build: `None` on an unset slot or a wildcard (mirrors
    /// `Pat::instantiate_ro`).
    pub fn build_ro(&self, frame: &Frame) -> Option<Term> {
        match self {
            Tmpl::Slot(i) => frame.get(*i).cloned(),
            Tmpl::Wild => None,
            Tmpl::Const(t) => Some(t.clone()),
            Tmpl::Tuple(name, args) | Tmpl::Arith(name, args) => {
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

/// A body goal's template. The right-hand side of a `:=`/2 that is an
/// arithmetic tuple becomes [`Tmpl::Arith`], or the number itself when it
/// is ground and evaluates — unless the whole goal is ground, which is
/// queued as written.
fn lower_goal(p: &Pat) -> GoalTmpl {
    let (name, args) = match p {
        Pat::Atom(name) => return GoalTmpl::Call(*name, Box::new([])),
        Pat::Tuple(name, args) => (*name, args),
        _ => return GoalTmpl::Term(lower_tmpl(p)),
    };
    let mut args: Box<[Tmpl]> = args.iter().map(lower_tmpl).collect();
    if let (sym::ASSIGN, [_, rhs], None) = (name, &mut args[..], pat_ground_term(p)) {
        *rhs = match std::mem::replace(rhs, Tmpl::Wild) {
            Tmpl::Tuple(op, a) if is_arith_op(op, a.len()) => Tmpl::Arith(op, a),
            Tmpl::Const(t) if is_arith_expr(&t) => match eval_arith(&t, &Store::new()) {
                Ok(Evaled::Num(n)) => Tmpl::Const(n.to_term()),
                _ => Tmpl::Const(t),
            },
            other => other,
        };
    }
    GoalTmpl::Call(name, args)
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// A lowered guard. What it means is [`guard_test`]'s; lowering only
/// saves the work of getting there.
#[derive(Clone, Debug)]
pub struct GuardOp {
    /// Slots the guard reads. If any is still unset the rule fails — the
    /// interpreter's `instantiate_ro == None` case — *before* any operand
    /// is evaluated, so no error the interpreter would not surface can leak
    /// out.
    needs: Box<[u16]>,
    kind: GuardKind,
}

#[derive(Clone, Debug)]
enum GuardKind {
    /// The guard pattern contains `_` and can never be instantiated
    /// read-only: the interpreter always fails such a rule.
    AlwaysFail,
    /// An atom or tuple guard, decided by [`guard_test`] — so an unknown
    /// name's `BadBuiltin` error surfaces only if the guard is reached.
    Test { name: Atom, args: Box<[Operand]> },
    /// Any other guard, such as a variable bound at run time: instantiated
    /// and decided by [`eval_guard`], as the interpreter does.
    Other(Pat),
}

/// A guard operand.
#[derive(Clone, Debug)]
enum Operand {
    /// A bare rule-local: the slot's term.
    Slot(u16),
    /// A ground operand, built at lowering. An operand of `< > =< >=` that
    /// evaluates cleanly is folded to its number; one that does not (a type
    /// error or division by zero) stays the term, so the error is the
    /// interpreter's and raised only if the guard is reached.
    Const(Term),
    /// A non-ground compound, rebuilt from the slots per evaluation.
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

fn lower_operand(p: &Pat, fold: bool) -> Operand {
    match (pat_ground_term(p), p) {
        (Some(t), _) if fold => match eval_arith(&t, &Store::new()) {
            Ok(Evaled::Num(n)) => Operand::Const(n.to_term()),
            _ => Operand::Const(t),
        },
        (Some(t), _) => Operand::Const(t),
        (None, Pat::Local(i)) => Operand::Slot(*i),
        (None, _) => Operand::Tmpl(lower_tmpl(p)),
    }
}

fn lower_guard(p: &Pat) -> GuardOp {
    let mut needs = Vec::new();
    pat_slots(p, &mut needs);
    let kind = match p {
        _ if pat_has_wild(p) => GuardKind::AlwaysFail,
        Pat::Atom(name) => GuardKind::Test {
            name: *name,
            args: Box::new([]),
        },
        Pat::Tuple(name, args) => {
            // Only a comparison evaluates its operands: `X == 1+2` compares
            // against the tuple.
            let fold = matches!(*name, sym::LT | sym::GT | sym::LE | sym::GE);
            GuardKind::Test {
                name: *name,
                args: args.iter().map(|a| lower_operand(a, fold)).collect(),
            }
        }
        _ => GuardKind::Other(p.clone()),
    };
    GuardOp {
        needs: needs.into_boxed_slice(),
        kind,
    }
}

fn materialize(op: &Operand, frame: &Frame) -> Term {
    match op {
        Operand::Slot(i) => frame.get(*i).expect("needs-checked").clone(),
        Operand::Const(t) => t.clone(),
        Operand::Tmpl(t) => t
            .build_ro(frame)
            .expect("needs-checked, wilds lowered to AlwaysFail"),
    }
}

fn eval_guard_op<S: StoreOps>(
    g: &GuardOp,
    frame: &Frame,
    store: &S,
    pending: &mut Vec<VarId>,
) -> StrandResult<GuardOutcome> {
    if g.needs.iter().any(|i| frame.get(*i).is_none()) {
        return Ok(GuardOutcome::False);
    }
    match &g.kind {
        GuardKind::AlwaysFail => Ok(GuardOutcome::False),
        GuardKind::Test { name, args } => match &args[..] {
            [] => guard_test(*name, &[], store, pending),
            [a] => guard_test(*name, &[materialize(a, frame)], store, pending),
            [a, b] => {
                let ab = [materialize(a, frame), materialize(b, frame)];
                guard_test(*name, &ab, store, pending)
            }
            // No guard test takes more: this raises the interpreter's error.
            _ => {
                let all: Vec<Term> = args.iter().map(|a| materialize(a, frame)).collect();
                guard_test(*name, &all, store, pending)
            }
        },
        GuardKind::Other(pat) => match pat.instantiate_ro(frame) {
            Some(gterm) => eval_guard(&gterm, store, pending),
            None => Ok(GuardOutcome::False),
        },
    }
}

// ---------------------------------------------------------------------------
// Rules, procedures, program
// ---------------------------------------------------------------------------

/// A lowered body call.
#[derive(Clone, Debug)]
pub struct ExecCall {
    pub goal: GoalTmpl,
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
                goal: lower_goal(&c.goal),
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
        let decided = eval_guard_op(g, &scratch.frame, store, &mut scratch.rule_pending)?;
        if decided == GuardOutcome::False {
            return Ok(TryResult::Fail);
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

    /// Guard operands: the head variables `A`–`C`, ground expressions (a
    /// division by zero, a type error and a non-arithmetic tuple among
    /// them), compounds over the head variables, a variable the head does
    /// not bind, and a wildcard.
    const GUARD_OPERANDS: [&str; 14] = [
        "A", "B", "C", "3", "2.5", "1 + 2", "1 / 0", "a + 1", "f(1)", "a", "A * 2", "g(B, C)", "Z",
        "_",
    ];

    /// Guards over the operands `L` and `R`: every comparison, `==` and
    /// `=\=`, the type tests, `unknown`, `true`, the variable `G` (the
    /// head's fourth argument, bound at run time) and a name no guard test
    /// has, of arity 3.
    const GUARD_FORMS: [&str; 18] = [
        "L < R",
        "L > R",
        "L =< R",
        "L >= R",
        "L == R",
        "L =\\= R",
        "integer(L)",
        "float(L)",
        "number(L)",
        "atom(L)",
        "string(L)",
        "list(L)",
        "tuple(L)",
        "data(L)",
        "unknown(L)",
        "true",
        "G",
        "frob(L, R, A)",
    ];

    /// A store with `x` and `y` unbound and `z`, `w` and `h` bound, and the
    /// goal arguments a case picks from: numbers, atoms, strings, lists and
    /// tuples, bound and unbound variables, and for `G` guard terms that
    /// pass, fail, suspend and raise.
    fn guard_world() -> (Store, Vec<Term>, Vec<Term>) {
        let mut store = Store::new();
        let [x, y, z, w, h] = [(); 5].map(|()| store.new_var());
        let bind = |store: &mut Store, v, t| store.bind(v, t, 0, NodeId(0)).unwrap();
        bind(&mut store, z, Term::int(2));
        bind(&mut store, w, Term::tuple("g", vec![Term::Var(x)]));
        let lt = Term::tuple("<", vec![Term::Var(x), Term::Var(y)]);
        bind(&mut store, h, lt);
        let args = vec![
            Term::int(3),
            Term::int(-1),
            Term::int(0),
            Term::float(2.5),
            Term::atom("a"),
            Term::Str("s".into()),
            Term::Nil,
            Term::cons(Term::int(1), Term::Var(x)),
            Term::tuple("f", vec![Term::int(1)]),
            Term::tuple("g", vec![Term::Var(y), Term::int(3)]),
            Term::Var(x),
            Term::Var(y),
            Term::Var(z),
            Term::Var(w),
        ];
        let guards = vec![
            Term::tuple(">", vec![Term::Var(x), Term::int(0)]),
            Term::tuple("==", vec![Term::Var(y), Term::Var(x)]),
            Term::tuple("integer", vec![Term::Var(z)]),
            Term::tuple("frob", vec![Term::int(1), Term::int(2), Term::int(3)]),
            Term::atom("true"),
            Term::atom("frob"),
            Term::int(1),
            Term::Var(y),
            Term::Var(h),
        ];
        (store, args, guards)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// A lowered rule decides its guards as the interpreter does: the
        /// same outcome, the same suspension variables in the same order,
        /// the same error text.
        #[test]
        fn guards_decide_as_the_interpreter_decides(
            guards in proptest::collection::vec(
                (0..GUARD_FORMS.len(), 0..GUARD_OPERANDS.len(), 0..GUARD_OPERANDS.len()),
                1..4,
            ),
            picks in (0..14usize, 0..14usize, 0..14usize, 0..9usize),
        ) {
            use crate::tier::TierRule;
            use crate::world::StoreHandle;
            let text: Vec<String> = guards
                .iter()
                .map(|&(form, l, r)| {
                    GUARD_FORMS[form]
                        .replace('L', GUARD_OPERANDS[l])
                        .replace('R', GUARD_OPERANDS[r])
                })
                .collect();
            let src = format!("f(A, B, C, G) :- {} | true.", text.join(", "));
            let p = compile_program(&parse_program(&src).unwrap()).unwrap();
            let rule = &p.get("f", 4).unwrap().rules[0];
            let (store, args, guard_terms) = guard_world();
            let goal = [
                args[picks.0].clone(),
                args[picks.1].clone(),
                args[picks.2].clone(),
                guard_terms[picks.3].clone(),
            ];
            let handle = StoreHandle::Local(store);
            let StoreHandle::Local(store) = &handle else {
                unreachable!()
            };
            let seen = |r: StrandResult<TryResult>, scratch: Scratch| {
                (r.map_err(|e| e.to_string()), scratch.rule_pending)
            };
            let mut scratch = Scratch::default();
            let interpreted = rule.attempt(&goal, &handle, &mut scratch);
            let interpreted = seen(interpreted, scratch);
            let mut scratch = Scratch::default();
            let compiled = try_rule(&lower_rule(rule), &goal, store, &mut scratch);
            let compiled = seen(compiled, scratch);
            proptest::prop_assert_eq!(compiled, interpreted, "{} on {:?}", src, goal);
        }
    }

    // -- body templates ---------------------------------------------------

    #[test]
    fn ground_body_subtrees_are_prebuilt() {
        let p = compile_program(&parse_program("f(X) :- g(X, h(1, [a, b])).").unwrap()).unwrap();
        let r = lower_rule(&p.get("f", 1).unwrap().rules[0]);
        let GoalTmpl::Call(_, args) = &r.body[0].goal else {
            panic!("expected a call template");
        };
        assert!(matches!(&args[0], Tmpl::Slot(_)));
        assert!(matches!(&args[1], Tmpl::Const(_)));
    }

    #[test]
    fn tmpl_build_matches_pat_instantiate_var_order() {
        /// Body goal 0 of `src`'s `f/1` with its head bound to `arg`, built
        /// by `Pat::instantiate` and by `Tmpl::build` through `pool`, each
        /// on its own store: the two terms, and whether the stores
        /// allocated alike.
        fn both(src: &str, arg: &Term, pool: &mut BlockPool) -> (Term, Term, bool) {
            let p = compile_program(&parse_program(src).unwrap()).unwrap();
            let rule = &p.get("f", 1).unwrap().rules[0];
            let exec = lower_rule(rule);
            let side = || {
                let mut store = Store::new();
                // An unbound argument, or a variable bound to the argument.
                let v = store.new_var();
                if !arg.is_var() {
                    store.bind(v, arg.clone(), 0, NodeId(0)).unwrap();
                }
                let mut frame = Frame::with_locals(rule.n_locals);
                frame.set(0, Term::Var(v));
                (store, frame)
            };
            let (mut store1, mut frame1) = side();
            let want = rule.body[0].goal.instantiate(&mut frame1, &mut store1);
            let (mut store2, mut frame2) = side();
            let got = exec.body[0].goal.build(&mut frame2, &mut store2, pool);
            let got = got.to_term();
            let same_vars = store1.len() == store2.len();
            (want, got, same_vars && frame1.slots == frame2.slots)
        }

        let (want, got, same) = both(
            "f(A) :- g(A, X, h(Y, 1), _, X).",
            &Term::int(9),
            &mut BlockPool::default(),
        );
        assert_eq!(want, got);
        assert!(same);

        // `:=` with its operand bound folds: one pooled block, no
        // expression tuple.
        let src = "f(N) :- K := N mod 10, g(K).";
        let mut pool = BlockPool::default();
        pool.recycle(Goal::call(Atom::new("spare"), vec![Term::Nil, Term::Nil]));
        let (want, got, same) = both(src, &Term::int(49_999), &mut pool);
        assert_eq!(want.to_string(), ":=(_1,mod(_0,10))");
        assert_eq!(got.to_string(), ":=(_1,9)");
        assert!(same);
        assert!(
            pool.goals.iter().all(Vec::is_empty),
            "the block came from the pool"
        );
        // Unbound, it builds the tuple the interpreter builds.
        let (want, got, same) = both(src, &Term::Var(VarId(0)), &mut BlockPool::default());
        assert_eq!(want, got);
        assert!(same);
        // A leaf whose slot is still unset ends the attempt before it
        // allocates: `Y` takes its variable in the tuple, after `K`'s.
        let (want, got, same) = both(
            "f(N) :- K := (N + Y) * 2, g(Y, K).",
            &Term::int(3),
            &mut BlockPool::default(),
        );
        assert_eq!(want, got);
        assert!(same);
        // A zero divisor is left for the `:=` reduction to report.
        let (want, got, _) = both("f(N) :- K := 7 / (N - 3), g(K).", &Term::int(3), &mut pool);
        assert_eq!(want, got);
        // A ground right-hand side is folded once, at lowering.
        let (_, got, _) = both("f(N) :- K := 2 * 3 + 1, g(N, K).", &Term::int(0), &mut pool);
        assert_eq!(got.to_string(), ":=(_1,7)");
    }

    // -- folding `:=` ------------------------------------------------------

    /// An arithmetic expression of depth at most 3 over the head variables
    /// of [`fold_program`]'s `t/8` and `t2/8`, a body-local `Y`, int and
    /// float constants (zeros among them, and one a product or a quotient
    /// of which overflows to a non-finite float), an atom, a
    /// non-arithmetic tuple, a list and a wildcard, through all nine
    /// operators, written functionally so each stays one tuple.
    fn arith_expr() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let leaf = prop_oneof![
            (-3i64..4).prop_map(|i| i.to_string()),
            Just("2.5".to_string()),
            Just("-0.5".to_string()),
            Just("0".to_string()),
            Just("0.0".to_string()),
            Just("1.0e308".to_string()),
            Just("a".to_string()),
            Just("f(A)".to_string()),
            Just("[N]".to_string()),
            Just("_".to_string()),
            "[AFZMNUWY]".prop_map(String::from),
        ];
        leaf.prop_recursive(3, 24, 2, |inner| {
            let binary = ["'+'", "'-'", "'*'", "'/'", "mod", "min", "max"];
            prop_oneof![
                (0..binary.len(), inner.clone(), inner.clone())
                    .prop_map(move |(op, l, r)| format!("{}({l}, {r})", binary[op])),
                (0..2usize, inner).prop_map(|(op, e)| format!("{}({e})", ["'-'", "abs"][op])),
            ]
        })
    }

    /// `X := E` spawned by `t/8` before `U` is bound and by `t2/8` after a
    /// guard waits for it; `W` is never bound, `Y` is bound by a later
    /// body goal, and `M`/`N` sit at the ends of the `i64` range.
    fn fold_program(expr: &str) -> String {
        format!(
            "go(X, X2) :- t(7, 2.5, 0, 9223372036854775807, -9223372036854775807, U, W, X), \
                 late(U), t2(7, 2.5, 0, 9223372036854775807, -9223372036854775807, U, W, X2).\n\
             t(A, F, Z, M, N, U, W, X) :- X := {expr}, y(Y).\n\
             t2(A, F, Z, M, N, U, W, X) :- U > 0 | X := {expr}, y(Y).\n\
             y(Y) :- Y := 3.\n\
             late(U) :- late1(U).\n\
             late1(U) :- U := 5.\n"
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Folding a bound `:=` at spawn is invisible to a run: the
        /// compiled tier, which folds, and the interpreter, which never
        /// does, end with the same bindings, status, errors, reductions,
        /// suspensions and makespan.
        #[test]
        fn folded_assignments_run_as_the_interpreter_runs_them(expr in arith_expr()) {
            use crate::{run_goal, ExecMode, MachineConfig};
            let src = fold_program(&expr);
            let run = |exec| {
                let mut cfg = MachineConfig::default().exec(exec);
                cfg.fail_fast = false;
                let r = run_goal(&src, "go(X, X2)", cfg).unwrap();
                let m = &r.report.metrics;
                (
                    r.bindings.clone(),
                    r.report.status.clone(),
                    format!("{:?}", r.report.errors),
                    m.total_reductions,
                    m.suspensions,
                    m.makespan,
                )
            };
            proptest::prop_assert_eq!(run(ExecMode::Compiled), run(ExecMode::Interpreted), "{}", src);
        }
    }

    // -- the block pool ---------------------------------------------------

    /// Body goals of every shape the pool meets: nested tuples, a tuple in
    /// a list, a ground subterm (shared with its template), a goal ground
    /// as a whole, a goal wider than the pool keeps, and wildcards, which
    /// take a fresh variable at every build. `B` is bound to a nested tuple
    /// the frame keeps holding.
    const POOL_SRC: &str = "p(A, B) :- q(A, f(B, g(A, X)), [h(B)|T], T), \
        r(k(A, B, c), point(1, 2), X), s(f(A, A)), t(x(A)), u(w(v(v(v(A))))), \
        y(_, f(_, A), _), z(1, 2), wide(A, B, X, T, A, B, X, _, A).";

    fn frame_b() -> Term {
        Term::tuple(
            "b",
            vec![Term::int(1), Term::tuple("c", vec![Term::int(2)])],
        )
    }

    /// One rule's body built in lockstep on two sides: one through a pool,
    /// the other with an empty pool every time. Each side lowers the rule
    /// itself, so they share no ground subterm, and has its own frame and
    /// store, so a variable has the same id on both.
    struct Lockstep {
        pooled: (ExecRule, Frame, Store),
        fresh: (ExecRule, Frame, Store),
        pool: BlockPool,
    }

    impl Lockstep {
        fn new() -> Lockstep {
            let p = compile_program(&parse_program(POOL_SRC).unwrap()).unwrap();
            let rule = &p.get("p", 2).unwrap().rules[0];
            let side = || {
                let mut frame = Frame::with_locals(rule.n_locals);
                for (head, value) in rule.head.iter().zip([Term::int(7), frame_b()]) {
                    let Pat::Local(i) = head else {
                        panic!("{head}")
                    };
                    frame.set(*i, value);
                }
                (lower_rule(rule), frame, Store::new())
            };
            Lockstep {
                pooled: side(),
                fresh: side(),
                pool: BlockPool::default(),
            }
        }

        /// Body goal `i % goals`, which both sides must build alike.
        fn build(&mut self, i: usize) -> Goal {
            let (rule, frame, store) = &mut self.pooled;
            let i = i % rule.body.len();
            let got = rule.body[i].goal.build(frame, store, &mut self.pool);
            let (rule, frame, store) = &mut self.fresh;
            let want = rule.body[i]
                .goal
                .build(frame, store, &mut BlockPool::default());
            assert_eq!(got, want);
            got
        }

        /// A variable on both sides, bound to `t` on the pooled one.
        fn bind(&mut self, t: Term) -> VarId {
            self.fresh.2.new_var();
            let v = self.pooled.2.new_var();
            self.pooled.2.bind(v, t, 0, NodeId(0)).unwrap();
            v
        }

        /// Build until the pool is empty, then hand everything built back.
        fn drain_and_refill(&mut self) {
            let mut built = Vec::new();
            let pool = |sides: &Lockstep| {
                let goals = sides.pool.goals.iter().map(Vec::len);
                goals
                    .chain(sides.pool.tuples.iter().map(Vec::len))
                    .sum::<usize>()
            };
            while pool(self) > 0 {
                for i in 0..self.pooled.0.body.len() {
                    built.push(self.build(i));
                }
            }
            for t in built {
                self.pool.recycle(t);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random interleavings of builds, hand-backs and clones kept
        /// outside the pool — a whole goal's term or one of its tuple
        /// arguments, held as a frame would hold it, bound in the store, or
        /// shared by a second goal that is handed back too. Every build
        /// equals what an empty pool builds, and every clone kept outside
        /// reads the same after the pool has been drained and refilled: a
        /// goal's own block is never shared, and a nested one is taken only
        /// once nothing else holds it.
        #[test]
        fn pooled_builds_equal_fresh_builds_and_spare_outside_clones(
            ops in proptest::collection::vec((0u8..6, 0usize..64), 0..160)
        ) {
            let mut sides = Lockstep::new();
            let mut live: Vec<Goal> = Vec::new();
            let mut held: Vec<(Term, String)> = vec![(frame_b(), frame_b().to_string())];
            let mut bound: Vec<(VarId, String)> = Vec::new();
            for (op, pick) in ops {
                match op {
                    0 | 1 => live.push(sides.build(pick)),
                    _ if live.is_empty() => {}
                    2 => sides.pool.recycle(live.swap_remove(pick % live.len())),
                    3 | 4 => {
                        let whole = live[pick % live.len()].to_term();
                        let part = match whole.goal_args().iter().find(|a| matches!(a, Term::Tuple(..))) {
                            Some(arg) if pick % 2 == 1 => arg.clone(),
                            _ => whole,
                        };
                        if op == 3 {
                            held.push((part.clone(), part.to_string()));
                            if pick % 4 < 2 {
                                live.push(Goal::from_term(part));
                            }
                        } else {
                            let text = part.to_string();
                            bound.push((sides.bind(part), text));
                        }
                    }
                    _ => sides.drain_and_refill(),
                }
            }
            for t in live {
                sides.pool.recycle(t);
            }
            sides.drain_and_refill();
            for (t, text) in &held {
                proptest::prop_assert_eq!(&t.to_string(), text);
            }
            for (v, text) in &bound {
                proptest::prop_assert_eq!(&sides.pooled.2.resolve(&Term::Var(*v)).to_string(), text);
            }
        }
    }
}
