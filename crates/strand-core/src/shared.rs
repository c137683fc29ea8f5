//! A sharded single-assignment store for the multi-threaded backend.
//!
//! The simulator owns one exclusive [`Store`](crate::Store); the parallel
//! backend's workers instead share a [`SharedStore`] split into one *stripe*
//! per worker. A worker allocates variables only in its own stripe (ids carry
//! the owner tag — [`VarId::tagged`]), and every operation locks at most two
//! stripes at a time (ordered by stripe index, so lock acquisition cannot
//! deadlock).
//!
//! Correctness leans on the single-assignment property: a slot moves from
//! `Unbound` to `Bound` exactly once and never back, so alias chains only
//! grow. `deref` can therefore hop slot to slot without a global snapshot —
//! any chain it observes is a prefix of the final chain, and a reader that
//! misses a *very* recent binding behaves exactly like a process whose
//! notification has not arrived yet, which the suspension protocol already
//! handles (`add_waiter` re-checks under the lock and refuses a bound slot;
//! the machine then re-queues the process).
//!
//! # The published view
//!
//! The same property lets most reads skip the lock. Each stripe's
//! `Mutex<SlotTable>` stays the authority for binding, waiters, allocation
//! and sweeping; beside it sits a *view*: one `(tag, payload)` word pair per
//! slot in an append-only `Chunks` array (`chunks.rs`) anyone may read.
//!
//! * **Publish.** `commit`, holding the stripe lock, stores the payload and
//!   then the tag. `Int`, `Float`, `Atom`, `Nil`, `Port` and a `Var` alias
//!   hop are published inline; a boxed value (`Str`, `Tuple`, `List`) is
//!   published as a bare "bound — ask the table" tag. Publishing an `Arc`
//!   through a slot that can be recycled would need `unsafe` plus deferred
//!   drops (or slots that never recycle), and result variables, placements,
//!   port slots and not-yet-bound variables — all answered by the view —
//!   are what a reduction looks at; a stream cell costs one locked read per
//!   message.
//! * **Un-publish.** A collection's `sweep`, under the same lock, returns
//!   the tag to unbound and bumps the *epoch* in its upper bits before the
//!   index can reach the free list.
//! * **Read.** [`SharedStore::deref`] loads tag, payload, tag. Unbound, an
//!   inline value or an alias hop is answered with no lock; a boxed tag, or
//!   a tag that moved between the two loads, falls back to the stripe lock.
//!
//! Every view store is `Release` and every view load `Acquire`. A reader
//! whose first tag load sees a publish therefore sees that publish's payload
//! or a later one; if it is a later one, the second tag load sees at least
//! the un-publish sequenced before that payload, whose epoch differs — so a
//! `(tag, payload)` pair that passes the re-check was stored by one
//! `commit`. A reader holding a stale `VarId` into a recycled slot gets what
//! it gets under the lock — some other binding's value, or unbound — never
//! a mix of two and never undefined behaviour (there is no `unsafe` here).
//! Rejecting a stale *bind* still wants a generation in the `VarId`
//! (ROADMAP, reclamation item); reads no longer depend on it.
//!
//! Alias-cycle freedom (the property that makes `deref` terminate) holds
//! because a variable-to-variable binding `v := w` commits only while *both*
//! stripes are locked and `w` is verified unbound **in the table**: every
//! committed alias edge points at a variable that was unbound at commit
//! time, so at most one outgoing edge can ever close a cycle — and that case
//! is caught by the self-binding check after re-dereferencing (see
//! [`SharedStore::bind`]).

use crate::chunks::Chunks;
use crate::error::StrandResult;
use crate::store::{NodeId, SlotTable, Time, Waiter, Waiters};
use crate::term::Term;
use crate::{Atom, StoreOps, VarId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Low bits of a view tag: what the slot holds. The bits above count the
/// slot's sweeps (its *epoch*), so a tag never repeats across a recycle.
const KIND_BITS: u32 = 4;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;
const UNBOUND: u32 = 0;
const INT: u32 = 1;
const FLOAT: u32 = 2;
const ATOM: u32 = 3;
const NIL: u32 = 4;
const PORT: u32 = 5;
const ALIAS: u32 = 6;
/// Bound to a `Str`, `Tuple` or `List`: the value is in the table.
const BOXED: u32 = 7;

/// How a binding to `value` is published: its kind and payload.
fn encode(value: &Term) -> (u32, u64) {
    match value {
        Term::Int(i) => (INT, *i as u64),
        Term::Float(x) => (FLOAT, x.to_bits()),
        Term::Atom(a) => (ATOM, u64::from(a.id())),
        Term::Nil => (NIL, 0),
        Term::Port(p) => (PORT, u64::from(*p)),
        Term::Var(w) => (ALIAS, u64::from(w.0)),
        Term::Str(_) | Term::Tuple(..) | Term::List(_) => (BOXED, 0),
    }
}

/// One slot of a stripe's view. All-zero is "unbound, epoch 0".
#[derive(Default)]
struct Word {
    tag: AtomicU32,
    payload: AtomicU64,
}

/// What a lock-free look at a slot found.
enum Seen {
    Unbound,
    /// An inline value, or `Term::Var` of the next hop.
    Value(Term),
    /// Boxed, recycled mid-read, or never allocated: the table decides.
    AskTable,
}

/// 32 slots, then doubling, up to a stripe's whole index space.
type Words = Chunks<Word, 5, 18>;
const _: () = assert!(Words::CAPACITY >= VarId::MAX_INDEX as usize);

/// The lock-free-readable side of a stripe. Aligned away from the stripe's
/// mutex so a peer's reads do not share a line with the owner's lock word.
#[repr(align(128))]
struct View {
    words: Words,
}

impl View {
    fn read(&self, index: usize) -> Seen {
        let Some(word) = self.words.get(index) else {
            return Seen::AskTable;
        };
        let tag = word.tag.load(Ordering::Acquire);
        let kind = tag & KIND_MASK;
        if kind == UNBOUND {
            return Seen::Unbound;
        }
        if kind == BOXED {
            return Seen::AskTable;
        }
        let payload = word.payload.load(Ordering::Acquire);
        if word.tag.load(Ordering::Acquire) != tag {
            return Seen::AskTable;
        }
        Seen::Value(match kind {
            INT => Term::Int(payload as i64),
            FLOAT => Term::Float(f64::from_bits(payload)),
            ATOM => Term::Atom(Atom::from_id(payload as u32)),
            NIL => Term::Nil,
            PORT => Term::Port(payload as u32),
            ALIAS => Term::Var(VarId(payload as u32)),
            _ => return Seen::AskTable,
        })
    }

    fn word(&self, index: usize) -> &Word {
        self.words
            .get(index)
            .expect("a slot's word is created with the slot")
    }

    /// Called with the stripe lock held, like `unpublish`: the lock orders
    /// the view's writers, the orderings only face readers.
    fn publish(&self, index: usize, (kind, payload): (u32, u64)) {
        let word = self.word(index);
        let epoch = word.tag.load(Ordering::Relaxed) & !KIND_MASK;
        word.payload.store(payload, Ordering::Release);
        word.tag.store(epoch | kind, Ordering::Release);
    }

    fn unpublish(&self, index: usize) {
        let word = self.word(index);
        let epoch = word.tag.load(Ordering::Relaxed) & !KIND_MASK;
        let next = epoch.wrapping_add(1 << KIND_BITS);
        word.tag.store(next | UNBOUND, Ordering::Release);
    }
}

/// One worker's slice of the store.
#[repr(align(128))]
struct Stripe {
    table: Mutex<SlotTable>,
    view: View,
}

/// The striped concurrent single-assignment store.
///
/// All methods take `&self`; interior mutability is per-stripe
/// `std::sync::Mutex` plus the atomics of the view (strand-core
/// deliberately has no dependencies).
pub struct SharedStore {
    stripes: Vec<Stripe>,
}

/// What one [`SharedStore::mark`] reached, per stripe and slot.
pub struct Marks {
    seen: Vec<Vec<bool>>,
    /// Terms taken off the work list — slots marked plus term cells
    /// visited: the mark's work.
    pub work: u64,
}

impl SharedStore {
    /// A store with `owners` stripes (one per worker).
    pub fn new(owners: u32) -> SharedStore {
        assert!(
            (1..=VarId::MAX_OWNERS).contains(&owners),
            "stripe count {owners} out of range"
        );
        let stripe = |_| Stripe {
            table: Mutex::new(SlotTable::default()),
            view: View {
                words: Words::new(),
            },
        };
        SharedStore {
            stripes: (0..owners).map(stripe).collect(),
        }
    }

    fn stripe(&self, owner: u32) -> MutexGuard<'_, SlotTable> {
        self.stripes[owner as usize]
            .table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn view(&self, owner: u32) -> &View {
        &self.stripes[owner as usize].view
    }

    /// Number of stripes.
    pub fn owners(&self) -> u32 {
        self.stripes.len() as u32
    }

    /// Total number of successful bindings performed (all stripes).
    pub fn bind_count(&self) -> u64 {
        (0..self.owners()).map(|o| self.stripe(o).binds()).sum()
    }

    /// Number of variables ever created (all stripes).
    pub fn len(&self) -> usize {
        (0..self.owners()).map(|o| self.stripe(o).len()).sum()
    }

    /// True if no variable has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots in use across all stripes: created and not free.
    pub fn live(&self) -> usize {
        (0..self.owners()).map(|o| self.stripe(o).live()).sum()
    }

    /// Allocate a fresh, unbound variable in `owner`'s stripe. Swept slots
    /// are reused first, so a resident fleet's stripe tables track live
    /// variables, not variables ever created.
    pub fn new_var(&self, owner: u32) -> VarId {
        let index = self.stripe(owner).alloc();
        assert!(
            index < VarId::MAX_INDEX,
            "stripe {owner} exhausted its variable index space"
        );
        // The slot's word exists (reading unbound) before its id does.
        self.view(owner).words.get_or_grow(index as usize);
        VarId::tagged(owner, index)
    }

    /// Mark every variable reachable from `roots`: a bound one through its
    /// value; an unbound one's waiters go to `reached`, which may push more
    /// terms (a collector pushes their goals). An explicit work list, so a
    /// stream a hundred thousand cells long takes no stack. Only while
    /// nothing else touches the store.
    pub fn mark(
        &self,
        roots: Vec<Term>,
        mut reached: impl FnMut(&[Waiter], &mut Vec<Term>),
    ) -> Marks {
        let seen = (0..self.owners()).map(|o| vec![false; self.stripe(o).len()]);
        let mut marks = Marks {
            seen: seen.collect(),
            work: 0,
        };
        let mut work = roots;
        while let Some(t) = work.pop() {
            marks.work += 1;
            match t {
                Term::Var(v) if !marks.seen[v.owner() as usize][v.index()] => {
                    marks.seen[v.owner() as usize][v.index()] = true;
                    match self.stripe(v.owner()).read(v.index()) {
                        Ok(value) => work.push(value.clone()),
                        Err(waiters) => reached(waiters, &mut work),
                    }
                }
                Term::Tuple(_, args) => work.extend(args.iter().cloned()),
                // The head on top: a spine never piles up on the list.
                Term::List(cell) => work.extend([cell.1.clone(), cell.0.clone()]),
                _ => {}
            }
        }
        marks
    }

    /// Free every slot `marks` did not reach (a slot made since is kept):
    /// reset and un-published before it joins the free list. Returns how
    /// many were freed.
    pub fn sweep(&self, marks: &Marks) -> usize {
        let sweep = |(o, stripe): (usize, &Stripe)| {
            let keep = |i: usize| marks.seen[o].get(i).copied().unwrap_or(true);
            self.stripe(o as u32)
                .sweep(keep, |i| stripe.view.unpublish(i))
        };
        self.stripes.iter().enumerate().map(sweep).sum()
    }

    /// The value `v` is bound to, if any (cloned out of the stripe lock).
    pub fn lookup(&self, v: VarId) -> Option<Term> {
        self.stripe(v.owner()).lookup(v.index()).cloned()
    }

    /// Follow variable-to-variable bindings hop by hop through the
    /// published view, taking a stripe's lock only for a boxed value (or a
    /// slot recycled mid-read). See [`Store::deref`](crate::Store::deref)
    /// for the contract.
    pub fn deref(&self, t: &Term) -> Term {
        let Term::Var(mut v) = *t else {
            return t.clone();
        };
        loop {
            let value = match self.view(v.owner()).read(v.index()) {
                Seen::Unbound => return Term::Var(v),
                Seen::Value(value) => value,
                Seen::AskTable => match self.stripe(v.owner()).lookup(v.index()) {
                    Some(value) => value.clone(),
                    None => return Term::Var(v),
                },
            };
            match value {
                Term::Var(next) => v = next,
                other => return other,
            }
        }
    }

    /// Fully substitute all bound variables in `t`.
    pub fn resolve(&self, t: &Term) -> Term {
        crate::store::resolve_with(t, &|t| self.deref(t))
    }

    /// Bind `v` to `value`, returning the waiter tokens that were suspended
    /// on `v`. `time` and `node` are accepted but not stored.
    ///
    /// Semantics match [`Store::bind`](crate::Store::bind): the value is
    /// dereferenced first, self-binding (directly or through a chain) is a
    /// no-op, and double assignment is a run-time error. When the
    /// dereferenced value is itself an unbound variable `w`, both stripes
    /// are locked in index order and the commit happens only if `w` is
    /// *still* unbound — if a concurrent bind won the race, we retry from
    /// the dereference (the chain got longer, never cyclic).
    pub fn bind(&self, v: VarId, value: Term, _time: Time, _node: NodeId) -> StrandResult<Waiters> {
        loop {
            let value = self.deref(&value);
            if let Term::Var(w) = value {
                if w == v {
                    return Ok(Waiters::None);
                }
                // Alias bind: verify `w` unbound under both stripe locks.
                let (first, second) = if v.owner() == w.owner() {
                    (self.stripe(v.owner()), None)
                } else if v.owner() < w.owner() {
                    let a = self.stripe(v.owner());
                    let b = self.stripe(w.owner());
                    (a, Some(b))
                } else {
                    let b = self.stripe(w.owner());
                    let a = self.stripe(v.owner());
                    (a, Some(b))
                };
                let mut v_stripe = first;
                let w_stripe = second.as_ref().unwrap_or(&v_stripe);
                if w_stripe.lookup(w.index()).is_some() {
                    // Lost the race: `w` gained a value. Drop the locks and
                    // re-dereference; the next pass binds to the new tip.
                    continue;
                }
                return self.commit(&mut v_stripe, v, value);
            }
            // Ground (non-variable) value: only `v`'s stripe is involved.
            return self.commit(&mut self.stripe(v.owner()), v, value);
        }
    }

    /// Bind in the table, then publish — both under `stripe`'s lock, which
    /// the caller holds.
    fn commit(&self, stripe: &mut SlotTable, v: VarId, value: Term) -> StrandResult<Waiters> {
        let published = encode(&value);
        let waiters = stripe.commit(v.index(), v, value)?;
        self.view(v.owner()).publish(v.index(), published);
        Ok(waiters)
    }

    /// Register `waiter` on `v`; returns `false` (not registered) if `v` is
    /// already bound. See [`Store::add_waiter`](crate::Store::add_waiter).
    pub fn add_waiter(&self, v: VarId, waiter: Waiter) -> bool {
        self.stripe(v.owner()).add_waiter(v.index(), waiter)
    }

    /// Remove a waiter registration (no-op if `v` got bound meanwhile).
    pub fn remove_waiter(&self, v: VarId, waiter: Waiter) {
        self.stripe(v.owner()).remove_waiter(v.index(), waiter);
    }
}

/// A worker's view of a [`SharedStore`]: all reads/binds go to the shared
/// stripes; fresh variables are allocated in the worker's own stripe.
///
/// This is the type that implements [`StoreOps`] for the parallel backend —
/// it is `Clone` + cheap, so each worker machine holds its own view.
#[derive(Clone)]
pub struct SharedStoreView {
    store: std::sync::Arc<SharedStore>,
    owner: u32,
}

impl SharedStoreView {
    /// A view allocating into `owner`'s stripe.
    pub fn new(store: std::sync::Arc<SharedStore>, owner: u32) -> SharedStoreView {
        assert!(owner < store.owners());
        SharedStoreView { store, owner }
    }

    /// The underlying shared store.
    pub fn shared(&self) -> &SharedStore {
        &self.store
    }
}

impl StoreOps for SharedStoreView {
    fn deref(&self, t: &Term) -> Term {
        self.store.deref(t)
    }

    fn resolve(&self, t: &Term) -> Term {
        self.store.resolve(t)
    }

    fn new_var(&mut self) -> VarId {
        self.store.new_var(self.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrandError;
    use std::sync::Arc;

    #[test]
    fn ids_carry_owner_tags_and_stripe_zero_matches_simulator() {
        let s = SharedStore::new(4);
        let a = s.new_var(0);
        let b = s.new_var(0);
        let c = s.new_var(3);
        // Stripe 0 ids are plain indices — identical to Store::new_var.
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!((c.owner(), c.index()), (3, 0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn bind_and_deref_across_stripes() {
        let s = SharedStore::new(2);
        let x = s.new_var(0);
        let y = s.new_var(1);
        s.bind(x, Term::Var(y), 0, NodeId(0)).unwrap();
        assert_eq!(s.deref(&Term::Var(x)), Term::Var(y));
        s.bind(y, Term::int(7), 3, NodeId(1)).unwrap();
        assert_eq!(s.deref(&Term::Var(x)), Term::int(7));
        assert_eq!(s.bind_count(), 2);
    }

    #[test]
    fn double_assign_and_self_binding_match_store_semantics() {
        let s = SharedStore::new(2);
        let x = s.new_var(0);
        let y = s.new_var(1);
        s.bind(x, Term::Var(y), 0, NodeId(0)).unwrap();
        // y := x dereferences to y := y: a no-op, not a cycle.
        assert!(s.bind(y, Term::Var(x), 0, NodeId(0)).unwrap().is_empty());
        assert!(s.lookup(y).is_none());
        s.bind(y, Term::int(1), 0, NodeId(0)).unwrap();
        assert!(matches!(
            s.bind(y, Term::int(2), 0, NodeId(0)),
            Err(StrandError::DoubleAssign { .. })
        ));
    }

    #[test]
    fn waiters_follow_store_semantics() {
        let s = SharedStore::new(2);
        let x = s.new_var(1);
        assert!(s.add_waiter(x, 11));
        assert!(s.add_waiter(x, 12));
        assert!(s.add_waiter(x, 11));
        s.remove_waiter(x, 12);
        let w = s.bind(x, Term::int(5), 2, NodeId(0)).unwrap();
        assert_eq!(w, [11]);
        assert!(!s.add_waiter(x, 13));
    }

    #[test]
    fn a_waiter_registered_from_one_stripe_is_woken_by_a_bind_on_another() {
        // Worker 0 suspends on a variable of stripe 1 (one waiter, inline)
        // and twice on one of its own (boxed); worker 1 binds both.
        use std::sync::mpsc::channel;

        let s = &SharedStore::new(2);
        let (theirs, ours) = (s.new_var(1), s.new_var(0));
        let (registered, wait) = channel();
        let (one, many) = std::thread::scope(|scope| {
            scope.spawn(move || {
                assert!(s.add_waiter(theirs, 10));
                assert!(s.add_waiter(ours, 11));
                assert!(s.add_waiter(ours, 12));
                registered.send(()).unwrap();
            });
            let binder = scope.spawn(move || {
                wait.recv().unwrap();
                let one = s.bind(theirs, Term::int(1), 0, NodeId(1)).unwrap();
                let many = s.bind(ours, Term::Var(theirs), 0, NodeId(1)).unwrap();
                (one, many)
            });
            binder.join().unwrap()
        });
        assert_eq!(
            (one, many),
            (Waiters::One(10), Waiters::Many(Box::new(vec![11, 12])))
        );
        assert!(!s.add_waiter(theirs, 13) && !s.add_waiter(ours, 13));
        assert_eq!(s.deref(&Term::Var(ours)), Term::int(1));
    }

    #[test]
    fn a_sweep_frees_what_the_mark_did_not_reach_and_hands_it_out_again() {
        let s = SharedStore::new(2);
        let (root, a, b, c, d) = (
            s.new_var(1),
            s.new_var(0),
            s.new_var(1),
            s.new_var(1),
            s.new_var(0),
        );
        let (bound_garbage, waited_garbage) = (s.new_var(1), s.new_var(1));
        // root = f(A, [B|C]), A = 7, C = D; B and D unbound, B waited on.
        let list = Term::cons(Term::Var(b), Term::Var(c));
        s.bind(
            root,
            Term::tuple("f", vec![Term::Var(a), list]),
            0,
            NodeId(0),
        )
        .unwrap();
        s.bind(a, Term::int(7), 0, NodeId(0)).unwrap();
        s.bind(c, Term::Var(d), 0, NodeId(0)).unwrap();
        s.add_waiter(b, 1);
        s.bind(bound_garbage, Term::int(1), 0, NodeId(0)).unwrap();
        s.add_waiter(waited_garbage, 2);
        assert_eq!(s.live(), 7);

        let mut waiters = Vec::new();
        let marks = s.mark(vec![Term::Var(root)], |w, _| waiters.push(w.to_vec()));
        waiters.sort();
        assert_eq!(waiters, [vec![], vec![1]], "B's and D's, once each");
        assert_eq!(s.sweep(&marks), 2);
        assert_eq!(s.live(), 5);
        assert_eq!(s.deref(&Term::Var(c)), Term::Var(d));
        // A second sweep over the same marks frees nothing new.
        assert_eq!(s.sweep(&marks), 0);
        // Lowest index first; recycled slots are born unbound, and a freed
        // slot has dropped its waiters.
        let again = [s.new_var(1), s.new_var(1)];
        assert_eq!(again, [bound_garbage, waited_garbage]);
        assert!(again.iter().all(|v| s.lookup(*v).is_none()));
        assert!(s
            .bind(waited_garbage, Term::Nil, 0, NodeId(0))
            .unwrap()
            .is_empty());
        assert_eq!(s.bind(b, Term::Nil, 0, NodeId(0)).unwrap(), [1]);
        assert_eq!(s.len(), 7, "nothing grew");
    }

    #[test]
    fn a_mark_walks_a_long_list_in_constant_stack() {
        let s = SharedStore::new(1);
        let head = s.new_var(0);
        let cells = 200_000;
        let list = (0..cells).fold(Term::Nil, |tail, i| Term::cons(Term::int(i), tail));
        s.bind(head, list, 0, NodeId(0)).unwrap();
        let marks = s.mark(vec![Term::Var(head)], |_, _| {});
        // The variable, its value, and a head and a tail per cell.
        assert_eq!(marks.work, 2 + 2 * cells as u64);
        assert_eq!(s.sweep(&marks), 0);
    }

    #[test]
    fn suspended_goals_pushed_by_the_caller_are_marked_too() {
        // `reached` is how a collector keeps a goal suspended on a reached
        // variable: the goal's own variables then survive.
        let s = SharedStore::new(1);
        let (waited, inside, unreached) = (s.new_var(0), s.new_var(0), s.new_var(0));
        s.add_waiter(waited, 7);
        let goal = Term::tuple("g", vec![Term::Var(waited), Term::Var(inside)]);
        let marks = s.mark(vec![Term::Var(waited)], |waiters, work| {
            if waiters == [7] {
                work.push(goal.clone());
            }
        });
        assert_eq!(s.sweep(&marks), 1);
        assert!(s.lookup(unreached).is_none());
        assert_eq!(s.new_var(0), unreached);
    }

    #[test]
    fn concurrent_alias_race_never_cycles_or_loses_a_bind() {
        // Hammer the x:=y / y:=x race from two threads; whatever interleaving
        // happens, deref must terminate and exactly one alias edge commits.
        for round in 0..200 {
            let s = Arc::new(SharedStore::new(2));
            let x = s.new_var(0);
            let y = s.new_var(1);
            let s1 = Arc::clone(&s);
            let t = std::thread::spawn(move || s1.bind(x, Term::Var(y), 0, NodeId(0)));
            let r2 = s.bind(y, Term::Var(x), 0, NodeId(1));
            let r1 = t.join().unwrap();
            assert!(r1.is_ok() && r2.is_ok(), "round {round}: {r1:?} {r2:?}");
            // At most one of the two slots is bound, and chains terminate.
            let bound = [x, y].iter().filter(|v| s.lookup(**v).is_some()).count();
            assert!(bound <= 1, "round {round}: cycle committed");
            let _ = s.deref(&Term::Var(x));
            let _ = s.deref(&Term::Var(y));
        }
    }

    #[test]
    fn concurrent_ground_binds_keep_single_assignment() {
        let s = Arc::new(SharedStore::new(4));
        let vars: Vec<VarId> =
            (0..4)
                .flat_map(|o| (0..64).map(move |_| o))
                .fold(Vec::new(), |mut acc, o| {
                    acc.push(s.new_var(o));
                    acc
                });
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = Arc::clone(&s);
            let vars = vars.clone();
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u32;
                for v in vars {
                    if s.bind(v, Term::int(t as i64), 0, NodeId(t)).is_ok() {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Every variable bound exactly once across all threads.
        assert_eq!(total as usize, vars.len());
        assert_eq!(s.bind_count() as usize, vars.len());
    }
    /// (a) Lock-free by construction: with stripe 1's mutex held, reads the
    /// view can answer still answer; a boxed value waits for the lock.
    #[test]
    fn view_reads_of_unbound_immediate_and_alias_slots_take_no_stripe_lock() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let s = Arc::new(SharedStore::new(2));
        let unbound = s.new_var(1);
        let int = s.new_var(1);
        let chain: Vec<VarId> = (0..3).map(|_| s.new_var(1)).collect();
        let boxed = s.new_var(1);
        s.bind(int, Term::int(42), 0, NodeId(1)).unwrap();
        // Alias hops first, then the value: chain[0] -> chain[1] -> chain[2].
        s.bind(chain[0], Term::Var(chain[1]), 0, NodeId(1)).unwrap();
        s.bind(chain[1], Term::Var(chain[2]), 0, NodeId(1)).unwrap();
        s.bind(chain[2], Term::atom("done"), 0, NodeId(1)).unwrap();
        let tuple = Term::tuple("f", vec![Term::int(1)]);
        s.bind(boxed, tuple.clone(), 0, NodeId(1)).unwrap();

        let guard = s.stripe(1);
        let (tx, rx) = channel();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let free = [unbound, int, chain[0]].map(|v| s.deref(&Term::Var(v)));
                tx.send(free.to_vec()).unwrap();
                tx.send(vec![s.deref(&Term::Var(boxed))]).unwrap();
            })
        };
        let free = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("a view read waited for the stripe lock");
        assert_eq!(
            free,
            [Term::Var(unbound), Term::int(42), Term::atom("done")]
        );
        // The boxed read is parked on the mutex we hold.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(guard);
        let locked = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(locked, [tuple]);
        reader.join().unwrap();
    }

    /// (b) Model equivalence: a seeded random history applied to a 2-stripe
    /// `SharedStore` and to a `Store` leaves every live variable
    /// dereferencing alike after every step. A collection keeps exactly what
    /// a random half of the live variables reaches in the plain store, and
    /// a freed slot reads unbound through the view before and after it is
    /// allocated again.
    #[test]
    fn view_matches_a_plain_store_over_random_histories() {
        use crate::{SplitMix64, Store};
        use std::collections::{HashMap, HashSet};

        #[derive(Clone, Copy)]
        struct Live {
            shared: VarId,
            local: VarId,
        }
        fn translate(t: &Term, to_shared: &HashMap<VarId, VarId>) -> Term {
            match t {
                Term::Var(v) => Term::Var(to_shared[v]),
                Term::Tuple(name, args) => {
                    Term::tuple_from(*name, args.iter().map(|a| translate(a, to_shared)))
                }
                other => other.clone(),
            }
        }
        /// The plain store's variables reachable from `roots`.
        fn reach(local: &Store, roots: &[VarId]) -> HashSet<VarId> {
            let (mut seen, mut work) = (HashSet::new(), roots.to_vec());
            while let Some(v) = work.pop() {
                if seen.insert(v) {
                    if let Some(b) = local.lookup(v) {
                        work.extend(b.vars());
                    }
                }
            }
            seen
        }

        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(0x5EED_0000 + seed);
            let shared = SharedStore::new(2);
            let mut local = Store::new();
            let mut live: Vec<Live> = Vec::new();
            let mut to_shared: HashMap<VarId, VarId> = HashMap::new();
            let alloc = |rng: &mut SplitMix64, local: &mut Store| Live {
                shared: shared.new_var(rng.next_below(2) as u32),
                local: local.new_var(),
            };
            let unbound = |v: &Live| {
                let seen = shared.view(v.shared.owner()).read(v.shared.index());
                matches!(seen, Seen::Unbound)
            };
            for step in 0..400 {
                let pick = |rng: &mut SplitMix64, live: &[Live]| {
                    live[rng.next_below(live.len() as u64) as usize]
                };
                let op = if live.is_empty() {
                    0
                } else {
                    rng.next_below(8)
                };
                match op {
                    // Allocate in a random stripe.
                    0 | 1 => {
                        let v = alloc(&mut rng, &mut local);
                        to_shared.insert(v.local, v.shared);
                        live.push(v);
                    }
                    // Bind an immediate, a boxed value, or an alias.
                    2..=4 => {
                        let v = pick(&mut rng, &live);
                        let w = pick(&mut rng, &live);
                        let value = match (op, rng.next_below(5)) {
                            (2, 0) => Term::int(rng.next_u64() as i64),
                            (2, 1) => Term::float(rng.next_f64() - 0.5),
                            (2, 2) => Term::atom(["a", "b", "ok"][rng.next_below(3) as usize]),
                            (2, 3) => Term::Nil,
                            (2, _) => Term::Port(rng.next_below(9) as u32),
                            (3, 0) => Term::str("text"),
                            (3, _) => Term::tuple("f", vec![Term::Var(w.local)]),
                            _ => Term::Var(w.local),
                        };
                        let on_local = local.bind(v.local, value.clone(), 0, NodeId(0));
                        let on_shared =
                            shared.bind(v.shared, translate(&value, &to_shared), 0, NodeId(0));
                        assert_eq!(
                            on_local.is_ok(),
                            on_shared.is_ok(),
                            "seed {seed} step {step}"
                        );
                    }
                    5 | 6 => {
                        let v = pick(&mut rng, &live);
                        let token = rng.next_below(4);
                        if op == 5 {
                            let a = local.add_waiter(v.local, token);
                            assert_eq!(a, shared.add_waiter(v.shared, token));
                        } else {
                            local.remove_waiter(v.local, token);
                            shared.remove_waiter(v.shared, token);
                        }
                    }
                    // Collect from a random half of the live variables.
                    _ => {
                        let roots: Vec<Live> = live
                            .iter()
                            .copied()
                            .filter(|_| rng.next_below(2) == 0)
                            .collect();
                        let local_roots: Vec<VarId> = roots.iter().map(|v| v.local).collect();
                        let kept = reach(&local, &local_roots);
                        let shared_roots = roots.iter().map(|v| Term::Var(v.shared)).collect();
                        let freed = shared.sweep(&shared.mark(shared_roots, |_, _| {}));
                        let (stay, gone): (Vec<Live>, Vec<Live>) =
                            live.iter().partition(|v| kept.contains(&v.local));
                        assert_eq!(freed, gone.len(), "seed {seed} step {step}");
                        assert!(gone.iter().all(unbound), "freed slot still published");
                        live = stay;
                        for old in &gone {
                            to_shared.remove(&old.local);
                        }
                        // Allocate as many again: recycled slots must come
                        // back reading unbound.
                        for _ in gone {
                            let v = alloc(&mut rng, &mut local);
                            assert!(unbound(&v), "recycled slot born bound");
                            to_shared.insert(v.local, v.shared);
                            live.push(v);
                        }
                    }
                }
                for v in &live {
                    let expected = translate(&local.deref(&Term::Var(v.local)), &to_shared);
                    let got = shared.deref(&Term::Var(v.shared));
                    assert_eq!(got, expected, "seed {seed} step {step}");
                }
            }
            assert_eq!(shared.bind_count(), local.bind_count(), "seed {seed}");
        }
    }

    /// (c) Publish/read race: whatever a concurrent reader sees bound, it
    /// sees the value that was bound — never a payload without its tag or a
    /// hop into nothing.
    #[test]
    fn view_readers_racing_a_binder_see_only_whole_bindings() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        const N: usize = 100_000;
        let s = SharedStore::new(2);
        // Groups of four, alternating stripes: [0] -> [1] -> [2] = Int(base),
        // [3] = Int(base + 3).
        let vars: Vec<VarId> = (0..N).map(|i| s.new_var((i / 4 % 2) as u32)).collect();
        let expected = |i: usize| match i % 4 {
            3 => Term::int(i as i64),
            _ => Term::int((i - i % 4) as i64),
        };
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let answers = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                let mut answers = 0u64;
                // One more full pass after the binder finishes.
                let mut last_pass = false;
                loop {
                    for (i, v) in vars.iter().enumerate() {
                        match s.deref(&Term::Var(*v)) {
                            Term::Var(_) => {}
                            value => {
                                assert_eq!(value, expected(i), "variable {i}");
                                answers += 1;
                            }
                        }
                    }
                    if last_pass {
                        return answers;
                    }
                    last_pass = done.load(Ordering::Acquire);
                }
            });
            start.wait();
            for (g, group) in vars.chunks(4).enumerate() {
                let base = (g * 4) as i64;
                s.bind(group[0], Term::Var(group[1]), 0, NodeId(0)).unwrap();
                s.bind(group[1], Term::Var(group[2]), 0, NodeId(0)).unwrap();
                s.bind(group[3], Term::int(base + 3), 0, NodeId(0)).unwrap();
                s.bind(group[2], Term::int(base), 0, NodeId(0)).unwrap();
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(
            answers >= N as u64,
            "the last pass alone answers every read"
        );
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(s.deref(&Term::Var(*v)), expected(i), "variable {i}");
        }
    }
}
