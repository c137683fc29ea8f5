//! The single-assignment variable store.
//!
//! Strand variables *"have the single assignment property: the value of a
//! variable is initially undefined and, once provided, cannot be modified"*
//! (paper §2.1). The store owns every variable created during a run and
//! keeps the suspension lists used for dataflow synchronization: a process
//! that needs the value of an unbound variable registers a waiter token and
//! is re-scheduled when the binding arrives. A slot holds only that: its
//! value once bound, its waiters until then — one inline, more in a box.
//! Nothing records when or where a binding was made (the machine models
//! latency from the bind time it hands to the wake-up).

use crate::error::{StrandError, StrandResult};
use crate::term::Term;

/// Identifier of a store variable.
///
/// In the deterministic simulator ids are plain indices into one [`Store`].
/// The sharded store ([`crate::shared::SharedStore`]) packs an *owner tag*
/// into the high bits — see [`VarId::tagged`] — so any worker can route a
/// variable to the stripe that owns it without a global table. Untagged ids
/// (owner 0) and stripe-0 ids coincide on purpose: a 1-worker sharded run
/// allocates exactly the same ids as the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// Bits reserved for the owning stripe (worker) tag.
    pub const OWNER_BITS: u32 = 10;
    /// Bits left for the per-stripe slot index.
    pub const INDEX_BITS: u32 = 32 - Self::OWNER_BITS;
    /// Maximum number of distinct owner stripes an id can name.
    pub const MAX_OWNERS: u32 = 1 << Self::OWNER_BITS;
    /// Maximum variables a single stripe can allocate.
    pub const MAX_INDEX: u32 = 1 << Self::INDEX_BITS;

    /// Pack an owner stripe and per-stripe index into one id.
    pub fn tagged(owner: u32, index: u32) -> VarId {
        debug_assert!(owner < Self::MAX_OWNERS);
        debug_assert!(index < Self::MAX_INDEX);
        VarId((owner << Self::INDEX_BITS) | index)
    }

    /// The owner stripe encoded in this id (0 for simulator ids).
    pub fn owner(self) -> u32 {
        self.0 >> Self::INDEX_BITS
    }

    /// The per-stripe slot index encoded in this id.
    pub fn index(self) -> usize {
        (self.0 & (Self::MAX_INDEX - 1)) as usize
    }
}

/// Virtual time in the discrete-event simulation (abstract "ticks").
pub type Time = u64;

/// Identifier of a virtual node (processor) in the simulated multicomputer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(pub u32);

/// Opaque waiter token; the abstract machine uses process identifiers.
pub type Waiter = u64;

/// The waiters of an unbound variable, in registration order: what a slot
/// keeps until it is bound and what a bind hands back. Almost every waited
/// variable has exactly one, which sits inline — a one-waiter suspension
/// allocates nothing at either end. Reads as a slice.
#[derive(Debug, Default, PartialEq)]
pub enum Waiters {
    /// Nobody waits.
    #[default]
    None,
    /// One waiter, inline.
    One(Waiter),
    /// Two or more. Boxed, so a slot stays the size of a [`Term`].
    Many(Box<Vec<Waiter>>),
}

impl Waiters {
    /// Append `waiter` unless it is registered already.
    fn add(&mut self, waiter: Waiter) {
        match self {
            Waiters::None => *self = Waiters::One(waiter),
            Waiters::One(first) if *first != waiter => {
                *self = Waiters::Many(Box::new(vec![*first, waiter]));
            }
            Waiters::Many(all) if !all.contains(&waiter) => all.push(waiter),
            _ => {}
        }
    }

    /// Drop `waiter`; the last one out leaves [`Waiters::None`], not an
    /// empty box.
    fn remove(&mut self, waiter: Waiter) {
        match self {
            Waiters::One(only) if *only == waiter => *self = Waiters::None,
            Waiters::Many(all) => {
                all.retain(|w| *w != waiter);
                if all.is_empty() {
                    *self = Waiters::None;
                }
            }
            _ => {}
        }
    }
}

impl std::ops::Deref for Waiters {
    type Target = [Waiter];

    fn deref(&self) -> &[Waiter] {
        match self {
            Waiters::None => &[],
            Waiters::One(only) => std::slice::from_ref(only),
            Waiters::Many(all) => all,
        }
    }
}

impl<const N: usize> PartialEq<[Waiter; N]> for Waiters {
    fn eq(&self, other: &[Waiter; N]) -> bool {
        **self == *other
    }
}

/// One variable: 24 bytes, the size of its value — `Term`'s tag has room
/// for the unbound states, and [`Waiters`] fits beside it.
enum Slot {
    Unbound(Waiters),
    Bound(Term),
}

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Default for Slot {
    fn default() -> Self {
        Slot::Unbound(Waiters::None)
    }
}

/// The slot table both stores are built on: [`Store`] owns one outright,
/// [`SharedStore`](crate::SharedStore) keeps one per stripe behind a mutex.
/// Slots are addressed by plain index; the wrappers translate to and from
/// [`VarId`] (an untagged id *is* the index, a tagged one carries its stripe
/// beside it).
#[derive(Default)]
pub(crate) struct SlotTable {
    slots: Vec<Slot>,
    /// Swept slot indices available for reuse by `alloc`.
    free: Vec<u32>,
    binds: u64,
}

// The per-reduction methods are `#[inline]`: both wrappers are called from
// other crates' monomorphised matchers, and left to the inliner the extra
// hop cost the simulator ~6 % on `eval-chain` (EXPERIMENTS.md, PR 17).
impl SlotTable {
    /// Slots ever created (reclaimed ones included: they are reused, so this
    /// is the table's high-water mark of *live* variables).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Slots in use: created and not on the free list.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// A fresh unbound slot; a swept one when one is available.
    #[inline]
    pub fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(i) => i,
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot::default());
                i
            }
        }
    }

    /// Successful commits so far (bumped by `commit`, so under whatever
    /// lock guards the table).
    pub fn binds(&self) -> u64 {
        self.binds
    }

    /// Free every slot `keep` rejects that is not free already — reset it
    /// (a waiter list included), let `on_free` see it, push it on the free
    /// list — and return how many were freed. Highest index first, so
    /// `alloc` hands the lowest out first.
    pub fn sweep(&mut self, keep: impl Fn(usize) -> bool, mut on_free: impl FnMut(usize)) -> usize {
        let mut was_free = vec![false; self.slots.len()];
        self.free.iter().for_each(|&i| was_free[i as usize] = true);
        let before = self.free.len();
        for index in (0..self.slots.len())
            .rev()
            .filter(|&i| !keep(i) && !was_free[i])
        {
            self.slots[index] = Slot::default();
            on_free(index);
            self.free.push(index as u32);
        }
        self.free.len() - before
    }

    /// The value in slot `index`, if it is bound.
    #[inline]
    pub fn lookup(&self, index: usize) -> Option<&Term> {
        self.read(index).ok()
    }

    /// Slot `index`'s value, or the waiters of the unbound slot.
    #[inline]
    pub fn read(&self, index: usize) -> Result<&Term, &[Waiter]> {
        match &self.slots[index] {
            Slot::Bound(value) => Ok(value),
            Slot::Unbound(waiters) => Err(waiters),
        }
    }

    /// Move slot `index` from unbound to bound, handing back its waiters.
    /// `v` only names the variable in the double-assignment error.
    #[inline]
    pub fn commit(&mut self, index: usize, v: VarId, value: Term) -> StrandResult<Waiters> {
        match &mut self.slots[index] {
            Slot::Bound(existing) => Err(StrandError::DoubleAssign {
                var: v,
                existing: existing.clone(),
                attempted: value,
            }),
            Slot::Unbound(waiters) => {
                let waiters = std::mem::take(waiters);
                self.slots[index] = Slot::Bound(value);
                self.binds += 1;
                Ok(waiters)
            }
        }
    }

    /// Register `waiter` on slot `index`; `false` (not registered) if the
    /// slot is already bound.
    #[inline]
    pub fn add_waiter(&mut self, index: usize, waiter: Waiter) -> bool {
        match &mut self.slots[index] {
            Slot::Unbound(waiters) => {
                waiters.add(waiter);
                true
            }
            Slot::Bound(_) => false,
        }
    }

    /// Drop a waiter registration (no-op if absent or the slot is bound).
    #[inline]
    pub fn remove_waiter(&mut self, index: usize, waiter: Waiter) {
        if let Slot::Unbound(waiters) = &mut self.slots[index] {
            waiters.remove(waiter);
        }
    }
}

/// The single-assignment store.
///
/// ```
/// use strand_core::{Store, Term, NodeId};
/// let mut store = Store::new();
/// let x = store.new_var();
/// assert!(store.lookup(x).is_none());
/// store.bind(x, Term::int(42), 7, NodeId(0)).unwrap();
/// assert_eq!(store.lookup(x), Some(&Term::int(42)));
/// // Second assignment is a run-time error (paper §2.1).
/// assert!(store.bind(x, Term::int(43), 8, NodeId(0)).is_err());
/// ```
#[derive(Default)]
pub struct Store {
    table: SlotTable,
}

impl Store {
    /// Create an empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Number of variables ever created.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no variable has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of successful bindings performed.
    pub fn bind_count(&self) -> u64 {
        self.table.binds()
    }

    /// Allocate a fresh, unbound variable.
    pub fn new_var(&mut self) -> VarId {
        VarId(self.table.alloc())
    }

    /// The value `v` is bound to, if any (no dereferencing of chained
    /// variables).
    pub fn lookup(&self, v: VarId) -> Option<&Term> {
        self.table.lookup(v.0 as usize)
    }

    /// Follow variable-to-variable bindings until reaching either a
    /// non-variable term or an unbound variable occurrence.
    ///
    /// The result is "one level resolved": its top constructor is reliable,
    /// but subterms may still contain bound variables.
    pub fn deref(&self, t: &Term) -> Term {
        let mut cur = t.clone();
        loop {
            match cur {
                Term::Var(v) => match self.lookup(v) {
                    Some(Term::Var(next)) => cur = Term::Var(*next),
                    Some(other) => return other.clone(),
                    None => return Term::Var(v),
                },
                other => return other,
            }
        }
    }

    /// Fully substitute all bound variables in `t`, producing a term whose
    /// only variables are genuinely unbound. Used for snapshots, result
    /// extraction and error messages.
    pub fn resolve(&self, t: &Term) -> Term {
        resolve_with(t, &|t| self.deref(t))
    }

    /// Bind `v` to `value`.
    ///
    /// Returns the waiter tokens that were suspended on `v`, in registration
    /// order, so the machine can re-schedule them. Binding a variable to
    /// itself (directly or through a chain) is a no-op; binding an
    /// already-bound variable is the run-time error the paper specifies.
    /// The virtual `time` and `node` of the binding are accepted but not
    /// stored.
    pub fn bind(
        &mut self,
        v: VarId,
        value: Term,
        _time: Time,
        _node: NodeId,
    ) -> StrandResult<Waiters> {
        // Dereference the target first so alias chains stay acyclic: if the
        // value leads back to `v`, the assignment is `X = X` and a no-op.
        let value = self.deref(&value);
        if let Term::Var(w) = value {
            if w == v {
                return Ok(Waiters::None);
            }
        }
        self.table.commit(v.0 as usize, v, value)
    }

    /// Register `waiter` to be woken when `v` is bound. If `v` is already
    /// bound the call returns `false` and the waiter is *not* registered —
    /// the caller should treat the data as available.
    pub fn add_waiter(&mut self, v: VarId, waiter: Waiter) -> bool {
        self.table.add_waiter(v.0 as usize, waiter)
    }

    /// Remove a waiter from a variable's suspension list (used when a
    /// process suspended on several variables is woken by one of them).
    pub fn remove_waiter(&mut self, v: VarId, waiter: Waiter) {
        self.table.remove_waiter(v.0 as usize, waiter);
    }
}

/// Deep substitution under `deref`, shared by [`Store::resolve`] and
/// [`SharedStore::resolve`](crate::SharedStore::resolve). A list is walked
/// along its spine in a loop — a stream can be any length, and a flat list
/// literal as long as a request line allows — so only nesting recurses.
pub(crate) fn resolve_with(t: &Term, deref: &impl Fn(&Term) -> Term) -> Term {
    match deref(t) {
        Term::Tuple(name, args) => {
            Term::tuple_from(name, args.iter().map(|a| resolve_with(a, deref)))
        }
        Term::List(cell) => {
            let mut heads = vec![resolve_with(&cell.0, deref)];
            let mut tail = deref(&cell.1);
            while let Term::List(next) = tail {
                heads.push(resolve_with(&next.0, deref));
                tail = deref(&next.1);
            }
            let end = resolve_with(&tail, deref);
            heads
                .into_iter()
                .rev()
                .fold(end, |tail, head| Term::cons(head, tail))
        }
        other => other,
    }
}

/// The store operations term-level code needs: dereferencing, deep
/// substitution and fresh-variable allocation.
///
/// Matching, guard evaluation, arithmetic and pattern instantiation are
/// generic over this trait so they run unchanged against the simulator's
/// exclusive [`Store`] and the sharded concurrent
/// [`SharedStore`](crate::shared::SharedStore) views: the callers
/// monomorphize, so the single-threaded path pays nothing for the
/// abstraction.
pub trait StoreOps {
    /// See [`Store::deref`].
    fn deref(&self, t: &Term) -> Term;
    /// [`deref`](StoreOps::deref) of a term the caller is done with: a
    /// non-variable comes back as it went in, so an `Arc`-backed term is
    /// moved, not cloned and dropped — no write to a reference count
    /// another thread may be writing too.
    fn deref_owned(&self, t: Term) -> Term {
        match t {
            Term::Var(_) => self.deref(&t),
            other => other,
        }
    }
    /// See [`Store::resolve`].
    fn resolve(&self, t: &Term) -> Term;
    /// See [`Store::new_var`].
    fn new_var(&mut self) -> VarId;
}

impl StoreOps for Store {
    fn deref(&self, t: &Term) -> Term {
        Store::deref(self, t)
    }

    fn resolve(&self, t: &Term) -> Term {
        Store::resolve(self, t)
    }

    fn new_var(&mut self) -> VarId {
        Store::new_var(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_assignment_enforced() {
        let mut s = Store::new();
        let x = s.new_var();
        s.bind(x, Term::int(1), 0, NodeId(0)).unwrap();
        let err = s.bind(x, Term::int(2), 1, NodeId(0)).unwrap_err();
        match err {
            StrandError::DoubleAssign {
                existing,
                attempted,
                ..
            } => {
                assert_eq!(existing, Term::int(1));
                assert_eq!(attempted, Term::int(2));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn deref_follows_chains() {
        let mut s = Store::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        s.bind(x, Term::Var(y), 0, NodeId(0)).unwrap();
        s.bind(y, Term::Var(z), 0, NodeId(0)).unwrap();
        assert_eq!(s.deref(&Term::Var(x)), Term::Var(z));
        s.bind(z, Term::atom("done"), 3, NodeId(1)).unwrap();
        assert_eq!(s.deref(&Term::Var(x)), Term::atom("done"));
    }

    #[test]
    fn self_binding_is_noop_and_breaks_cycles() {
        let mut s = Store::new();
        let x = s.new_var();
        let y = s.new_var();
        s.bind(x, Term::Var(y), 0, NodeId(0)).unwrap();
        // Y := X dereferences to Y := Y, which must be a no-op (not a cycle).
        let waiters = s.bind(y, Term::Var(x), 0, NodeId(0)).unwrap();
        assert!(waiters.is_empty());
        assert!(s.lookup(y).is_none());
        // The chain still dereferences without looping.
        assert_eq!(s.deref(&Term::Var(x)), Term::Var(y));
    }

    #[test]
    fn waiters_returned_on_bind() {
        let mut s = Store::new();
        let (x, one, none) = (s.new_var(), s.new_var(), s.new_var());
        assert!(s.add_waiter(x, 12));
        assert!(s.add_waiter(x, 11));
        assert!(s.add_waiter(x, 12)); // duplicate registration is idempotent
        assert!(s.add_waiter(one, 4));
        // In registration order, not sorted.
        let w = s.bind(x, Term::int(5), 2, NodeId(0)).unwrap();
        assert_eq!(w, [12, 11]);
        let bind = |s: &mut Store, v| s.bind(v, Term::Nil, 0, NodeId(0)).unwrap();
        assert_eq!(bind(&mut s, one), Waiters::One(4));
        assert_eq!(bind(&mut s, none), Waiters::None);
        // Registering on a bound var fails fast.
        assert!(!s.add_waiter(x, 13));
    }

    #[test]
    fn remove_waiter_unregisters() {
        let mut s = Store::new();
        let x = s.new_var();
        s.add_waiter(x, 1);
        s.add_waiter(x, 2);
        s.remove_waiter(x, 1);
        let w = s.bind(x, Term::int(0), 0, NodeId(0)).unwrap();
        assert_eq!(w, [2]);
    }

    #[test]
    fn resolve_substitutes_deeply() {
        let mut s = Store::new();
        let x = s.new_var();
        let y = s.new_var();
        s.bind(x, Term::int(3), 0, NodeId(0)).unwrap();
        let t = Term::tuple("f", vec![Term::Var(x), Term::cons(Term::Var(y), Term::Nil)]);
        let r = s.resolve(&t);
        assert_eq!(r.to_string(), format!("f(3,[_{}])", y.0));
    }

    #[test]
    fn binding_value_is_itself_dereferenced() {
        let mut s = Store::new();
        let x = s.new_var();
        let y = s.new_var();
        s.bind(y, Term::int(9), 0, NodeId(0)).unwrap();
        s.bind(x, Term::Var(y), 1, NodeId(0)).unwrap();
        // x was bound to deref(Y) = 9 directly.
        assert_eq!(s.lookup(x), Some(&Term::int(9)));
    }

    /// The waiters of slot `index`, or `None` if it is bound.
    fn state(table: &SlotTable, index: usize) -> Option<&Waiters> {
        match &table.slots[index] {
            Slot::Unbound(waiters) => Some(waiters),
            Slot::Bound(_) => None,
        }
    }

    #[test]
    fn a_slot_keeps_one_waiter_inline_and_boxes_the_second() {
        let mut t = SlotTable::default();
        let i = t.alloc() as usize;
        assert_eq!(state(&t, i), Some(&Waiters::None));
        assert!(t.add_waiter(i, 7));
        assert_eq!(state(&t, i), Some(&Waiters::One(7)));
        // A duplicate registration is a no-op, inline or boxed.
        assert!(t.add_waiter(i, 7));
        assert_eq!(state(&t, i), Some(&Waiters::One(7)));
        assert!(t.add_waiter(i, 3));
        assert_eq!(state(&t, i), Some(&Waiters::Many(Box::new(vec![7, 3]))));
        assert!(t.add_waiter(i, 3) && t.add_waiter(i, 7));
        assert_eq!(t.read(i), Err(&[7, 3][..]));
    }

    #[test]
    fn the_last_waiter_out_leaves_the_slot_unbound() {
        let mut t = SlotTable::default();
        let (single, several) = (t.alloc() as usize, t.alloc() as usize);
        t.add_waiter(single, 1);
        t.remove_waiter(single, 2); // absent: no-op
        assert_eq!(state(&t, single), Some(&Waiters::One(1)));
        t.remove_waiter(single, 1);
        assert_eq!(state(&t, single), Some(&Waiters::None));
        // An emptied box is dropped, not kept for a resident fleet's slot.
        for w in [1, 2, 3] {
            t.add_waiter(several, w);
        }
        t.remove_waiter(several, 2);
        assert_eq!(
            state(&t, several),
            Some(&Waiters::Many(Box::new(vec![1, 3])))
        );
        t.remove_waiter(several, 1);
        t.remove_waiter(several, 3);
        assert_eq!(state(&t, several), Some(&Waiters::None));
        // Removing from a bound slot changes nothing.
        t.commit(single, VarId(0), Term::int(1)).unwrap();
        t.remove_waiter(single, 1);
        assert_eq!(t.lookup(single), Some(&Term::int(1)));
    }

    #[test]
    fn sweep_resets_waited_slots() {
        let mut t = SlotTable::default();
        let (one, many, kept) = (t.alloc() as usize, t.alloc() as usize, t.alloc() as usize);
        t.add_waiter(one, 1);
        t.add_waiter(many, 1);
        t.add_waiter(many, 2);
        t.add_waiter(kept, 3);
        let mut freed = Vec::new();
        assert_eq!(t.sweep(|i| i == kept, |i| freed.push(i)), 2);
        assert_eq!(freed, [many, one]);
        assert_eq!(state(&t, one), Some(&Waiters::None));
        assert_eq!(state(&t, many), Some(&Waiters::None));
        assert_eq!(state(&t, kept), Some(&Waiters::One(3)));
        assert_eq!((t.alloc() as usize, t.alloc() as usize), (one, many));
    }
}
