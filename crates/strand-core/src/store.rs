//! The single-assignment variable store.
//!
//! Strand variables *"have the single assignment property: the value of a
//! variable is initially undefined and, once provided, cannot be modified"*
//! (paper §2.1). The store owns every variable created during a run and
//! keeps the suspension lists used for dataflow synchronization: a process
//! that needs the value of an unbound variable registers a waiter token and
//! is re-scheduled when the binding arrives. A binding also records *when*
//! and *on which virtual node* it was made, for whoever inspects the store;
//! the machine does not read them back (it models latency from the bind
//! time it hands to the wake-up, not from the stored stamp).

use crate::error::{StrandError, StrandResult};
use crate::term::Term;
use std::collections::HashMap;

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

/// A committed binding: the value plus where and when it was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Binding {
    /// The bound value (may itself contain unbound variables).
    pub value: Term,
    /// Virtual time at which the binding was made.
    pub time: Time,
    /// Node whose process made the binding.
    pub node: NodeId,
}

/// Opaque waiter token; the abstract machine uses process identifiers.
pub type Waiter = u64;

enum Slot {
    Unbound { waiters: Vec<Waiter> },
    Bound(Binding),
}

impl Default for Slot {
    fn default() -> Self {
        Slot::Unbound {
            waiters: Vec::new(),
        }
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
    /// Per-region slot indices awaiting reclamation (regions ≠ 0 only).
    region_index: HashMap<u32, Vec<u32>>,
    /// Reclaimed slot indices available for reuse by `alloc`.
    free: Vec<u32>,
    /// Slots from closed regions that still had waiters at reclaim time
    /// (e.g. a live port tail); re-examined on every later reclaim.
    deferred: Vec<u32>,
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

    /// A fresh unbound slot under `region` (0 = untracked: never recorded,
    /// never reclaimed, so batch runs pay nothing for the machinery). Reuses
    /// a reclaimed slot when one is available.
    #[inline]
    pub fn alloc(&mut self, region: u32) -> u32 {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot::default());
                i
            }
        };
        if region != 0 {
            self.region_index.entry(region).or_default().push(index);
        }
        index
    }

    /// Successful commits so far (bumped by `commit`, so under whatever
    /// lock guards the table).
    pub fn binds(&self) -> u64 {
        self.binds
    }

    /// Reclaim every slot allocated under `region`, returning how many were
    /// freed; see [`Store::reclaim_region`] for the contract. `on_free` sees
    /// each freed index before `alloc` can hand it out again.
    pub fn reclaim(&mut self, region: u32, mut on_free: impl FnMut(usize)) -> usize {
        let mut candidates = self.region_index.remove(&region).unwrap_or_default();
        candidates.append(&mut self.deferred);
        let mut freed = 0;
        for index in candidates {
            match &self.slots[index as usize] {
                Slot::Unbound { waiters } if !waiters.is_empty() => self.deferred.push(index),
                _ => {
                    self.slots[index as usize] = Slot::default();
                    on_free(index as usize);
                    self.free.push(index);
                    freed += 1;
                }
            }
        }
        freed
    }

    /// The binding in slot `index`, if any.
    #[inline]
    pub fn lookup(&self, index: usize) -> Option<&Binding> {
        match &self.slots[index] {
            Slot::Bound(b) => Some(b),
            Slot::Unbound { .. } => None,
        }
    }

    /// Move slot `index` from unbound to bound, handing back its waiters.
    /// `v` only names the variable in the double-assignment error.
    #[inline]
    pub fn commit(
        &mut self,
        index: usize,
        v: VarId,
        value: Term,
        time: Time,
        node: NodeId,
    ) -> StrandResult<Vec<Waiter>> {
        match &mut self.slots[index] {
            Slot::Bound(existing) => Err(StrandError::DoubleAssign {
                var: v,
                existing: existing.value.clone(),
                attempted: value,
            }),
            slot @ Slot::Unbound { .. } => {
                self.binds += 1;
                let bound = Slot::Bound(Binding { value, time, node });
                match std::mem::replace(slot, bound) {
                    Slot::Unbound { waiters } => Ok(waiters),
                    Slot::Bound(_) => unreachable!(),
                }
            }
        }
    }

    /// Register `waiter` on slot `index`; `false` (not registered) if the
    /// slot is already bound.
    #[inline]
    pub fn add_waiter(&mut self, index: usize, waiter: Waiter) -> bool {
        match &mut self.slots[index] {
            Slot::Unbound { waiters } => {
                if !waiters.contains(&waiter) {
                    waiters.push(waiter);
                }
                true
            }
            Slot::Bound(_) => false,
        }
    }

    /// Drop a waiter registration (no-op if absent or the slot is bound).
    #[inline]
    pub fn remove_waiter(&mut self, index: usize, waiter: Waiter) {
        if let Slot::Unbound { waiters } = &mut self.slots[index] {
            waiters.retain(|w| *w != waiter);
        }
    }

    /// Indices of the slots that currently have at least one waiter.
    pub fn with_waiters(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Unbound { waiters } if !waiters.is_empty() => Some(i as u32),
            _ => None,
        })
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
/// assert_eq!(store.lookup(x).unwrap().value, Term::int(42));
/// // Second assignment is a run-time error (paper §2.1).
/// assert!(store.bind(x, Term::int(43), 8, NodeId(0)).is_err());
/// ```
#[derive(Default)]
pub struct Store {
    table: SlotTable,
    /// Region tag stamped on subsequently allocated variables. Region 0 is
    /// the boot/batch region: allocations there are never tracked and never
    /// reclaimed.
    region: u32,
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
    ///
    /// Reuses a reclaimed slot when one is available, so the slot table's
    /// high-water mark tracks *live* variables, not variables ever created.
    /// When the current [region](Store::set_region) is non-zero the slot is
    /// recorded for [`reclaim_region`](Store::reclaim_region).
    pub fn new_var(&mut self) -> VarId {
        VarId(self.table.alloc(self.region))
    }

    /// Set the region tag for subsequent allocations (0 = untracked).
    pub fn set_region(&mut self, region: u32) {
        self.region = region;
    }

    /// The region tag currently stamped on allocations.
    pub fn region(&self) -> u32 {
        self.region
    }

    /// Reclaim every variable allocated under `region`, returning the number
    /// of slots actually freed.
    ///
    /// A slot is freed (reset to unbound-empty and made available for reuse)
    /// when it is bound, or unbound with no waiters. A slot that still has
    /// waiters — typically a live port tail some resident server loop is
    /// suspended on — is *deferred*: it stays allocated and is re-examined
    /// on the next reclaim, by which point the stream has usually advanced
    /// past it. Safety rests on the session-locality contract (DESIGN.md
    /// §9): server state must not retain session terms beyond the reply.
    pub fn reclaim_region(&mut self, region: u32) -> usize {
        self.table.reclaim(region, |_| {})
    }

    /// The binding of `v`, if any (no dereferencing of chained variables).
    pub fn lookup(&self, v: VarId) -> Option<&Binding> {
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
                    Some(b) => match &b.value {
                        Term::Var(next) => cur = Term::Var(*next),
                        other => return other.clone(),
                    },
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

    /// Bind `v` to `value` at virtual `time` on `node`.
    ///
    /// Returns the waiter tokens that were suspended on `v` so the machine
    /// can re-schedule them. Binding a variable to itself (directly or
    /// through a chain) is a no-op; binding an already-bound variable is the
    /// run-time error the paper specifies.
    pub fn bind(
        &mut self,
        v: VarId,
        value: Term,
        time: Time,
        node: NodeId,
    ) -> StrandResult<Vec<Waiter>> {
        // Dereference the target first so alias chains stay acyclic: if the
        // value leads back to `v`, the assignment is `X = X` and a no-op.
        let value = self.deref(&value);
        if let Term::Var(w) = value {
            if w == v {
                return Ok(Vec::new());
            }
        }
        self.table.commit(v.0 as usize, v, value, time, node)
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

    /// All variables that currently have at least one waiter (diagnostics).
    pub fn vars_with_waiters(&self) -> Vec<VarId> {
        self.table.with_waiters().map(VarId).collect()
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
        let x = s.new_var();
        assert!(s.add_waiter(x, 11));
        assert!(s.add_waiter(x, 12));
        assert!(s.add_waiter(x, 11)); // duplicate registration is idempotent
        let w = s.bind(x, Term::int(5), 2, NodeId(0)).unwrap();
        assert_eq!(w, vec![11, 12]);
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
        assert_eq!(w, vec![2]);
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
    fn reclaimed_regions_recycle_slots_and_bound_store_growth() {
        let mut s = Store::new();
        let boot = s.new_var(); // region 0: never reclaimed
        s.bind(boot, Term::int(1), 0, NodeId(0)).unwrap();
        let mut high_water = 0;
        for session in 1..=100u32 {
            s.set_region(session);
            let a = s.new_var();
            let b = s.new_var();
            s.bind(a, Term::int(session as i64), 0, NodeId(0)).unwrap();
            s.bind(b, Term::Var(a), 0, NodeId(0)).unwrap();
            s.set_region(0);
            assert_eq!(s.reclaim_region(session), 2);
            high_water = high_water.max(s.len());
        }
        // 1 boot slot + at most 2 live session slots, ever.
        assert!(high_water <= 3, "store grew to {high_water} slots");
        // The boot region was untouched.
        assert_eq!(s.lookup(boot).unwrap().value, Term::int(1));
    }

    #[test]
    fn waiter_blocked_slots_defer_until_a_later_reclaim() {
        let mut s = Store::new();
        s.set_region(7);
        let tail = s.new_var();
        s.add_waiter(tail, 99); // a resident loop is suspended on this slot
        s.set_region(0);
        // First reclaim must not free the slot out from under the waiter.
        assert_eq!(s.reclaim_region(7), 0);
        assert_eq!(s.vars_with_waiters(), vec![tail]);
        // The stream advances: the tail is bound, waiter drains.
        s.bind(tail, Term::Nil, 1, NodeId(0)).unwrap();
        // Any later reclaim (even of another region) frees the deferred slot.
        assert_eq!(s.reclaim_region(8), 1);
        // The freed slot is recycled by the next allocation.
        let reused = s.new_var();
        assert_eq!(reused, tail);
        assert!(s.lookup(reused).is_none());
    }

    #[test]
    fn binding_value_is_itself_dereferenced() {
        let mut s = Store::new();
        let x = s.new_var();
        let y = s.new_var();
        s.bind(y, Term::int(9), 0, NodeId(0)).unwrap();
        s.bind(x, Term::Var(y), 1, NodeId(0)).unwrap();
        // x was bound to deref(Y) = 9 directly.
        assert_eq!(s.lookup(x).unwrap().value, Term::int(9));
    }
}
