//! A sharded single-assignment store for the multi-threaded backend.
//!
//! The simulator owns one exclusive [`Store`](crate::Store); the parallel
//! backend's workers instead share a [`SharedStore`] split into one *stripe*
//! per worker. A worker allocates variables only in its own stripe (ids carry
//! the owner tag — [`VarId::tagged`]), so allocation contends only with
//! readers of that stripe, and every operation locks at most two stripes at
//! a time (ordered by stripe index, so lock acquisition cannot deadlock).
//!
//! Correctness leans on the single-assignment property: a slot moves from
//! `Unbound` to `Bound` exactly once and never back, so alias chains only
//! grow. `deref` can therefore hop lock-to-lock without a global snapshot —
//! any chain it observes is a prefix of the final chain, and a reader that
//! misses a *very* recent binding behaves exactly like a process whose
//! notification has not arrived yet, which the suspension protocol already
//! handles.
//!
//! Alias-cycle freedom (the property that makes `deref` terminate) holds
//! because a variable-to-variable binding `v := w` commits only while *both*
//! stripes are locked and `w` is verified unbound: every committed alias edge
//! points at a variable that was unbound at commit time, so at most one
//! outgoing edge can ever close a cycle — and that case is caught by the
//! self-binding check after re-dereferencing (see [`SharedStore::bind`]).

use crate::error::StrandResult;
use crate::store::{Binding, NodeId, SlotTable, Time, Waiter};
use crate::term::Term;
use crate::{StoreOps, VarId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The striped concurrent single-assignment store.
///
/// All methods take `&self`; interior mutability is per-stripe
/// `std::sync::Mutex` (strand-core deliberately has no dependencies).
pub struct SharedStore {
    /// One worker's slice of the store each.
    stripes: Vec<Mutex<SlotTable>>,
    bind_count: AtomicU64,
}

impl SharedStore {
    /// A store with `owners` stripes (one per worker).
    pub fn new(owners: u32) -> SharedStore {
        assert!(
            (1..=VarId::MAX_OWNERS).contains(&owners),
            "stripe count {owners} out of range"
        );
        SharedStore {
            stripes: (0..owners)
                .map(|_| Mutex::new(SlotTable::default()))
                .collect(),
            bind_count: AtomicU64::new(0),
        }
    }

    fn stripe(&self, owner: u32) -> std::sync::MutexGuard<'_, SlotTable> {
        self.stripes[owner as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Number of stripes.
    pub fn owners(&self) -> u32 {
        self.stripes.len() as u32
    }

    /// Total number of successful bindings performed (all stripes).
    pub fn bind_count(&self) -> u64 {
        self.bind_count.load(Ordering::Relaxed)
    }

    /// Number of variables ever created (all stripes).
    pub fn len(&self) -> usize {
        (0..self.owners()).map(|o| self.stripe(o).len()).sum()
    }

    /// True if no variable has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh, unbound variable in `owner`'s stripe.
    pub fn new_var(&self, owner: u32) -> VarId {
        self.new_var_in(owner, 0)
    }

    /// Allocate a fresh, unbound variable in `owner`'s stripe under
    /// `region` (0 = untracked). Reclaimed slots are reused first, so a
    /// resident process's stripe tables track live variables, not variables
    /// ever created. See [`Store::reclaim_region`](crate::Store::reclaim_region)
    /// for the reclamation contract.
    pub fn new_var_in(&self, owner: u32, region: u32) -> VarId {
        let index = self.stripe(owner).alloc(region);
        assert!(
            index < VarId::MAX_INDEX,
            "stripe {owner} exhausted its variable index space"
        );
        VarId::tagged(owner, index)
    }

    /// Reclaim every variable allocated under `region` in `owner`'s stripe,
    /// returning the number of slots freed. Bound slots and unbound slots
    /// without waiters are reset and recycled; slots that still have waiters
    /// are deferred to a later reclaim of this stripe (the striped analogue
    /// of [`Store::reclaim_region`](crate::Store::reclaim_region)).
    pub fn reclaim_region_stripe(&self, owner: u32, region: u32) -> usize {
        self.stripe(owner).reclaim(region)
    }

    /// The binding of `v`, if any (cloned out of the stripe lock).
    pub fn lookup(&self, v: VarId) -> Option<Binding> {
        self.stripe(v.owner()).lookup(v.index()).cloned()
    }

    /// Follow variable-to-variable bindings hop by hop, locking one stripe
    /// per hop. See [`Store::deref`](crate::Store::deref) for the contract.
    pub fn deref(&self, t: &Term) -> Term {
        let mut cur = t.clone();
        loop {
            match cur {
                Term::Var(v) => match self.lookup(v) {
                    Some(b) => match b.value {
                        Term::Var(next) => cur = Term::Var(next),
                        other => return other,
                    },
                    None => return Term::Var(v),
                },
                other => return other,
            }
        }
    }

    /// Like [`deref`](SharedStore::deref), also reporting when/where the
    /// last link was bound.
    pub fn deref_timed(&self, t: &Term) -> (Term, Option<(Time, NodeId)>) {
        let mut cur = t.clone();
        let mut stamp = None;
        loop {
            match cur {
                Term::Var(v) => match self.lookup(v) {
                    Some(b) => {
                        stamp = Some((b.time, b.node));
                        match b.value {
                            Term::Var(next) => cur = Term::Var(next),
                            other => return (other, stamp),
                        }
                    }
                    None => return (Term::Var(v), stamp),
                },
                other => return (other, stamp),
            }
        }
    }

    /// Fully substitute all bound variables in `t`.
    pub fn resolve(&self, t: &Term) -> Term {
        crate::store::resolve_with(t, &|t| self.deref(t))
    }

    /// Bind `v` to `value` at virtual `time` on `node`, returning the waiter
    /// tokens that were suspended on `v`.
    ///
    /// Semantics match [`Store::bind`](crate::Store::bind): the value is
    /// dereferenced first, self-binding (directly or through a chain) is a
    /// no-op, and double assignment is a run-time error. When the
    /// dereferenced value is itself an unbound variable `w`, both stripes
    /// are locked in index order and the commit happens only if `w` is
    /// *still* unbound — if a concurrent bind won the race, we retry from
    /// the dereference (the chain got longer, never cyclic).
    pub fn bind(
        &self,
        v: VarId,
        value: Term,
        time: Time,
        node: NodeId,
    ) -> StrandResult<Vec<Waiter>> {
        loop {
            let value = self.deref(&value);
            if let Term::Var(w) = value {
                if w == v {
                    return Ok(Vec::new());
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
                return self.commit(&mut v_stripe, v, value, time, node);
            }
            // Ground (non-variable) value: only `v`'s stripe is involved.
            return self.commit(&mut self.stripe(v.owner()), v, value, time, node);
        }
    }

    fn commit(
        &self,
        stripe: &mut SlotTable,
        v: VarId,
        value: Term,
        time: Time,
        node: NodeId,
    ) -> StrandResult<Vec<Waiter>> {
        let waiters = stripe.commit(v.index(), v, value, time, node)?;
        self.bind_count.fetch_add(1, Ordering::Relaxed);
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

    /// All variables that currently have at least one waiter (diagnostics;
    /// called only after the workers have quiesced).
    pub fn vars_with_waiters(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for owner in 0..self.owners() {
            let tagged = |i| VarId::tagged(owner, i);
            out.extend(self.stripe(owner).with_waiters().map(tagged));
        }
        out
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
    region: u32,
}

impl SharedStoreView {
    /// A view allocating into `owner`'s stripe.
    pub fn new(store: std::sync::Arc<SharedStore>, owner: u32) -> SharedStoreView {
        assert!(owner < store.owners());
        SharedStoreView {
            store,
            owner,
            region: 0,
        }
    }

    /// The underlying shared store.
    pub fn shared(&self) -> &SharedStore {
        &self.store
    }

    /// The stripe this view allocates into.
    pub fn owner(&self) -> u32 {
        self.owner
    }

    /// Set the region tag for subsequent allocations (0 = untracked).
    pub fn set_region(&mut self, region: u32) {
        self.region = region;
    }

    /// The region tag currently stamped on allocations.
    pub fn region(&self) -> u32 {
        self.region
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
        self.store.new_var_in(self.owner, self.region)
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
        let (v, stamp) = s.deref_timed(&Term::Var(x));
        assert_eq!(v, Term::int(7));
        assert_eq!(stamp, Some((3, NodeId(1))));
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
        assert_eq!(s.vars_with_waiters(), vec![x]);
        let w = s.bind(x, Term::int(5), 2, NodeId(0)).unwrap();
        assert_eq!(w, vec![11]);
        assert!(!s.add_waiter(x, 13));
        assert!(s.vars_with_waiters().is_empty());
    }

    #[test]
    fn stripe_reclaim_recycles_slots_and_defers_waiter_blocked_ones() {
        let s = SharedStore::new(2);
        let boot = s.new_var(1); // region 0 in stripe 1: never reclaimed
        s.bind(boot, Term::int(1), 0, NodeId(0)).unwrap();
        let mut high_water = 0;
        for session in 1..=50u32 {
            let a = s.new_var_in(1, session);
            let tail = s.new_var_in(1, session);
            s.bind(a, Term::int(session as i64), 0, NodeId(0)).unwrap();
            s.add_waiter(tail, u64::from(session));
            // The waiter-blocked slot defers; the bound one frees. From the
            // second session on, the previous session's deferred tail (bound
            // at the end of that session) is freed here too.
            let expected = if session == 1 { 1 } else { 2 };
            assert_eq!(s.reclaim_region_stripe(1, session), expected);
            // Binding drains the waiter; the next reclaim frees the deferral.
            s.bind(tail, Term::Nil, 0, NodeId(0)).unwrap();
            high_water = high_water.max(s.len());
        }
        // The final tail is still deferred; one more reclaim frees it.
        assert_eq!(s.reclaim_region_stripe(1, 51), 1);
        assert!(high_water <= 4, "stripe grew to {high_water} slots");
        assert_eq!(s.lookup(boot).unwrap().value, Term::int(1));
        // Stripe 0 was never touched.
        assert_eq!(s.reclaim_region_stripe(0, 1), 0);
    }

    #[test]
    fn view_region_tags_route_allocations_to_reclaim() {
        let s = Arc::new(SharedStore::new(2));
        let mut view = SharedStoreView::new(Arc::clone(&s), 1);
        assert_eq!(view.region(), 0);
        view.set_region(3);
        let v = StoreOps::new_var(&mut view);
        assert_eq!(v.owner(), 1);
        s.bind(v, Term::int(9), 0, NodeId(0)).unwrap();
        view.set_region(0);
        let untracked = StoreOps::new_var(&mut view);
        assert_eq!(s.reclaim_region_stripe(1, 3), 1);
        // The untracked allocation survives any reclaim.
        assert!(s.lookup(untracked).is_none());
        s.bind(untracked, Term::int(1), 0, NodeId(0)).unwrap();
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
}
