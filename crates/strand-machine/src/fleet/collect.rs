//! Reclaim by reachability: a resident fleet's one collection routine
//! (DESIGN.md §9). It runs only at tokens = 0 under the ingress lock,
//! takes every other worker's machine (a worker lets go of it only while
//! parked on its channel, and an ingress lender holds a parked worker's
//! only while it holds a token or is letting go), re-checks tokens = 0,
//! marks from the roots — port tails, deadline terms, boot variables,
//! queued goals and held terms; a suspension only through a variable it
//! waits on — and sweeps every stripe. `quiesce.rs` model-checks the
//! protocol.

use super::Shared;
use crate::Machine;
use std::sync::atomic::Ordering;
use std::sync::{MutexGuard, TryLockError};
use std::time::{Duration, Instant};
use strand_core::{FxHashMap, FxHashSet};

/// How long a due collection holds the ingress back for the fleet to drain;
/// past it, no more waits until the fleet idles.
const DRAIN_WAIT: Duration = Duration::from_millis(100);

/// The ingress machine, and when the next collection is due.
pub(crate) struct Ingress {
    pub machine: Machine,
    pub due: Due,
}

#[derive(Default)]
pub(crate) struct Due {
    /// A session closed since the last collection.
    pub closed: bool,
    /// The fleet did not drain within `DRAIN_WAIT`.
    stalled: bool,
    /// The last mark's work, and the live slots its sweep left.
    work: u64,
    live: u64,
}

impl Ingress {
    fn due(&self, shared: &Shared) -> bool {
        let (due, allocated) = (&self.due, shared.store.live() as u64);
        due.closed || allocated >= due.live + due.work.max(1)
    }
}

/// The ingress side, taking the lock: a due collection holds the ingress
/// back until the in-flight work drains, then collects. It waits with the
/// lock free, so the worker that leaves the fleet idle may collect first.
pub(crate) fn hold_back<'a>(
    shared: &'a Shared,
    mut guard: MutexGuard<'a, Option<Ingress>>,
) -> MutexGuard<'a, Option<Ingress>> {
    let deadline = Instant::now() + DRAIN_WAIT;
    while let Some(ingress) = guard.as_mut().filter(|i| i.due(shared)) {
        if shared.tokens.is_zero() {
            collect(shared, ingress, None);
            break;
        }
        let left = deadline.checked_duration_since(Instant::now());
        let Some(left) = left.filter(|_| !ingress.due.stalled) else {
            ingress.due.stalled = true;
            break;
        };
        // A slice, for the wake that comes before the wait begins.
        let slice = left.min(Duration::from_millis(1));
        guard = match shared.quiet.wait_timeout(guard, slice) {
            Ok((guard, _)) => guard,
            Err(e) => e.into_inner().0,
        };
    }
    guard
}

/// The worker that left the fleet idle: collect, if one is due and the
/// ingress is free (its holder collects on its way in). A lock whose holder
/// panicked is not taken, here or below: its state may be half updated.
pub(crate) fn at_quiescence(shared: &Shared, me: usize, m: &mut Machine) {
    let mut guard = shared.ingress.try_lock().ok();
    if let Some(ingress) = guard.as_mut().and_then(|g| g.as_mut()) {
        ingress.due.stalled = false;
        if ingress.due(shared) {
            collect(shared, ingress, Some((me, m)));
        }
    }
}

/// The collection. Gives up, leaving it due, unless tokens = 0 both before
/// it takes the workers' machines and after.
fn collect(shared: &Shared, ingress: &mut Ingress, me: Option<(usize, &mut Machine)>) {
    if !shared.tokens.is_zero() || shared.stopping.load(Ordering::Acquire) {
        return;
    }
    let t0 = Instant::now();
    let mine = me.as_ref().map(|(w, _)| *w);
    // A worker or lender that holds a machine at tokens = 0 has surrendered
    // its token and lets go in a moment; one that holds a token is busy.
    let take = |w: usize| loop {
        match shared.machines[w].try_lock() {
            Ok(m) => return Some(m),
            Err(TryLockError::WouldBlock) if shared.tokens.is_zero() => std::thread::yield_now(),
            Err(_) => return None,
        }
    };
    let others = (0..shared.threads).filter(|&w| Some(w) != mine);
    let Some(mut others) = others.map(take).collect::<Option<Vec<_>>>() else {
        return;
    };
    let mut machines: Vec<&mut Machine> = others.iter_mut().map(|m| &mut **m).collect();
    machines.extend(me.map(|(_, m)| m));
    if !shared.tokens.is_zero() {
        return;
    }
    ingress.due.closed = false;
    // Mark from the roots; a suspended goal once a variable it waits on is.
    let mut roots = shared.world.port_tails();
    roots.extend(shared.wheel.terms());
    roots.extend(shared.boot.iter().chain(ingress.machine.held()).cloned());
    let mut goals = FxHashMap::default();
    for (queued, suspended) in machines.iter().map(|m| m.holdings()) {
        roots.extend(queued);
        goals.extend(suspended);
    }
    let (store, mut reached) = (&shared.store, FxHashSet::default());
    let marks = store.mark(roots, |waiters, work| {
        let woken = waiters.iter().filter(|pid| reached.insert(**pid));
        work.extend(woken.filter_map(|pid| goals.get(pid).cloned()));
    });
    let freed = store.sweep(&marks);
    for m in &mut machines {
        m.drop_unreachable(&reached);
    }
    (ingress.due.work, ingress.due.live) = (marks.work, store.live() as u64);
    let metrics = ingress.machine.metrics_mut();
    metrics.collections += 1;
    metrics.vars_reclaimed += freed as u64;
    metrics.collect_us_max = metrics.collect_us_max.max(t0.elapsed().as_micros() as u64);
    shared.quiet.notify_all();
}
