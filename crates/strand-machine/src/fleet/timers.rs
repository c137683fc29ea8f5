//! The fleet's one deadline queue.
//!
//! A shard has no global virtual clock to order `after_unless` deadlines
//! by, so every sharded machine records them as [`Deadline`]s; workers
//! harvest those after every drain and register them here. The idle-park
//! arm consults the queue before blocking, and when the queue's clock
//! reaches an entry, pops it and fires it back into the shard layer as an
//! ordinary event (see `Machine::fire_deadline`). There is one
//! queue and one protocol; only the **clock** differs, and it follows from
//! what the fleet is, not from configuration:
//!
//! - a **resident** fleet reads the wall (1 tick = [`TICK_MS`] ms): a parked
//!   worker sleeps in `recv_timeout` until the earliest live deadline, so a
//!   fully parked service still wakes to fire its timeouts;
//! - a **batch** fleet runs a *quiescence clock*: it has no reading between
//!   quiescences and jumps to the earliest live deadline exactly when the
//!   last quiescence token is surrendered. A timeout therefore fires only
//!   once nothing else can run — the value it guards has had every chance
//!   to arrive — earliest first, one deadline instant per quiescence, and
//!   entries are ordered by the arming node's virtual clock plus the wait.
//!
//! Shape: one `Mutex<Vec<Entry>>`. The queue is armed about once per
//! supervised request and consulted only at park boundaries (never per
//! reduction), and a supervised service holds tens of live entries, so
//! every read simply scans; the lock-free `len` lets the common empty case
//! skip the lock altogether.
//!
//! Contracts the proptest below pins down:
//! - **never early**: `pop_due(now)` returns only entries with `due <= now`;
//! - **exactly once**: an entry is removed under the lock, so racing wakers
//!   never fire the same deadline twice;
//! - **cancellation**: entries whose unless-var is bound are pruned, not
//!   fired, whether the bind lands before `next_due` or between it and
//!   `pop_due`;
//! - **earliest wake**: `next_due` after pruning is exactly the minimum due
//!   time over live entries — what a fully parked fleet sleeps until.
//!
//! Granularity caveat: wall deadlines are millisecond-resolution and the
//! queue promises *not early, possibly late* — a fire can slip by scheduler
//! latency plus the time a woken worker takes to reach its park boundary.
//! Equal deadlines fire in arm order (the vector keeps it and the pop's
//! sort is stable), which keeps replays stable but is an ordering between
//! *timers* only; no ordering is promised against regular work.

use super::lock;
use crate::world::Deadline;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use strand_core::Term;

/// Wall milliseconds per tick on a resident fleet: `after_unless(C, 500, T)`
/// there is a 500 ms deadline.
pub(crate) const TICK_MS: u64 = 1;

struct Entry {
    /// Absolute due time on the queue's clock.
    due: u64,
    deadline: Deadline,
}

/// The shared queue; one per parallel run, hanging off `Shared`.
pub(crate) struct TimerWheel {
    /// In arm order.
    entries: Mutex<Vec<Entry>>,
    /// Entry count (including not-yet-pruned cancelled entries), published
    /// under the lock; lets the park arm skip the lock on the common empty
    /// queue.
    len: AtomicUsize,
    /// The wall clock's epoch on a resident fleet; `None` on a batch fleet,
    /// whose quiescence clock has no reading of its own.
    epoch: Option<Instant>,
}

impl TimerWheel {
    pub fn new(resident: bool) -> TimerWheel {
        TimerWheel {
            entries: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
            epoch: resident.then(Instant::now),
        }
    }

    /// Milliseconds since the wall clock's epoch; `None` on the quiescence
    /// clock, which is wherever the earliest live deadline is.
    pub fn now_ms(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_millis() as u64)
    }

    /// True when no entries (live or cancelled-but-unpruned) exist.
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }

    /// Run `f` over the entries under the lock, then publish the new count.
    fn locked<R>(&self, f: impl FnOnce(&mut Vec<Entry>) -> R) -> R {
        let mut entries = lock(&self.entries);
        let out = f(&mut entries);
        self.len.store(entries.len(), Ordering::SeqCst);
        out
    }

    /// Register a harvested deadline: `wait` ticks from now on the wall
    /// clock, at the arming node's virtual instant on the quiescence clock.
    pub fn arm(&self, deadline: Deadline) {
        let due = match self.now_ms() {
            Some(now) => now + deadline.wait * TICK_MS,
            None => deadline.due,
        };
        self.arm_at(due, deadline);
    }

    /// Register a deadline at an absolute due time (tests drive the clock
    /// through this).
    pub fn arm_at(&self, due: u64, deadline: Deadline) {
        self.locked(|entries| entries.push(Entry { due, deadline }));
    }

    /// Earliest live deadline, pruning cancelled entries on the way.
    /// Returns `(next_due, cancelled_pruned)`; `None` means the queue holds
    /// nothing worth waking for.
    pub fn next_due(&self, is_cancelled: impl Fn(&Term) -> bool) -> (Option<u64>, u64) {
        if self.is_empty() {
            return (None, 0);
        }
        self.locked(|entries| {
            let before = entries.len();
            entries.retain(|e| !is_cancelled(&e.deadline.cancel));
            let min = entries.iter().map(|e| e.due).min();
            (min, (before - entries.len()) as u64)
        })
    }

    /// Earliest deadline without pruning or cancellation checks — an upper
    /// bound used for the BUSY retry hint, where a slightly stale answer is
    /// fine and no store access is available.
    pub fn next_due_raw(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        lock(&self.entries).iter().map(|e| e.due).min()
    }

    /// Remove and return every live entry due at or before `now`, in
    /// (due, arm-order) order; cancelled entries encountered on the way are
    /// pruned. Removal happens under the lock, so when several parked
    /// workers wake for the same deadline, exactly one pops each entry.
    /// Returns `(due_deadlines, cancelled_pruned)`.
    pub fn pop_due(&self, now: u64, is_cancelled: impl Fn(&Term) -> bool) -> (Vec<Deadline>, u64) {
        if self.is_empty() {
            return (Vec::new(), 0);
        }
        self.locked(|entries| {
            let mut fired: Vec<Entry> = Vec::new();
            let mut pruned = 0u64;
            for e in std::mem::take(entries) {
                if is_cancelled(&e.deadline.cancel) {
                    pruned += 1;
                } else if e.due <= now {
                    fired.push(e);
                } else {
                    entries.push(e);
                }
            }
            fired.sort_by_key(|e| e.due);
            (fired.into_iter().map(|e| e.deadline).collect(), pruned)
        })
    }

    /// The cancel and timeout terms of every entry: roots of a collection.
    pub fn terms(&self) -> Vec<Term> {
        if self.is_empty() {
            return Vec::new();
        }
        let entries = lock(&self.entries);
        let terms = entries
            .iter()
            .map(|e| [&e.deadline.cancel, &e.deadline.timeout]);
        terms.flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use strand_core::NodeId;

    /// Test entries key their cancel flag with an integer term, so a plain
    /// set stands in for "the unless-var is bound" without a store.
    fn entry(key: i64) -> Deadline {
        Deadline {
            node: NodeId(0),
            wait: 0,
            due: 0,
            cancel: Term::int(key),
            timeout: Term::atom("t"),
        }
    }

    fn key_of(t: &Term) -> i64 {
        match t {
            Term::Int(k) => *k,
            _ => panic!("test entries key cancels by integer"),
        }
    }

    fn never(_: &Term) -> bool {
        false
    }

    #[test]
    fn empty_wheel_answers_without_locking() {
        let w = TimerWheel::new(true);
        assert!(w.is_empty());
        assert_eq!(w.next_due(never), (None, 0));
        assert_eq!(w.next_due_raw(), None);
        assert!(w.pop_due(u64::MAX, never).0.is_empty());
    }

    #[test]
    fn the_clock_follows_the_fleet() {
        let timer = |wait, due| Deadline {
            wait,
            due,
            ..entry(0)
        };
        // Batch: no reading of its own; an entry is due at the arming
        // node's virtual instant, whatever the wall says.
        let batch = TimerWheel::new(false);
        assert_eq!(batch.now_ms(), None);
        batch.arm(timer(30, 1_000));
        assert_eq!(batch.next_due(never).0, Some(1_000));
        // Resident: `wait` ticks from the wall's now.
        let resident = TimerWheel::new(true);
        let before = resident.now_ms().unwrap();
        resident.arm(timer(30, 1_000));
        let due = resident.next_due(never).0.unwrap();
        assert!((before + 30..=resident.now_ms().unwrap() + 30).contains(&due));
    }

    #[test]
    fn next_due_is_the_minimum_over_entries() {
        let w = TimerWheel::new(true);
        for (i, due) in [500u64, 40, 41, 1_000_000, 80].into_iter().enumerate() {
            w.arm_at(due, entry(i as i64));
        }
        assert_eq!(w.next_due(never).0, Some(40));
        assert_eq!(w.next_due_raw(), Some(40));
    }

    #[test]
    fn pop_due_fires_in_deadline_then_arm_order_and_never_early() {
        let w = TimerWheel::new(true);
        w.arm_at(30, entry(0));
        w.arm_at(10, entry(1));
        w.arm_at(10, entry(2));
        w.arm_at(50, entry(3));
        let (fired, _) = w.pop_due(29, never);
        let keys: Vec<i64> = fired.iter().map(|t| key_of(&t.cancel)).collect();
        assert_eq!(
            keys,
            vec![1, 2],
            "due<=29 only, equal deadlines in arm order"
        );
        let (fired, _) = w.pop_due(100, never);
        let keys: Vec<i64> = fired.iter().map(|t| key_of(&t.cancel)).collect();
        assert_eq!(keys, vec![0, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancelled_entries_prune_instead_of_firing() {
        let w = TimerWheel::new(true);
        w.arm_at(10, entry(0));
        w.arm_at(20, entry(1));
        let cancelled = |t: &Term| key_of(t) == 0;
        let (next, pruned) = w.next_due(cancelled);
        assert_eq!((next, pruned), (Some(20), 1));
        let (fired, pruned) = w.pop_due(100, cancelled);
        assert_eq!(pruned, 0, "already pruned by next_due");
        assert_eq!(fired.len(), 1);
        assert_eq!(key_of(&fired[0].cancel), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn terms_are_every_entrys_cancel_and_timeout() {
        let w = TimerWheel::new(true);
        assert!(w.terms().is_empty());
        w.arm_at(10, entry(0));
        w.arm_at(20, entry(1));
        let t = Term::atom("t");
        assert_eq!(w.terms(), [Term::int(0), t.clone(), Term::int(1), t]);
    }

    proptest! {
        /// The tentpole contract, pinned by name in the nightly TSan job:
        /// deadlines never fire early, fire exactly once under cancellation
        /// races, and the earliest live deadline is exactly what a parked
        /// fleet would sleep until.
        #[test]
        fn timer_wheel_fires_exactly_once_never_early(
            dues in proptest::collection::vec(0u64..200, 1..40),
            cancel_mask in proptest::collection::vec(0u8..4, 1..40),
            step in 1u64..37,
        ) {
            let w = TimerWheel::new(true);
            let mut cancelled: HashSet<i64> = HashSet::new();
            for (i, due) in dues.iter().enumerate() {
                w.arm_at(*due, entry(i as i64));
                // ~25% of entries get cancelled before any clock advance.
                if cancel_mask.get(i).copied().unwrap_or(0) == 0 {
                    cancelled.insert(i as i64);
                }
            }
            let is_cancelled = |t: &Term| cancelled.contains(&key_of(t));
            let mut fired_keys: Vec<i64> = Vec::new();
            let mut round = 0u64;
            loop {
                // Clamp the sweep so the final pop lands exactly on the
                // horizon — every due < 200 must have had its chance.
                let now = (round * step).min(220);
                // The park arm's contract: next_due is the min due over
                // entries that are uncancelled and not yet fired.
                let (next, _) = w.next_due(is_cancelled);
                let expect_min = dues.iter().enumerate()
                    .filter(|(i, _)| {
                        !cancelled.contains(&(*i as i64))
                            && !fired_keys.contains(&(*i as i64))
                    })
                    .map(|(_, due)| *due)
                    .min();
                prop_assert_eq!(next, expect_min);
                let (fired, _) = w.pop_due(now, is_cancelled);
                for t in &fired {
                    let k = key_of(&t.cancel);
                    // Never early.
                    prop_assert!(dues[k as usize] <= now,
                        "entry {} due {} fired at {}", k, dues[k as usize], now);
                    // Never cancelled.
                    prop_assert!(!cancelled.contains(&k));
                    // Exactly once.
                    prop_assert!(!fired_keys.contains(&k), "entry {} fired twice", k);
                    fired_keys.push(k);
                }
                if now >= 220 {
                    break;
                }
                round += 1;
            }
            // Everything uncancelled fired by the horizon.
            let expected: HashSet<i64> = (0..dues.len() as i64)
                .filter(|k| !cancelled.contains(k))
                .collect();
            let got: HashSet<i64> = fired_keys.iter().copied().collect();
            prop_assert_eq!(got, expected);
            prop_assert!(w.is_empty());
        }
    }
}
