//! A placement-aware work-stealing thread pool.
//!
//! The simulated multicomputer in `strand-machine` models the paper's
//! message-passing machines; this pool is the shared-memory analogue used
//! by the typed skeletons. It supports exactly the placement spectrum the
//! experiments compare:
//!
//! * **global queue** ([`Pool::spawn`]) — demand-driven, like the
//!   scheduler motif's manager;
//! * **named-worker queues** ([`Pool::spawn_at`]) — the paper's `@node`
//!   placement (random mapping pushes to a random worker's queue);
//! * **work stealing** (optional) — the modern baseline the paper predates.
//!
//! Per-worker metrics (tasks run, busy nanoseconds, steals) feed the
//! load-balance experiments (E1/E4 at real-thread level).

use crossbeam::deque::{Injector, Stealer, Worker};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lock a mutex a panicked holder cannot leave invalid: every mutex in this
/// crate guards a slot, a list or nothing at all, updated in one store, and
/// a task that panics must not wedge the pool that ran it.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A set of named OS worker threads with idempotent teardown — the
/// spawn/join scaffolding shared by the skeleton [`Pool`] and the
/// `strand-parallel` execution backend's node workers.
pub struct WorkerSet {
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerSet {
    /// Spawn `n` workers named `{name_prefix}-{idx}`, each running the body
    /// produced for its index. Worker bodies are responsible for exiting on
    /// their own shutdown signal; [`WorkerSet::join`] only waits.
    pub fn spawn(
        n: usize,
        name_prefix: &str,
        mut make_worker: impl FnMut(usize) -> Box<dyn FnOnce() + Send>,
    ) -> WorkerSet {
        assert!(n > 0, "worker set needs at least one worker");
        let handles = (0..n)
            .map(|idx| {
                let body = make_worker(idx);
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-{idx}"))
                    .spawn(body)
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerSet {
            handles: Mutex::new(handles),
        }
    }

    /// Join every worker. Idempotent: later calls (and calls racing from
    /// several clones of an owner) are no-ops.
    pub fn join(&self) {
        let mut handles = lock(&self.handles);
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Per-worker execution counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    pub tasks: AtomicU64,
    pub busy_nanos: AtomicU64,
    pub steals: AtomicU64,
    pub panics: AtomicU64,
}

/// Snapshot of one worker's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerSnapshot {
    pub tasks: u64,
    pub busy_nanos: u64,
    pub steals: u64,
    pub panics: u64,
}

struct Shared {
    global: Injector<Job>,
    assigned: Vec<Injector<Job>>,
    stealers: Vec<Stealer<Job>>,
    steal_enabled: bool,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    stats: Vec<WorkerStats>,
}

/// The pool. Cloning shares the same workers.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
    workers: Arc<WorkerSet>,
}

impl Pool {
    /// Create a pool with `n` workers. With `steal` set, idle workers steal
    /// from busy workers' local deques; otherwise each worker only serves
    /// its own assigned queue and the global queue (faithful to the paper's
    /// machines, where work never migrated without an explicit message).
    pub fn new(n: usize, steal: bool) -> Pool {
        assert!(n > 0, "pool needs at least one worker");
        let mut locals: Vec<Option<Worker<Job>>> =
            (0..n).map(|_| Some(Worker::new_fifo())).collect();
        let stealers = locals
            .iter()
            .map(|w| w.as_ref().expect("fresh local").stealer())
            .collect();
        let shared = Arc::new(Shared {
            global: Injector::new(),
            assigned: (0..n).map(|_| Injector::new()).collect(),
            stealers,
            steal_enabled: steal,
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            stats: (0..n).map(|_| WorkerStats::default()).collect(),
        });
        let workers = WorkerSet::spawn(n, "skeleton-worker", |idx| {
            let shared = Arc::clone(&shared);
            let local = locals[idx].take().expect("one spawn per worker");
            Box::new(move || worker_loop(shared, idx, local))
        });
        Pool {
            shared,
            workers: Arc::new(workers),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.shared.assigned.len()
    }

    /// Submit a job to the global (demand-driven) queue.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.global.push(Box::new(job));
        self.shared.wakeup.notify_all();
    }

    /// Submit a job to a specific worker's queue (the `@node` placement).
    pub fn spawn_at(&self, worker: usize, job: impl FnOnce() + Send + 'static) {
        let w = worker % self.workers();
        self.shared.assigned[w].push(Box::new(job));
        self.shared.wakeup.notify_all();
    }

    /// Snapshot all worker counters.
    pub fn stats(&self) -> Vec<WorkerSnapshot> {
        self.shared
            .stats
            .iter()
            .map(|s| WorkerSnapshot {
                tasks: s.tasks.load(Ordering::Relaxed),
                busy_nanos: s.busy_nanos.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                panics: s.panics.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Load imbalance over busy time: max/mean (1.0 = perfect). `None`
    /// until some work ran.
    pub fn imbalance(&self) -> Option<f64> {
        let stats = self.stats();
        let max = stats.iter().map(|s| s.busy_nanos).max()? as f64;
        let sum: u64 = stats.iter().map(|s| s.busy_nanos).sum();
        if sum == 0 {
            return None;
        }
        Some(max / (sum as f64 / stats.len() as f64))
    }

    /// Stop all workers after draining outstanding jobs submitted so far.
    /// Idempotent; also called on drop of the last clone.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
        self.workers.join();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if Arc::strong_count(&self.workers) == 1 {
            self.shutdown();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize, local: Worker<Job>) {
    loop {
        if let Some(job) = find_job(&shared, me, &local) {
            let stats = &shared.stats[me];
            // Counted before it runs: the job's last act is usually to
            // signal a `TaskGroup`, and whoever that wakes may read the
            // stats at once — a bump after the body could still be missing.
            stats.tasks.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            // A panicking job must not take the worker thread down with it:
            // queued work behind it (pinned there when stealing is off)
            // would never run and `TaskGroup::wait` would hang. The job's
            // captured state (tickets, result slots) unwinds normally, so
            // completion still fires via `Ticket::drop`.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            if outcome.is_err() {
                stats.panics.fetch_add(1, Ordering::Relaxed);
            }
            stats
                .busy_nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // One more sweep to drain anything racing with shutdown.
            if find_nothing(&shared, me, &local) {
                return;
            }
            continue;
        }
        let guard = lock(&shared.sleep_lock);
        // Woken, timed out or poisoned: the loop re-checks everything.
        let _ = shared.wakeup.wait_timeout(guard, Duration::from_millis(1));
    }
}

fn find_job(shared: &Shared, me: usize, local: &Worker<Job>) -> Option<Job> {
    if let Some(job) = local.pop() {
        return Some(job);
    }
    loop {
        match shared.assigned[me].steal_batch_and_pop(local) {
            crossbeam::deque::Steal::Success(job) => return Some(job),
            crossbeam::deque::Steal::Retry => continue,
            crossbeam::deque::Steal::Empty => break,
        }
    }
    loop {
        match shared.global.steal_batch_and_pop(local) {
            crossbeam::deque::Steal::Success(job) => return Some(job),
            crossbeam::deque::Steal::Retry => continue,
            crossbeam::deque::Steal::Empty => break,
        }
    }
    if shared.steal_enabled {
        let n = shared.stealers.len();
        for k in 1..n {
            let victim = (me + k) % n;
            // Steal from the victim's local deque and its assigned queue.
            loop {
                match shared.stealers[victim].steal() {
                    crossbeam::deque::Steal::Success(job) => {
                        shared.stats[me].steals.fetch_add(1, Ordering::Relaxed);
                        return Some(job);
                    }
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
            loop {
                match shared.assigned[victim].steal_batch_and_pop(local) {
                    crossbeam::deque::Steal::Success(job) => {
                        shared.stats[me].steals.fetch_add(1, Ordering::Relaxed);
                        return Some(job);
                    }
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
        }
    }
    None
}

fn find_nothing(shared: &Shared, me: usize, local: &Worker<Job>) -> bool {
    // During shutdown: workers must drain their own queues and the global
    // queue (assigned work cannot migrate when stealing is off).
    local.is_empty() && shared.assigned[me].is_empty() && shared.global.is_empty()
}

/// A fork-join completion group: jobs register before running, spawnees
/// can register more, `wait` blocks until everything finished. Clones
/// share the same group.
#[derive(Clone)]
pub struct TaskGroup {
    inner: Arc<GroupInner>,
}

struct GroupInner {
    pending: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
}

impl Default for TaskGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskGroup {
    pub fn new() -> TaskGroup {
        TaskGroup {
            inner: Arc::new(GroupInner {
                pending: AtomicUsize::new(0),
                lock: Mutex::new(()),
                done: Condvar::new(),
            }),
        }
    }

    /// Register one unit of pending work. Call *before* submitting the job.
    pub fn add(&self) -> Ticket {
        self.inner.pending.fetch_add(1, Ordering::SeqCst);
        Ticket {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Block until every registered unit completed.
    pub fn wait(&self) {
        let mut guard = lock(&self.inner.lock);
        while self.inner.pending.load(Ordering::SeqCst) > 0 {
            guard = self
                .inner
                .done
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Completion token for one unit of work; completing it may release
/// `TaskGroup::wait`.
pub struct Ticket {
    inner: Arc<GroupInner>,
}

impl Ticket {
    /// Mark the unit complete.
    pub fn done(self) {
        // Completion runs in Drop.
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.inner.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = lock(&self.inner.lock);
            self.inner.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_spawned_jobs() {
        let pool = Pool::new(4, true);
        let counter = Arc::new(AtomicU32::new(0));
        let group = TaskGroup::new();
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            let t = group.add();
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                t.done();
            });
        }
        group.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        pool.shutdown();
    }

    #[test]
    fn spawn_at_without_steal_pins_to_worker() {
        let pool = Pool::new(4, false);
        let group = TaskGroup::new();
        for _ in 0..40 {
            let t = group.add();
            pool.spawn_at(2, move || {
                std::thread::sleep(Duration::from_micros(200));
                t.done();
            });
        }
        group.wait();
        let stats = pool.stats();
        assert_eq!(stats[2].tasks, 40, "{stats:?}");
        assert_eq!(stats[0].tasks + stats[1].tasks + stats[3].tasks, 0);
        pool.shutdown();
    }

    #[test]
    fn stealing_spreads_pinned_work() {
        let pool = Pool::new(4, true);
        let group = TaskGroup::new();
        for _ in 0..200 {
            let t = group.add();
            pool.spawn_at(0, move || {
                std::thread::sleep(Duration::from_micros(300));
                t.done();
            });
        }
        group.wait();
        let stats = pool.stats();
        let others: u64 = stats[1..].iter().map(|s| s.tasks).sum();
        assert!(others > 0, "stealing should move some work: {stats:?}");
        assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 200);
        pool.shutdown();
    }

    #[test]
    fn nested_spawning_fans_out() {
        let pool = Pool::new(4, true);
        let group = TaskGroup::new();
        let counter = Arc::new(AtomicU32::new(0));

        fn fan(pool: &Pool, group: &TaskGroup, counter: &Arc<AtomicU32>, depth: u32) {
            counter.fetch_add(1, Ordering::SeqCst);
            if depth == 0 {
                return;
            }
            for _ in 0..2 {
                let t = group.add();
                let pool2 = pool.clone();
                let g2 = group.clone();
                let c2 = Arc::clone(counter);
                pool.spawn(move || {
                    fan(&pool2, &g2, &c2, depth - 1);
                    t.done();
                });
            }
        }

        let t = group.add();
        let pool2 = pool.clone();
        let g2 = group.clone();
        let c2 = Arc::clone(&counter);
        pool.spawn(move || {
            fan(&pool2, &g2, &c2, 6);
            t.done();
        });
        group.wait();
        // 2^7 - 1 = 127 calls of fan.
        assert_eq!(counter.load(Ordering::SeqCst), 127);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_outstanding_work() {
        let pool = Pool::new(2, false);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panicking_job_neither_kills_worker_nor_hangs_wait() {
        // One worker, no stealing: if the panic killed the thread, the
        // jobs queued behind it could never run and wait() would hang.
        let pool = Pool::new(1, false);
        let group = TaskGroup::new();
        let counter = Arc::new(AtomicU32::new(0));
        let t = group.add();
        pool.spawn_at(0, move || {
            let _t = t;
            panic!("task failure is survivable");
        });
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            let t = group.add();
            pool.spawn_at(0, move || {
                c.fetch_add(1, Ordering::SeqCst);
                t.done();
            });
        }
        group.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        // Join workers before reading stats: the final ticket fires inside
        // the job, a moment before that job's counter update.
        pool.shutdown();
        let stats = pool.stats();
        assert_eq!(stats[0].panics, 1, "{stats:?}");
        assert_eq!(stats[0].tasks, 11, "panicked job still counts as run");
    }

    #[test]
    fn stats_accumulate_busy_time() {
        let pool = Pool::new(2, true);
        let group = TaskGroup::new();
        for _ in 0..8 {
            let t = group.add();
            pool.spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                t.done();
            });
        }
        group.wait();
        let total: u64 = pool.stats().iter().map(|s| s.busy_nanos).sum();
        assert!(total >= 8 * 1_500_000, "busy nanos {total}");
        pool.shutdown();
    }
}
