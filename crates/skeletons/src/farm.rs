//! The task-farm skeleton with placement policies.
//!
//! The policies span the paper's design space:
//!
//! * [`Policy::StaticBlock`] / [`Policy::StaticCyclic`] — *"a static
//!   partition of the tree is probably ideal in the simple arithmetic
//!   example"* (§3.1);
//! * [`Policy::Random`] — the Random motif's strategy: each task goes to a
//!   uniformly random worker (*"this random mapping should produce a
//!   reasonably balanced load if |Nodes| ≫ |Processors|"*);
//! * [`Policy::Demand`] — the Scheduler motif: a shared queue, workers pull
//!   when idle;
//! * [`Policy::Stealing`] — the modern work-stealing baseline.

use crate::pool::lock;
use crate::pool::{Pool, TaskGroup};
use std::sync::Arc;
use std::sync::Mutex;
use strand_core::SplitMix64;

/// How tasks are mapped onto workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Contiguous blocks of tasks per worker.
    StaticBlock,
    /// Round-robin assignment.
    StaticCyclic,
    /// Uniform random worker per task (seeded).
    Random(u64),
    /// Shared global queue; idle workers pull.
    Demand,
    /// Tasks enter the global queue and idle workers steal from busy ones
    /// (only meaningful on a pool created with stealing enabled).
    Stealing,
}

/// Run `f` over `tasks` on `pool` under `policy`; returns results in task
/// order.
pub fn farm<T, R, F>(pool: &Pool, policy: Policy, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    let n = tasks.len();
    let workers = pool.workers();
    let f = Arc::new(f);
    let results: Arc<Vec<Mutex<Option<R>>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let group = TaskGroup::new();
    let mut rng = match policy {
        Policy::Random(seed) => Some(SplitMix64::new(seed)),
        _ => None,
    };
    for (i, task) in tasks.into_iter().enumerate() {
        let f = Arc::clone(&f);
        let results = Arc::clone(&results);
        let ticket = group.add();
        let job = move || {
            let r = f(task);
            *lock(&results[i]) = Some(r);
            // Release our Arc clones before signalling completion so the
            // caller can usually unwrap the results without contention.
            drop(results);
            drop(f);
            ticket.done();
        };
        match policy {
            Policy::StaticBlock => {
                let per = n.div_ceil(workers).max(1);
                pool.spawn_at(i / per, job);
            }
            Policy::StaticCyclic => pool.spawn_at(i % workers, job),
            Policy::Random(_) => {
                let w = rng
                    .as_mut()
                    .expect("rng present")
                    .next_below(workers as u64);
                pool.spawn_at(w as usize, job);
            }
            Policy::Demand | Policy::Stealing => pool.spawn(job),
        }
    }
    group.wait();
    // A panicked task leaves its slot empty (the pool contains the panic
    // and its ticket completes on unwind, so wait() returned normally);
    // surface that as a caller-side panic rather than a hang or a corrupt
    // result vector.
    let missing = "farm task panicked before producing a result";
    // Through the locks, not `Arc::try_unwrap`: a worker may still hold its
    // clone for an instant after the last ticket fired.
    results
        .iter()
        .map(|slot| lock(slot).take().expect(missing))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<u64> {
        (0..n as u64).map(|x| x * x).collect()
    }

    #[test]
    fn all_policies_compute_in_order() {
        for policy in [
            Policy::StaticBlock,
            Policy::StaticCyclic,
            Policy::Random(7),
            Policy::Demand,
            Policy::Stealing,
        ] {
            let pool = Pool::new(4, matches!(policy, Policy::Stealing));
            let out = farm(&pool, policy, (0..64u64).collect(), |x| x * x);
            assert_eq!(out, squares(64), "policy {policy:?}");
            pool.shutdown();
        }
    }

    #[test]
    fn empty_task_list() {
        let pool = Pool::new(2, false);
        let out: Vec<u64> = farm(&pool, Policy::Demand, Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
        pool.shutdown();
    }

    #[test]
    fn static_block_pins_contiguously() {
        let pool = Pool::new(4, false);
        let out = farm(&pool, Policy::StaticBlock, (0..16).collect(), |x: usize| {
            // Record which worker ran the task by thread name.
            let name = std::thread::current().name().unwrap_or("").to_string();
            (x, name)
        });
        // Tasks 0..4 on worker 0, 4..8 on worker 1, etc.
        for (i, (x, name)) in out.iter().enumerate() {
            assert_eq!(*x, i);
            let expected = format!("skeleton-worker-{}", i / 4);
            assert_eq!(name, &expected, "task {i}");
        }
        pool.shutdown();
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let pool = Pool::new(4, false);
        let run = |seed| {
            farm(
                &pool,
                Policy::Random(seed),
                (0..32).collect(),
                |_: usize| std::thread::current().name().unwrap_or("").to_string(),
            )
        };
        assert_eq!(run(5), run(5));
        pool.shutdown();
    }

    #[test]
    fn panicking_task_fails_the_farm_but_not_the_pool() {
        let pool = Pool::new(2, false);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            farm(&pool, Policy::Demand, (0..8u64).collect(), |x| {
                if x == 3 {
                    panic!("bad task");
                }
                x
            })
        }));
        assert!(attempt.is_err(), "the failure must reach the caller");
        // The worker bumps its panic counter just after the unwind that
        // released wait(); give it a moment.
        for _ in 0..1000 {
            if pool.stats().iter().map(|s| s.panics).sum::<u64>() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.stats().iter().map(|s| s.panics).sum::<u64>(), 1);
        // The pool survives for the next farm.
        let out = farm(&pool, Policy::Demand, (0..8u64).collect(), |x| x + 1);
        assert_eq!(out, (1..=8u64).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn demand_policy_balances_skewed_costs() {
        let pool = Pool::new(4, false);
        // One long task and many short ones.
        let mut costs = vec![20_000u64];
        costs.extend(std::iter::repeat_n(200, 60));
        let _ = farm(&pool, Policy::Demand, costs, |c| {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < c as u128 {
                std::hint::spin_loop();
            }
            c
        });
        let stats = pool.stats();
        let active = stats.iter().filter(|s| s.tasks > 0).count();
        assert!(
            active >= 3,
            "demand farm should use several workers: {stats:?}"
        );
        pool.shutdown();
    }
}
