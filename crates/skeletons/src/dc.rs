//! Generic divide-and-conquer skeleton (§4 future work), the typed
//! analogue of `motifs::dc`.
//!
//! The problem type decides itself: [`DcProblem::case`] returns either a
//! directly-computed solution or two subproblems; [`DcProblem::merge`]
//! combines sub-solutions. `run` executes the recursion on the pool with a
//! sequential cutoff (below the cutoff the recursion stays on the current
//! worker — the standard grain-size control the paper's era lacked).

use crate::pool::lock;
use crate::pool::{Pool, TaskGroup};
use std::sync::Arc;
use std::sync::Mutex;

/// What a problem divides into.
pub enum Case<P, S> {
    /// Solved directly.
    Base(S),
    /// Split into two subproblems.
    Split(P, P),
}

/// A divide-and-conquer problem.
pub trait DcProblem: Sized + Send + 'static {
    type Solution: Send + 'static;

    /// Classify: solve directly or split.
    fn case(self) -> Case<Self, Self::Solution>;

    /// Combine two sub-solutions.
    fn merge(left: Self::Solution, right: Self::Solution) -> Self::Solution;

    /// Problems at or below this size are solved sequentially on the
    /// current worker (measured by [`DcProblem::size`]).
    fn cutoff() -> usize {
        1
    }

    /// Problem size for the cutoff test.
    fn size(&self) -> usize;
}

/// Solve sequentially (reference and below-cutoff path).
pub fn run_seq<P: DcProblem>(problem: P) -> P::Solution {
    match problem.case() {
        Case::Base(s) => s,
        Case::Split(a, b) => {
            let sa = run_seq(a);
            let sb = run_seq(b);
            P::merge(sa, sb)
        }
    }
}

/// Solve on the pool.
pub fn run<P: DcProblem>(pool: &Pool, problem: P) -> P::Solution {
    let group = TaskGroup::new();
    let slot: Arc<Mutex<Option<P::Solution>>> = Arc::new(Mutex::new(None));
    spawn_dc(pool, &group, problem, {
        let slot = Arc::clone(&slot);
        Box::new(move |s| {
            *lock(&slot) = Some(s);
        })
    });
    group.wait();
    let solution = lock(&slot).take();
    solution.expect("root solution delivered")
}

type Sink<S> = Box<dyn FnOnce(S) + Send>;

fn spawn_dc<P: DcProblem>(pool: &Pool, group: &TaskGroup, problem: P, sink: Sink<P::Solution>) {
    let ticket = group.add();
    let pool2 = pool.clone();
    let group2 = group.clone();
    pool.spawn(move || {
        solve(&pool2, &group2, problem, sink);
        ticket.done();
    });
}

fn solve<P: DcProblem>(pool: &Pool, group: &TaskGroup, problem: P, sink: Sink<P::Solution>) {
    if problem.size() <= P::cutoff() {
        sink(run_seq(problem));
        return;
    }
    match problem.case() {
        Case::Base(s) => sink(s),
        Case::Split(a, b) => {
            // Merge point: whichever half finishes second merges.
            let pending: Arc<Mutex<Option<P::Solution>>> = Arc::new(Mutex::new(None));
            let sink = Arc::new(Mutex::new(Some(sink)));
            let make_sink = |is_left: bool| -> Sink<P::Solution> {
                let pending = Arc::clone(&pending);
                let sink = Arc::clone(&sink);
                Box::new(move |s: P::Solution| {
                    let other = {
                        let mut slot = lock(&pending);
                        match slot.take() {
                            None => {
                                *slot = Some(s);
                                return;
                            }
                            Some(o) => o,
                        }
                    };
                    let merged = if is_left {
                        P::merge(s, other)
                    } else {
                        P::merge(other, s)
                    };
                    let sink = lock(&sink).take().expect("sink used once");
                    sink(merged);
                })
            };
            let right_sink = make_sink(false);
            let left_sink = make_sink(true);
            spawn_dc(pool, group, b, right_sink);
            // Solve the left half on the current worker (fork one, keep one
            // — the shape of the paper's Tree1 body).
            solve(pool, group, a, left_sink);
        }
    }
}

/// Mergesort as a divide-and-conquer problem (the Sort motif of §4).
pub struct SortProblem(pub Vec<i64>);

impl DcProblem for SortProblem {
    type Solution = Vec<i64>;

    fn case(self) -> Case<Self, Vec<i64>> {
        let mut v = self.0;
        if v.len() <= 1 {
            return Case::Base(v);
        }
        let right = v.split_off(v.len() / 2);
        Case::Split(SortProblem(v), SortProblem(right))
    }

    fn merge(left: Vec<i64>, right: Vec<i64>) -> Vec<i64> {
        let mut out = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if left[i] <= right[j] {
                out.push(left[i]);
                i += 1;
            } else {
                out.push(right[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&left[i..]);
        out.extend_from_slice(&right[j..]);
        out
    }

    fn cutoff() -> usize {
        64
    }

    fn size(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_core::SplitMix64;

    fn random_vec(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| rng.next_below(1_000_000) as i64 - 500_000)
            .collect()
    }

    #[test]
    fn parallel_sort_matches_std() {
        for seed in [1u64, 2, 3] {
            let xs = random_vec(10_000, seed);
            let mut expected = xs.clone();
            expected.sort_unstable();
            let pool = Pool::new(4, true);
            let got = run(&pool, SortProblem(xs));
            assert_eq!(got, expected, "seed {seed}");
            pool.shutdown();
        }
    }

    #[test]
    fn sequential_reference_agrees() {
        let xs = random_vec(500, 9);
        let mut expected = xs.clone();
        expected.sort_unstable();
        assert_eq!(run_seq(SortProblem(xs)), expected);
    }

    #[test]
    fn sort_edge_cases() {
        let pool = Pool::new(2, true);
        assert_eq!(run(&pool, SortProblem(vec![])), Vec::<i64>::new());
        assert_eq!(run(&pool, SortProblem(vec![1])), vec![1]);
        assert_eq!(run(&pool, SortProblem(vec![3, 3, 3])), vec![3, 3, 3]);
        pool.shutdown();
    }

    #[test]
    fn dc_uses_multiple_workers() {
        let pool = Pool::new(4, true);
        let _ = run(&pool, SortProblem(random_vec(200_000, 5)));
        let stats = pool.stats();
        let active = stats.iter().filter(|s| s.tasks > 0).count();
        assert!(active >= 2, "{stats:?}");
        pool.shutdown();
    }
}
