//! Iterated 1-D three-point stencil (the Grid motif's typed analogue,
//! §4 "grid problems").
//!
//! The array is split into blocks, one per worker; each iteration applies
//! `v'_i = (v_{i-1} + v_i + v_{i+1}) / 3` (zero boundaries) to every block
//! in parallel, with a barrier between iterations — the classic BSP
//! formulation of the paper's mesh computations.

use crate::pool::lock;
use crate::pool::{Pool, TaskGroup};
use std::sync::Arc;
use std::sync::Mutex;

/// Run `steps` iterations over `values`; returns the final array.
pub fn stencil_1d(pool: &Pool, values: Vec<f64>, steps: u32) -> Vec<f64> {
    let n = values.len();
    if n == 0 {
        return values;
    }
    let workers = pool.workers();
    let block = n.div_ceil(workers).max(1);
    let mut cur = Arc::new(values);
    for _ in 0..steps {
        let next = Arc::new((0..n).map(|_| Mutex::new(0.0f64)).collect::<Vec<_>>());
        let group = TaskGroup::new();
        for start in (0..n).step_by(block) {
            let end = (start + block).min(n);
            let cur = Arc::clone(&cur);
            let next = Arc::clone(&next);
            let ticket = group.add();
            pool.spawn(move || {
                for i in start..end {
                    let left = if i == 0 { 0.0 } else { cur[i - 1] };
                    let right = if i + 1 == n { 0.0 } else { cur[i + 1] };
                    *lock(&next[i]) = (left + cur[i] + right) / 3.0;
                }
                ticket.done();
            });
        }
        group.wait(); // barrier
        let next_vals: Vec<f64> = next.iter().map(|m| *lock(m)).collect();
        cur = Arc::new(next_vals);
    }
    Arc::try_unwrap(cur).unwrap_or_else(|arc| (*arc).clone())
}

/// Sequential reference (identical arithmetic).
pub fn stencil_1d_seq(values: &[f64], steps: u32) -> Vec<f64> {
    let n = values.len();
    let mut cur = values.to_vec();
    for _ in 0..steps {
        let mut next = vec![0.0; n];
        for i in 0..n {
            let left = if i == 0 { 0.0 } else { cur[i - 1] };
            let right = if i + 1 == n { 0.0 } else { cur[i + 1] };
            next[i] = (left + cur[i] + right) / 3.0;
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_reference() {
        let init: Vec<f64> = (0..257).map(|i| (i % 13) as f64).collect();
        let pool = Pool::new(4, true);
        let par = stencil_1d(&pool, init.clone(), 20);
        let seq = stencil_1d_seq(&init, 20);
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(seq.iter()) {
            assert!((p - s).abs() < 1e-12, "{p} vs {s}");
        }
        pool.shutdown();
    }

    #[test]
    fn zero_steps_is_identity() {
        let init = vec![1.0, 2.0, 3.0];
        let pool = Pool::new(2, true);
        assert_eq!(stencil_1d(&pool, init.clone(), 0), init);
        pool.shutdown();
    }

    #[test]
    fn empty_array() {
        let pool = Pool::new(2, true);
        assert!(stencil_1d(&pool, vec![], 5).is_empty());
        pool.shutdown();
    }

    #[test]
    fn heat_diffuses_toward_zero() {
        let init = vec![0.0, 0.0, 100.0, 0.0, 0.0];
        let pool = Pool::new(2, true);
        let out = stencil_1d(&pool, init, 50);
        // With absorbing boundaries everything decays.
        assert!(out.iter().all(|v| *v < 10.0), "{out:?}");
        pool.shutdown();
    }
}
