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

/// A dense 2-D grid for the five-point stencil.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid2d {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Grid2d {
    /// Build from a generator function.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Grid2d {
        let data = (0..rows * cols).map(|k| f(k / cols, k % cols)).collect();
        Grid2d { rows, cols, data }
    }

    /// Element accessor (row-major).
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

/// One five-point-stencil step over a row range, reading `cur`, writing
/// the same range of `out` (zero boundaries).
fn step_rows(cur: &Grid2d, out: &mut [f64], r0: usize, r1: usize) {
    let (rows, cols) = (cur.rows, cur.cols);
    for r in r0..r1 {
        for c in 0..cols {
            let up = if r == 0 { 0.0 } else { cur.at(r - 1, c) };
            let down = if r + 1 == rows { 0.0 } else { cur.at(r + 1, c) };
            let left = if c == 0 { 0.0 } else { cur.at(r, c - 1) };
            let right = if c + 1 == cols { 0.0 } else { cur.at(r, c + 1) };
            out[(r - r0) * cols + c] = (up + down + left + right + cur.at(r, c)) / 5.0;
        }
    }
}

/// Iterated 2-D five-point stencil, block-row decomposition with a barrier
/// per iteration — the mesh computations of the paper's DIME example
/// (§1), BSP-style.
pub fn stencil_2d(pool: &Pool, grid: Grid2d, steps: u32) -> Grid2d {
    if grid.rows == 0 || grid.cols == 0 {
        return grid;
    }
    let workers = pool.workers();
    let block = grid.rows.div_ceil(workers).max(1);
    let mut cur = Arc::new(grid);
    for _ in 0..steps {
        let group = TaskGroup::new();
        let slices: Arc<Vec<Mutex<Vec<f64>>>> = Arc::new(
            (0..cur.rows.div_ceil(block))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        );
        for (bi, r0) in (0..cur.rows).step_by(block).enumerate() {
            let r1 = (r0 + block).min(cur.rows);
            let cur2 = Arc::clone(&cur);
            let slices2 = Arc::clone(&slices);
            let ticket = group.add();
            pool.spawn(move || {
                let mut out = vec![0.0; (r1 - r0) * cur2.cols];
                step_rows(&cur2, &mut out, r0, r1);
                *lock(&slices2[bi]) = out;
                ticket.done();
            });
        }
        group.wait();
        let mut data = Vec::with_capacity(cur.rows * cur.cols);
        for s in slices.iter() {
            data.extend_from_slice(&lock(s));
        }
        cur = Arc::new(Grid2d {
            rows: cur.rows,
            cols: cur.cols,
            data,
        });
    }
    Arc::try_unwrap(cur).unwrap_or_else(|arc| (*arc).clone())
}

/// Sequential 2-D reference.
pub fn stencil_2d_seq(grid: &Grid2d, steps: u32) -> Grid2d {
    let mut cur = grid.clone();
    for _ in 0..steps {
        let mut out = vec![0.0; cur.rows * cur.cols];
        step_rows(&cur, &mut out, 0, cur.rows);
        cur = Grid2d {
            rows: cur.rows,
            cols: cur.cols,
            data: out,
        };
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

    #[test]
    fn stencil2d_matches_sequential() {
        let grid = Grid2d::from_fn(13, 9, |r, c| ((r * 7 + c * 3) % 11) as f64);
        let pool = Pool::new(4, true);
        let par = stencil_2d(&pool, grid.clone(), 12);
        let seq = stencil_2d_seq(&grid, 12);
        assert_eq!(par.rows, seq.rows);
        for (a, b) in par.data.iter().zip(seq.data.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        pool.shutdown();
    }

    #[test]
    fn stencil2d_edge_shapes() {
        let pool = Pool::new(3, true);
        // Single row, single column, 1x1, zero steps.
        for (r, c) in [(1usize, 8usize), (8, 1), (1, 1)] {
            let g = Grid2d::from_fn(r, c, |x, y| (x + y) as f64);
            let par = stencil_2d(&pool, g.clone(), 5);
            let seq = stencil_2d_seq(&g, 5);
            assert_eq!(par, seq, "shape {r}x{c}");
        }
        let g = Grid2d::from_fn(4, 4, |x, y| (x * y) as f64);
        assert_eq!(stencil_2d(&pool, g.clone(), 0), g);
        pool.shutdown();
    }

    #[test]
    fn grid2d_accessors() {
        let g = Grid2d::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(g.at(0, 0), 0.0);
        assert_eq!(g.at(1, 2), 12.0);
        assert_eq!(g.data.len(), 6);
    }
}
