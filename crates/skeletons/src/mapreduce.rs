//! Parallel map + reduction over slices — the semi-SIMD workhorse the
//! paper's introduction contrasts MIMD programming against.

use crate::pool::lock;
use crate::pool::{Pool, TaskGroup};
use std::sync::Arc;
use std::sync::Mutex;

/// Apply `f` to every element in parallel, preserving order.
pub fn par_map<T, R, F>(pool: &Pool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    crate::farm::farm(pool, crate::farm::Policy::Stealing, items, f)
}

/// Fold chunks in parallel with `fold`, then combine partials with
/// `combine`. `combine` must be associative; `identity` is its unit.
pub fn par_reduce<T, A, FF, CF>(pool: &Pool, items: Vec<T>, identity: A, fold: FF, combine: CF) -> A
where
    T: Send + 'static,
    A: Clone + Send + 'static,
    FF: Fn(A, T) -> A + Send + Sync + 'static,
    CF: Fn(A, A) -> A + Send + Sync + 'static,
{
    let workers = pool.workers();
    if items.is_empty() {
        return identity;
    }
    let chunk = items.len().div_ceil(workers).max(1);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk));
        chunks.push(items);
        items = rest;
    }
    let fold = Arc::new(fold);
    let group = TaskGroup::new();
    let partials: Arc<Vec<Mutex<Option<A>>>> =
        Arc::new((0..chunks.len()).map(|_| Mutex::new(None)).collect());
    for (i, chunk_items) in chunks.into_iter().enumerate() {
        let fold = Arc::clone(&fold);
        let partials = Arc::clone(&partials);
        let id = identity.clone();
        let ticket = group.add();
        pool.spawn(move || {
            let acc = chunk_items.into_iter().fold(id, |a, x| fold(a, x));
            *lock(&partials[i]) = Some(acc);
            drop(partials);
            drop(fold);
            ticket.done();
        });
    }
    group.wait();
    partials
        .iter()
        .map(|m| lock(m).take().expect("partial computed"))
        .fold(identity, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4, true);
        let out = par_map(&pool, (0..1000i64).collect(), |x| x * 3);
        assert_eq!(out, (0..1000i64).map(|x| x * 3).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn reduce_sums() {
        let pool = Pool::new(4, true);
        let sum = par_reduce(
            &pool,
            (1..=10_000i64).collect(),
            0i64,
            |a, x| a + x,
            |a, b| a + b,
        );
        assert_eq!(sum, 50_005_000);
        pool.shutdown();
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let pool = Pool::new(2, true);
        let out = par_reduce(&pool, Vec::<i64>::new(), 42i64, |a, x| a + x, |a, b| a + b);
        assert_eq!(out, 42);
        pool.shutdown();
    }

    #[test]
    fn reduce_single_item() {
        let pool = Pool::new(4, true);
        let out = par_reduce(&pool, vec![7i64], 0i64, |a, x| a + x, |a, b| a + b);
        assert_eq!(out, 7);
        pool.shutdown();
    }

    #[test]
    fn reduce_noncommutative_but_associative() {
        // String concatenation: order must be preserved chunkwise.
        let pool = Pool::new(3, true);
        let items: Vec<String> = "abcdefghijklmnop".chars().map(|c| c.to_string()).collect();
        let out = par_reduce(
            &pool,
            items,
            String::new(),
            |mut a, x| {
                a.push_str(&x);
                a
            },
            |mut a, b| {
                a.push_str(&b);
                a
            },
        );
        assert_eq!(out, "abcdefghijklmnop");
        pool.shutdown();
    }
}
