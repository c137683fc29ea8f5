//! Tree-reduction skeletons: the typed analogues of `Tree-Reduce-1` and
//! `Tree-Reduce-2` (§3.4, §3.5).
//!
//! All strategies share one event-driven engine ([`reduce`]): every
//! internal node is assigned a *label* (a worker index); a node's
//! evaluation is spawned on its labeled worker as soon as both children's
//! values exist. The strategies differ only in the labeling:
//!
//! * [`Labeling::Random`] — independent random label per node: the
//!   Tree-Reduce-1 random mapping;
//! * [`Labeling::Paper`] — the Tree-Reduce-2 rule: sibling leaves share a
//!   random label, an interior node takes its left child's label, so **at
//!   most one of each node's offspring values crosses workers** (counted in
//!   [`ReduceOutcome::cross_child_values`] and property-tested);
//! * [`Labeling::Static`] — size-balanced static partition, the paper's
//!   "probably ideal for the simple arithmetic example" baseline.
//!
//! The engine tracks the peak of live intermediate bytes
//! ([`MemSize`]), the measurable form of §3.5's memory argument.

use crate::pool::lock;
use crate::pool::{Pool, TaskGroup};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use strand_core::SplitMix64;

/// A binary reduction tree with leaf values `V` and operators `O`.
#[derive(Clone, Debug, PartialEq)]
pub enum Tree<V, O> {
    Leaf(V),
    Node(O, Box<Tree<V, O>>, Box<Tree<V, O>>),
}

impl<V, O> Tree<V, O> {
    /// Internal node constructor.
    pub fn node(op: O, left: Tree<V, O>, right: Tree<V, O>) -> Tree<V, O> {
        Tree::Node(op, Box::new(left), Box::new(right))
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            Tree::Node(_, l, r) => l.leaves() + r.leaves(),
        }
    }

    /// Height (leaf = 0).
    pub fn height(&self) -> usize {
        match self {
            Tree::Leaf(_) => 0,
            Tree::Node(_, l, r) => 1 + l.height().max(r.height()),
        }
    }
}

/// Sequential reference reduction.
pub fn reduce_seq<V: Clone, O>(tree: &Tree<V, O>, eval: &impl Fn(&O, V, V) -> V) -> V {
    match tree {
        Tree::Leaf(v) => v.clone(),
        Tree::Node(op, l, r) => {
            let lv = reduce_seq(l, eval);
            let rv = reduce_seq(r, eval);
            eval(op, lv, rv)
        }
    }
}

/// Approximate size of a value held live between production and
/// consumption (experiment E2's memory gauge).
pub trait MemSize {
    fn mem_bytes(&self) -> usize;
}

impl MemSize for i64 {
    fn mem_bytes(&self) -> usize {
        8
    }
}

impl MemSize for f64 {
    fn mem_bytes(&self) -> usize {
        8
    }
}

impl<T> MemSize for Vec<T> {
    fn mem_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + std::mem::size_of::<Self>()
    }
}

impl MemSize for String {
    fn mem_bytes(&self) -> usize {
        self.len() + std::mem::size_of::<Self>()
    }
}

/// Result of a parallel reduction.
#[derive(Clone, Debug)]
pub struct ReduceOutcome<V> {
    pub value: V,
    /// Peak of live intermediate bytes across the whole run.
    pub peak_live_bytes: usize,
    /// Internal non-root nodes whose label differs from their parent's —
    /// each one is a child value that must cross workers.
    pub cross_child_values: usize,
    /// Evaluations executed per worker.
    pub evals_per_worker: Vec<u64>,
}

/// Flat representation used by the engine.
struct FlatTree<V, O> {
    /// Per internal node: operator, parent internal-node index (usize::MAX
    /// for the root).
    ops: Vec<O>,
    parent: Vec<usize>,
    side: Vec<u8>, // 0 = left child of parent, 1 = right
    /// Leaf seeds: (internal node index, side, value).
    leaf_feeds: Vec<(usize, u8, V)>,
    /// For labeling: children of each internal node (leaf → None, internal
    /// node index → Some).
    kids: Vec<[Option<usize>; 2]>,
}

fn flatten<V, O>(tree: Tree<V, O>) -> Result<FlatTree<V, O>, V> {
    let mut flat = FlatTree {
        ops: Vec::new(),
        parent: Vec::new(),
        side: Vec::new(),
        leaf_feeds: Vec::new(),
        kids: Vec::new(),
    };
    match tree {
        Tree::Leaf(v) => Err(v),
        node => {
            walk(node, usize::MAX, 0, &mut flat);
            Ok(flat)
        }
    }
}

/// Returns the internal-node index created (None for leaves).
fn walk<V, O>(
    tree: Tree<V, O>,
    parent: usize,
    side: u8,
    flat: &mut FlatTree<V, O>,
) -> Option<usize> {
    match tree {
        Tree::Leaf(v) => {
            flat.leaf_feeds.push((parent, side, v));
            None
        }
        Tree::Node(op, l, r) => {
            let me = flat.ops.len();
            flat.ops.push(op);
            flat.parent.push(parent);
            flat.side.push(side);
            flat.kids.push([None, None]);
            let lk = walk(*l, me, 0, flat);
            let rk = walk(*r, me, 1, flat);
            flat.kids[me] = [lk, rk];
            Some(me)
        }
    }
}

/// Labeling strategies over the flat tree. All return one worker index per
/// internal node.
fn flat_labels_random<V, O>(flat: &FlatTree<V, O>, workers: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    (0..flat.ops.len())
        .map(|_| rng.next_below(workers as u64) as usize)
        .collect()
}

/// The paper's Tree-Reduce-2 labeling on internal nodes: an interior node
/// takes its *left child's* label; nodes whose left child is a leaf get a
/// random label (shared with a leaf sibling by construction — the leaf
/// values are fed directly to this node's worker anyway).
fn flat_labels_paper<V, O>(flat: &FlatTree<V, O>, workers: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let n = flat.ops.len();
    let mut labels = vec![usize::MAX; n];
    // Nodes are stored in preorder, so children have larger indices:
    // resolve labels bottom-up by iterating in reverse.
    for i in (0..n).rev() {
        labels[i] = match flat.kids[i][0] {
            Some(left_child) => labels[left_child],
            None => rng.next_below(workers as u64) as usize,
        };
    }
    labels
}

/// Size-balanced static partition: nodes are assigned blockwise by
/// preorder index.
fn flat_labels_static<V, O>(flat: &FlatTree<V, O>, workers: usize) -> Vec<usize> {
    let n = flat.ops.len().max(1);
    let per = n.div_ceil(workers).max(1);
    (0..flat.ops.len()).map(|i| i / per).collect()
}

/// Which labeling to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Labeling {
    /// Independent random label per node (Tree-Reduce-1).
    Random(u64),
    /// The paper's Tree-Reduce-2 labeling (≤ 1 crossing per node).
    Paper(u64),
    /// Static blockwise partition.
    Static,
}

/// Reduce a tree on the pool under the given labeling.
pub fn reduce<V, O>(
    pool: &Pool,
    tree: Tree<V, O>,
    labeling: Labeling,
    eval: impl Fn(&O, V, V) -> V + Send + Sync + 'static,
) -> ReduceOutcome<V>
where
    V: MemSize + Send + 'static,
    O: Send + Sync + 'static,
{
    let flat = match flatten(tree) {
        Ok(flat) => flat,
        Err(v) => {
            // Single-leaf tree: nothing to evaluate.
            let bytes = v.mem_bytes();
            return ReduceOutcome {
                value: v,
                peak_live_bytes: bytes,
                cross_child_values: 0,
                evals_per_worker: vec![0; pool.workers()],
            };
        }
    };
    let workers = pool.workers();
    let labels = match labeling {
        Labeling::Random(seed) => flat_labels_random(&flat, workers, seed),
        Labeling::Paper(seed) => flat_labels_paper(&flat, workers, seed),
        Labeling::Static => flat_labels_static(&flat, workers),
    };
    let cross_child_values = (0..flat.ops.len())
        .filter(|&i| flat.parent[i] != usize::MAX && labels[i] != labels[flat.parent[i]])
        .count();

    let n = flat.ops.len();
    let engine = Arc::new(Engine {
        ops: flat.ops,
        parent: flat.parent,
        side: flat.side,
        labels,
        slots: (0..n)
            .map(|_| [Mutex::new(None), Mutex::new(None)])
            .collect(),
        arrived: (0..n).map(|_| AtomicU8::new(0)).collect(),
        live: AtomicI64::new(0),
        peak: AtomicI64::new(0),
        evals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        result: Mutex::new(None),
        eval: Box::new(eval),
        pool: pool.clone(),
        group: TaskGroup::new(),
        tickets: Mutex::new(Vec::new()),
    });

    // Pre-register every internal evaluation so wait() releases only when
    // the root value exists.
    let tickets: Vec<_> = (0..n).map(|_| engine.group.add()).collect();
    *lock(&engine.tickets) = tickets;

    // Feed the leaves.
    for (node, side, v) in flat.leaf_feeds {
        Engine::deliver(&engine, node, side, v);
    }
    engine.group.wait();
    let value = lock(&engine.result)
        .take()
        .expect("root evaluation stored its result");
    ReduceOutcome {
        value,
        peak_live_bytes: engine.peak.load(Ordering::SeqCst).max(0) as usize,
        cross_child_values,
        evals_per_worker: engine
            .evals
            .iter()
            .map(|e| e.load(Ordering::SeqCst))
            .collect(),
    }
}

type EvalFn<V, O> = Box<dyn Fn(&O, V, V) -> V + Send + Sync>;

struct Engine<V, O> {
    ops: Vec<O>,
    parent: Vec<usize>,
    side: Vec<u8>,
    labels: Vec<usize>,
    slots: Vec<[Mutex<Option<V>>; 2]>,
    arrived: Vec<AtomicU8>,
    live: AtomicI64,
    peak: AtomicI64,
    evals: Vec<AtomicU64>,
    result: Mutex<Option<V>>,
    eval: EvalFn<V, O>,
    pool: Pool,
    group: TaskGroup,
    tickets: Mutex<Vec<crate::pool::Ticket>>,
}

impl<V, O> Engine<V, O>
where
    V: MemSize + Send + 'static,
    O: Send + Sync + 'static,
{
    fn gauge_add(&self, bytes: i64) {
        let now = self.live.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    /// Deliver a child value to `node`'s `side`; spawn its evaluation when
    /// both halves are present.
    fn deliver(self: &Arc<Self>, node: usize, side: u8, v: V) {
        self.gauge_add(v.mem_bytes() as i64);
        *lock(&self.slots[node][side as usize]) = Some(v);
        if self.arrived[node].fetch_add(1, Ordering::SeqCst) == 1 {
            let this = Arc::clone(self);
            let worker = self.labels[node];
            self.pool.spawn_at(worker, move || {
                let lv = lock(&this.slots[node][0]).take().expect("left value");
                let rv = lock(&this.slots[node][1]).take().expect("right value");
                this.gauge_add(-((lv.mem_bytes() + rv.mem_bytes()) as i64));
                let out = (this.eval)(&this.ops[node], lv, rv);
                this.evals[worker].fetch_add(1, Ordering::SeqCst);
                let parent = this.parent[node];
                if parent == usize::MAX {
                    this.gauge_add(out.mem_bytes() as i64);
                    *lock(&this.result) = Some(out);
                } else {
                    Self::deliver(&this, parent, this.side[node], out);
                }
                let ticket = lock(&this.tickets).pop();
                drop(ticket);
            });
        }
    }
}

/// Generate a random binary tree with `leaves` leaves: shape from a seeded
/// random split, leaf values `1..=9`, operators alternating by parity.
pub fn random_int_tree(leaves: usize, seed: u64) -> Tree<i64, char> {
    fn go(leaves: usize, rng: &mut SplitMix64, counter: &mut i64) -> Tree<i64, char> {
        if leaves <= 1 {
            *counter += 1;
            Tree::Leaf((*counter % 9) + 1)
        } else {
            let left = 1 + rng.next_below((leaves - 1) as u64) as usize;
            let op = if rng.next_below(2) == 0 { '+' } else { 'm' };
            Tree::node(op, go(left, rng, counter), go(leaves - left, rng, counter))
        }
    }
    let mut rng = SplitMix64::new(seed);
    let mut counter = 0;
    go(leaves, &mut rng, &mut counter)
}

/// Evaluate the generated tree's operators: `+` adds, `m` takes the max.
pub fn int_eval(op: &char, l: i64, r: i64) -> i64 {
    match op {
        '+' => l + r,
        'm' => l.max(r),
        other => panic!("unknown operator {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all_labelings(leaves: usize, seed: u64, workers: usize) {
        let expected = reduce_seq(&random_int_tree(leaves, seed), &|op, l, r| {
            int_eval(op, l, r)
        });
        for labeling in [
            Labeling::Random(seed),
            Labeling::Paper(seed),
            Labeling::Static,
        ] {
            let pool = Pool::new(workers, false);
            let out = reduce(&pool, random_int_tree(leaves, seed), labeling, int_eval);
            assert_eq!(out.value, expected, "labeling {labeling:?} seed {seed}");
            assert_eq!(
                out.evals_per_worker.iter().sum::<u64>(),
                (leaves - 1) as u64
            );
            pool.shutdown();
        }
    }

    #[test]
    fn all_labelings_compute_the_same_value() {
        for seed in [1u64, 2, 3] {
            check_all_labelings(33, seed, 4);
        }
    }

    #[test]
    fn single_leaf_tree() {
        let pool = Pool::new(2, false);
        let out = reduce(
            &pool,
            Tree::<i64, char>::Leaf(7),
            Labeling::Static,
            |_, _, _| 0,
        );
        assert_eq!(out.value, 7);
        assert_eq!(out.cross_child_values, 0);
        pool.shutdown();
    }

    #[test]
    fn paper_labeling_bounds_crossings() {
        // E3, real-thread form: with the paper labeling, an internal node's
        // label equals its left child's, so only right-child values can
        // cross: crossings <= internal nodes. Random labeling crosses far
        // more often on wide machines.
        for seed in [1u64, 5, 9] {
            let leaves = 200;
            let internal = leaves - 1;
            let pool = Pool::new(8, false);
            let paper = reduce(
                &pool,
                random_int_tree(leaves, seed),
                Labeling::Paper(seed),
                int_eval,
            );
            let random = reduce(
                &pool,
                random_int_tree(leaves, seed),
                Labeling::Random(seed),
                int_eval,
            );
            assert!(
                paper.cross_child_values * 2 <= internal,
                "paper labeling crossings {} should be ~internal/2, internal {internal}",
                paper.cross_child_values
            );
            assert!(
                paper.cross_child_values < random.cross_child_values,
                "paper {} vs random {}",
                paper.cross_child_values,
                random.cross_child_values
            );
            pool.shutdown();
        }
    }

    #[test]
    fn memory_gauge_tracks_live_values() {
        // Reducing vectors: peak live bytes must cover at least one row but
        // stay below the sum of all intermediate values for a deep tree.
        let leaves = 64usize;
        let row = 1024usize;
        let mut tree = Tree::Leaf(vec![0u8; row]);
        for _ in 1..leaves {
            tree = Tree::node((), tree, Tree::Leaf(vec![0u8; row]));
        }
        let pool = Pool::new(4, false);
        let out = reduce(&pool, tree, Labeling::Paper(3), |_, l, r: Vec<u8>| {
            let mut l = l;
            l.extend_from_slice(&r);
            l
        });
        assert_eq!(out.value.len(), leaves * row);
        assert!(out.peak_live_bytes >= leaves * row);
        pool.shutdown();
    }

    #[test]
    fn tree_shape_helpers() {
        let t = random_int_tree(17, 4);
        assert_eq!(t.leaves(), 17);
        assert!(t.height() >= 5); // log2(17) ceil
        assert_eq!(random_int_tree(17, 4), random_int_tree(17, 4));
    }
}
