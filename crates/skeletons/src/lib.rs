//! # skeletons
//!
//! The typed reference the frozen benchmark compares against: a Rust
//! tree reduction on real threads, outside the motif language. The
//! paper's application and every experiment run as motif programs on the
//! engine; `perfbench` times this crate's `reduce` beside them, and
//! `tests/properties.rs` checks it.
//!
//! * [`pool`] — a placement-aware work-stealing pool (global queue,
//!   named-worker queues = the paper's `@node`, optional stealing);
//! * [`tree`] — tree reduction with the paper's two labelings
//!   (Tree-Reduce-1 random mapping vs. Tree-Reduce-2 left-child labeling)
//!   plus a static partition, with live-memory and crossing metrics.

pub mod pool;
pub mod tree;

pub use pool::{Pool, TaskGroup, WorkerSnapshot};
pub use tree::{
    int_eval, random_int_tree, reduce, reduce_seq, Labeling, MemSize, ReduceOutcome, Tree,
};
