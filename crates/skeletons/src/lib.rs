//! # skeletons
//!
//! Typed Rust parallel skeletons — the modern descendants of the paper's
//! algorithmic motifs (the novelty lineage runs through Cole's skeletons to
//! FastFlow, SkePU and TBB patterns). Where the `motifs` crate reproduces
//! the paper's *source-level* system on a simulated multicomputer, this
//! crate runs the structures the experiments compare against on **real
//! threads**:
//!
//! * [`pool`] — a placement-aware work-stealing pool (global queue,
//!   named-worker queues = the paper's `@node`, optional stealing);
//! * [`mod@farm`] — task farm under five placement policies (static block,
//!   static cyclic, random, demand-driven, stealing);
//! * [`tree`] — tree reduction with the paper's two labelings
//!   (Tree-Reduce-1 random mapping vs. Tree-Reduce-2 left-child labeling)
//!   plus a static partition, with live-memory and crossing metrics;
//! * [`stencil`] — an iterated 1-D three-point stencil with a barrier per
//!   step (the mesh computations of the paper's DIME context).
//!
//! Divide and conquer and pipelines are motifs — source transformations
//! in crate `motifs`, run on the motif language's own engines.

pub mod farm;
pub mod pool;
pub mod stencil;
pub mod tree;

pub use farm::{farm, Policy};
pub use pool::{Pool, TaskGroup, WorkerSnapshot};
pub use tree::{
    int_eval, random_int_tree, reduce, reduce_seq, Labeling, MemSize, ReduceOutcome, Tree,
};
