//! # strand-core
//!
//! Core term model for the reproduction of Foster & Stevens,
//! *Parallel Programming with Algorithmic Motifs* (ICPP 1990).
//!
//! The paper expresses motifs in the concurrent logic language **Strand**: a
//! program is a set of guarded rules `H :- G1,…,Gm | B1,…,Bn` reduced by a
//! pool of lightweight processes that communicate through shared
//! *single-assignment* variables. This crate provides the building blocks
//! that the parser (`strand-parse`), the abstract machine
//! (`strand-machine`) and the transformation engine (`transform`) share:
//!
//! * [`Atom`] — interned symbols (a `Copy` id into one process-wide table),
//!   with the engine's own names pre-interned in [`sym`];
//! * [`Term`] — runtime terms (variables, numbers, atoms, strings, tuples,
//!   lists) with cheap `Arc`-backed cloning;
//! * [`Pat`] — rule-side *pattern* terms with rule-local variable slots;
//! * [`Store`] — the single-assignment variable store with suspension
//!   lists ([`SharedStore`] is its striped, concurrently readable form);
//! * [`matching`] — one-way head matching and guard evaluation, returning
//!   `Fail` / `Suspend(vars)` / a binding frame, exactly the dataflow
//!   synchronization the paper relies on (§2.1: *"the availability of data
//!   serves as the synchronization mechanism"*);
//! * [`arith`] — arithmetic evaluation for `:=` and comparison guards;
//! * [`rng`] — a deterministic SplitMix64 generator standing in for the
//!   paper's `rand_num` primitive, so load-balance experiments are exactly
//!   reproducible.
//!
//! Everything here is deliberately independent of how programs are executed;
//! the machine crate layers process pools, placement and metrics on top.

pub mod arith;
pub mod atom;
mod chunks;
pub mod error;
pub mod fxhash;
pub mod matching;
pub mod pat;
pub mod rng;
pub mod shared;
pub mod store;
pub mod sym;
pub mod term;

pub use arith::{eval_arith, Num};
pub use atom::{Atom, AtomError};
pub use error::{StrandError, StrandResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use matching::{eval_guard, match_args, GuardOutcome, MatchOutcome};
pub use pat::{Frame, Pat};
pub use rng::SplitMix64;
pub use shared::{SharedStore, SharedStoreView};
pub use store::{Binding, NodeId, Store, StoreOps, Time, VarId, Waiter};
pub use term::Term;
