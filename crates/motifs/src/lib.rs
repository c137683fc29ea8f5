//! # motifs
//!
//! The paper's primary contribution: **algorithmic motifs** — reusable
//! parallel program structures implemented as pairs
//! `M = {transformation, library}` over a high-level concurrent language,
//! supporting reuse *as-is*, *by modification*, and *by composition*
//! (`M = M2 ∘ M1`).
//!
//! A motif's transformation is a function: each `T` below is a plain
//! `fn(&Program) -> Result<Program, TransformError>` (or a closure over a
//! list of entry points), and [`Motif::compose`] composes them as
//! functions.
//!
//! The motif suite:
//!
//! | motif | paper section | construction |
//! |---|---|---|
//! | [`server::server`] | §3.2 | `{server_transform, Figure-3 library}` |
//! | [`rand_map::rand_map`] | §3.3 | `{rand_transform, ∅}` |
//! | [`rand_map::random`] | §3.3 | `Server ∘ Rand` |
//! | [`tree::tree1`] | §3.4 | `{identity, 5-line library}` |
//! | [`tree::tree_reduce_1`] | §3.4 | `Server ∘ Rand ∘ Tree1` |
//! | [`tree::tree_reduce_1_halting`] | §3.3 | `Server ∘ Rand ∘ Circuit ∘ Tree1` |
//! | [`tree::tree_reduce_2`] | §3.5 | `Server ∘ TreeReduce2Core` |
//! | [`supervisor::supervise`] | robustness | `{supervise_transform, supervision library}` |
//! | [`supervisor::supervised_random`] | robustness | `Supervise ∘ Server ∘ Rand` |
//! | [`scheduler::scheduler`] | §1, \[6\] | manager/worker task farm |
//! | [`scheduler::scheduler_hierarchical`] | §1 | reuse-by-modification: two-level farm |
//! | [`task_sched::task_scheduler`] | §2.2, \[6\] | `@task` pragma → demand-driven scheduler with circuit-tracked completion |
//! | [`dc::divide_and_conquer`] | §4 | future work: generic D&C |
//! | [`search::search`] | §4 | future work: parallel tree search |
//! | [`grid::grid`] | §4 | future work: 1-D grid relaxation |
//! | [`graph::graph_components`] | §4 | future work: connected components by BSP label propagation |
//! | [`pipeline::pipeline`] | §4 | stream pipeline |
//!
//! [`inventory::CATALOG`] lists every shipped motif with its library, for
//! `motif-bench show` and the code-size accounting of experiment E5.

#![forbid(unsafe_code)]

pub mod dc;
pub mod graph;
pub mod grid;
pub mod inventory;
pub mod motif;
pub mod pipeline;
pub mod rand_map;
pub mod scheduler;
pub mod search;
pub mod server;
pub mod supervisor;
pub mod task_sched;
pub mod tree;

pub use motif::Motif;
pub use rand_map::{rand_map, rand_map_with_entries, random, random_with_entries};
pub use server::{server, SERVER_LIBRARY};
pub use supervisor::{supervise, supervised_random, supervised_server, SUPERVISE_LIBRARY};
pub use task_sched::{boot_goal, task_scheduler, task_scheduler_with_entries, TASK_SCHED_LIBRARY};
pub use tree::{
    balanced_tree_src, random_tree_src, sequential_reduce, tree1, tree_reduce_1,
    tree_reduce_1_halting, tree_reduce_2, ARITH_EVAL, TREE1_LIBRARY, TREE2_LIBRARY,
};
