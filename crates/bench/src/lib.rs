//! # bench
//!
//! The experiment harness: one function per experiment in EXPERIMENTS.md
//! (F1–F7 reproduce the paper's figures as executable artifacts; E1–E9
//! reproduce its evaluation claims as measured tables), printed by the
//! `motif-bench` binary. Two of them are wall-clock sweeps on real threads
//! and sockets — `b1-parallel` (1/2/4/8 threads) and `c1-serve` (16/256/1000
//! clients) — printed as tables like the rest. Timing with comparable
//! numbers is `perfbench/`'s job (BENCHMARK.json).
//!
//! All simulator experiments are deterministic: fixed seeds, virtual time.
//! Real-thread experiments run the same motif programs on the fleet and
//! report *work distribution* (tasks per node, crossings, live
//! evaluations); on a single-core CI box wall-clock speedup is meaningless,
//! and EXPERIMENTS.md says so.

pub mod experiments;
pub mod parallel_bench;
pub mod serve_bench;
pub mod table;

pub use experiments::*;
pub use parallel_bench::b1_parallel;
pub use serve_bench::{burst, c1_serve, BurstPoint};
pub use table::Table;
