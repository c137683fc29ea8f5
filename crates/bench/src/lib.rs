//! # bench
//!
//! The experiment harness: one function per experiment in EXPERIMENTS.md
//! (F1–F7 reproduce the paper's figures as executable artifacts; E1–E9
//! reproduce its evaluation claims as measured tables), printed by the
//! `motif-bench` binary, plus the recorded wall-clock series (`b1_parallel`,
//! `b2_compiled`, `b3_chaos`, `c1_serve*`) that `motif-bench <series>-json`
//! writes through the one [`series`] document. Timing of the hot paths
//! with comparable numbers is `perfbench/`'s job (BENCHMARK.json).
//!
//! All simulator experiments are deterministic: fixed seeds, virtual time.
//! Real-thread experiments report *work distribution* (tasks per worker,
//! crossings, live bytes); on a single-core CI box wall-clock speedup is
//! meaningless, and EXPERIMENTS.md says so.

pub mod chaos_bench;
pub mod compiled_bench;
pub mod experiments;
pub mod parallel_bench;
pub mod series;
pub mod serve_bench;
pub mod table;

pub use chaos_bench::b3_chaos;
pub use compiled_bench::b2_compiled;
pub use experiments::*;
pub use parallel_bench::b1_parallel;
pub use serve_bench::{c1_serve, c1_serve_supervised};
pub use table::Table;
