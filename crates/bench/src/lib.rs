//! # bench
//!
//! The experiment harness: one function per experiment in EXPERIMENTS.md
//! (F1–F7 reproduce the paper's figures as executable artifacts; E1–E9
//! reproduce its evaluation claims as measured tables), printed by the
//! `motif-bench` binary, plus the recorded wall-clock series (`b1_parallel`,
//! `b2_compiled`, `c1_serve*`) that `motif-bench <series>-json`
//! writes through the one [`series`] document. Timing of the hot paths
//! with comparable numbers is `perfbench/`'s job (BENCHMARK.json).
//!
//! All simulator experiments are deterministic: fixed seeds, virtual time.
//! Real-thread experiments report *work distribution* (tasks per worker,
//! crossings, live bytes); on a single-core CI box wall-clock speedup is
//! meaningless, and EXPERIMENTS.md says so.

pub mod compiled_bench;
pub mod experiments;
pub mod parallel_bench;
pub mod series;
pub mod serve_bench;
pub mod table;

pub use compiled_bench::b2_compiled;
pub use experiments::*;
pub use parallel_bench::b1_parallel;
pub use serve_bench::{c1_serve, c1_serve_supervised};
pub use table::Table;

/// A series' measurement function; `true` = the small CI smoke configuration.
pub type Measure = fn(bool) -> series::Series;

/// The series `motif-bench` records: verb, default output path,
/// measurement function.
pub const RECORDERS: &[(&str, &str, Measure)] = &[
    // B-series: wall-clock speedup of the multi-threaded backend over the
    // simulator, 1/2/4/8 threads (quick: small workloads, 1/2 threads).
    ("parallel-json", "out/BENCH_parallel.json", b1_parallel),
    // Interpreted vs compiled rule execution on the same scheduler.
    ("compiled-json", "out/BENCH_compiled.json", b2_compiled),
    // C-series: the resident service under concurrent TCP load, top burst
    // 1000 clients.
    ("serve-json", "out/BENCH_serve.json", c1_serve),
    // The same bursts through Supervise ∘ Server (acked sends, wall-clock
    // heartbeat and watch deadlines); its own file so the plain baseline
    // stays comparable.
    (
        "serve-supervised-json",
        "out/BENCH_serve_supervised.json",
        c1_serve_supervised,
    ),
];
