//! The Grid motif (§4 "grid problems"): a 1-D relaxation where each cell is
//! a concurrent process exchanging boundary values with its neighbors over
//! single-assignment streams — one motif program, run on the simulator and
//! on two worker threads.
//!
//! ```sh
//! cargo run --example grid_jacobi
//! ```

use algorithmic_motifs::motifs::grid::{grid, sequential_stencil};
use algorithmic_motifs::strand_core::Term;
use algorithmic_motifs::strand_machine::{run_parsed_goal, MachineConfig};
use algorithmic_motifs::strand_parallel;

fn main() {
    let (n, steps) = (12u32, 8u32);
    let program = grid()
        .apply_src("cell_init(I, V) :- V := I * 1.0.")
        .expect("grid motif applies");
    let init: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let reference = sequential_stencil(&init, steps);

    strand_parallel::install();
    let sim = MachineConfig::with_nodes(4);
    for (engine, cfg) in [
        ("the simulator", sim.clone()),
        ("2 worker threads", sim.parallel(2)),
    ] {
        let r = run_parsed_goal(&program, &format!("grid({n}, {steps}, Final)"), cfg)
            .expect("grid runs");
        let values: Vec<f64> = r.bindings["Final"]
            .as_proper_list()
            .expect("list of finals")
            .iter()
            .map(|t| match t {
                Term::Float(x) => *x,
                Term::Int(i) => *i as f64,
                other => panic!("unexpected {other}"),
            })
            .collect();
        println!("grid ({n} cells, {steps} steps) on 4 nodes, {engine}:");
        println!("  {values:.2?}");
        println!(
            "  {} reductions, {} cross-node messages",
            r.report.metrics.total_reductions,
            r.report.metrics.total_messages()
        );
        assert_eq!(values.len(), reference.len());
        for (a, b) in values.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
    println!("both engines match the sequential reference");
}
