//! A tiny command-line runner for motif-language programs: point it at a
//! source file and a goal, and it executes the program on the simulated
//! multicomputer (or, with `--threads N`, on the fleet's N worker threads,
//! 0 meaning `min(nodes, host parallelism)`) and prints the goal's bindings
//! plus run metrics.
//!
//! ```sh
//! cargo run --example run_strand -- <file> <goal> [nodes] [seed] \
//!     [--trace] [--stats] [--threads N] \
//!     [--exec compiled|interpreted] \
//!     [--faults seed=N,crash=node@at,drop=p,dup=p,delay=p:ticks,slow=node:factor]
//! # e.g.
//! echo 'double(X, Y) :- Y := X * 2.' > /tmp/d.str
//! cargo run --example run_strand -- /tmp/d.str 'double(21, V)'
//! # same program on real worker threads:
//! cargo run --example run_strand -- /tmp/d.str 'double(21, V)' 4 0 --threads 4
//! # rule-level statistics from the reference interpreter:
//! cargo run --example run_strand -- /tmp/d.str 'double(21, V)' \
//!     --exec interpreted --stats
//! ```
//!
//! With no arguments it runs a built-in demo (the paper's Figure 1).

use algorithmic_motifs::strand_machine::{
    render_trace, run_goal, trace_summary, ExecMode, FaultPlan, MachineConfig, RunStatus,
};

const DEMO: &str = r#"
% The paper's Figure 1: a producer and consumer communicating by a
% synchronous stream of four messages.
go(N) :- producer(N, Xs, sync), consumer(Xs).
producer(N, Xs, sync) :- N > 0 |
    Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).
producer(0, Xs, _) :- Xs := [].
consumer([X|Xs]) :- X := sync, consumer(Xs).
consumer([]).
"#;

fn parse_faults(spec: &str) -> FaultPlan {
    FaultPlan::parse_spec(spec).unwrap_or_else(|e| {
        eprintln!("--faults: {e}");
        std::process::exit(2);
    })
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--trace");
    let stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--stats");
    let threads: Option<u32> = take_flag_value(&mut args, "--threads")
        .map(|v| v.parse().expect("--threads wants a number"));
    let exec_arg = take_flag_value(&mut args, "--exec").unwrap_or_else(|| "compiled".to_string());
    let faults = take_flag_value(&mut args, "--faults").map(|spec| parse_faults(&spec));
    let exec = match exec_arg.as_str() {
        "compiled" => ExecMode::Compiled,
        "interpreted" => ExecMode::Interpreted,
        other => {
            eprintln!(
                "--exec must be `compiled` (fast path) or `interpreted` (reference), got `{other}`"
            );
            std::process::exit(2);
        }
    };
    let (source, goal, label) = match args.as_slice() {
        [] => (
            DEMO.to_string(),
            "go(4)".to_string(),
            "<built-in demo>".to_string(),
        ),
        // A flag left over here is one this runner does not take.
        [file, goal, ..] if !args.iter().any(|a| a.starts_with("--")) => {
            let src =
                std::fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
            (src, goal.clone(), file.clone())
        }
        _ => {
            eprintln!(
                "usage: run_strand <file> <goal> [nodes] [seed] \
                 [--trace] [--stats] [--threads N] \
                 [--exec compiled|interpreted] \
                 [--faults seed=N,crash=node@at,drop=p,dup=p,delay=p:ticks,slow=node:factor]"
            );
            std::process::exit(2);
        }
    };
    let nodes: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);

    let backend = match threads {
        None => "sim".to_string(),
        Some(0) => "parallel, min(nodes, host) threads".to_string(),
        Some(n) => format!("parallel, {n} threads"),
    };
    println!("program: {label}\ngoal:    {goal}\nnodes:   {nodes}\nbackend: {backend}\nexec:    {exec_arg}\n");
    if let Ok(parsed) = algorithmic_motifs::strand_parse::parse_program(&source) {
        let findings = algorithmic_motifs::strand_parse::lint(&parsed, &[]);
        for l in &findings {
            eprintln!("lint: {l}");
        }
        if !findings.is_empty() {
            eprintln!();
        }
    }
    let mut config = MachineConfig::with_nodes(nodes).seed(seed).exec(exec);
    config.record_trace = trace;
    if let Some(threads) = threads {
        config = config.parallel(threads);
    }
    if let Some(plan) = faults {
        // Faults make failure normal: keep partial results reportable.
        config = config.faults(plan);
        config.fail_fast = false;
    }
    let result = run_goal(&source, &goal, config);
    match result {
        Ok(r) => {
            if trace {
                println!(
                    "--- trace ---\n{}--- {} ---\n",
                    render_trace(&r.report.trace),
                    trace_summary(&r.report.trace)
                );
            }
            for (name, value) in &r.bindings {
                println!("{name} = {value}");
            }
            if !r.report.output.is_empty() {
                println!("\noutput:");
                for line in &r.report.output {
                    println!("  {line}");
                }
            }
            let m = &r.report.metrics;
            println!(
                "\nstatus: {:?}\nreductions: {} | suspensions: {} | cross-node messages: {} | makespan: {} ticks",
                r.report.status,
                m.total_reductions,
                m.suspensions,
                m.total_messages(),
                m.makespan
            );
            if m.threads_used > 0 {
                println!(
                    "threads: {} | wall: {:.2} ms | jobs/worker: {:?}",
                    m.threads_used,
                    m.wall_ns as f64 / 1e6,
                    m.worker_jobs
                );
            }
            if stats {
                println!("\n--- rule stats ---");
                println!(
                    "rule dispatches: {} compiled, {} interpreted",
                    m.compiled_reductions, m.interpreted_reductions
                );
                println!("rules tried (full head match): {}", m.rules_tried);
                let probes = m.index_hits + m.index_misses;
                if probes > 0 {
                    println!(
                        "first-arg index: {} skipped, {} passed through ({:.1}% filtered)",
                        m.index_hits,
                        m.index_misses,
                        100.0 * m.index_hits as f64 / probes as f64
                    );
                } else {
                    println!("first-arg index: no keyed rules probed");
                }
                let injected =
                    m.nodes_crashed + m.msgs_dropped + m.msgs_duplicated + m.msgs_delayed;
                if injected + m.supervisor_restarts > 0 {
                    println!(
                        "faults: {} nodes crashed | deliveries: {} dropped, {} duplicated, \
                         {} delayed | supervisor restarts: {}",
                        m.nodes_crashed,
                        m.msgs_dropped,
                        m.msgs_duplicated,
                        m.msgs_delayed,
                        m.supervisor_restarts
                    );
                }
                if !m.susp_by_proc.is_empty() {
                    println!("suspensions by procedure:");
                    for (name, n) in m.suspensions_by_procedure() {
                        println!("  {name}: {n}");
                    }
                }
            }
            if let RunStatus::Quiescent { suspended } = r.report.status {
                println!("note: {suspended} process(es) idle awaiting input (normal for server networks)");
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
