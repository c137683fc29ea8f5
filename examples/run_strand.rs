//! A tiny command-line runner for motif-language programs: point it at a
//! source file and a goal, and it executes the program on the simulated
//! multicomputer and prints the goal's bindings plus run metrics.
//!
//! ```sh
//! cargo run --example run_strand -- <file> <goal> [nodes] [seed] \
//!     [--trace] [--stats] [--backend sim|parallel] [--threads N] \
//!     [--exec compiled|interpreted] \
//!     [--chaos seed=N,kill=shard@reductions,drop=p,dup=p,slow=shard:us]
//! cargo run --example run_strand -- [app.str] [servers] --serve HOST:PORT \
//!     [--backend sim|parallel] [--threads N] [--stats]
//! # e.g.
//! echo 'double(X, Y) :- Y := X * 2.' > /tmp/d.str
//! cargo run --example run_strand -- /tmp/d.str 'double(21, V)'
//! # same program on real worker threads:
//! cargo run --example run_strand -- /tmp/d.str 'double(21, V)' 4 0 \
//!     --backend parallel --threads 4
//! # rule-level statistics from the reference interpreter:
//! cargo run --example run_strand -- /tmp/d.str 'double(21, V)' \
//!     --exec interpreted --stats
//! # keep a server/1 application resident and answer TCP clients
//! # (ctrl-c drains and prints the serve summary; see DESIGN.md §9):
//! echo 'server([]). server([halt|_]).
//!       server([req(Q, R)|In]) :- R := Q * 2, server(In).' > /tmp/s.str
//! cargo run --example run_strand -- /tmp/s.str --serve 127.0.0.1:7464 \
//!     --backend parallel --threads 2
//! ```
//!
//! With no arguments it runs a built-in demo (the paper's Figure 1).

use algorithmic_motifs::strand_machine::{
    render_trace, run_goal, trace_summary, ChaosPlan, ExecMode, MachineConfig, RunStatus,
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

fn parse_chaos(spec: &str) -> ChaosPlan {
    ChaosPlan::parse_spec(spec).unwrap_or_else(|e| {
        eprintln!("--chaos: {e}");
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

/// Set on SIGINT in `--serve` mode; installed over `signal(2)` directly so
/// the example needs no extra dependency (the handler is a lone atomic
/// store, which is async-signal-safe).
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// `--serve HOST:PORT`: keep the program resident (DESIGN.md §9) and
/// answer TCP clients until SIGINT, then drain and print the summary.
fn run_serve(addr: &str, app: &str, servers: u32, backend: &str, threads: u32, stats: bool) -> ! {
    use algorithmic_motifs::strand_serve::{serve, MotifService, ServeBackend, ServeConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let serve_backend = if backend == "parallel" {
        algorithmic_motifs::strand_parallel::install();
        ServeBackend::Parallel(threads)
    } else {
        ServeBackend::Sim
    };
    let cfg = ServeConfig {
        servers,
        backend: serve_backend,
        ..ServeConfig::default()
    };
    let service = match MotifService::start(app, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--serve: boot failed: {e}");
            std::process::exit(1);
        }
    };
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("--serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_sigint as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
    }
    eprintln!(
        "serving {servers} servers on {} worker thread(s) at {addr} (ctrl-c to stop)",
        service.threads()
    );
    let shutdown: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if SHUTDOWN.load(Ordering::SeqCst) {
                shutdown.store(true, Ordering::Release);
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    match serve(listener, service, shutdown, Duration::from_secs(10)) {
        Ok(summary) => {
            let m = &summary.report.metrics;
            println!(
                "\nsessions: {}/{} (opened/closed) | requests: {} admitted, {} rejected\n\
                 vars reclaimed: {} | idle parks: {} | reductions: {}",
                m.sessions_opened,
                m.sessions_closed,
                m.requests_admitted,
                m.requests_rejected,
                m.vars_reclaimed,
                m.idle_parks,
                m.total_reductions,
            );
            if stats {
                println!("{m:#?}");
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("--serve: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--trace");
    let stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--stats");
    let backend = take_flag_value(&mut args, "--backend").unwrap_or_else(|| "sim".to_string());
    let threads: u32 = take_flag_value(&mut args, "--threads")
        .map(|v| v.parse().expect("--threads wants a number"))
        .unwrap_or(0);
    let exec_arg = take_flag_value(&mut args, "--exec").unwrap_or_else(|| "compiled".to_string());
    let chaos = take_flag_value(&mut args, "--chaos").map(|spec| parse_chaos(&spec));
    let serve_addr = take_flag_value(&mut args, "--serve");
    if chaos.is_some() && backend != "parallel" {
        eprintln!("--chaos injects wall-clock faults; it requires --backend parallel");
        std::process::exit(2);
    }
    if !matches!(backend.as_str(), "sim" | "parallel") {
        eprintln!("--backend must be `sim` (deterministic) or `parallel`, got `{backend}`");
        std::process::exit(2);
    }
    if let Some(addr) = serve_addr {
        // Resident service mode: the positional args are [app-file]
        // [servers]; the app supplies server/1 rules, the goal comes from
        // the network. Chaos assumes a run that ends — the resident engine
        // rejects it, so refuse it coherently here too.
        if chaos.is_some() {
            eprintln!("--chaos assumes a run that terminates; it cannot combine with --serve");
            std::process::exit(2);
        }
        let (app, label) = match args.first() {
            Some(file) => (
                std::fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {file}: {e}")),
                file.clone(),
            ),
            None => (
                algorithmic_motifs::strand_serve::DOUBLER_APP.to_string(),
                "<built-in doubler>".to_string(),
            ),
        };
        let servers: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
        println!("program: {label}\nserve:   {addr}\nservers: {servers}\nbackend: {backend}\n");
        run_serve(&addr, &app, servers, &backend, threads, stats);
    }
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
        [file, goal, ..] => {
            let src =
                std::fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
            (src, goal.clone(), file.clone())
        }
        _ => {
            eprintln!(
                "usage: run_strand <file> <goal> [nodes] [seed] \
                 [--trace] [--stats] [--backend sim|parallel] [--threads N] \
                 [--exec compiled|interpreted] \
                 [--chaos seed=N,kill=shard@reductions,drop=p,dup=p,slow=shard:us]\n\
                 \x20      run_strand [app.str] [servers] --serve HOST:PORT \
                 [--backend sim|parallel] [--threads N] [--stats]"
            );
            std::process::exit(2);
        }
    };
    let nodes: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);

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
    if backend == "parallel" {
        algorithmic_motifs::strand_parallel::install();
        config = config.parallel(threads);
    }
    if let Some(plan) = chaos {
        // Faults make failure normal: keep partial results reportable.
        config = config.chaos(plan);
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
                if m.shards_killed > 0
                    || m.batches_dropped > 0
                    || m.batches_duplicated > 0
                    || m.throttle_ns > 0
                    || m.supervisor_restarts > 0
                {
                    println!("chaos:");
                    println!("  shards killed: {}", m.shards_killed);
                    println!(
                        "  batches dropped: {} ({} spawns) | duplicated: {} ({} spawns)",
                        m.batches_dropped, m.msgs_dropped, m.batches_duplicated, m.msgs_duplicated
                    );
                    println!(
                        "  throttle stalls: {:.2} ms | supervisor restarts: {}",
                        m.throttle_ns as f64 / 1e6,
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
