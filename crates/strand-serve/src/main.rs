//! `strand-serve` — keep a Server-motif program resident and answer TCP
//! clients. See the library docs (and DESIGN.md §9) for the model.
//!
//! `strand-serve --help` prints the options and the wire protocol (`usage`
//! below is the one copy of both).
//!
//! Ctrl-C (SIGINT) shuts down gracefully: new connections are rejected,
//! in-flight sessions drain, and a summary of the run is printed.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use strand_serve::{serve, MotifService, ServeBackend, ServeConfig, DOUBLER_APP};

/// Set on SIGINT; the accept loop polls it. Installed over `signal(2)`
/// directly against libc so no crate dependency is needed — the handler
/// body is a lone atomic store, which is async-signal-safe.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_sigint() {
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_sigint as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
    }
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    args.remove(i);
    Some(args.remove(i))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if take_flag(&mut args, "--help") || take_flag(&mut args, "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let addr = take_flag_value(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7464".into());
    let app = match take_flag_value(&mut args, "--app") {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("strand-serve: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => DOUBLER_APP.to_string(),
    };
    let servers: u32 = take_flag_value(&mut args, "--servers")
        .map(|v| v.parse().expect("--servers wants a number"))
        .unwrap_or(4);
    let supervise = take_flag(&mut args, "--supervise");
    let threads: u32 = take_flag_value(&mut args, "--threads")
        .map(|v| v.parse().expect("--threads wants a number"))
        .unwrap_or(0);
    let max_pending: u64 = take_flag_value(&mut args, "--max-pending")
        .map(|v| v.parse().expect("--max-pending wants a number"))
        .unwrap_or(10_000);
    let stats = take_flag(&mut args, "--stats");
    if !args.is_empty() {
        eprintln!("strand-serve: unknown arguments: {args:?}\n\n{}", usage());
        return ExitCode::from(2);
    }

    let cfg = ServeConfig {
        servers,
        backend: ServeBackend::Parallel(threads),
        supervise,
        max_pending,
        ..ServeConfig::default()
    };
    let service = match MotifService::start(&app, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("strand-serve: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("strand-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_sigint();
    eprintln!(
        "strand-serve: {} servers{} on {} worker thread(s), listening on {addr} (ctrl-c to stop)",
        servers,
        if supervise { " (supervised)" } else { "" },
        service.threads(),
    );
    let shutdown: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
    {
        // Bridge the signal flag to the loop's shutdown flag so tests can
        // drive `serve` with their own flag too.
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("strand-sigint".to_string())
            .spawn(move || loop {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    shutdown.store(true, Ordering::Release);
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("spawn signal bridge");
    }
    match serve(listener, service, shutdown, Duration::from_secs(10)) {
        Ok(summary) => {
            let m = &summary.report.metrics;
            eprintln!(
                "strand-serve: drained. sessions {}/{} (opened/closed), requests {} admitted / {} \
                 rejected, {} collections (longest {} us) reclaimed {} vars, {} idle parks, \
                 {} reductions, ingress batches {} reduced on the injecting thread / {} sent \
                 to a busy worker, {} owner wakes from the injecting thread",
                m.sessions_opened,
                m.sessions_closed,
                m.requests_admitted,
                m.requests_rejected,
                m.collections,
                m.collect_us_max,
                m.vars_reclaimed,
                m.idle_parks,
                m.total_reductions,
                m.ingress_bursts,
                m.ingress_handoffs,
                m.ingress_wakes,
            );
            if supervise {
                eprintln!(
                    "strand-serve: supervision: {} timers armed / {} fired / {} cancelled, \
                     {} deadline wakes, {} supervisor restarts",
                    m.timers_armed,
                    m.timers_fired,
                    m.timers_cancelled,
                    m.wakes_for_deadline,
                    m.supervisor_restarts,
                );
            }
            if stats {
                eprintln!("{m:#?}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("strand-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "strand-serve — resident motif service over TCP

USAGE:
  strand-serve [--addr HOST:PORT] [--app FILE] [--servers N]
               [--threads T] [--supervise] [--max-pending P] [--stats]

OPTIONS:
  --addr HOST:PORT   listen address            (default 127.0.0.1:7464)
  --app FILE         server/1 application file (default: built-in doubler)
  --servers N        server-motif nodes        (default 4)
  --threads T        worker threads; 0 = host parallelism (default)
  --supervise        compose Supervise over the servers: heartbeats, acked
                     sends and restart run on wall-clock timers
  --max-pending P    requests in flight before BUSY (default 10000)
  --stats            full metrics table in the shutdown summary

PROTOCOL (line-based):
  -> <ground term>     one request per line
  <- OK <term>         the handler's reply
  <- ERR <message>     parse error, non-ground request, timeout
  <- BUSY <millis>     backpressured; retry after the delay
"
    .to_string()
}
