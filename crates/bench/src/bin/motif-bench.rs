//! Regenerate the experiment tables of EXPERIMENTS.md, and record the
//! wall-clock series behind the committed `BENCH_*.json` snapshots.
//!
//! Usage: `motif-bench [experiment...]` — with no arguments, runs them all.
//! Experiment names: see `motif-bench list`. `motif-bench <series>-json
//! [path] [--quick] [--require-cores]` records one series; the path
//! defaults to a file under `out/`, which is gitignored.

use bench::{series, Measure, RECORDERS};

/// Record one series: `[path] [--quick] [--require-cores]`.
fn record(default_path: &str, run: Measure, args: &[String]) {
    let (flags, paths): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    if paths.len() > 1
        || flags
            .iter()
            .any(|f| !["--quick", "--require-cores"].contains(f))
    {
        eprintln!("usage: motif-bench <series>-json [path] [--quick] [--require-cores]");
        std::process::exit(2);
    }
    // Every series is wall-clock on real threads: on one core it measures
    // scheduling overhead. The nightly recording job passes
    // `--require-cores` to fail loudly instead of recording noise.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1 {
        if flags.contains(&"--require-cores") {
            eprintln!("error: refusing to record on a single-core host (--require-cores)");
            std::process::exit(3);
        }
        eprintln!(
            "WARNING: single-core host — the file carries a host_warning and \
             should not be committed as a recording"
        );
    }
    let json = series::render(&run(flags.contains(&"--quick")));
    if let Err(e) = series::parse(&json) {
        eprintln!("error: the recorded series does not re-parse: {e}\n{json}");
        std::process::exit(1);
    }
    let path = std::path::Path::new(paths.first().copied().unwrap_or(default_path));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, &json).expect("write series json");
    print!("{json}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args.first().map(String::as_str);
    if let Some((_, path, run)) = RECORDERS.iter().find(|(v, ..)| Some(*v) == verb) {
        record(path, *run, &args[1..]);
        return;
    }
    if args.iter().any(|a| a == "list" || a == "--list") {
        for name in bench::experiment_names() {
            println!("{name}");
        }
        return;
    }
    if args.first().map(String::as_str) == Some("show") {
        // Consult the archive: print a motif library's source.
        match args.get(1).and_then(|n| bench::motif_source(n)) {
            Some((title, src)) => {
                println!("%% {title}\n{src}");
            }
            None => {
                eprintln!("usage: motif-bench show <motif>; motifs:");
                for m in bench::motif_names() {
                    eprintln!("  {m}");
                }
                std::process::exit(2);
            }
        }
        return;
    }
    let selected: Vec<&str> = if args.is_empty() {
        bench::experiment_names().collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in selected {
        match bench::run_experiment(name) {
            Some(output) => println!("{output}"),
            None => {
                eprintln!("unknown experiment `{name}`; try `motif-bench list`");
                std::process::exit(2);
            }
        }
    }
}
