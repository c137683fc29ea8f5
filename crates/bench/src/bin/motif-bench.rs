//! Regenerate the experiment tables of EXPERIMENTS.md.
//!
//! Usage: `motif-bench [experiment...]` — with no arguments, runs them all.
//! Experiment names: see `motif-bench list`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
