//! `perfbench`: the repo's one layered benchmark (contract in
//! `BENCHMARK.json`, tables and predictions in `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one run, one process
//! perfbench suite --out FILE [--runs K] [--seconds S] [--seed N] [--workload W]
//! perfbench compare A.json B.json
//! ```
//!
//! A run generates its inputs from the seed, sets up (several times, for
//! `setup_s`), measures for `S` seconds, checks every output
//! against a reference that does not involve the engine, prints every
//! metric by name with its unit, and ends stdout with one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records benchmark-side spans, runs the
//! layer probes, writes `out/perfbench/trace-<workload>.jsonl` and reports
//! the per-layer metrics. A wrong, lost or leaked operation makes
//! `failed` > 0 and the exit status 1 — after the JSON is written.

mod alloc_count;
mod batch;
mod inputs;
mod json;
mod metrics;
mod probes;
mod serve;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use json::Json;
use metrics::{Values, WORKLOADS};

#[global_allocator]
static ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

/// The seed `suite` starts from when none is given.
pub const DEFAULT_SEED: u64 = 1990;

/// `--name value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [name, value] if name.starts_with("--") => {
                    pairs.push((name[2..].to_string(), value.clone()));
                }
                _ => return Err(format!("expected `--name value`, got {pair:?}")),
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} wants a number, got {text:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n\
         \x20      perfbench suite --out FILE [--runs K] [--seconds S] [--seed N] [--workload W]\n\
         \x20      perfbench compare A.json B.json",
        WORKLOADS.join("|")
    )
}

/// One result line, exactly as the contract spells it.
fn result_json(attempted: u64, failed: u64, values: &Values) -> Json {
    let metrics = values
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = flags.number("seed", None)?;
    let seconds: f64 = flags.number("seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let traced = match flags.get("trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let batch = matches!(workload, "dispatch-tree" | "eval-chain" | "motif-tree-par");
    let cores = stats::host_parallelism();
    if cores < 2 && workload != "dispatch-tree" && workload != "eval-chain" {
        // Two engine threads plus two clients on one core measure the
        // scheduler; refuse rather than record it.
        return Err(format!(
            "{workload} needs at least 2 cores (host_parallelism is {cores})"
        ));
    }
    strand_parallel::install();

    let (measured, values) = if traced {
        let (measured, values, spans) = if batch {
            batch::run_traced(workload, seed, seconds)
        } else {
            serve::run_traced(serve::ServeCase::named(workload), seed, seconds)
        };
        let path = format!("out/perfbench/trace-{workload}.jsonl");
        trace::write_jsonl(std::path::Path::new(&path), &spans)
            .map_err(|e| format!("writing {path}: {e}"))?;
        (measured, values)
    } else {
        let run = if batch {
            batch::run_untraced(workload, seed, seconds)
        } else {
            serve::run_untraced(serve::ServeCase::named(workload), seed, seconds)
        };
        let values = metrics::end_to_end(&run);
        (run.measured, values)
    };

    println!(
        "{workload}  seed {seed}  {seconds} s  trace {}  host_parallelism {cores}  \
         samples {}  attempted {}  failed {}",
        u8::from(traced),
        measured.ops.len(),
        measured.attempted,
        measured.failed
    );
    for (name, value, unit) in values.iter() {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "{}",
        result_json(measured.attempted, measured.failed, &values)
    );
    Ok(if measured.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => Flags::parse(&args[1..]).and_then(|f| suite::suite(&f)),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("compare wants two suite files".to_string()),
        },
        _ => Flags::parse(&args).and_then(|f| run_one(&f)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
