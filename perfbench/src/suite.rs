//! `perfbench suite` records a set of runs (each workload in fresh child
//! processes, so `peak_rss_mb` is per workload); `perfbench compare` sets
//! two recordings side by side under the bounds of `BENCHMARK.json`.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::WORKLOADS;
use crate::stats::{host_parallelism, median, quartiles};
use crate::{Flags, DEFAULT_SEED};

const SCHEMA: &str = "perfbench suite v1";

/// Run this binary once as a child and parse the last line of its stdout.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed nothing ({})", output.status))?;
    let mut result =
        Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}: {last}"))?;
    if let Json::Obj(fields) = &mut result {
        fields.insert(0, ("trace".to_string(), Json::Num(f64::from(trace))));
        fields.insert(0, ("seed".to_string(), Json::Num(seed as f64)));
        fields.insert(0, ("workload".to_string(), Json::str(workload)));
    }
    Ok(result)
}

/// `suite --out FILE [--runs K] [--seconds S] [--seed N] [--workload W]`:
/// per workload, `K` untraced runs on seeds `N, N+1, …` and one traced
/// run, then the medians as a table and everything as JSON in `FILE`.
/// Exit status 1 if any run failed its correctness gate.
pub fn suite(flags: &Flags) -> Result<ExitCode, String> {
    let out = flags.get("out").ok_or("--out is required")?;
    let runs: u64 = flags.number("runs", Some(10))?;
    let seconds: f64 = flags.number("seconds", Some(10.0))?;
    let seed: u64 = flags.number("seed", Some(DEFAULT_SEED))?;
    let workloads: Vec<&str> = match flags.get("workload") {
        Some(one) => vec![one],
        None => WORKLOADS.to_vec(),
    };
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in workloads {
        for k in 0..=runs {
            let (trace, run_seed) = if k == runs { (1, seed) } else { (0, seed + k) };
            let record = child_run(workload, run_seed, seconds, trace)?;
            let correct = record.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            eprintln!(
                "{workload} seed {run_seed} trace {trace}: {}",
                if correct { "correct" } else { "FAILED" }
            );
            records.push(record);
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("host_parallelism", Json::Num(host_parallelism() as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(records)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    print_medians(&doc);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Values of `metric` over the runs of `workload` with the given trace
/// flag, in recording order.
fn values_of(doc: &Json, workload: &str, trace: f64, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(trace)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values): the spread the acceptance check of this benchmark uses.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Metric names and units in the order the first matching run lists them.
fn metric_names(doc: &Json, trace: f64) -> Vec<(String, String)> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|r| r.get("trace").and_then(Json::as_f64) == Some(trace))
        .and_then(|r| r.get("metrics")?.as_obj())
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn print_medians(doc: &Json) {
    for (trace, title) in [(0.0, "end to end"), (1.0, "per layer")] {
        println!("\n{title}: median over runs (interquartile range / median)");
        print!("{:<36}", "");
        for w in WORKLOADS {
            print!(" {w:>22}");
        }
        println!();
        for (name, unit) in metric_names(doc, trace) {
            print!("{:<36}", format!("{name} [{unit}]"));
            for w in WORKLOADS {
                let v = values_of(doc, w, trace, &name);
                if v.is_empty() {
                    print!(" {:>22}", "-");
                } else {
                    let cell = format!("{:.4} ({:.1}%)", median(&v), 100.0 * spread(&v));
                    print!(" {cell:>22}");
                }
            }
            println!();
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA:?} recording"));
    }
    Ok(doc)
}

/// `compare A.json B.json`: per workload × end-to-end metric, both
/// medians, the ratio B/A, the bound from `./BENCHMARK.json`, and a
/// verdict. `worse`: B's median is worse than A's by more than the bound.
/// `unresolved`: not worse, but a side's spread exceeds the bound and B's
/// runs do not all read better than A's, so "unchanged" cannot be claimed.
/// Exit status 1 on any `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading ./BENCHMARK.json (run from the repo root): {e}"))?;
    let contract = Json::parse(&contract).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    for (name, doc) in [(a_path, &a), (b_path, &b)] {
        let host = doc.get("host_parallelism").and_then(Json::as_f64);
        println!("{name}: host_parallelism {}", host.unwrap_or(0.0));
    }
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for workload in WORKLOADS {
        for metric in metrics {
            let field = |key: &str| metric.get(key).and_then(Json::as_str);
            let name = field("name").ok_or("BENCHMARK.json: metric without a name")?;
            let lower_is_better = field("better") == Some("lower");
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: metric without a bound")?;
            let (va, vb) = (
                values_of(&a, workload, 0.0, name),
                values_of(&b, workload, 0.0, name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {name:<14} missing on one side");
                unresolved += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let b_wins_every_pair = va.iter().all(|x| {
                vb.iter()
                    .all(|y| if lower_is_better { y < x } else { y > x })
            });
            let verdict = if worse_by > bound {
                worse += 1;
                "worse"
            } else if spread(&va).max(spread(&vb)) > bound && !b_wins_every_pair {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {name:<14} {ma:>12.4} {mb:>12.4} {:>9.4} {bound:>6.2}  {verdict}",
                mb / ma
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
