//! Holds `BENCHMARK.json`, the binary and the suite/compare tools in step:
//! every workload is run for a fraction of a second (same workloads, same
//! schema as a full run), its result line parsed with the benchmark's one
//! strict parser, and every name `BENCHMARK.json` lists must be present
//! with its unit.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repo root")
        .to_path_buf()
}

fn contract() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn perfbench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let c = contract();
    let keys: Vec<&str> = c
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = c.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let mut seen = Vec::new();
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(is_name(name), "{name}");
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{name}");
        seen.push(name.to_string());
    }
    let end_to_end = c.get("end_to_end").unwrap();
    let per_layer = c.get("per_layer").unwrap();
    assert!((1..=16).contains(&end_to_end.as_arr().unwrap().len()));
    assert!((1..=128).contains(&per_layer.as_arr().unwrap().len()));
    for m in end_to_end.as_arr().unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = end_to_end
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    for (name, unit) in names(end_to_end).into_iter().chain(names(per_layer)) {
        assert!(is_name(&name), "{name}");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
            "{unit}"
        );
        seen.push(name);
    }
    let total = seen.len();
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), total, "a name is used twice");
    let seconds = c.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // 4 + 22 per workload runs, with set-up, inside 3420 s.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        runs * (seconds + 8.0) < 3420.0 - 120.0,
        "the driver's runs do not fit"
    );
}

/// One short run per workload and trace flag, on two seeds. Sequential:
/// each run already loads both cores.
#[test]
fn every_workload_reports_every_listed_metric_and_passes_its_gate() {
    let c = contract();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in c.get("workloads").unwrap().as_arr().unwrap() {
        let workload = w.get("name").and_then(Json::as_str).unwrap();
        for (trace, seed, list) in [("0", "1990", "end_to_end"), ("1", "7", "per_layer")] {
            let out = perfbench(
                tmp,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    seed,
                    "--seconds",
                    "0.3",
                    "--trace",
                    trace,
                ],
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Json::parse(stdout.lines().last().unwrap()).expect("strict JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let reported: Vec<(String, String)> = result
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).expect("a value");
                    if list == "end_to_end" {
                        assert!(value > 0.0, "{workload}: {name} is {value}");
                    }
                    let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(reported, names(c.get(list).unwrap()), "{workload} {list}");
            if trace == "1" {
                let spans = std::fs::read_to_string(
                    tmp.join(format!("out/perfbench/trace-{workload}.jsonl")),
                )
                .expect("the traced run wrote its spans");
                let first = Json::parse(spans.lines().next().expect("a span")).unwrap();
                for key in ["name", "start_ns", "end_ns", "span", "parent", "id"] {
                    assert!(first.get(key).is_some(), "span without {key}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "eval-chain", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "eval-chain",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = perfbench(tmp, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn suite_records_and_compare_judges_by_the_bounds() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let a = tmp.join("suite-a.json");
    let b = tmp.join("suite-b.json");
    let out = perfbench(
        tmp,
        &[
            "suite",
            "--out",
            a.to_str().unwrap(),
            "--runs",
            "2",
            "--seconds",
            "0.2",
            "--workload",
            "eval-chain",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&a).unwrap();
    let doc = Json::parse(text.trim_end()).expect("the recording parses");
    assert_eq!(doc.get("runs").unwrap().as_arr().unwrap().len(), 3);
    assert!(doc.get("host_parallelism").and_then(Json::as_f64).unwrap() >= 1.0);

    // `compare` reads the bounds from ./BENCHMARK.json.
    let root = repo_root();
    let same = perfbench(
        &root,
        &["compare", a.to_str().unwrap(), a.to_str().unwrap()],
    );
    let table = String::from_utf8(same.stdout).unwrap();
    assert!(same.status.success(), "{table}");
    assert!(table.contains("0 worse"), "{table}");

    // The same recording with every latency doubled is worse.
    fn slow_down(j: &mut Json) {
        match j {
            Json::Obj(fields) => {
                for (k, v) in fields.iter_mut() {
                    if k == "op_ms_p50" {
                        if let Json::Obj(m) = v {
                            if let Some((_, Json::Num(n))) =
                                m.iter_mut().find(|(k, _)| k == "value")
                            {
                                *n *= 2.0;
                            }
                        }
                    } else {
                        slow_down(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(slow_down),
            _ => {}
        }
    }
    let mut slower = doc.clone();
    slow_down(&mut slower);
    std::fs::write(&b, slower.to_string()).unwrap();
    let worse = perfbench(
        &root,
        &["compare", a.to_str().unwrap(), b.to_str().unwrap()],
    );
    let table = String::from_utf8(worse.stdout).unwrap();
    assert_eq!(worse.status.code(), Some(1), "{table}");
    assert!(table.contains("worse"), "{table}");
}
