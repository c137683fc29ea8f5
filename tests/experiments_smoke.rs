//! Smoke tests for the experiment harness: every listed experiment is
//! runnable (the deterministic ones end to end in `tests/golden.rs`; the
//! expensive ones are covered by `motif-bench` itself and by the claims
//! tests).

#[test]
fn every_experiment_name_resolves() {
    // Resolution only (the expensive ones are not run): every listed name
    // reaches a renderer through the lookup `motif-bench` uses, no name is
    // shadowed by an earlier duplicate, and unknown names are the only None.
    let names: Vec<&str> = bench::experiment_names().collect();
    assert!(names.len() >= 21, "experiments went missing: {names:?}");
    for (i, name) in names.iter().enumerate() {
        assert!(bench::experiment(name).is_some(), "{name} does not resolve");
        assert!(!names[..i].contains(name), "{name} is listed twice");
    }
    assert!(bench::experiment("no-such-experiment").is_none());
    assert!(bench::run_experiment("no-such-experiment").is_none());
}

#[test]
fn fig5_prints_all_three_stages() {
    let out = bench::run_experiment("fig5").expect("fig5 exists");
    assert!(out.contains("Stage 1"));
    assert!(out.contains("Stage 2"));
    assert!(out.contains("Stage 3"));
    assert!(out.contains("@random"));
    assert!(out.contains("distribute("));
}

#[test]
fn motif_catalog_is_complete_and_exclusive() {
    use algorithmic_motifs::motifs::inventory::{entry, CATALOG};
    // `motif-bench show <key>` reaches every entry, and only its own.
    for e in CATALOG {
        assert_eq!(entry(e.key).map(|found| found.name), Some(e.name));
    }
    assert!(entry("not-a-motif").is_none());
}
