//! Every deterministic `motif-bench` table, byte for byte.
//!
//! The simulator runs in virtual time from fixed seeds, so each table below
//! is a pure function of the code: an engine change that claims to leave
//! behaviour alone must leave every file unchanged, and one that moves a
//! table updates the file (`motif-bench <verb> > tests/golden/<verb>.txt`)
//! and says why. The files hold exactly what `motif-bench <verb>` prints.

/// The verbs whose output depends on nothing but the code: no wall clock,
/// no thread interleaving, no host.
const VERBS: &[&str] = &[
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig7",
    "e1-balance",
    "e2-memory",
    "e3-comm",
    "e4-speedup",
    "e5-loc",
    "e6-compose",
    "e7-scheduler",
    "e9-future",
    "e10-pragma",
    "a1-latency",
    "a2-faults",
    "e8-sim",
    "scale",
];

/// The verbs that run on threads or read the clock, so their tables move
/// from run to run and host to host.
const HOST_DEPENDENT: &[&str] = &[
    "e2-memory-bytes",
    "e8-seqalign",
    "e1-threads",
    "b1-parallel",
    "c1-serve",
];

/// A new experiment gets a golden file or a place among the host-dependent
/// verbs; it cannot go unpinned by being forgotten.
#[test]
fn every_experiment_is_golden_or_host_dependent() {
    let unclassified: Vec<&str> = bench::experiment_names()
        .filter(|v| !VERBS.contains(v) && !HOST_DEPENDENT.contains(v))
        .collect();
    assert!(
        unclassified.is_empty(),
        "neither in VERBS nor in HOST_DEPENDENT: {unclassified:?}"
    );
}

#[test]
fn simulator_tables_match_their_golden_files() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut differ = Vec::new();
    for verb in VERBS {
        let path = dir.join(format!("{verb}.txt"));
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = bench::run_experiment(verb).expect("a listed experiment") + "\n";
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or(got.lines().count().min(want.lines().count()), |i| i)
                + 1;
            differ.push(format!("{verb} (first difference at line {line})"));
        }
    }
    assert!(differ.is_empty(), "tables moved: {}", differ.join(", "));
}
