//! The "archives of expertise" invariants (§1): every motif library in the
//! catalog parses, pretty-prints, reparses, and is consistent with the
//! inventory (E5) — the properties a library must keep to stay
//! consultable, modifiable, and extensible.

use algorithmic_motifs::strand_parse::{parse_program, pretty};

#[test]
fn every_catalog_source_parses_and_roundtrips() {
    for name in bench::motif_names() {
        let (title, src) = bench::motif_source(name).expect("catalog entry exists");
        let program =
            parse_program(&src).unwrap_or_else(|e| panic!("{title} source does not parse: {e}"));
        assert!(program.rule_count() > 0, "{title} has rules");
        let printed = pretty(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{title} pretty output does not reparse: {e}"));
        assert_eq!(program, reparsed, "{title} must round-trip");
    }
}

#[test]
fn inventory_matches_catalog_sources() {
    let inventory = algorithmic_motifs::motifs::inventory::inventory();
    // Every inventory row with a nonempty library corresponds to a source
    // that parses to the same rule count.
    for (name, inv_name) in [
        ("server", "Server"),
        ("tree1", "Tree1"),
        ("tree-reduce-2", "Tree-Reduce-2"),
        ("scheduler", "Scheduler"),
        ("scheduler-2", "Scheduler-2-level"),
        ("sched", "Sched (@task pragma)"),
        ("dc", "DivideAndConquer"),
        ("search", "Search"),
        ("grid", "Grid"),
        ("graph", "Graph (components)"),
        ("pipeline", "Pipeline"),
    ] {
        let (_, src) = bench::motif_source(name).expect("catalog entry");
        let rules = parse_program(&src).unwrap().rule_count();
        let row = inventory
            .iter()
            .find(|r| r.motif == inv_name)
            .unwrap_or_else(|| panic!("inventory row {inv_name} missing"));
        assert_eq!(row.library_rules, rules, "{inv_name} rule count");
    }
}

#[test]
fn shipped_libraries_are_lint_clean() {
    use algorithmic_motifs::strand_parse::{lint, LintKind};
    // Each library's documented external procedures (supplied by the user
    // program or by other composition stages).
    let externals: &[(&str, &[(&str, usize)])] = &[
        ("server", &[("server", 2)]),
        ("tree1", &[("eval", 4)]),
        ("tree-reduce-2", &[("eval", 4)]),
        ("scheduler", &[("task", 2)]),
        ("scheduler-2", &[("task", 2)]),
        ("sched", &[]),
        ("dc", &[("dc_case", 2), ("dc_merge", 3)]),
        ("search", &[("branch", 2), ("accept", 2)]),
        ("grid", &[("cell_init", 2)]),
        ("graph", &[]),
        ("pipeline", &[("stage", 3)]),
        ("supervise", &[("server", 2)]),
    ];
    for (name, assume) in externals {
        let (title, src) = bench::motif_source(name).expect("catalog entry");
        let program = parse_program(&src).unwrap();
        let findings = lint(&program, assume);
        let serious: Vec<_> = findings
            .iter()
            .filter(|l| l.kind != LintKind::SingletonVariable)
            .collect();
        assert!(serious.is_empty(), "{title} has lint findings: {serious:?}");
    }
}

#[test]
fn libraries_have_no_unresolved_pragmas_after_their_motifs() {
    // Applying each end-user motif to a minimal valid application must
    // produce a compilable program (all pragmas resolved, all arities
    // consistent).
    use algorithmic_motifs::strand_parse::compile_program;
    let cases: Vec<(&str, algorithmic_motifs::motifs::Motif, &str)> = vec![
        (
            "tree_reduce_1",
            algorithmic_motifs::motifs::tree_reduce_1(),
            algorithmic_motifs::motifs::ARITH_EVAL,
        ),
        (
            "tree_reduce_2",
            algorithmic_motifs::motifs::tree_reduce_2(),
            algorithmic_motifs::motifs::ARITH_EVAL,
        ),
        (
            "scheduler",
            algorithmic_motifs::motifs::scheduler::scheduler(),
            algorithmic_motifs::motifs::scheduler::BURN_TASK,
        ),
        (
            "graph",
            algorithmic_motifs::motifs::graph::graph_components(),
            "noop(1).",
        ),
    ];
    for (name, motif, app) in cases {
        let program = motif
            .apply_src(app)
            .unwrap_or_else(|e| panic!("{name} fails to apply: {e}"));
        compile_program(&program).unwrap_or_else(|e| panic!("{name} output fails to compile: {e}"));
    }
}
