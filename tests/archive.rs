//! The "archives of expertise" invariants (§1): every motif library in the
//! catalog parses, pretty-prints, reparses, and is lint-clean given the
//! procedures it documents as external — the properties a library must keep
//! to stay consultable, modifiable, and extensible.

use algorithmic_motifs::motifs::inventory::CATALOG;
use algorithmic_motifs::strand_parse::{lint, parse_program, pretty, LintKind};

#[test]
fn every_catalog_source_parses_and_roundtrips() {
    for e in CATALOG.iter().filter(|e| !e.library.is_empty()) {
        let title = e.title;
        let program = parse_program(e.library)
            .unwrap_or_else(|err| panic!("{title} source does not parse: {err}"));
        assert!(program.rule_count() > 0, "{title} has rules");
        let printed = pretty(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|err| panic!("{title} pretty output does not reparse: {err}"));
        assert_eq!(program, reparsed, "{title} must round-trip");
    }
}

#[test]
fn shipped_libraries_are_lint_clean() {
    for e in CATALOG {
        let findings = lint(&parse_program(e.library).unwrap(), e.externals);
        let serious: Vec<_> = findings
            .iter()
            .filter(|l| l.kind != LintKind::SingletonVariable)
            .collect();
        assert!(
            serious.is_empty(),
            "{} has lint findings: {serious:?}",
            e.title
        );
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
