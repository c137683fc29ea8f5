//! Code-size inventory (experiment E5).
//!
//! §3.6: *"The first [tree-reduction motif] is implemented with five lines
//! of code, and the second with a page of library code … In contrast, the
//! node evaluation code for the sequence alignment application currently
//! exceeds 2000 lines … the use of motifs permits a parallel version of our
//! code to be developed with only a small incremental effort."* This module
//! measures every motif library so the claim can be tabulated against the
//! application code sizes.

use crate::motif::Motif;

/// One row of the inventory table.
#[derive(Clone, Debug)]
pub struct InventoryRow {
    pub motif: String,
    /// Rules in the motif's own library (composition stages excluded).
    pub library_rules: usize,
    /// Non-blank, non-comment source lines of the library.
    pub library_lines: usize,
    /// How the motif is constructed.
    pub construction: &'static str,
}

fn count_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('%'))
        .count()
}

fn row(motif: &Motif, src: &str, construction: &'static str) -> InventoryRow {
    InventoryRow {
        motif: motif.name().to_string(),
        library_rules: motif.library_rules(),
        library_lines: count_lines(src),
        construction,
    }
}

/// The full motif inventory.
pub fn inventory() -> Vec<InventoryRow> {
    vec![
        row(
            &crate::server::server(),
            crate::server::SERVER_LIBRARY,
            "{server_transform, server library}",
        ),
        row(&crate::rand_map::rand_map(), "", "{rand_transform, empty}"),
        row(
            &crate::supervisor::supervise(),
            crate::supervisor::SUPERVISE_LIBRARY,
            "{supervise_transform, supervision library}",
        ),
        row(
            &crate::tree::tree1(),
            crate::tree::TREE1_LIBRARY,
            "{identity, 5-line library}",
        ),
        InventoryRow {
            motif: "Tree-Reduce-1".into(),
            library_rules: crate::tree::tree1().library_rules(),
            library_lines: count_lines(crate::tree::TREE1_LIBRARY),
            construction: "Server o Rand o Tree1",
        },
        InventoryRow {
            motif: "Tree-Reduce-2".into(),
            library_rules: strand_parse::parse_program(crate::tree::TREE2_LIBRARY)
                .expect("tree2 parses")
                .rule_count(),
            library_lines: count_lines(crate::tree::TREE2_LIBRARY),
            construction: "Server o TreeReduce2Core",
        },
        InventoryRow {
            motif: "Scheduler".into(),
            library_rules: strand_parse::parse_program(crate::scheduler::SCHEDULER_LIBRARY)
                .expect("scheduler parses")
                .rule_count(),
            library_lines: count_lines(crate::scheduler::SCHEDULER_LIBRARY),
            construction: "Server o SchedulerCore",
        },
        InventoryRow {
            motif: "Scheduler-2-level".into(),
            library_rules: strand_parse::parse_program(crate::scheduler::SCHEDULER2_LIBRARY)
                .expect("scheduler2 parses")
                .rule_count(),
            library_lines: count_lines(crate::scheduler::SCHEDULER2_LIBRARY),
            construction: "Server o Scheduler2Core (modification)",
        },
        InventoryRow {
            motif: "Sched (@task pragma)".into(),
            library_rules: strand_parse::parse_program(crate::task_sched::TASK_SCHED_LIBRARY)
                .expect("sched library parses")
                .rule_count(),
            library_lines: count_lines(crate::task_sched::TASK_SCHED_LIBRARY),
            construction: "Server o {sched_transform, manager library}",
        },
        InventoryRow {
            motif: "DivideAndConquer".into(),
            library_rules: strand_parse::parse_program(crate::dc::DC_LIBRARY)
                .expect("dc parses")
                .rule_count(),
            library_lines: count_lines(crate::dc::DC_LIBRARY),
            construction: "Server o Rand o DCCore",
        },
        InventoryRow {
            motif: "Search".into(),
            library_rules: strand_parse::parse_program(crate::search::SEARCH_LIBRARY)
                .expect("search parses")
                .rule_count(),
            library_lines: count_lines(crate::search::SEARCH_LIBRARY),
            construction: "Server o Rand o SearchCore",
        },
        InventoryRow {
            motif: "Grid".into(),
            library_rules: strand_parse::parse_program(crate::grid::GRID_LIBRARY)
                .expect("grid parses")
                .rule_count(),
            library_lines: count_lines(crate::grid::GRID_LIBRARY),
            construction: "{identity, grid library}",
        },
        InventoryRow {
            motif: "Graph (components)".into(),
            library_rules: strand_parse::parse_program(crate::graph::GRAPH_LIBRARY)
                .expect("graph library parses")
                .rule_count(),
            library_lines: count_lines(crate::graph::GRAPH_LIBRARY),
            construction: "Server o GraphCore",
        },
        InventoryRow {
            motif: "Pipeline".into(),
            library_rules: strand_parse::parse_program(crate::pipeline::PIPELINE_LIBRARY)
                .expect("pipeline parses")
                .rule_count(),
            library_lines: count_lines(crate::pipeline::PIPELINE_LIBRARY),
            construction: "{identity, pipeline library}",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_the_suite() {
        let inv = inventory();
        assert!(inv.len() >= 10);
        let names: Vec<&str> = inv.iter().map(|r| r.motif.as_str()).collect();
        for expected in ["Server", "Rand", "Tree1", "Tree-Reduce-2", "Scheduler"] {
            assert!(
                names.iter().any(|n| n.contains(expected)),
                "missing {expected} in {names:?}"
            );
        }
    }

    #[test]
    fn tree1_is_five_lines_per_the_paper() {
        let inv = inventory();
        let t1 = inv.iter().find(|r| r.motif == "Tree1").unwrap();
        assert_eq!(t1.library_lines, 5);
        assert_eq!(t1.library_rules, 2);
    }

    #[test]
    fn tree2_is_about_a_page() {
        // §3.6: "the second with a page of library code".
        let inv = inventory();
        let t2 = inv.iter().find(|r| r.motif == "Tree-Reduce-2").unwrap();
        assert!(
            (30..90).contains(&t2.library_lines),
            "a 'page' of code, got {} lines",
            t2.library_lines
        );
    }

    #[test]
    fn rand_has_empty_library() {
        let inv = inventory();
        let r = inv.iter().find(|r| r.motif == "Rand").unwrap();
        assert_eq!(r.library_rules, 0);
    }
}
