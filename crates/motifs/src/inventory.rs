//! The catalog of shipped motifs, and their code sizes (experiment E5).
//!
//! §1 calls motif libraries *"archives of expertise that can be consulted,
//! modified, and extended"*: [`CATALOG`] is that archive, one entry per
//! motif, read by `motif-bench show`, by E5 and by the archive tests.
//!
//! §3.6: *"The first [tree-reduction motif] is implemented with five lines
//! of code, and the second with a page of library code … In contrast, the
//! node evaluation code for the sequence alignment application currently
//! exceeds 2000 lines … the use of motifs permits a parallel version of our
//! code to be developed with only a small incremental effort."* [`Entry::size`]
//! measures each library so the claim can be tabulated against the
//! application code sizes.

/// One shipped motif.
#[derive(Debug)]
pub struct Entry {
    /// The name `motif-bench show` takes.
    pub key: &'static str,
    /// The motif's row in E5.
    pub name: &'static str,
    /// The heading `motif-bench show` prints above the library.
    pub title: &'static str,
    /// How the motif is constructed.
    pub construction: &'static str,
    /// The motif's own library (composition stages excluded).
    pub library: &'static str,
    /// Procedures the library expects from the application or from an
    /// earlier composition stage.
    pub externals: &'static [(&'static str, usize)],
}

impl Entry {
    /// E5's two numbers: the library's rules, and its non-blank,
    /// non-comment source lines.
    pub fn size(&self) -> (usize, usize) {
        let rules = strand_parse::parse_program(self.library)
            .unwrap_or_else(|e| panic!("{} library does not parse: {e}", self.name))
            .rule_count();
        let lines = self
            .library
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('%'))
            .count();
        (rules, lines)
    }
}

/// The catalog entry `motif-bench show <key>` prints.
pub fn entry(key: &str) -> Option<&'static Entry> {
    CATALOG.iter().find(|e| e.key == key)
}

/// Every shipped motif, in E5's order.
pub const CATALOG: &[Entry] = &[
    Entry {
        key: "server",
        name: "Server",
        title: "Server (§3.2)",
        construction: "{server_transform, server library}",
        library: crate::server::SERVER_LIBRARY,
        externals: &[("server", 2)],
    },
    Entry {
        key: "rand",
        name: "Rand",
        title: "Rand (§3.3)",
        construction: "{rand_transform, empty}",
        library: "",
        externals: &[],
    },
    Entry {
        key: "supervise",
        name: "Supervise",
        title: "Supervise (robustness: acked delivery, heartbeats, restart)",
        construction: "{supervise_transform, supervision library}",
        library: crate::supervisor::SUPERVISE_LIBRARY,
        externals: &[("server", 2)],
    },
    Entry {
        key: "tree1",
        name: "Tree1",
        title: "Tree1 (§3.4)",
        construction: "{identity, 5-line library}",
        library: crate::tree::TREE1_LIBRARY,
        externals: &[("eval", 4)],
    },
    Entry {
        key: "tree-reduce-1",
        name: "Tree-Reduce-1",
        title: "Tree-Reduce-1 (§3.4, Tree1's library)",
        construction: "Server o Rand o Tree1",
        library: crate::tree::TREE1_LIBRARY,
        externals: &[("eval", 4)],
    },
    Entry {
        key: "tree-reduce-2",
        name: "Tree-Reduce-2",
        title: "Tree-Reduce-2 (§3.5 / Figure 7)",
        construction: "Server o TreeReduce2Core",
        library: crate::tree::TREE2_LIBRARY,
        externals: &[("eval", 4)],
    },
    Entry {
        key: "scheduler",
        name: "Scheduler",
        title: "Scheduler (ref [6])",
        construction: "Server o SchedulerCore",
        library: crate::scheduler::SCHEDULER_LIBRARY,
        externals: &[("task", 2)],
    },
    Entry {
        key: "scheduler-2",
        name: "Scheduler-2-level",
        title: "Hierarchical scheduler (§1, reuse by modification)",
        construction: "Server o Scheduler2Core (modification)",
        library: crate::scheduler::SCHEDULER2_LIBRARY,
        externals: &[("task", 2)],
    },
    Entry {
        key: "sched",
        name: "Sched (@task pragma)",
        title: "Sched / @task pragma (§2.2)",
        construction: "Server o {sched_transform, manager library}",
        library: crate::task_sched::TASK_SCHED_LIBRARY,
        externals: &[],
    },
    Entry {
        key: "dc",
        name: "DivideAndConquer",
        title: "DivideAndConquer (§4)",
        construction: "Server o Rand o DCCore",
        library: crate::dc::DC_LIBRARY,
        externals: &[("dc_case", 2), ("dc_merge", 3)],
    },
    Entry {
        key: "search",
        name: "Search",
        title: "Search (§4)",
        construction: "Server o Rand o SearchCore",
        library: crate::search::SEARCH_LIBRARY,
        externals: &[("branch", 2), ("accept", 2)],
    },
    Entry {
        key: "grid",
        name: "Grid",
        title: "Grid (§4)",
        construction: "{identity, grid library}",
        library: crate::grid::GRID_LIBRARY,
        externals: &[("cell_init", 2)],
    },
    Entry {
        key: "graph",
        name: "Graph (components)",
        title: "Graph components (§4)",
        construction: "Server o GraphCore",
        library: crate::graph::GRAPH_LIBRARY,
        externals: &[],
    },
    Entry {
        key: "pipeline",
        name: "Pipeline",
        title: "Pipeline",
        construction: "{identity, pipeline library}",
        library: crate::pipeline::PIPELINE_LIBRARY,
        externals: &[("stage", 3)],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn size_of(name: &str) -> (usize, usize) {
        CATALOG.iter().find(|e| e.name == name).unwrap().size()
    }

    #[test]
    fn tree1_is_five_lines_per_the_paper() {
        assert_eq!(size_of("Tree1"), (2, 5));
    }

    #[test]
    fn tree2_is_about_a_page() {
        // §3.6: "the second with a page of library code".
        let (_, lines) = size_of("Tree-Reduce-2");
        assert!(
            (30..90).contains(&lines),
            "a 'page' of code, got {lines} lines"
        );
    }
}
