//! The prose must point at things that exist (ROADMAP refactor item (f)).
//!
//! Every backticked file path in README / DESIGN / EXPERIMENTS / ROADMAP
//! resolves against the tree, and every `path.rs::test_name` names a function
//! in that file. A token is taken for a path when it is spelled in path
//! characters only and either ends in a source-file extension or starts with
//! one of the repo's top-level directories — so `server/1` and `a/b/c`
//! alternations are not. It resolves when it is a whole-component suffix of
//! a file or directory in the tree, which admits the crate-relative
//! (`strand-machine/src/fleet/quiesce.rs`) and bare (`machine.rs`) spellings the
//! docs use. `out/…` is run output and is never committed.
//!
//! Likewise every backticked `motif-bench <verb> …`, alone or after the
//! `cargo run` that builds it, names a verb the binary takes: an
//! experiment, `list` or `show`, and `show <key>` a key of the motif
//! catalog. (`<placeholders>`, flags and shell redirections after
//! `motif-bench` are not verbs.) And
//! every CHANGES.md entry from PR 26 on is at most 2 KB. Every test that
//! `ci/pinned.txt` pins names a job of CI that checks its pins and a
//! function under `crates/` or `tests/`.

use std::path::Path;

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"];
const EXTENSIONS: [&str; 7] = ["rs", "md", "json", "toml", "yml", "str", "lock"];

/// Every file and directory under `dir`, repo-relative with `/` separators,
/// skipping build output and VCS state.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable repo directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if matches!(name.as_str(), "target" | "out" | ".git") {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        out.push(rel.replace('\\', "/"));
        if path.is_dir() {
            walk(root, &path, out);
        }
    }
}

/// The backticked spans of `text`, with their 1-based line numbers. Split
/// over the whole text, not line by line: a span wrapped across a line break
/// would flip the parity of everything after it on both lines.
fn backticked(text: &str) -> Vec<(usize, &str)> {
    let mut line = 1;
    let mut spans = Vec::new();
    for (k, span) in text.split('`').enumerate() {
        if k % 2 == 1 {
            spans.push((line, span));
        }
        line += span.matches('\n').count();
    }
    spans
}

#[test]
fn every_backticked_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Vec::new();
    walk(root, root, &mut tree);
    let top_level: Vec<&str> = tree.iter().filter_map(|p| p.split('/').next()).collect();

    let mut broken = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for (line, span) in backticked(&text) {
            let (path, test) = match span.split_once("::") {
                Some((path, test)) => (path, Some(test)),
                None => (span, None),
            };
            let path = path.trim_end_matches('/');
            let spelled_as_path = !path.is_empty()
                && path
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
            let has_extension = path
                .rsplit_once('.')
                .is_some_and(|(stem, ext)| !stem.is_empty() && EXTENSIONS.contains(&ext));
            let first = path.split('/').next().unwrap_or("");
            let under_top_level = path.contains('/') && top_level.contains(&first);
            if !spelled_as_path || !(has_extension || under_top_level) || first == "out" {
                continue;
            }
            checked += 1;
            let suffix = format!("/{path}");
            let hits: Vec<&String> = tree
                .iter()
                .filter(|t| *t == path || t.ends_with(&suffix))
                .collect();
            if hits.is_empty() {
                broken.push(format!("{doc}:{line}: `{span}` names no file in the tree"));
            } else if let Some(test) = test {
                let needle = format!("fn {test}(");
                let defined = hits.iter().any(|t| {
                    std::fs::read_to_string(root.join(t)).is_ok_and(|src| src.contains(&needle))
                });
                if !defined {
                    broken.push(format!("{doc}:{line}: `{span}`: no `fn {test}` in {path}"));
                }
            }
        }
    }
    assert!(checked > 50, "the scan found only {checked} paths");
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

/// Per-PR narratives live in CHANGES.md, one `- PR <n> …` line each; the
/// cap holds from the first entry written under it (ROADMAP, "One home per
/// number" (2)).
#[test]
fn changes_entries_from_pr_26_on_are_at_most_2_kb() {
    const CAP: usize = 2048;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("CHANGES.md")).expect("CHANGES.md exists");
    let mut checked = 0;
    let mut over = Vec::new();
    for entry in text.lines() {
        let Some(rest) = entry.strip_prefix("- PR ") else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let Ok(pr) = digits.parse::<u32>() else {
            continue;
        };
        if pr < 26 {
            continue;
        }
        checked += 1;
        if entry.len() > CAP {
            over.push(format!("PR {pr}: {} bytes", entry.len()));
        }
    }
    assert!(checked > 0, "no CHANGES.md entry from PR 26 on");
    assert!(over.is_empty(), "over {CAP} bytes: {}", over.join(", "));
}

#[test]
fn every_backticked_motif_bench_verb_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let verbs: Vec<&str> = bench::experiment_names().chain(["list", "show"]).collect();
    let mut broken = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for (line, span) in backticked(&text) {
            let word = |w: &&str| w.starts_with(|c: char| c.is_ascii_alphanumeric());
            let mut words = span.split_whitespace().skip_while(|w| *w != "motif-bench");
            if span.contains('\n') || words.next().is_none() {
                continue;
            }
            let Some(verb) = words.next().filter(word) else {
                continue;
            };
            checked += 1;
            if !verbs.contains(&verb) {
                broken.push(format!("{doc}:{line}: `{span}`: no verb `{verb}`"));
            } else if let Some(key) = words.next().filter(|_| verb == "show").filter(word) {
                if algorithmic_motifs::motifs::inventory::entry(key).is_none() {
                    broken.push(format!("{doc}:{line}: `{span}`: no motif `{key}`"));
                }
            }
        }
    }
    assert!(checked > 30, "the scan found only {checked} verbs");
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

/// A rename fails here, not only in the CI job that no longer sees the
/// test pass: each `job test` line of `ci/pinned.txt` names a job of
/// `ci.yml` that runs `ci/pinned.sh job`, and the test path's leaf is a
/// `fn` in some `.rs` file under `crates/` or `tests/`.
#[test]
fn every_pinned_test_is_defined() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let pinned = std::fs::read_to_string(root.join("ci/pinned.txt")).expect("ci/pinned.txt");
    let mut tree = Vec::new();
    walk(root, &root.join("crates"), &mut tree);
    walk(root, &root.join("tests"), &mut tree);
    let sources: Vec<String> = tree
        .iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|p| std::fs::read_to_string(root.join(p)).expect("readable source"))
        .collect();

    let mut broken = Vec::new();
    let mut checked = 0;
    for (n, line) in pinned.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("ci/pinned.txt:{}", n + 1);
        let Some((job, test)) = line.split_once(' ') else {
            broken.push(format!("{at}: `{line}` is not `job test`"));
            continue;
        };
        checked += 1;
        if !ci.contains(&format!("\n  {job}:\n")) {
            broken.push(format!("{at}: no job `{job}` in ci.yml"));
        } else if !ci.contains(&format!("ci/pinned.sh {job} ")) {
            broken.push(format!("{at}: job `{job}` never runs `ci/pinned.sh {job}`"));
        }
        let leaf = test.rsplit("::").next().unwrap_or(test);
        let needle = format!("fn {leaf}(");
        if !sources.iter().any(|src| src.contains(&needle)) {
            broken.push(format!(
                "{at}: `{test}`: no `fn {leaf}` under crates/ or tests/"
            ));
        }
    }
    assert!(checked > 50, "ci/pinned.txt pins only {checked} tests");
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}
