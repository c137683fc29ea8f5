//! The prose must point at things that exist (ROADMAP refactor item (f)).
//!
//! Every backticked file path in README / DESIGN / EXPERIMENTS / ROADMAP
//! resolves against the tree, and every `path.rs::test_name` names a function
//! in that file. A token is taken for a path when it is spelled in path
//! characters only and either ends in a source-file extension or starts with
//! one of the repo's top-level directories — so `server/1` and `a/b/c`
//! alternations are not. It resolves when it is a whole-component suffix of
//! a file or directory in the tree, which admits the crate-relative
//! (`strand-parallel/src/quiesce.rs`) and bare (`machine.rs`) spellings the
//! docs use. `out/…` is where the recorders write and is never committed.
//!
//! Likewise every backticked `motif-bench <verb> …` names a verb the binary
//! takes: an experiment, a recorder, `list` or `show`. (`<placeholders>`,
//! flags and shell redirections after `motif-bench` are not verbs.)

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

#[test]
fn every_backticked_motif_bench_verb_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let verbs: Vec<&str> = bench::experiment_names()
        .chain(bench::RECORDERS.iter().map(|(verb, ..)| *verb))
        .chain(["list", "show"])
        .collect();
    let mut broken = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for (line, span) in backticked(&text) {
            let mut words = span.split_whitespace();
            // The series schema string starts with the binary's name too.
            let schema = bench::series::SCHEMA.split_whitespace();
            if words.next() != Some("motif-bench") || span.split_whitespace().eq(schema) {
                continue;
            }
            let Some(verb) = words.next() else { continue };
            if !verb.starts_with(|c: char| c.is_ascii_alphanumeric()) {
                continue;
            }
            checked += 1;
            if !verbs.contains(&verb) {
                broken.push(format!("{doc}:{line}: `{span}`: no verb `{verb}`"));
            }
        }
    }
    assert!(checked > 30, "the scan found only {checked} verbs");
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}
