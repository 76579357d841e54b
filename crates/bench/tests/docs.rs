//! Doc drift as a test, in both directions: every experiment `repro list`
//! prints is reachable from EXPERIMENTS.md by its subcommand name — written
//! `` `repro <name>` `` (or `` `repro a|b|c` `` for a section covering
//! several), in a heading or in the text — not only by a prose title; and
//! every `` `repro <word>` `` the docs write names an entry that exists.

use smartssd_bench::REGISTRY;
use std::collections::HashSet;

/// The words of every `` `repro ...` `` code span in the repo-root `file`:
/// `a|b` lists split, flags (`--quick`) and `<...>` placeholders skipped.
fn repro_words(file: &str) -> Vec<String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // Code spans are the odd pieces of a split on backticks.
    doc.split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.strip_prefix("repro "))
        .flat_map(|words| words.split(|c: char| c == '|' || c.is_whitespace()))
        .filter(|w| !w.is_empty() && !w.starts_with('-') && !w.starts_with('<'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_registered_experiment_is_named_in_experiments_md() {
    let named: HashSet<String> = repro_words("EXPERIMENTS.md").into_iter().collect();
    let missing: Vec<&str> = REGISTRY
        .iter()
        .map(|e| e.name)
        .filter(|name| !named.contains(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md never writes `repro <name>` for: {missing:?}"
    );
}

#[test]
fn every_repro_the_docs_name_is_registered() {
    let known: HashSet<&str> = REGISTRY
        .iter()
        .map(|e| e.name)
        .chain(["all", "list"])
        .collect();
    for file in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let stale: Vec<String> = repro_words(file)
            .into_iter()
            .filter(|w| !known.contains(w.as_str()))
            .collect();
        assert!(
            stale.is_empty(),
            "{file} writes `repro <name>` for entries `repro list` does not print: {stale:?}"
        );
    }
}
