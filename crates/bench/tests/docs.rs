//! Doc drift as a test: every experiment `repro list` prints is reachable
//! from EXPERIMENTS.md by its subcommand name — written `` `repro <name>` ``
//! (or `` `repro a|b|c` `` for a section covering several), in a heading or
//! in the text — not only by a prose title.

use smartssd_bench::REGISTRY;
use std::collections::HashSet;

#[test]
fn every_registered_experiment_is_named_in_experiments_md() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    // Code spans are the odd pieces of a split on backticks.
    let named: HashSet<&str> = doc
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.strip_prefix("repro "))
        .flat_map(|names| names.split(|c: char| c == '|' || c.is_whitespace()))
        .collect();
    let missing: Vec<&str> = REGISTRY
        .iter()
        .map(|e| e.name)
        .filter(|name| !named.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md never writes `repro <name>` for: {missing:?}"
    );
}
