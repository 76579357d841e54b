//! Harness self-tests that need the whole crate: name rules, agreement with
//! `BENCHMARK.json`, a smoke-scale pass over everything, and proof that a
//! wrong answer fails the run.

use ssdbench::cli::Args;
use ssdbench::json::{self, Value};
use ssdbench::names::{Metric, END_TO_END, PER_LAYER};
use ssdbench::spans::Spans;
use ssdbench::workloads::oracle::Answer;
use ssdbench::workloads::stream_open::StreamOpen;
use ssdbench::workloads::{Config, Workload, NAMES};
use ssdbench::{run, RUN_SECONDS};
use std::collections::BTreeSet;
use std::time::Instant;

// The traced pass counts allocations; install the counter here as the
// `ssdbench-traced` binary does.
#[global_allocator]
static ALLOCATOR: ssdbench::alloc::Counting = ssdbench::alloc::Counting;

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn names_and_units_follow_the_contract() {
    let mut seen = BTreeSet::new();
    let metrics = END_TO_END.iter().chain(PER_LAYER);
    for name in NAMES.iter().copied().chain(metrics.clone().map(|m| m.name)) {
        assert!(well_formed(name, 64, "_.-"), "name {name:?}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name:?}"
        );
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for m in metrics {
        assert!(
            well_formed(m.unit, 16, "_/%.-"),
            "unit {:?} of {}",
            m.unit,
            m.name
        );
    }
    assert!((2..=8).contains(&NAMES.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

fn listed(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit").and_then(Value::as_str).map(str::to_string),
            )
        })
        .collect()
}

fn declared(metrics: &[Metric]) -> Vec<(String, Option<String>)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
        .collect()
}

#[test]
fn benchmark_json_and_the_binary_agree() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the root of the repository");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Value::Obj(members) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<String> = listed(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, NAMES);
    for w in doc.get("workloads").unwrap().items() {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
    }
    assert_eq!(listed(&doc, "end_to_end"), declared(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), declared(PER_LAYER));
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Value::Arr(vec![Value::Str("benchmark".into())]))
    );

    let mut has_setup = false;
    for m in doc.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        let better = m.get("better").and_then(Value::as_str).expect("better");
        assert!(better == "lower" || better == "higher");
        if m.get("name").and_then(Value::as_str) == Some("setup_s") {
            has_setup = true;
            assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
            assert_eq!(better, "lower");
        }
    }
    assert!(has_setup, "setup_s is a required metric");
    for m in doc.get("per_layer").unwrap().items() {
        let better = m.get("better").and_then(Value::as_str).expect("better");
        assert!(better == "lower" || better == "higher");
    }
}

#[test]
fn smoke_scale_runs_every_workload_timed_and_traced() {
    let started = Instant::now();
    let out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let probed = ssdbench::probes::run_all(
        ssdbench::HELD_OUT_SEED,
        true,
        std::time::Duration::from_millis(30),
    );
    for name in NAMES {
        let mut args = Args {
            workload: name.to_string(),
            seed: ssdbench::HELD_OUT_SEED,
            seconds: 0.05,
            trace: false,
            smoke: true,
            out_dir: out_dir.clone(),
        };
        let timed = run::timed(&args).expect(name);
        assert!(timed.correct && timed.failed == 0, "{name}: {timed:?}");
        assert_eq!(timed.metrics.len(), END_TO_END.len());
        for (m, v) in &timed.metrics {
            assert!(v.is_finite() && *v > 0.0, "{name}: {} = {v}", m.name);
        }
        // The result line round-trips and has exactly the contract's keys.
        let line = json::parse(&timed.line()).expect("result line parses");
        let Value::Obj(members) = &line else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        args.trace = true;
        let traced = run::traced_with(&args, Some(&probed)).expect(name);
        assert!(traced.correct && traced.failed == 0, "{name}: {traced:?}");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let value = |metric: &str| {
            traced
                .metrics
                .iter()
                .find(|(m, _)| m.name == metric)
                .map(|(_, v)| *v)
                .expect(metric)
        };
        let shares: f64 = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("share."))
            .map(|m| value(m.name))
            .sum();
        assert!(
            (shares - 100.0).abs() < 1e-6,
            "{name}: shares sum to {shares}"
        );
        assert!(
            value("proc.alloc_per_op") > 0.0,
            "{name}: allocations were counted"
        );
        assert_eq!(value("device.open_sessions_end"), 0.0);
        // Blocks are erased where the workload overwrites flash, and
        // nowhere else.
        assert_eq!(value("flash.erases") > 0.0, name == "update_mix", "{name}");

        let trace = std::fs::read_to_string(out_dir.join(format!("trace_{name}.json")))
            .expect("span file written");
        let events = json::parse(&trace).expect("span file parses");
        assert!(!events
            .get("traceEvents")
            .expect("traceEvents")
            .items()
            .is_empty());
    }
    assert!(
        started.elapsed().as_secs() < 15,
        "smoke scale took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    let cfg = Config {
        seed: 42,
        smoke: true,
        traced: false,
    };
    let mut spans = Spans::off();
    let mut w = StreamOpen::setup(cfg, &mut spans);
    let good = w.rep(&mut spans, true);
    assert_eq!(good.failed, 0);
    assert!(good.attempted >= 1_000);

    // One wrong digit in the reference: every completed answer now differs
    // from it, the failures are counted, and the exit code is non-zero.
    let mut wrong: Answer = w.reference.clone().expect("computed by the deep rep");
    wrong.aggs[0] += 1;
    w.reference = Some(wrong);
    let bad = w.rep(&mut spans, true);
    assert_eq!(bad.failed, bad.counts.completed);
    let outcome = run::Outcome::new(bad.attempted, bad.failed, Vec::new());
    assert!(!outcome.correct);
    assert_ne!(outcome.exit_code(), 0);
    assert_eq!(
        run::Outcome::new(good.attempted, 0, Vec::new()).exit_code(),
        0
    );

    // Without the deep check the rep only holds answers to one another, so
    // the corrupted reference is not consulted.
    assert_eq!(w.rep(&mut spans, false).failed, 0);
}
