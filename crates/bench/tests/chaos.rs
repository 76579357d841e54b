//! Acceptance shape of `repro chaos`, the one fault entry, from one quick
//! run shared by every test:
//!
//! - `flash_rates`: escapes and retries show exactly where their injected
//!   rates do, and answers never change;
//! - `crash_rates`: throughput falls smoothly (no cliff) as the crash rate
//!   rises with the breaker on, the breaker strictly beats breaker-off at
//!   the highest swept rate, and answers stay bit-identical in every cell;
//! - `fleet`: with one dead device of 16, the breaker buys throughput and
//!   saves fallbacks;
//! - `points`: in the slowdown scenarios each defense layer strictly pays
//!   at the victim's tail (`full < breaker < none`), the healthy cells
//!   shed nothing, the victim tenant is never browned out, and every
//!   completed answer stays bit-identical in every cell;
//! - and together the four tables reach every fault mechanism.

use smartssd_bench::find;
use smartssd_bench::report::{Cell, Report, Table};
use std::sync::OnceLock;

/// The quick `chaos` report, run once for the whole file.
fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let e = find("chaos").expect("registered");
        (e.run)(&e.ctx(true, false)).expect("chaos experiment")
    })
}

fn table(key: &str) -> &'static Table {
    report().get(key).unwrap_or_else(|| panic!("{key} table"))
}

/// The reading `key` of `row`: its column if the table has one, else the
/// counter of that name in the row's `faults` object, if it has one.
fn reading(t: &Table, row: &[Cell], key: &str) -> Option<f64> {
    match t.get(row, key) {
        Cell::Skip => {
            let Cell::Raw(faults) = t.get(row, "faults") else {
                return None;
            };
            let (_, tail) = faults.split_once(&format!("\"{key}\": "))?;
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        }
        cell => Some(cell.num()),
    }
}

#[test]
fn flash_fault_recovery_shows_where_the_faults_were_injected() {
    let t = table("flash_rates");
    assert_eq!(t.rows.len(), 4);
    for row in &t.rows {
        let scenario = t.get(row, "scenario").text();
        let n = |key| reading(t, row, key).unwrap_or_else(|| panic!("no reading {key}"));
        // Recovery costs time, never answers.
        assert!(t.get(row, "matches_clean").flag(), "{scenario} diverged");
        let (ecc, silent) = (n("ecc_retry_rate"), n("silent_corruption_rate"));
        // A checksum catches a silent corruption only where one was
        // injected, and every injected fault is retried.
        assert_eq!(n("escapes_detected") > 0.0, silent > 0.0, "{scenario}");
        let retries = n("ecc_retries") + n("read_retries");
        assert_eq!(retries > 0.0, ecc > 0.0 || silent > 0.0, "{scenario}");
    }
}

#[test]
fn degradation_is_smooth_with_the_breaker_and_worse_without() {
    let t = table("crash_rates");
    let n = |row: &[_], key| t.get(row, key).num();
    let label = |row: &[_]| t.get(row, "scenario").text().to_string();
    let breaker = |row: &[_]| t.get(row, "breaker").flag();
    let on: Vec<_> = t.rows.iter().filter(|p| breaker(p)).collect();
    let off: Vec<_> = t.rows.iter().filter(|p| !breaker(p)).collect();
    assert_eq!(on.len(), off.len());
    assert!(on.len() >= 3, "sweep needs enough rates to show a shape");

    // Monotone degradation with the breaker: each swept rate's throughput
    // is no better than the previous (cleaner) one, and never collapses
    // to zero — the host keeps serving.
    for w in on.windows(2) {
        assert!(
            n(w[1], "throughput_qps") <= n(w[0], "throughput_qps") + f64::EPSILON,
            "breaker-on throughput must degrade monotonically: {} ({}) -> {} ({})",
            n(w[0], "throughput_qps"),
            label(w[0]),
            n(w[1], "throughput_qps"),
            label(w[1])
        );
    }
    assert!(n(on.last().unwrap(), "throughput_qps") > 0.0);

    // At the highest swept crash rate, routing around the sick device
    // strictly beats hammering it.
    let (last_on, last_off) = (on.last().unwrap(), off.last().unwrap());
    assert_eq!(label(last_on), label(last_off));
    assert!(
        n(last_on, "makespan_secs") < n(last_off, "makespan_secs"),
        "breaker off must be strictly worse at the highest rate: on {} vs off {}",
        n(last_on, "makespan_secs"),
        n(last_off, "makespan_secs")
    );
    assert!(n(last_on, "fallbacks") < n(last_off, "fallbacks"));
    assert!(n(last_on, "breaker_transitions") > 0.0);

    // Robustness changes timing and routing, never answers, and every
    // arrival is accounted for.
    for p in &t.rows {
        assert!(
            t.get(p, "matches_clean").flag(),
            "{} (breaker {}) diverged",
            label(p),
            breaker(p)
        );
        assert_eq!(
            n(p, "completed") + n(p, "rejected") + n(p, "deadline_missed"),
            16.0
        );
    }
    // The clean cells shed nothing and never trip the breaker.
    for p in t.rows.iter().filter(|p| n(p, "crash_rate") == 0.0) {
        assert_eq!(n(p, "completed"), 16.0);
        assert_eq!(n(p, "breaker_transitions"), 0.0);
        assert_eq!(n(p, "fallbacks"), 0.0);
    }
}

#[test]
fn the_breaker_contains_a_dead_array_device() {
    let t = table("fleet");
    for row in &t.rows {
        let scenario = t.get(row, "scenario").text();
        assert!(t.get(row, "matches_clean").flag(), "{scenario} diverged");
    }
    let dead = |breaker: bool| {
        let found = t.rows.iter().find(|row| {
            t.get(row, "dead_devices").num() == 1.0 && t.get(row, "breaker").flag() == breaker
        });
        found.expect("a one-dead row per breaker setting")
    };
    let (on, off) = (dead(true), dead(false));
    let n = |row: &[_], key| t.get(row, key).num();
    assert!(n(on, "throughput_qps") > n(off, "throughput_qps"));
    assert!(n(on, "fallbacks") < n(off, "fallbacks"));
}

#[test]
fn each_defense_layer_strictly_pays_at_the_victim_tail() {
    let points = table("points");
    assert_eq!(points.rows.len(), 5 * 3, "five scenarios x three defenses");
    let p99 = |scenario, defense| {
        let cell = [("scenario", scenario), ("defense", defense)];
        points.lookup(&cell, "victim_p99_ms")
    };

    // The acceptance claim: latency-aware breaking routes around the gray
    // firmware, and brownout shedding then keeps the victim from queueing
    // behind batch work — each layer strictly improves the victim's p99.
    for scenario in ["slow4x", "slow16x"] {
        let none = p99(scenario, "none");
        let breaker = p99(scenario, "breaker");
        let full = p99(scenario, "full");
        assert!(
            full < breaker && breaker < none,
            "{scenario}: expected full < breaker < none, got {full} / {breaker} / {none}"
        );
        // The win is detection, not a rounding artifact: routing around
        // the gray device cuts the unprotected tail by over 2x.
        assert!(none > 2.0 * breaker, "{scenario}: breaker win too small");
    }

    // ECC bursts slow the shared media, but the host block path is
    // interface-bound, so routing still escapes most of the damage.
    assert!(p99("ecc-burst", "breaker") < p99("ecc-burst", "none"));

    for row in &points.rows {
        let (scenario, defense) = (
            points.get(row, "scenario").text(),
            points.get(row, "defense").text(),
        );
        let n = |key| points.get(row, key).num();
        // Defenses change routing and shedding, never answers.
        assert!(
            points.get(row, "matches_clean").flag(),
            "{scenario}/{defense} diverged"
        );
        // Every arrival is accounted for, and the protected tenant is
        // never the one shed: brownout only drops batch work.
        assert_eq!(n("completed") + n("rejected"), n("arrivals"));
        assert_eq!(n("victim_completed"), 16.0, "{scenario}/{defense}");
        assert_eq!(n("rejected"), n("batch_rejected"));
        if scenario == "healthy" {
            // A healthy system sheds nothing and never trips.
            assert_eq!(n("rejected"), 0.0);
            assert_eq!(n("slow_trips"), 0.0);
            assert_eq!(n("breaker_transitions"), 0.0);
        }
        if scenario.starts_with("slow") && defense != "none" {
            // The gray window is latency-only — the breaker can only have
            // tripped on the slow-trip rule, and must have.
            assert!(n("slow_trips") >= 1.0, "{scenario}/{defense}");
            assert_eq!(n("breaker_transitions"), 1.0);
        }
        if scenario == "crash" {
            // A hard crash is recovery, not brownout territory.
            assert_eq!(n("rejected"), 0.0);
            assert!(n("fallbacks") >= 1.0);
        }
    }
}

/// The one fault entry reaches every recovery and defense mechanism its
/// four matrices were built to show: each counter below reads nonzero in
/// some row of some table.
#[test]
fn every_fault_mechanism_is_reached() {
    let tables = ["flash_rates", "crash_rates", "fleet", "points"].map(table);
    for mechanism in [
        "ecc_retries",
        "escapes_detected",
        "device_crashes",
        "reset_downtime_ns",
        "fallbacks",
        "slow_trips",
        "breaker_transitions",
        "batch_rejected",
    ] {
        let reached = tables.iter().any(|t| {
            t.rows
                .iter()
                .any(|row| reading(t, row, mechanism).is_some_and(|v| v > 0.0))
        });
        assert!(reached, "no chaos row reaches {mechanism}");
    }
}
