//! Acceptance shape of the gray-failure chaos matrix: in the slowdown
//! scenarios each defense layer must strictly pay at the victim's tail
//! (`full < breaker < none`), the healthy cells must shed nothing, the
//! victim tenant must never be browned out, and every completed answer
//! must stay bit-identical in every cell.

use smartssd_bench::find;

#[test]
fn each_defense_layer_strictly_pays_at_the_victim_tail() {
    let e = find("chaos").expect("registered");
    let r = (e.run)(&e.ctx(true, false)).expect("chaos experiment");
    let points = r.get("points").expect("points table");
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
