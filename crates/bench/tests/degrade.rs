//! Acceptance shape of the graceful-degradation experiment: throughput
//! must fall smoothly (no cliff) as the crash rate rises with the breaker
//! on, the breaker must strictly beat breaker-off at the highest swept
//! rate, and answers must stay bit-identical in every cell.

use smartssd_bench::find;

#[test]
fn degradation_is_smooth_with_the_breaker_and_worse_without() {
    let e = find("degrade").expect("registered");
    let r = (e.run)(&e.ctx(true, false)).expect("degrade experiment");
    let t = r.get("scenarios").expect("scenarios table");
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
