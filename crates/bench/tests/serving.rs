//! Acceptance shape of the multi-tenant serving experiment — the PR's
//! headline claims, pinned at quick scale:
//!
//! * The open-system load sweep shows the knee: past saturation the
//!   completed throughput stops tracking the offered load while p99
//!   keeps climbing.
//! * Isolation: with weighted fair queueing on, every victim tenant's
//!   p99 stays within 2x of its aggressor-free baseline; with global
//!   FIFO admission the same flood pushes every victim past 2x.

use smartssd_bench::{find, report::Report};

/// The serving report at `--quick` scale: 16 knee arrivals, 12 per victim.
fn serving() -> Report {
    let e = find("serving").expect("registered");
    (e.run)(&e.ctx(true, false)).expect("serving experiment")
}

#[test]
fn load_sweep_shows_the_utilization_knee() {
    let r = serving();
    let knee = r.get("knee").expect("knee table");
    assert!(
        knee.rows.len() >= 4,
        "sweep needs enough points to show a shape"
    );
    let point = |row: &[_]| {
        let n = |key| knee.get(row, key).num();
        (n("rho"), n("offered_qps"), n("throughput_qps"), n("p99_ms"))
    };
    let (low_rho, low_offered, low_throughput, low_p99) = point(knee.rows.first().unwrap());
    let (high_rho, high_offered, high_throughput, high_p99) = point(knee.rows.last().unwrap());
    assert!(
        low_rho < 0.5 && high_rho > 1.0,
        "sweep must straddle saturation"
    );

    // Below the knee the server keeps up with the offered load; past it
    // the completed throughput falls measurably short.
    assert!(
        low_throughput > 0.9 * low_offered,
        "at rho {} throughput {} should track offered {}",
        low_rho,
        low_throughput,
        low_offered
    );
    assert!(
        high_throughput < 0.8 * high_offered,
        "at rho {} throughput {} must saturate below offered {}",
        high_rho,
        high_throughput,
        high_offered
    );

    // And the latency tail blows out across the knee.
    assert!(
        high_p99 > 3.0 * low_p99,
        "p99 must climb across the knee: {} -> {}",
        low_p99,
        high_p99
    );
}

#[test]
fn wfq_isolates_victims_from_an_aggressor_and_fifo_does_not() {
    let r = serving();
    let isolation = r.get("isolation").expect("isolation table");
    for victim in ["interactive", "reporting"] {
        let p99 = |scenario| {
            let cell = [("scenario", scenario), ("tenant", victim)];
            isolation.lookup(&cell, "p99_ms")
        };
        let (base, wfq, fifo) = (p99("baseline"), p99("aggressor+wfq"), p99("aggressor+fifo"));
        assert!(base > 0.0, "{victim} baseline must have completions");
        assert!(
            wfq <= 2.0 * base,
            "{victim}: WFQ must hold p99 within 2x of baseline ({wfq} vs {base})"
        );
        assert!(
            fifo > 2.0 * base,
            "{victim}: FIFO must fail the 2x isolation bound ({fifo} vs {base})"
        );
    }

    // The aggressor pays for its own flood: its overload is shed at its
    // admission bound, not spread over the victims.
    let shed: f64 = isolation
        .rows
        .iter()
        .filter(|p| isolation.get(p, "tenant").text() == "aggressor")
        .map(|p| isolation.get(p, "rejected").num())
        .sum();
    assert!(
        shed > 0.0,
        "the flood must exceed the aggressor's queue bound"
    );
}
