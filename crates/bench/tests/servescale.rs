//! Serving-scale floor: `repro servescale --quick --smoke` must complete
//! its one tiny cell correctly and keep admission above a conservative
//! arrivals-per-second floor.
//!
//! The floor is deliberately loose — the test binary under `cargo test`
//! runs the spawned `repro` in the same (usually debug) profile, and CI
//! runners are shared machines — so it only catches catastrophic
//! admission-path regressions (a linear scan sneaking back onto the hot
//! path, per-arrival deep clones), not ordinary noise. The release-profile
//! sweep that tracks the real targets is `repro servescale --quick` in
//! `scripts/check.sh`.
//!
//! What keeps a serving day's wall-clock flat in its tenant count is
//! checked here without a clock: the sweep's loads must stream one shared
//! query template however many tenants they are spread over.

use smartssd::{ArrivalStream, SimTime};
use smartssd_bench::servescale_loads;
use std::process::Command;
use std::sync::Arc;

/// Pulls every occurrence of `"key": value` out of the JSON report, in
/// order — the servescale report has one point per sweep cell.
fn fields(json: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\": ");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&pat) {
        rest = &rest[at + pat.len()..];
        let end = rest
            .find(|c: char| c != '-' && c != '.' && c != 'e' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push(rest[..end].parse().unwrap_or_else(|e| panic!("{key}: {e}")));
    }
    assert!(!out.is_empty(), "missing {key}");
    out
}

#[test]
fn servescale_smoke_completes_above_the_floor() {
    let dir = std::env::temp_dir().join(format!("servescale_floor_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["servescale", "--quick", "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("run repro binary");
    assert!(
        out.status.success(),
        "repro exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_servescale.json"))
        .expect("servescale writes BENCH_servescale.json");
    let _ = std::fs::remove_dir_all(&dir);

    // Smoke sweeps exactly one cell.
    for key in ["arrivals", "completed", "canceled", "sim_secs"] {
        assert_eq!(fields(&json, key).len(), 1, "one {key}");
    }
    let arrivals = fields(&json, "arrivals")[0];
    let completed = fields(&json, "completed")[0];
    let canceled = fields(&json, "canceled")[0];
    assert_eq!(arrivals, 2_000.0, "smoke sweeps exactly the 2k point");
    assert_eq!(
        completed + canceled,
        arrivals,
        "every arrival completes or is shed by its cancel instant"
    );
    assert!(
        canceled > 0.0,
        "the over-offered smoke load must shed some laggards (canceled=0 \
         means cancellation events are not firing)"
    );
    let rate = fields(&json, "arrivals_per_sec")[0];
    assert!(
        rate >= 500.0,
        "throughput floor: {rate:.0} arrivals/s < 500 — admission-path regression?"
    );
}

/// The scheduler resolves a query against the catalog once per distinct
/// `Arc<Query>` it meets in a row, so the number of distinct templates in
/// the stream — not a wall-clock ratio — is what says whether 4,096 tenants
/// cost what 16 do: one, at either count.
#[test]
fn servescale_loads_stream_one_template_at_any_tenant_count() {
    for tenants in [16, 4_096] {
        let loads = servescale_loads(tenants, 20_000, SimTime::from_micros(100));
        let mut stream = ArrivalStream::new(&loads, 42);
        let (_, first) = stream.next_arrival().expect("a non-empty stream");
        let mut arrivals = 1;
        while let Some((_, item)) = stream.next_arrival() {
            assert!(
                Arc::ptr_eq(&item.query, &first.query),
                "{tenants} tenants: tenant {} streams its own copy of the template",
                item.tenant
            );
            arrivals += 1;
        }
        assert_eq!(arrivals, stream.total());
    }
}
