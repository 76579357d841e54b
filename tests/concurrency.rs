//! Differential property tests of the concurrent-workload scheduler.
//!
//! The load-bearing invariants: interleaving queries and sharing scans are
//! *timing* optimizations — for any arrival schedule, any session-slot
//! pressure, either interface model, and scan sharing on or off, every
//! query of a workload must return answers bit-identical to an isolated
//! run of the same query. On top of that, scan sharing may never make a
//! workload slower, and a fixed workload must replay to the bit.

use proptest::prelude::*;
use smartssd::{
    DeviceKind, InterfaceMode, Layout, Route, RoutePolicy, RunOptions, SimTime, System,
    SystemBuilder, Workload, WorkloadOptions, WorkloadReport,
};
use smartssd_exec::spec::ScanAggSpec;
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, Tuple};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)])
}

prop_compose! {
    fn arb_row()(a in -1000i32..1000, b in -1_000_000i64..1_000_000) -> Tuple {
        vec![Datum::I32(a), Datum::I64(b)]
    }
}

/// A Q6-shaped aggregation whose predicate varies per query, so concurrent
/// queries in one workload produce distinct answers.
fn agg_query(cutoff: i64) -> Query {
    Query {
        name: format!("agg<{cutoff}").into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(cutoff)),
                aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(1))],
            },
        },
        finalize: Finalize::AggRow,
    }
}

fn build_sys(rows: &[Tuple], shared: bool, max_sessions: usize) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .shared_scans(shared)
        .tweak(|c| c.smart.max_sessions = max_sessions)
        .build();
    sys.load_table_rows("t", &schema(), rows.to_vec()).unwrap();
    sys.finish_load();
    sys
}

/// One generated workload query: its predicate cutoff, arrival gap from
/// the previous query, and whether it is forced onto the host route.
type Item = (i64, u64, bool);

fn workload_of(items: &[Item]) -> Workload {
    let mut w = Workload::new();
    let mut at = SimTime::ZERO;
    for &(cutoff, gap, host) in items {
        at += SimTime::from_nanos(gap);
        let route = if host {
            RoutePolicy::Force(Route::Host)
        } else {
            RoutePolicy::Natural
        };
        w.push(agg_query(cutoff), route, at);
    }
    w
}

fn run_workload(
    rows: &[Tuple],
    items: &[Item],
    shared: bool,
    max_sessions: usize,
    interface: InterfaceMode,
) -> WorkloadReport {
    let mut sys = build_sys(rows, shared, max_sessions);
    sys.run_workload(
        &workload_of(items),
        WorkloadOptions::new().interface(interface),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every completion of a concurrent workload carries exactly the
    /// answer an isolated run of that query produces — for any schedule,
    /// any slot pressure, both interface models, sharing on or off.
    #[test]
    fn workload_answers_match_isolated_runs(
        rows in prop::collection::vec(arb_row(), 50..250),
        items in prop::collection::vec(
            (-500i64..500, 0u64..3_000_000, any::<bool>()), 1..6),
        shared in any::<bool>(),
        direct in any::<bool>(),
        max_sessions in 1usize..4,
    ) {
        // Isolated reference answers, one clean run per query.
        let mut iso = build_sys(&rows, false, 4);
        let expected: Vec<_> = items.iter().map(|&(cutoff, _, host)| {
            let route = if host { Route::Host } else { Route::Device };
            let r = iso.run(&agg_query(cutoff), RunOptions::routed(route)).unwrap();
            (r.result.agg_values, r.result.rows, r.result.scalar)
        }).collect();
        let interface = if direct { InterfaceMode::Direct } else { InterfaceMode::Linked };
        let rep = run_workload(&rows, &items, shared, max_sessions, interface);
        prop_assert_eq!(rep.completions.len(), items.len());
        for (c, exp) in rep.completions.iter().zip(&expected) {
            prop_assert_eq!(&c.result.agg_values, &exp.0, "aggs of {}", c.query);
            prop_assert_eq!(&c.result.rows, &exp.1, "rows of {}", c.query);
            prop_assert_eq!(&c.result.scalar, &exp.2, "scalar of {}", c.query);
            prop_assert!(c.finished_at >= c.arrival);
            prop_assert_eq!(c.latency, c.finished_at.saturating_sub(c.arrival));
        }
    }

    /// Scan sharing is a pure win: under device-only timing the shared
    /// workload never finishes later than the unshared one, and it never
    /// reads more flash pages.
    #[test]
    fn sharing_never_slows_a_workload_down(
        rows in prop::collection::vec(arb_row(), 50..250),
        items in prop::collection::vec(
            (-500i64..500, 0u64..1_000_000), 1..6),
        max_sessions in 1usize..5,
    ) {
        let items: Vec<Item> = items.into_iter()
            .map(|(cutoff, gap)| (cutoff, gap, false))
            .collect();
        let off = run_workload(&rows, &items, false, max_sessions, InterfaceMode::Direct);
        let on = run_workload(&rows, &items, true, max_sessions, InterfaceMode::Direct);
        prop_assert!(on.makespan <= off.makespan,
            "shared {} > unshared {}", on.makespan, off.makespan);
        prop_assert!(on.flash_reads <= off.flash_reads);
        prop_assert_eq!(on.flash_reads + on.shared_hits, off.flash_reads,
            "every page is served exactly once, from flash or the share window");
    }

    /// A fixed workload replays bit-identically: same makespan, same
    /// per-query completion times, same counters.
    #[test]
    fn workloads_are_deterministic(
        rows in prop::collection::vec(arb_row(), 50..200),
        items in prop::collection::vec(
            (-500i64..500, 0u64..2_000_000, any::<bool>()), 1..5),
        shared in any::<bool>(),
    ) {
        let a = run_workload(&rows, &items, shared, 3, InterfaceMode::Linked);
        let b = run_workload(&rows, &items, shared, 3, InterfaceMode::Linked);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.flash_reads, b.flash_reads);
        prop_assert_eq!(a.shared_hits, b.shared_hits);
        prop_assert_eq!(a.pool_hits, b.pool_hits);
        prop_assert_eq!(a.latency, b.latency);
        let fa: Vec<SimTime> = a.completions.iter().map(|c| c.finished_at).collect();
        let fb: Vec<SimTime> = b.completions.iter().map(|c| c.finished_at).collect();
        prop_assert_eq!(fa, fb);
    }
}

/// The workload trace gives each in-flight query its own lane under the
/// session track, so overlap is visible in Perfetto.
#[test]
fn workload_trace_has_one_lane_per_query() {
    use smartssd::ChromeTraceSink;
    let rows: Vec<Tuple> = (0..5_000)
        .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
        .collect();
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .shared_scans(true)
        .trace(ChromeTraceSink::new())
        .build();
    sys.load_table_rows("t", &schema(), rows).unwrap();
    sys.finish_load();
    let rep = sys
        .run_workload(
            &Workload::burst(&agg_query(1_000), 3),
            WorkloadOptions::default(),
        )
        .unwrap();
    let json = rep.trace.chrome_json().expect("chrome trace").to_string();
    for lane in ["\"session/0\"", "\"session/1\"", "\"session/2\""] {
        assert!(json.contains(lane), "missing lane {lane}");
    }
    assert!(
        json.contains("\"query\""),
        "missing per-query lifetime span"
    );
    assert!(
        json.contains("\"workload\""),
        "missing top-level workload span"
    );
}
