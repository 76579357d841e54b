//! Differential property tests of the multi-tenant serving front door.
//!
//! The load-bearing invariants: the serving layer — tenant tagging,
//! weighted fair queueing, priority lanes, per-tenant bounds, and
//! cancellation — is a pure *scheduling* layer. For any tenant mix, any
//! arrival model, any cancellation schedule, and either admission mode,
//! every query that completes must return answers bit-identical to an
//! isolated run; every arrival must be accounted for exactly once; WFQ
//! must never starve a nonzero-weight tenant; and cancellation must free
//! device session slots without leaking one.

use proptest::prelude::*;
use smartssd::{
    compose, ArrivalModel, ArrivalOutcome, CounterSink, DeviceKind, InterfaceMode, LatencyStats,
    Layout, Route, RoutePolicy, RunOptions, SimTime, System, SystemBuilder, TenantLoad, TenantSpec,
    TraceLevel, Workload, WorkloadItem, WorkloadOptions, WorkloadReport,
};
use smartssd_exec::spec::ScanAggSpec;
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)])
}

prop_compose! {
    fn arb_row()(a in -1000i32..1000, b in -1_000_000i64..1_000_000) -> Tuple {
        vec![Datum::I32(a), Datum::I64(b)]
    }
}

/// A Q6-shaped aggregation whose predicate varies per tenant, so each
/// tenant's stream produces a distinct, checkable answer.
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

fn build_sys(rows: &[Tuple], max_sessions: usize) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .tweak(|c| c.smart.max_sessions = max_sessions)
        .build();
    sys.load_table_rows("t", &schema(), rows.to_vec()).unwrap();
    sys.finish_load();
    sys
}

/// One generated tenant: predicate cutoff, WFQ weight, priority lane,
/// arrival count, mean gap, model selector, optional abandonment budget.
type TenantGen = (i64, u64, u8, usize, u64, u8, Option<u64>);

fn loads_of(tenants: &[TenantGen]) -> Vec<TenantLoad> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, &(cutoff, weight, lane, count, gap, model, cancel))| {
            let spec = TenantSpec::new(format!("tenant-{i}"))
                .weight(weight)
                .lane(lane);
            let model = match model {
                0 => ArrivalModel::Uniform,
                _ => ArrivalModel::Exponential,
            };
            let load = TenantLoad::new(spec, agg_query(cutoff), count, SimTime::from_nanos(gap))
                .model(model);
            match cancel {
                Some(budget) => load.cancel_after(SimTime::from_nanos(budget)),
                None => load,
            }
        })
        .collect()
}

fn run_serving(
    rows: &[Tuple],
    loads: &[TenantLoad],
    seed: u64,
    max_sessions: usize,
    fair: bool,
    interface: InterfaceMode,
) -> WorkloadReport {
    let (workload, specs) = compose(loads, seed);
    let mut opts = WorkloadOptions::new()
        .interface(interface)
        .fair_queueing(fair);
    for spec in specs {
        opts = opts.tenant(spec);
    }
    build_sys(rows, max_sessions)
        .run_workload(&workload, opts)
        .unwrap()
}

/// `(completed, rejected, deadline_missed, canceled, failed)` tallied from
/// the outcome log.
fn tally(rep: &WorkloadReport) -> (u64, u64, u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64, 0u64, 0u64);
    for o in &rep.outcomes {
        match o {
            ArrivalOutcome::Completed(_) => t.0 += 1,
            ArrivalOutcome::Rejected(_) => t.1 += 1,
            ArrivalOutcome::DeadlineMissed(_) => t.2 += 1,
            ArrivalOutcome::Canceled(_) => t.3 += 1,
            ArrivalOutcome::Failed(_) => t.4 += 1,
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Serving is answer-preserving: under any tenant mix, any arrival
    /// model, any cancellation schedule, and either admission mode, every
    /// completion carries exactly the answer an isolated run of its query
    /// produces, every arrival is accounted for exactly once (globally and
    /// per tenant), and the whole schedule replays bit-identically.
    #[test]
    fn serving_answers_match_isolated_runs(
        rows in prop::collection::vec(arb_row(), 50..200),
        tenants in prop::collection::vec(
            (-500i64..500, 1u64..8, 0u8..2, 1usize..4, 0u64..2_000_000,
             0u8..2, prop::option::of(10_000u64..3_000_000)),
            1..4),
        seed in any::<u64>(),
        max_sessions in 1usize..3,
        fair in any::<bool>(),
        direct in any::<bool>(),
    ) {
        let interface = if direct { InterfaceMode::Direct } else { InterfaceMode::Linked };
        let loads = loads_of(&tenants);
        let rep = run_serving(&rows, &loads, seed, max_sessions, fair, interface);

        // Isolated reference answers, one per distinct tenant query.
        let mut iso = build_sys(&rows, 4);
        for (i, &(cutoff, ..)) in tenants.iter().enumerate() {
            let expected = iso
                .run(&agg_query(cutoff), RunOptions::routed(Route::Device))
                .unwrap()
                .result;
            for t in rep.completions.iter().filter(|c| *c.query == *format!("agg<{cutoff}")) {
                prop_assert_eq!(&t.result.agg_values, &expected.agg_values,
                    "tenant {} answer diverged", i);
                prop_assert_eq!(t.result.scalar, expected.scalar);
            }
        }

        // Conservation: every arrival lands in exactly one outcome bucket,
        // globally and per tenant.
        let total: usize = tenants.iter().map(|t| t.3).sum();
        let (completed, rejected, missed, canceled, failed) = tally(&rep);
        prop_assert_eq!(rep.outcomes.len(), total);
        prop_assert_eq!(completed + rejected + missed + canceled + failed, total as u64);
        prop_assert_eq!(completed, rep.completions.len() as u64);
        prop_assert_eq!(failed, 0, "no faults are injected here");
        prop_assert_eq!(rep.tenants.len(), tenants.len());
        for (i, tr) in rep.tenants.iter().enumerate() {
            prop_assert_eq!(tr.arrivals as usize, tenants[i].3, "tenant {} arrivals", i);
            prop_assert_eq!(
                tr.completed + tr.rejected + tr.deadline_missed + tr.canceled + tr.failed,
                tr.arrivals, "tenant {} conservation", i);
        }
        prop_assert_eq!(rep.tenants.iter().map(|t| t.completed).sum::<u64>(), completed);

        // Determinism: the same seed replays the identical schedule.
        let replay = run_serving(&rows, &loads, seed, max_sessions, fair, interface);
        prop_assert_eq!(rep.makespan, replay.makespan);
        let fin = |r: &WorkloadReport| r.completions.iter()
            .map(|c| (c.index, c.finished_at)).collect::<Vec<_>>();
        prop_assert_eq!(fin(&rep), fin(&replay));
    }

    /// WFQ never starves a nonzero-weight tenant: with every tenant in the
    /// same lane backlogged from time zero against one session slot, each
    /// tenant's first completion lands within the first round of grants
    /// (one per tenant), and every tenant drains completely — whatever the
    /// weight spread.
    #[test]
    fn wfq_never_starves_a_nonzero_weight_tenant(
        rows in prop::collection::vec(arb_row(), 50..150),
        weights in prop::collection::vec(1u64..8, 2..5),
        per_tenant in 2usize..5,
        seed in any::<u64>(),
    ) {
        let tenants: Vec<TenantGen> = weights.iter().enumerate()
            .map(|(i, &w)| (i as i64 * 100 - 200, w, 0u8, per_tenant, 0u64, 0u8, None))
            .collect();
        let loads = loads_of(&tenants);
        let (workload, _) = compose(&loads, seed);
        let rep = run_serving(&rows, &loads, seed, 1, true, InterfaceMode::Direct);

        // Everything drains: no bounds, no deadlines, no cancellation.
        prop_assert_eq!(rep.completions.len(), weights.len() * per_tenant);
        for tr in &rep.tenants {
            prop_assert_eq!(tr.completed, per_tenant as u64);
        }

        // Head-of-line fairness: order completions by finish time; the
        // first `k` grants must touch all `k` backlogged tenants.
        let mut finishes: Vec<(SimTime, u32)> = rep.completions.iter()
            .map(|c| (c.finished_at, workload.items()[c.index].tenant))
            .collect();
        finishes.sort();
        let first_round: BTreeSet<u32> =
            finishes.iter().take(weights.len()).map(|&(_, t)| t).collect();
        prop_assert_eq!(first_round.len(), weights.len(),
            "every tenant must be served within the first round of grants");
    }

    /// Cancellation is leak-free: for any abandonment schedule — budgets
    /// that expire while waiting, mid-flight, or never — every device
    /// session slot returns to the pool, every arrival is accounted for,
    /// and canceled queries are shed at exactly their cancel instant.
    #[test]
    fn cancellation_frees_slots_and_leaks_nothing(
        rows in prop::collection::vec(arb_row(), 50..150),
        items in prop::collection::vec(
            (0u64..500_000, prop::option::of(0u64..2_000_000)), 1..8),
        max_sessions in 1usize..3,
        direct in any::<bool>(),
    ) {
        let interface = if direct { InterfaceMode::Direct } else { InterfaceMode::Linked };
        let mut workload = Workload::new();
        let mut at = SimTime::ZERO;
        let query = Arc::new(agg_query(250));
        for &(gap, cancel) in &items {
            at += SimTime::from_nanos(gap);
            workload.push_item(WorkloadItem {
                query: Arc::clone(&query),
                route: RoutePolicy::Natural,
                arrival: at,
                tenant: 0,
                cancel_at: cancel.map(|c| at + SimTime::from_nanos(c)),
            });
        }
        let mut sys = build_sys(&rows, max_sessions);
        let rep = sys
            .run_workload(&workload, WorkloadOptions::new().interface(interface))
            .unwrap();

        // The fleet leak check, applied to the serving path: after the
        // workload drains, no device session may remain open.
        prop_assert_eq!(sys.open_device_sessions(), 0, "leaked a session slot");

        let (completed, rejected, missed, canceled, failed) = tally(&rep);
        prop_assert_eq!(completed + rejected + missed + canceled + failed,
            items.len() as u64);
        prop_assert_eq!(rejected + missed + failed, 0,
            "no bounds, deadlines, or faults here");
        prop_assert_eq!(canceled, rep.canceled);
        for o in &rep.outcomes {
            if let ArrivalOutcome::Canceled(shed) = o {
                let item = &workload.items()[shed.index];
                prop_assert_eq!(Some(shed.shed_at), item.cancel_at,
                    "a canceled query is shed at exactly its cancel instant");
            }
        }

        // A canceled query never sneaks an answer out: completions and
        // cancellations partition by index.
        let done: BTreeSet<usize> = rep.completions.iter().map(|c| c.index).collect();
        for o in &rep.outcomes {
            if let ArrivalOutcome::Canceled(shed) = o {
                prop_assert!(!done.contains(&shed.index));
            }
        }
    }

    /// The streaming front door is the eager one: for any tenant mix,
    /// `System::run_serving` (k-way merge cursor, nothing materialized)
    /// produces a report identical in every simulated figure to composing
    /// the same loads into a `Workload` and running it eagerly — outcome
    /// by outcome, tenant by tenant, nanosecond by nanosecond.
    #[test]
    fn streaming_run_serving_matches_composed_run_workload(
        rows in prop::collection::vec(arb_row(), 50..150),
        tenants in prop::collection::vec(
            (-500i64..500, 1u64..8, 0u8..2, 1usize..5, 0u64..2_000_000,
             0u8..2, prop::option::of(10_000u64..3_000_000)),
            1..4),
        seed in any::<u64>(),
        max_sessions in 1usize..3,
        fair in any::<bool>(),
        direct in any::<bool>(),
    ) {
        let interface = if direct { InterfaceMode::Direct } else { InterfaceMode::Linked };
        let loads = loads_of(&tenants);
        let eager = run_serving(&rows, &loads, seed, max_sessions, fair, interface);
        let streamed = build_sys(&rows, max_sessions)
            .run_serving(
                &loads,
                seed,
                WorkloadOptions::new().interface(interface).fair_queueing(fair),
            )
            .unwrap();
        assert_reports_identical(&eager, &streamed)?;
    }
}

/// Two serving reports agree on every simulated figure (wall-clock does
/// not exist in a report, so this is full behavioral identity).
fn assert_reports_identical(
    a: &WorkloadReport,
    b: &WorkloadReport,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.makespan, b.makespan);
    prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
    prop_assert_eq!(tally(a), tally(b));
    let fin = |r: &WorkloadReport| {
        r.completions
            .iter()
            .map(|c| (c.index, c.route, c.arrival, c.finished_at, c.latency))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(fin(a), fin(b));
    let shed = |r: &WorkloadReport| {
        r.outcomes
            .iter()
            .filter_map(|o| match o {
                ArrivalOutcome::Canceled(s) => Some((s.index, s.shed_at)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(shed(a), shed(b));
    prop_assert_eq!(a.tenants.len(), b.tenants.len());
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        prop_assert_eq!(&x.name, &y.name);
        prop_assert_eq!(x.arrivals, y.arrivals);
        prop_assert_eq!(x.completed, y.completed);
        prop_assert_eq!(x.canceled, y.canceled);
        prop_assert_eq!(x.latency.p50, y.latency.p50);
        prop_assert_eq!(x.latency.p99, y.latency.p99);
    }
    Ok(())
}

/// A saturated stream — one session slot per device, eight tenants
/// together offering twice what the slot serves, every arrival abandoned
/// after eight service times — over one and four devices and both
/// interfaces. An arrival that finds a device full parks before any
/// `OPEN`, so a protocol-level trace holds no refused `OPEN` (each would
/// leave a `session-fault` instant), every arrival has exactly one
/// outcome, and no session outlives the run.
#[test]
fn a_saturated_stream_parks_before_any_open() {
    let rows: Vec<Tuple> = (0..2_000)
        .map(|k| vec![Datum::I32(k % 1000 - 500), Datum::I64(k as i64)])
        .collect();
    for devices in [1, 4] {
        for interface in [InterfaceMode::Direct, InterfaceMode::Linked] {
            let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                .devices(devices)
                .tweak(|c| c.smart.max_sessions = 1)
                .trace(CounterSink::new())
                .build();
            sys.load_partitioned("t", &schema(), rows.clone()).unwrap();
            sys.finish_load();
            let forced = RunOptions::routed(Route::Device);
            let service = sys.run(&agg_query(0), forced).unwrap().result.elapsed;
            const TENANTS: u64 = 8;
            let gap = SimTime::from_nanos(service.as_nanos() * TENANTS / 2);
            let loads: Vec<TenantLoad> = (0..TENANTS)
                .map(|i| {
                    let spec = TenantSpec::new(format!("t{i}")).weight(1 + i % 3);
                    TenantLoad::new(spec, agg_query(0), 25, gap)
                        .model(ArrivalModel::Exponential)
                        .cancel_after(SimTime::from_nanos(service.as_nanos() * 8))
                })
                .collect();
            let opts = WorkloadOptions::new()
                .interface(interface)
                .verbosity(TraceLevel::Protocol);
            let rep = sys.run_serving(&loads, 7, opts).unwrap();
            let case = format!("{devices} device(s), {interface:?}");

            let trace = rep.trace.counters().expect("a protocol-level trace");
            assert_eq!(trace.instant_count("session-fault"), 0, "{case}");
            assert!(rep.canceled > 0, "{case}: the stream must saturate");
            let total = loads.iter().map(TenantLoad::count).sum::<usize>();
            let indices: BTreeSet<usize> = rep.outcomes.iter().map(ArrivalOutcome::index).collect();
            assert_eq!(rep.outcomes.len(), total, "{case}");
            assert_eq!(indices.len(), total, "{case}: one outcome per arrival");
            assert_eq!(sys.open_device_sessions(), 0, "{case}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-tenant reports are a pure function of the outcome log: for any
    /// tenant mix — weights, lanes, abandonment, queue bounds — and any
    /// start-of-service deadline, each `TenantReport` equals its
    /// recomputation from `report.outcomes` (indices are tenant-major): the
    /// counts by kind, and the latency summary over that tenant's
    /// completions.
    #[test]
    fn tenant_reports_match_the_outcome_log(
        rows in prop::collection::vec(arb_row(), 50..150),
        tenants in prop::collection::vec(
            ((-500i64..500, 1u64..8, 0u8..3, 1usize..12, 0u64..1_000_000, 0u8..2),
             (prop::option::of(10_000u64..3_000_000), prop::option::of(0usize..4))),
            1..6),
        deadline in prop::option::of(0u64..2_000_000),
        seed in any::<u64>(),
        max_sessions in 1usize..3,
        direct in any::<bool>(),
    ) {
        let interface = if direct { InterfaceMode::Direct } else { InterfaceMode::Linked };
        let loads: Vec<TenantLoad> = tenants
            .iter()
            .enumerate()
            .map(|(i, &((cutoff, weight, lane, count, gap, model), (cancel, bound)))| {
                let mut spec = TenantSpec::new(format!("t{i}")).weight(weight).lane(lane);
                if let Some(b) = bound {
                    spec = spec.queue_bound(b);
                }
                let model = if model == 0 { ArrivalModel::Uniform } else { ArrivalModel::Exponential };
                let load = TenantLoad::new(spec, agg_query(cutoff), count, SimTime::from_nanos(gap))
                    .model(model);
                match cancel {
                    Some(c) => load.cancel_after(SimTime::from_nanos(c)),
                    None => load,
                }
            })
            .collect();
        let mut opts = WorkloadOptions::new().interface(interface);
        if let Some(d) = deadline {
            opts = opts.deadline(SimTime::from_nanos(d));
        }
        let rep = build_sys(&rows, max_sessions).run_serving(&loads, seed, opts).unwrap();

        let mut counts = vec![(0u64, 0u64, 0u64, 0u64, 0u64); loads.len()];
        let mut latencies = vec![Vec::new(); loads.len()];
        let first: Vec<usize> = loads
            .iter()
            .scan(0, |next, l| {
                let first = *next;
                *next += l.count();
                Some(first)
            })
            .collect();
        for o in &rep.outcomes {
            let t = first.partition_point(|&f| f <= o.index()) - 1;
            let c = &mut counts[t];
            match o {
                ArrivalOutcome::Completed(done) => {
                    c.0 += 1;
                    latencies[t].push(done.latency);
                }
                ArrivalOutcome::Rejected(_) => c.1 += 1,
                ArrivalOutcome::DeadlineMissed(_) => c.2 += 1,
                ArrivalOutcome::Canceled(_) => c.3 += 1,
                ArrivalOutcome::Failed(_) => c.4 += 1,
            }
        }
        prop_assert_eq!(rep.tenants.len(), loads.len());
        for (t, tr) in rep.tenants.iter().enumerate() {
            let got = (tr.completed, tr.rejected, tr.deadline_missed, tr.canceled, tr.failed);
            prop_assert_eq!(got, counts[t], "tenant {} counts", t);
            prop_assert_eq!(tr.arrivals, loads[t].count() as u64, "tenant {} arrivals", t);
            prop_assert_eq!(tr.latency, LatencyStats::from_sample(&latencies[t]), "tenant {}", t);
        }
    }
}
