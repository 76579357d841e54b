//! Every operator shape answers on an array of any size as it does on one
//! device: `Scan`, `ScanAgg`, `GroupAgg` (Sum, Count, Min, Max) and `Join`
//! with a projecting and with an aggregating output, over a partitioned
//! input (or probe) table and a build table whole on every device, on
//! N in {1, 2, 3, 4, 16}, forced to the device and forced to the host.
//!
//! Rows whose order is the gather's (a scan's, a projecting join's) are
//! compared as a sorted multiset; group rows (folded by key once, in key
//! order) and aggregates are compared exactly.

use proptest::prelude::*;
use smartssd::{
    DeviceKind, Layout, QueryResult, Route, RunOptions, SimTime, System, SystemBuilder,
};
use smartssd_exec::spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec, ScanSpec,
};
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_sim::FaultPlan;
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, Tuple};
use std::sync::Arc;

const DEVICES: [usize; 5] = [1, 2, 3, 4, 16];

/// The streamed table `t`: join key, a character group column, a value.
fn t_schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("g", DataType::Char(4)),
        ("v", DataType::Int64),
    ])
}

/// The build table `r`: key and payload.
fn r_schema() -> Arc<Schema> {
    Schema::from_pairs(&[("id", DataType::Int32), ("pay", DataType::Int64)])
}

const GROUPS: [&str; 4] = ["AIR", "MAIL", "RAIL", "SHIP"];

prop_compose! {
    fn arb_t_row()(k in 0i32..60, g in 0usize..4, v in -1_000_000i64..1_000_000) -> Tuple {
        vec![Datum::I32(k), Datum::static_str(GROUPS[g]), Datum::I64(v)]
    }
}

prop_compose! {
    fn arb_r_row()(id in 0i32..80, pay in -10_000i64..10_000) -> Tuple {
        vec![Datum::I32(id), Datum::I64(pay)]
    }
}

fn query(name: &str, op: OpTemplate, finalize: Finalize) -> Query {
    Query {
        name: name.into(),
        op,
        finalize,
    }
}

/// One query of every operator shape, each filtered on `v < cutoff`.
fn queries(cutoff: i64) -> Vec<Query> {
    let pred = || Pred::Cmp(CmpOp::Lt, Expr::col(2), Expr::lit(cutoff));
    let four = || {
        vec![
            AggSpec::sum(Expr::col(2)),
            AggSpec::count(),
            AggSpec::min(Expr::col(2)),
            AggSpec::max(Expr::col(2)),
        ]
    };
    let join = |output| OpTemplate::Join {
        probe: "t".into(),
        spec: JoinSpec {
            build: BuildSide {
                table: "r".into(),
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 0,
            probe_pred: pred(),
            filter_first: true,
            output,
        },
    };
    // The joined schema: t.k, t.g, t.v, then r.pay at index 3.
    let joined_aggs = vec![AggSpec::count(), AggSpec::sum(Expr::col(3))];
    let project = vec![ColRef::Probe(1), ColRef::Probe(2), ColRef::Build(0)];
    vec![
        query(
            "scan",
            OpTemplate::Scan {
                table: "t".into(),
                spec: ScanSpec {
                    pred: pred(),
                    project: vec![1, 2],
                },
            },
            Finalize::Rows,
        ),
        query(
            "scan-agg",
            OpTemplate::ScanAgg {
                table: "t".into(),
                spec: ScanAggSpec {
                    pred: pred(),
                    aggs: four(),
                },
            },
            Finalize::AggRow,
        ),
        query(
            "group-agg",
            OpTemplate::GroupAgg {
                table: "t".into(),
                spec: GroupAggSpec {
                    pred: pred(),
                    group_by: vec![1, 0],
                    aggs: four(),
                },
            },
            Finalize::Rows,
        ),
        query(
            "join-project",
            join(JoinOutput::Project(project)),
            Finalize::Rows,
        ),
        query(
            "join-agg",
            join(JoinOutput::Aggregate(joined_aggs)),
            Finalize::AggRow,
        ),
    ]
}

/// An `n`-device array with `t` partitioned and `r` whole.
fn array(n: usize, t: &[Tuple], r: &[Tuple]) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(n)
        .build();
    sys.load_partitioned("t", &t_schema(), t.to_vec()).unwrap();
    sys.load_table_rows("r", &r_schema(), r.to_vec()).unwrap();
    sys.finish_load();
    sys
}

/// What the comparison holds a result to: the aggregates, and the rows —
/// sorted where their order is the gather's.
fn settle(query: &Query, r: QueryResult) -> (Vec<i128>, Vec<Tuple>) {
    fn key(d: &Datum) -> (i64, &[u8]) {
        match d {
            Datum::I32(v) => (i64::from(*v), &[]),
            Datum::I64(v) => (*v, &[]),
            Datum::Str(b) => (0, b),
        }
    }
    let mut rows = r.rows;
    if !matches!(query.op, OpTemplate::GroupAgg { .. }) {
        rows.sort_by(|a, b| a.iter().map(key).cmp(b.iter().map(key)));
    }
    (r.agg_values, rows)
}

fn answer(query: &Query, sys: &mut System, route: Route) -> (Vec<i128>, Vec<Tuple>) {
    let r = sys.run(query, RunOptions::routed(route)).unwrap();
    settle(query, r.result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every operator shape on every array size and both routes answers as
    /// one device does.
    #[test]
    fn every_operator_answers_on_every_array_size(
        t in proptest::collection::vec(arb_t_row(), 0..400),
        r in proptest::collection::vec(arb_r_row(), 1..40),
        cutoff in -200_000i64..1_000_001,
    ) {
        let queries = queries(cutoff);
        let mut one = array(1, &t, &r);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| answer(q, &mut one, Route::Device))
            .collect();
        for n in DEVICES {
            let mut sys = array(n, &t, &r);
            for (q, want) in queries.iter().zip(&expected) {
                for route in [Route::Device, Route::Host] {
                    let got = answer(q, &mut sys, route);
                    prop_assert_eq!(&got, want, "{} on {} devices, {:?}", q.name, n, route);
                }
            }
            prop_assert_eq!(sys.open_device_sessions(), 0);
        }
    }
}

/// A device that crashes mid-gather hands its share to the host, and every
/// operator shape still answers as one device does.
#[test]
fn a_crash_mid_gather_moves_no_answer() {
    let t: Vec<Tuple> = (0..20_000)
        .map(|i| {
            let g = Datum::static_str(GROUPS[(i % 3) as usize]);
            vec![
                Datum::I32((i * 7 % 60) as i32),
                g,
                Datum::I64(i * 13 % 1_000),
            ]
        })
        .collect();
    let r: Vec<Tuple> = (0..80)
        .map(|i| vec![Datum::I32(i), Datum::I64(i as i64 * 3)])
        .collect();
    let mut one = array(1, &t, &r);
    let mut sys = array(4, &t, &r);
    for q in queries(500) {
        let want = answer(&q, &mut one, Route::Device);
        let clean = sys.run(&q, RunOptions::routed(Route::Device)).unwrap();
        // Device 1 crashes halfway through the clean run.
        let at = SimTime::from_nanos(clean.result.elapsed.as_nanos() / 2);
        sys.arm_fault_plan(&FaultPlan::new().crash_at(1, at));
        let crashed = sys.run(&q, RunOptions::routed(Route::Device)).unwrap();
        assert!(crashed.shards[1].fell_back, "{}: no fallback", q.name);
        assert_eq!(settle(&q, crashed.result), want, "{}", q.name);
        sys.arm_fault_plan(&FaultPlan::new());
        assert_eq!(sys.open_device_sessions(), 0);
    }
}
