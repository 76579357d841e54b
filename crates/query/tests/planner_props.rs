//! Property tests of the pushdown planner: its estimates must be monotone
//! in the obvious directions and its route must follow them.

use proptest::prelude::*;
use smartssd_exec::spec::{ScanAggSpec, TableRef};
use smartssd_exec::QueryOp;
use smartssd_query::{choose_route, planner::estimate, PlannerConfig, PlannerInputs, Route};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Layout, Schema};

fn scan_agg(pages: u64, layout: Layout, atoms: usize) -> QueryOp {
    let pred = Pred::And(
        (0..atoms.max(1))
            .map(|i| Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(i as i64)))
            .collect(),
    );
    QueryOp::ScanAgg {
        table: TableRef {
            first_lba: 0,
            num_pages: pages,
            schema: Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)]),
            layout,
        },
        spec: ScanAggSpec {
            pred,
            aggs: vec![AggSpec::sum(Expr::col(1))],
        },
    }
}

fn arb_inputs() -> impl Strategy<Value = PlannerInputs> {
    (0.0f64..1.0, 0.0f64..1.0, 10.0f64..600.0).prop_map(|(residency, selectivity, tpp)| {
        PlannerInputs {
            residency,
            selectivity,
            tuples_per_page: tpp,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimates_monotone_in_pages(
        inputs in arb_inputs(),
        pages in 10u64..100_000,
        atoms in 1usize..6,
    ) {
        let cfg = PlannerConfig::default();
        let small = estimate(&scan_agg(pages, Layout::Pax, atoms), &cfg, &inputs);
        let large = estimate(&scan_agg(pages * 2, Layout::Pax, atoms), &cfg, &inputs);
        prop_assert!(large.device_secs >= small.device_secs);
        prop_assert!(large.host_secs >= small.host_secs);
    }

    #[test]
    fn higher_residency_never_hurts_the_host(
        inputs in arb_inputs(),
        extra in 0.0f64..1.0,
    ) {
        let cfg = PlannerConfig::default();
        let op = scan_agg(10_000, Layout::Pax, 3);
        let warmer = PlannerInputs {
            residency: (inputs.residency + extra).min(1.0),
            ..inputs.clone()
        };
        let cold = estimate(&op, &cfg, &inputs);
        let warm = estimate(&op, &cfg, &warmer);
        prop_assert!(warm.host_secs <= cold.host_secs + 1e-12);
        // Residency is a host-side cache; device time must not change.
        prop_assert!((warm.device_secs - cold.device_secs).abs() < 1e-12);
    }

    #[test]
    fn nsm_never_estimates_cheaper_than_pax_on_device(
        inputs in arb_inputs(),
        pages in 100u64..50_000,
    ) {
        let cfg = PlannerConfig::default();
        let pax = estimate(&scan_agg(pages, Layout::Pax, 3), &cfg, &inputs);
        let nsm = estimate(&scan_agg(pages, Layout::Nsm, 3), &cfg, &inputs);
        prop_assert!(nsm.device_secs >= pax.device_secs - 1e-12);
    }

    #[test]
    fn chosen_route_matches_estimates(inputs in arb_inputs()) {
        let cfg = PlannerConfig::default();
        let op = scan_agg(20_000, Layout::Pax, 4);
        let (route, est) = choose_route(&op, &cfg, &inputs);
        match route {
            Route::Device => prop_assert!(est.device_secs < est.host_secs),
            Route::Host => prop_assert!(est.device_secs >= est.host_secs),
        }
    }
}
