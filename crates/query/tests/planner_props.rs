//! Property tests of the pushdown planner over work receipts: its
//! estimates must be monotone in residency and linear in the receipt (past
//! the device route's fixed session commands), and its route must follow
//! them.

use proptest::prelude::*;
use smartssd_exec::spec::{ScanAggSpec, TableRef};
use smartssd_exec::{QueryOp, WorkCounts};
use smartssd_query::{choose_route, planner::estimate, PlannerConfig, PlannerInputs, Route};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Layout, Schema};

fn scan_agg(pages: u64) -> QueryOp {
    QueryOp::ScanAgg {
        table: TableRef {
            first_lba: 0,
            num_pages: pages,
            schema: Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)]),
            layout: Layout::Pax,
        },
        spec: ScanAggSpec {
            pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5)),
            aggs: vec![AggSpec::sum(Expr::col(1))],
        },
    }
}

/// A scan-aggregate's receipt over `pages` pages of `per_page` tuples in
/// `layout`: `atoms` predicate atoms a tuple, and `folded` tuples in a
/// thousand folded into one aggregate.
fn receipt(pages: u64, per_page: u64, atoms: u64, folded: u64, layout: Layout) -> WorkCounts {
    let tuples = pages * per_page;
    let agg_updates = tuples * folded / 1_000;
    let (tuples_nsm, tuples_pax) = match layout {
        Layout::Nsm => (tuples, 0),
        Layout::Pax => (0, tuples),
    };
    WorkCounts {
        pages,
        tuples_nsm,
        tuples_pax,
        values: atoms * tuples + agg_updates,
        pred_atoms: atoms * tuples,
        expr_nodes: 2 * atoms * tuples + agg_updates,
        agg_updates,
        ..WorkCounts::default()
    }
}

/// Planner inputs over `pages` pages: a residency and a receipt.
fn arb_inputs(pages: u64) -> impl Strategy<Value = PlannerInputs> {
    let layout = prop_oneof![Just(Layout::Nsm), Just(Layout::Pax)];
    (0.0f64..1.0, 10u64..600, 1u64..6, 0u64..1_000, layout).prop_map(
        move |(residency, per_page, atoms, folded, layout)| PlannerInputs {
            residency,
            work: receipt(pages, per_page, atoms, folded, layout),
        },
    )
}

/// Every field of `w` times `k`.
fn times(w: &WorkCounts, k: u64) -> WorkCounts {
    let mut all = WorkCounts::default();
    (0..k).for_each(|_| all.absorb(w));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimates_linear_in_a_scaled_receipt(
        inputs in arb_inputs(1_000),
        k in 1u64..8,
    ) {
        let cfg = PlannerConfig::default();
        let one = estimate(&scan_agg(1_000), &cfg, &inputs);
        let scaled = PlannerInputs {
            work: times(&inputs.work, k),
            ..inputs.clone()
        };
        let many = estimate(&scan_agg(1_000 * k), &cfg, &scaled);
        // Past the device route's fixed session commands.
        let device = |secs: f64| secs - cfg.protocol_secs;
        let k = k as f64;
        prop_assert!((device(many.device_secs) / (k * device(one.device_secs)) - 1.0).abs() < 1e-9);
        prop_assert!((many.host_secs / (k * one.host_secs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_monotone_in_pages(
        inputs in arb_inputs(1),
        pages in 10u64..100_000,
    ) {
        let cfg = PlannerConfig::default();
        let at = |pages: u64| {
            let work = times(&inputs.work, pages);
            estimate(&scan_agg(pages), &cfg, &PlannerInputs { work, ..inputs.clone() })
        };
        let (small, large) = (at(pages), at(pages * 2));
        prop_assert!(large.device_secs >= small.device_secs);
        prop_assert!(large.host_secs >= small.host_secs);
    }

    #[test]
    fn higher_residency_never_hurts_the_host(
        inputs in arb_inputs(10_000),
        extra in 0.0f64..1.0,
    ) {
        let cfg = PlannerConfig::default();
        let op = scan_agg(10_000);
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

    /// The same counts on NSM pages cost the device more than on PAX.
    #[test]
    fn nsm_never_estimates_cheaper_than_pax_on_device(
        pages in 100u64..50_000,
        per_page in 10u64..600,
        atoms in 1u64..6,
    ) {
        let cfg = PlannerConfig::default();
        let at = |layout| {
            let work = receipt(pages, per_page, atoms, 100, layout);
            estimate(&scan_agg(pages), &cfg, &PlannerInputs { residency: 0.0, work })
        };
        prop_assert!(at(Layout::Nsm).device_secs >= at(Layout::Pax).device_secs - 1e-12);
    }

    /// A scan that returns every byte of a 20-column row: the device would
    /// read the table internally and then ship all of it across the
    /// interface anyway.
    #[test]
    fn full_width_row_output_goes_to_the_host(
        pages in 10u64..100_000,
        residency in 0.0f64..1.0,
    ) {
        let tuples = pages * 51;
        let work = WorkCounts {
            pages,
            tuples_pax: tuples,
            values: 20 * tuples,
            out_tuples: tuples,
            out_bytes: 160 * tuples,
            ..WorkCounts::default()
        };
        let inputs = PlannerInputs { residency, work };
        let (route, est) = choose_route(&scan_agg(pages), &PlannerConfig::default(), &inputs);
        prop_assert_eq!(route, Route::Host, "estimates: {:?}", est);
    }

    #[test]
    fn a_30_mhz_device_goes_to_the_host(inputs in arb_inputs(10_000)) {
        let weak = PlannerConfig {
            device_cycles_per_sec: 30e6,
            ..PlannerConfig::default()
        };
        let (route, est) = choose_route(&scan_agg(10_000), &weak, &inputs);
        prop_assert_eq!(route, Route::Host, "estimates: {:?}", est);
    }

    #[test]
    fn chosen_route_matches_estimates(inputs in arb_inputs(20_000)) {
        let cfg = PlannerConfig::default();
        let (route, est) = choose_route(&scan_agg(20_000), &cfg, &inputs);
        match route {
            Route::Device => prop_assert!(est.device_secs < est.host_secs),
            Route::Host => prop_assert!(est.device_secs >= est.host_secs),
        }
    }
}
