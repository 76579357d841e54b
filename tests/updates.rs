//! Integration tests for the update/staleness machinery from the paper's
//! Discussion section: in-place table replacement (with trim of the old
//! extent), dirty tracking, and the pushdown-forbidden-while-dirty rule.

use smartssd::{DeviceKind, Layout, Route, RunOptions, System, SystemBuilder};
use smartssd_exec::spec::{BuildSide, JoinSpec, ScanAggSpec};
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_storage::expr::{AggSpec, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, TableBuilder, Tuple};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
}

fn rows(n: i32, scale: i64) -> impl Iterator<Item = Tuple> {
    (0..n).map(move |k| vec![Datum::I32(k), Datum::I64(k as i64 * scale)])
}

fn sum_query() -> Query {
    Query {
        name: "sum v".into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        },
        finalize: Finalize::AggRow,
    }
}

fn smart_system(n: i32) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    sys.load_table_rows("t", &schema(), rows(n, 1)).unwrap();
    sys.finish_load();
    sys
}

#[test]
fn update_replaces_contents_on_both_routes() {
    let mut sys = smart_system(10_000);
    let before = sys.run(&sum_query(), RunOptions::default()).unwrap();
    assert_eq!(before.result.agg_values[0], (0..10_000i128).sum::<i128>());
    // Replace with scaled values and fewer rows.
    sys.update_table_rows("t", rows(5_000, 10)).unwrap();
    for route in [Route::Device, Route::Host] {
        sys.clear_cache();
        let after = sys.run(&sum_query(), RunOptions::routed(route)).unwrap();
        assert_eq!(
            after.result.agg_values[0],
            (0..5_000i128).map(|k| k * 10).sum::<i128>(),
            "route {route:?} read stale data"
        );
        assert_eq!(after.result.agg_values[1], 5_000);
    }
}

/// On an array the update lands partitioned like the load: every device
/// re-points its own catalog at its new share and trims its own old
/// extent, so both routes answer from the new rows alone (the update once
/// wrote the whole new image to device 0 and left devices 1-3 answering
/// from their stale partitions). A checkpoint rewrites every device's
/// share.
#[test]
fn update_on_an_array_replaces_every_partition() {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(4)
        .build();
    sys.load_partitioned("t", &schema(), rows(10_000, 1))
        .unwrap();
    sys.finish_load();
    let old = sys.catalog().get("t").unwrap().first_lba;
    sys.update_table_rows("t", rows(5_000, 10)).unwrap();
    let want = (0..5_000i128).map(|k| k * 10).sum::<i128>();
    let check = |sys: &mut System| {
        for route in [Route::Device, Route::Host] {
            sys.clear_cache();
            let r = sys.run(&sum_query(), RunOptions::routed(route)).unwrap();
            assert_eq!(r.result.agg_values[1], 5_000, "route {route:?}");
            assert_eq!(r.result.agg_values[0], want, "route {route:?}");
        }
    };
    check(&mut sys);
    for d in 0..4 {
        let stale = sys.device(d).flash.peek_page(old);
        assert!(stale.is_err(), "device {d} kept its old extent");
    }
    sys.mark_dirty("t");
    sys.checkpoint("t").unwrap();
    check(&mut sys);
    // The checkpoint reads every device's share: with the first page of
    // the last device's share trimmed behind the system's back (every share
    // starts at the same LBA), it fails and the table stays dirty.
    let first = sys.catalog().get("t").unwrap().first_lba;
    sys.device_mut(3).flash.trim(first).unwrap();
    sys.mark_dirty("t");
    assert!(sys.checkpoint("t").is_err());
    assert!(sys.is_dirty("t"));
}

/// Two runs of a route leave its scan-aggregate memo warm: the device's
/// operator scratch and the host route's one on the shard. A rewrite must
/// still be read on both routes. Through `update_table_rows` the table
/// moves to a fresh extent, so the memo's key changes. A checkpoint writes
/// the same buffers back to the same LBAs. An overwrite in place keeps
/// the extent, the page count, the schema and the spec, and only the
/// pages' buffers tell the new rows from the old. Every answer equals the
/// row oracle.
#[test]
fn warm_memos_see_every_rewrite() {
    const N: i32 = 10_000;
    let oracle = |scale: i64| {
        let sum = rows(N, scale).map(|t| match t[1] {
            Datum::I64(v) => i128::from(v),
            _ => unreachable!("v is an Int64"),
        });
        vec![sum.sum::<i128>(), i128::from(N)]
    };
    let check = |sys: &mut System, scale: i64, how: &str| {
        for route in [Route::Device, Route::Host] {
            for run in 0..2 {
                let r = sys.run(&sum_query(), RunOptions::routed(route)).unwrap();
                assert_eq!(r.route, route);
                let cell = format!("{how}, route {route:?}, run {run}");
                assert_eq!(r.result.agg_values, oracle(scale), "{cell}");
            }
        }
    };
    let mut sys = smart_system(N);
    check(&mut sys, 1, "load");
    sys.update_table_rows("t", rows(N, 2)).unwrap();
    check(&mut sys, 2, "update_table_rows");
    sys.mark_dirty("t");
    sys.checkpoint("t").unwrap();
    check(&mut sys, 2, "checkpoint");

    let table = sys.catalog().get("t").unwrap().clone();
    let mut b = TableBuilder::new("t", schema(), Layout::Pax);
    b.extend(rows(N, 3));
    let img = b.finish();
    assert_eq!(img.num_pages() as u64, table.num_pages, "same extent");
    sys.device_mut(0).load_table(&img, table.first_lba).unwrap();
    // The buffer pool still holds the old pages: a host that rewrites
    // behind its pool drops them.
    sys.clear_cache();
    check(&mut sys, 3, "overwrite in place");
}

#[test]
fn update_trims_old_extent_for_gc() {
    let mut sys = smart_system(50_000);
    // Several updates in a row keep re-pointing the catalog and trimming;
    // the device must not leak space (GC reclaims trimmed extents).
    for round in 1..=4 {
        sys.update_table_rows("t", rows(50_000, round)).unwrap();
        let r = sys.run(&sum_query(), RunOptions::default()).unwrap();
        assert_eq!(
            r.result.agg_values[0],
            (0..50_000i128).map(|k| k * round as i128).sum::<i128>()
        );
    }
}

#[test]
fn dirty_table_forces_host_route() {
    let mut sys = smart_system(20_000);
    let clean = sys.run(&sum_query(), RunOptions::default()).unwrap();
    assert_eq!(clean.route, Route::Device);
    // Mark dirty: even an explicit device request must be rerouted.
    sys.mark_dirty("t");
    assert!(sys.is_dirty("t"));
    let dirty = sys
        .run(&sum_query(), RunOptions::routed(Route::Device))
        .unwrap();
    assert_eq!(dirty.route, Route::Host, "stale pushdown must be refused");
    assert_eq!(dirty.result.agg_values, clean.result.agg_values);
    // Checkpoint restores pushdown eligibility.
    sys.checkpoint("t").unwrap();
    assert!(!sys.is_dirty("t"));
    let again = sys
        .run(&sum_query(), RunOptions::routed(Route::Device))
        .unwrap();
    assert_eq!(again.route, Route::Device);
}

/// Regression: a table loaded with zero rows has zero pages, so the table
/// loaded after it starts at the same LBA. Dirt on the empty one must not
/// reroute queries on its neighbour (the dirty rule once matched extents by
/// `first_lba` alone).
#[test]
fn dirty_empty_table_does_not_reroute_its_neighbour() {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    sys.load_table_rows("empty", &schema(), rows(0, 1)).unwrap();
    sys.load_table_rows("t", &schema(), rows(20_000, 1))
        .unwrap();
    sys.finish_load();
    let catalog = sys.catalog();
    assert_eq!(catalog.get("empty").unwrap().num_pages, 0);
    let (empty, t) = (catalog.get("empty").unwrap(), catalog.get("t").unwrap());
    assert_eq!(empty.first_lba, t.first_lba, "the reproduction's premise");
    sys.mark_dirty("empty");
    let r = sys.run(&sum_query(), RunOptions::default()).unwrap();
    assert_eq!(r.route, Route::Device, "`t` is clean");
    // The rule itself still holds for the table that *is* dirty.
    sys.mark_dirty("t");
    let r = sys.run(&sum_query(), RunOptions::default()).unwrap();
    assert_eq!(r.route, Route::Host);
}

#[test]
fn checkpoint_of_clean_table_is_noop() {
    let mut sys = smart_system(1_000);
    sys.checkpoint("t").unwrap();
    let r = sys.run(&sum_query(), RunOptions::default()).unwrap();
    assert_eq!(r.route, Route::Device);
}

#[test]
fn dirty_join_input_forces_host_route() {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Nsm).build();
    sys.load_table_rows("build", &schema(), rows(500, 1))
        .unwrap();
    sys.load_table_rows("probe", &schema(), rows(2_000, 1))
        .unwrap();
    sys.finish_load();
    let query = Query {
        name: "join".into(),
        op: OpTemplate::Join {
            probe: "probe".into(),
            spec: JoinSpec {
                build: BuildSide {
                    table: "build".into(),
                    key_col: 0,
                    payload: vec![1],
                },
                probe_key: 0,
                probe_pred: Pred::Const(true),
                filter_first: true,
                output: smartssd_exec::JoinOutput::Project(vec![
                    smartssd_exec::ColRef::Probe(0),
                    smartssd_exec::ColRef::Build(0),
                ]),
            },
        },
        finalize: Finalize::Rows,
    };
    let clean = sys.run(&query, RunOptions::default()).unwrap();
    assert_eq!(clean.route, Route::Device);
    // Dirtying the *build side* must also block pushdown.
    sys.mark_dirty("build");
    let dirty = sys.run(&query, RunOptions::default()).unwrap();
    assert_eq!(dirty.route, Route::Host);
    assert_eq!(dirty.result.rows, clean.result.rows);
}

#[test]
fn updates_work_on_plain_ssd_too() {
    let mut sys = SystemBuilder::new(DeviceKind::Ssd, Layout::Nsm).build();
    sys.load_table_rows("t", &schema(), rows(3_000, 2)).unwrap();
    sys.finish_load();
    sys.update_table_rows("t", rows(1_000, 7)).unwrap();
    let r = sys.run(&sum_query(), RunOptions::default()).unwrap();
    assert_eq!(
        r.result.agg_values[0],
        (0..1_000i128).map(|k| k * 7).sum::<i128>()
    );
}

/// A checkpoint writes back the pages as stored, with no modelled read: with
/// the first read of every page uncorrectable, or a quarter of all reads
/// silently corrupted, it still succeeds and clears the flag, and the table
/// answers as before on every route. (It once read each page raw, so it
/// aborted on the first uncorrectable read with the table already marked
/// clean, and wrote corrupted copies back for good.)
#[test]
fn checkpoint_writes_back_true_pages_under_read_faults() {
    let want = (0..20_000i128).sum::<i128>();
    for (ecc_fail, silent) in [(u32::MAX, 0), (0, u32::MAX / 4)] {
        for kind in [DeviceKind::SmartSsd, DeviceKind::Ssd] {
            let cell = format!("{kind:?}, ecc_fail {ecc_fail}, silent {silent}");
            let mut sys = SystemBuilder::new(kind, Layout::Pax)
                .fault_rates(0, ecc_fail, silent)
                .build();
            sys.load_table_rows("t", &schema(), rows(20_000, 1))
                .unwrap();
            sys.finish_load();
            sys.mark_dirty("t");
            sys.checkpoint("t")
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(!sys.is_dirty("t"), "{cell}");
            for _ in 0..3 {
                sys.clear_cache();
                let r = sys.run(&sum_query(), RunOptions::default());
                let r = r.unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(r.result.agg_values[0], want, "{cell}");
            }
        }
    }
}

/// A checkpoint that fails leaves the table dirty: pushdown stays refused
/// until a checkpoint has actually written the pages back.
#[test]
fn failed_checkpoint_leaves_the_table_dirty() {
    let mut sys = smart_system(1_000);
    sys.mark_dirty("ghost");
    assert!(sys.checkpoint("ghost").is_err(), "no such table");
    assert!(sys.is_dirty("ghost"));
}
