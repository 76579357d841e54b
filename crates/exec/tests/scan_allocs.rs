//! A warm scan allocates nothing per page.
//!
//! The engines run a scan through one [`ScanScratch`] per operator
//! execution. Once the scratch has seen the pages' shape, a further pass
//! over 100 Q6 pages through that same entry point must not touch the
//! heap at all — on either layout. The same holds one level up, through
//! [`run_op`] on the recording fake site: whatever a driver call allocates
//! (its scratch, the states, the page list), it allocates once, not per
//! page, and a call on an [`OpScratch`] an earlier call left warm allocates
//! only its partial-aggregate states. An aggregating join probe is held to
//! the same rule through the scratch its [`JoinSink`] carries. The counting
//! allocator is local to this test binary, and counts per thread so the
//! tests cannot see each other (or the harness).

mod common;

use common::RecordingSite;
use smartssd_exec::join::probe_page;
use smartssd_exec::{
    run_op, JoinHashTable, JoinSink, OpScratch, QueryOp, ScanScratch, TableRef, WorkCounts,
};
use smartssd_storage::expr::AggState;
use smartssd_storage::{Layout, TableBuilder, TableImage};
use smartssd_workload::{q14, q6, queries, tpch};
use std::alloc::{GlobalAlloc, Layout as MemLayout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: MemLayout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: MemLayout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: MemLayout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn warm_q6_pass_allocations(layout: Layout) -> u64 {
    const PAGES: usize = 100;
    let smartssd_query::OpTemplate::ScanAgg { spec, .. } = q6().op else {
        unreachable!("Q6 is a scan-aggregate")
    };
    let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), layout);
    b.extend(tpch::lineitem_rows(0.001, 42));
    let img = b.finish();
    let pages = &img.pages()[..PAGES];
    let mut states: Vec<AggState> = spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
    let mut w = WorkCounts::default();
    let mut scratch = ScanScratch::default();
    let mut pass = |scratch: &mut ScanScratch| {
        for p in pages {
            scratch.scan_agg_page(p, img.schema(), &spec, &mut states, &mut w);
        }
    };
    pass(&mut scratch);
    let before = ALLOCS.with(Cell::get);
    pass(&mut scratch);
    let allocations = ALLOCS.with(Cell::get) - before;
    // The passes did real work, and the counter does count.
    assert_eq!(w.pages, 2 * PAGES as u64);
    assert!(w.agg_updates > 0, "Q6 selected nothing on {layout:?}");
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(ALLOCS.with(Cell::get) - before, allocations + 1);
    allocations
}

#[test]
fn warm_pax_scan_allocates_nothing() {
    assert_eq!(warm_q6_pass_allocations(Layout::Pax), 0);
}

#[test]
fn warm_nsm_scan_allocates_nothing() {
    assert_eq!(warm_q6_pass_allocations(Layout::Nsm), 0);
}

/// Q14's probe — every LINEITEM row looked up in PART, the matches
/// filtered, two `CASE`/arithmetic sums over the joined rows — over 100
/// pages through one [`JoinSink`], after a first pass sized its scratch.
fn warm_q14_probe_allocations(layout: Layout) -> u64 {
    const PAGES: usize = 100;
    let image = |name: &str, schema, rows: &mut dyn Iterator<Item = _>| -> TableImage {
        let mut b = TableBuilder::new(name, schema, layout);
        b.extend(rows);
        b.finish()
    };
    let lineitem = image(
        queries::LINEITEM,
        tpch::lineitem_schema(),
        &mut tpch::lineitem_rows(0.001, 42),
    );
    let part = image(
        queries::PART,
        tpch::part_schema(),
        &mut tpch::part_rows(0.001, 42),
    );
    let mut catalog = smartssd_query::Catalog::new();
    for (name, img) in [(queries::LINEITEM, &lineitem), (queries::PART, &part)] {
        let table = TableRef {
            first_lba: 0,
            num_pages: img.num_pages() as u64,
            schema: img.schema().clone(),
            layout,
        };
        catalog.register(name, table);
    }
    let QueryOp::Join { probe, spec } = q14().resolve(&catalog).unwrap() else {
        unreachable!("Q14 is a join")
    };
    let ht = JoinHashTable::build(part.pages(), &spec.build, &mut WorkCounts::default());
    let joined = spec.joined_schema(&probe.schema);
    let mut sink = JoinSink::new(&spec);
    let mut w = WorkCounts::default();
    let mut pass = |sink: &mut JoinSink| {
        for p in &lineitem.pages()[..PAGES] {
            probe_page(p, &probe.schema, &spec, &ht, &joined, sink, &mut w);
        }
    };
    pass(&mut sink);
    let before = ALLOCS.with(Cell::get);
    pass(&mut sink);
    let allocations = ALLOCS.with(Cell::get) - before;
    assert_eq!(w.pages, 2 * PAGES as u64);
    assert_eq!(w.hash_probes, w.tuples());
    assert!(w.agg_updates > 0, "Q14 joined nothing on {layout:?}");
    allocations
}

#[test]
fn warm_aggregating_probe_allocates_nothing() {
    for layout in [Layout::Pax, Layout::Nsm] {
        assert_eq!(warm_q14_probe_allocations(layout), 0, "{layout:?}");
    }
}

/// Allocations of two Q6 [`run_op`] calls on one [`OpScratch`] over the
/// first 100 LINEITEM pages presented `times` over (so later pages find the
/// scratch already sized by identical earlier ones): the first call on a
/// fresh scratch, the second on the scratch the first left warm.
fn driver_q6_allocations(layout: Layout, times: usize) -> (u64, u64) {
    const PAGES: usize = 100;
    let smartssd_query::OpTemplate::ScanAgg { spec, .. } = q6().op else {
        unreachable!("Q6 is a scan-aggregate")
    };
    let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), layout);
    b.extend(tpch::lineitem_rows(0.001, 42));
    let img = b.finish();
    let mut site = RecordingSite::new();
    for t in 0..times {
        site.load_pages(&img.pages()[..PAGES], (t * PAGES) as u64);
    }
    // The fake's own log must not grow inside the measured calls.
    site.calls.reserve(2 * (1 + 2 * times * PAGES));
    let table = TableRef {
        first_lba: 0,
        num_pages: (times * PAGES) as u64,
        schema: img.schema().clone(),
        layout,
    };
    let op = QueryOp::ScanAgg { table, spec };
    let mut scratch = OpScratch::default();
    let mut call = || {
        let before = ALLOCS.with(Cell::get);
        let run = run_op(&mut site, &op, 0, &mut scratch).unwrap();
        let allocations = ALLOCS.with(Cell::get) - before;
        assert_eq!(run.work.pages, (times * PAGES) as u64);
        assert!(
            run.work.agg_updates > 0,
            "Q6 selected nothing on {layout:?}"
        );
        allocations
    };
    (call(), call())
}

#[test]
fn a_driver_pass_allocates_per_call_not_per_page() {
    for layout in [Layout::Pax, Layout::Nsm] {
        let (cold, warm) = driver_q6_allocations(layout, 1);
        // Scratch buffers, the states, the page list: a handful, and the
        // same handful over twice the pages.
        assert!((1..16).contains(&cold), "{layout:?}: {cold} allocations");
        assert_eq!(driver_q6_allocations(layout, 2).0, cold, "{layout:?}");
        // On a warm scratch only the partial-aggregate states are new.
        assert_eq!(warm, 1, "{layout:?}");
    }
}
