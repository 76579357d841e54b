//! A warm scan allocates nothing per page.
//!
//! The engines run a scan through one [`ScanScratch`] per operator
//! execution. Once the scratch has seen the pages' shape, a further pass
//! over 100 Q6 pages through that same entry point must not touch the
//! heap at all — on either layout. The counting allocator is local to this
//! test binary, and counts per thread so the two tests cannot see each
//! other (or the harness).

use smartssd_exec::{ScanScratch, WorkCounts};
use smartssd_storage::expr::AggState;
use smartssd_storage::{Layout, TableBuilder};
use smartssd_workload::{q6, queries, tpch};
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
    let mut scratch = ScanScratch::new();
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
