//! A fleet costs memory per device for what the device holds, not for its
//! flash geometry: 64 Smart SSDs of the default 8 x 4 x 256 x 64 geometry
//! (two million physical pages each) build, load a small partitioned table
//! and answer a query inside a byte budget that a slot per physical page
//! (29 MB a device) would have passed on the third device. Each shard's
//! host buffer pool keeps its default capacity of 65,536 pages and holds
//! memory only for the pages resident in it. The counting allocator is
//! local to this test binary; the budget covers the peak over all its
//! threads.

use smartssd::{DeviceKind, Layout, Route, RunOptions, SystemBuilder};
use smartssd_workload::{q6, queries, tpch};
use std::alloc::{GlobalAlloc, Layout as MemLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes allocated and not freed, and the highest that has been.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(allocated: usize, freed: usize) {
    // Statistics only: nothing is published through these counters.
    let live = LIVE.fetch_add(allocated as u64, Ordering::Relaxed) + allocated as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LIVE.fetch_sub(freed as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics, so bumping
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: MemLayout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: MemLayout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: MemLayout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: MemLayout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn sixty_four_devices_build_load_and_answer_within_budget() {
    const DEVICES: usize = 64;
    /// Half a megabyte a device: its 8,192 blocks' counters and free-list
    /// entries are 0.3 MB of that.
    const BUILD_BUDGET: u64 = DEVICES as u64 * 512 * 1024;
    /// The table is 1,053 pages of 8 KB (8.6 MB), held once by the
    /// devices; twice that again covers the rows in flight while loading.
    const LOADED_BUDGET: u64 = BUILD_BUDGET + 3 * 1_053 * 8_192;

    let before = LIVE.load(Ordering::Relaxed);
    let mut array = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(DEVICES)
        .build();
    let built = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        built <= BUILD_BUDGET,
        "{DEVICES} devices hold {built} bytes"
    );

    let schema = tpch::lineitem_schema();
    array
        .load_partitioned(queries::LINEITEM, &schema, tpch::lineitem_rows(0.01, 42))
        .unwrap();
    array.finish_load();
    let answer = array.run(&q6(), RunOptions::routed(Route::Device)).unwrap();
    drop(answer);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        peak <= LOADED_BUDGET,
        "peak of {peak} bytes over build, load and one query"
    );
    // The counter counts: the array holds at least its blocks' counters.
    assert!(built >= DEVICES as u64 * 8_192 * 8, "{built}");
}
