//! A partitioned load stages each row as its encoded record, not as a
//! `Tuple`: 120,000 LINEITEM rows loaded onto 16 PAX devices peak under
//! 1.5 times the bytes of the pages they become (1.09 times when this was
//! written). The records cost about the pages' own bytes, and each device's
//! records are freed once its pages, which the device then holds, are
//! built; one `Vec<Tuple>` per device peaked at 2.85 times. The counting
//! allocator is local to this test binary, which holds this one test so
//! that no other thread moves its counters.

use smartssd::{DeviceKind, Layout, SystemBuilder};
use smartssd_storage::PAGE_SIZE;
use smartssd_workload::{queries, tpch};
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
fn a_sixteen_device_load_peaks_near_its_page_bytes() {
    const DEVICES: usize = 16;
    /// 120,000 rows: LINEITEM is 6,000,000 rows at scale factor 1.
    const SF: f64 = 0.02;

    let mut array = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .tweak(|c| c.bufferpool_pages = 1_024)
        .devices(DEVICES)
        .build();
    let schema = tpch::lineitem_schema();
    let rows = tpch::lineitem_rows(SF, 42);
    assert_eq!(rows.size_hint(), (120_000, Some(120_000)));

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    array
        .load_partitioned(queries::LINEITEM, &schema, rows)
        .unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;

    // Read before `finish_load` zeroes the flash statistics.
    let pages: u64 = (0..DEVICES)
        .map(|d| array.device(d).flash.stats().writes)
        .sum();
    let image = pages * PAGE_SIZE as u64;
    assert!(pages >= 2_000, "{pages} pages");
    assert!(
        peak * 2 <= image * 3,
        "peak of {peak} bytes loading {image} bytes of pages ({:.2}x)",
        peak as f64 / image as f64
    );
}
