//! Replacing a table's rows lets the old pages go. Each
//! `update_table_rows` writes a fresh extent and trims the old one; the
//! decode memos (the device's and the host route's, both keyed by LBA) drop
//! a trimmed LBA's buffer, and the operator scratch on each route re-keys
//! its scan-aggregate memo on the new extent at the next scan. The flash
//! itself keeps a trimmed page until garbage collection erases its block,
//! so the test runs ten rewrites twice, with and without warm Q6 scans on
//! both routes, and holds what the scanned run keeps beyond the unscanned
//! one under one image. The decode memos once kept every version alive for
//! the life of the system: about one image more per rewrite once the
//! collector ran. The counting allocator is local to this test binary,
//! which holds this one test so that no other thread moves its counters.

use smartssd::{DeviceKind, Layout, Route, RunOptions, System, SystemBuilder};
use smartssd_flash::FlashConfig;
use smartssd_storage::{TableBuilder, PAGE_SIZE};
use smartssd_workload::{q6, queries, tpch};
use std::alloc::{GlobalAlloc, Layout as MemLayout, System as Heap};
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

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counters are
// atomics, so bumping them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: MemLayout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: MemLayout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: MemLayout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from the system allocator with this layout.
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: MemLayout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr` came from the system allocator with this layout;
        // `new_size` is the caller's to vouch for.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A round per route, as `update_mix` runs them: the table is marked
/// dirty, Q6 runs twice on the host route (when `scan`), the table is
/// checkpointed, and Q6 runs twice on the device route (when `scan`). The
/// scans leave every memo warm on the current extent; the checkpoints
/// program the table again, so the flash's garbage collector runs and
/// erases blocks of trimmed pages.
fn rounds(sys: &mut System, scan: bool) {
    for route in [Route::Host, Route::Device] {
        if route == Route::Host {
            sys.mark_dirty(queries::LINEITEM);
        } else {
            sys.checkpoint(queries::LINEITEM).unwrap();
        }
        for _ in 0..2 * usize::from(scan) {
            let r = sys.run(&q6(), RunOptions::routed(route)).unwrap();
            assert_eq!(r.route, route);
        }
    }
}

/// 12,000 rows: LINEITEM is 6,000,000 rows at scale factor 1.
const SF: f64 = 0.002;
const CYCLES: u64 = 10;

/// Loads LINEITEM on a Smart SSD whose flash barely holds the addresses
/// the rewrites walk, then rewrites it `CYCLES` times, with [`rounds`]
/// after the load and after each rewrite. Returns the bytes live after
/// each cycle, counted from before the system was built.
fn rewrite_cycles(pages: u64, scan: bool) -> Vec<u64> {
    // A rewrite goes to a fresh extent, so the run walks (CYCLES + 1) *
    // pages logical addresses; the smallest geometry that holds them keeps
    // the garbage collector busy.
    let mut flash = FlashConfig {
        pages_per_block: 16,
        gc_low_water_blocks: 2,
        ..FlashConfig::default()
    };
    let row = (flash.channels * flash.chips_per_channel * flash.pages_per_block) as f64;
    let logical = ((CYCLES + 1) * pages) as f64 * 1.02;
    flash.blocks_per_chip = (logical / (1.0 - flash.overprovision) / row).ceil() as usize;

    let before = LIVE.load(Ordering::Relaxed);
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .flash(flash)
        .build();
    let rows = tpch::lineitem_rows(SF, 42);
    sys.load_table_rows(queries::LINEITEM, &tpch::lineitem_schema(), rows)
        .unwrap();
    sys.finish_load();
    rounds(&mut sys, scan);
    (1..=CYCLES)
        .map(|cycle| {
            let rows = tpch::lineitem_rows(SF, 42 + cycle);
            sys.update_table_rows(queries::LINEITEM, rows).unwrap();
            rounds(&mut sys, scan);
            LIVE.load(Ordering::Relaxed) - before
        })
        .collect()
}

/// The flash keeps a trimmed page until garbage collection erases its
/// block, so how many old images are live depends on the collector. The
/// same rewrites without scans hold exactly what the flash and the system
/// hold; what the scanned run holds beyond that is what the scans left
/// behind, and it must stay under one image. Before trims reached the
/// decode memos, it grew by about one image a cycle once the collector
/// ran.
#[test]
fn scans_keep_no_trimmed_image_alive() {
    let pages = {
        let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), Layout::Pax);
        b.extend(tpch::lineitem_rows(SF, 42));
        b.finish().num_pages() as u64
    };
    let image = pages * PAGE_SIZE as u64;
    assert!(pages >= 150, "{pages} pages");
    let unscanned = rewrite_cycles(pages, false);
    let scanned = rewrite_cycles(pages, true);
    for (cycle, (s, u)) in scanned.iter().zip(&unscanned).enumerate() {
        let extra = s.saturating_sub(*u);
        assert!(
            extra < image,
            "after rewrite {}: scans keep {extra} bytes beyond the flash's for one {image}-byte image ({:.2}x)",
            cycle + 1,
            extra as f64 / image as f64
        );
    }
}
