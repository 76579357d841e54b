//! Replacing a table's rows lets the old pages go. Each
//! `update_table_rows` writes a fresh extent and trims the old one; the
//! flash drops a trimmed page's payload at once (GC later erases only its
//! bookkeeping), the device's decode memo (keyed by LBA, and read through
//! by both routes) drops a trimmed LBA's buffer, and the operator scratch on
//! each route re-keys its scan-aggregate memo on the new extent at the next
//! scan. The test runs ten rewrites twice, with and without warm Q6 scans on
//! both routes. It holds what the scanned run keeps beyond the unscanned one
//! under one image, what either run keeps after each cycle under one and a
//! half images, and the peak of each rewrite under two and a half. Any
//! holder that keeps a trimmed image alive for longer than its rewrite
//! breaks one of the three: a memo grows the scanned run's excess, the
//! flash grows both runs. The counting allocator is local to this test
//! binary, which holds this one test so that no other thread moves its
//! counters.

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

/// Bytes live after one rewrite cycle, and the highest they reached
/// during its `update_table_rows`, both counted from before the system was
/// built.
struct Cycle {
    live: u64,
    update_peak: u64,
}

/// Loads LINEITEM on a Smart SSD whose flash barely holds the addresses
/// the rewrites walk, then rewrites it `CYCLES` times, with [`rounds`]
/// after the load and after each rewrite.
fn rewrite_cycles(pages: u64, scan: bool) -> Vec<Cycle> {
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
            PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
            sys.update_table_rows(queries::LINEITEM, rows).unwrap();
            let update_peak = PEAK.load(Ordering::Relaxed) - before;
            rounds(&mut sys, scan);
            Cycle {
                live: LIVE.load(Ordering::Relaxed) - before,
                update_peak,
            }
        })
        .collect()
}

/// The same rewrites without scans hold exactly what the flash and the
/// system hold; what the scanned run holds beyond that is what the scans
/// left behind, and it must stay under one image. Either run must hold
/// under one and a half images after every cycle, whatever the collector
/// has erased, and a rewrite, which holds the old and the new extent at
/// once, under two and a half at its peak.
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
    let images = |bytes: u64| bytes as f64 / image as f64;
    for (cycle, (s, u)) in scanned.iter().zip(&unscanned).enumerate() {
        let cycle = cycle + 1;
        let extra = s.live.saturating_sub(u.live);
        assert!(
            extra < image,
            "after rewrite {cycle}: scans keep {extra} bytes beyond the flash's for one {image}-byte image ({:.2}x)",
            images(extra)
        );
        for (run, c) in [("scanned", s), ("unscanned", u)] {
            assert!(
                2 * c.live < 3 * image,
                "after rewrite {cycle}, the {run} run holds {} bytes, {:.2} images of {image} bytes",
                c.live,
                images(c.live)
            );
            assert!(
                2 * c.update_peak < 5 * image,
                "rewrite {cycle} of the {run} run peaks at {} bytes, {:.2} images of {image} bytes",
                c.update_peak,
                images(c.update_peak)
            );
        }
    }
}
