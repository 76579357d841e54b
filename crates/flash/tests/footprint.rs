//! A flash device costs memory for what was written to it, not for its
//! geometry.
//!
//! Building a device allocates per block (a few counters and a free-list
//! entry) and nothing per page; page state appears with a block's first
//! program. On a geometry of 2^20 blocks and 2^28 pages, the eager layout
//! this replaced — a slot per physical page and a map entry per logical
//! one — would have asked for several gigabytes before the first write.
//! Nor does it cost memory for what was overwritten or trimmed: a stale
//! page's payload is dropped at once, not when GC erases its block.
//! The counting allocator is local to this test binary and counts per
//! thread, so the harness and other tests stay out of the numbers.

use bytes::Bytes;
use smartssd_flash::{FlashConfig, FlashSsd};
use smartssd_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Bytes this thread has ever allocated.
    static TOTAL: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(allocated: usize, freed: usize) {
    LIVE.with(|n| n.set(n.get() + allocated as i64 - freed as i64));
    TOTAL.with(|n| n.set(n.get() + allocated as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so bumping them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_device_costs_bytes_per_block_built_and_per_page_written() {
    let cfg = FlashConfig {
        channels: 8,
        chips_per_channel: 4,
        blocks_per_chip: 1 << 15,
        pages_per_block: 256,
        page_size: 512,
        ..FlashConfig::default()
    };
    let blocks = (cfg.channels * cfg.chips_per_channel * cfg.blocks_per_chip) as u64;
    assert_eq!(blocks, 1 << 20);
    assert_eq!(cfg.physical_pages(), 1 << 28);

    let (live_0, total_0) = (LIVE.with(Cell::get), TOTAL.with(Cell::get));
    let mut ssd = FlashSsd::new(cfg.clone());
    let built = TOTAL.with(Cell::get) - total_0;
    // Counters and a free-list entry per block; 2 KB covers the dies'
    // timelines and the config copies.
    assert!(
        built <= 48 * blocks + 2_048,
        "FlashSsd::new allocated {built} bytes for {blocks} blocks"
    );
    assert!(built >= 4 * blocks, "the counter counts: {built}");

    // One shared payload, so what is measured is the device's bookkeeping.
    // 8,192 pages stripe over the 32 dies and fill one block on each.
    let page = Bytes::from(vec![7u8; cfg.page_size]);
    let n = 8_192u64;
    for lba in 0..n {
        ssd.write(lba, page.clone(), SimTime::ZERO).unwrap();
    }
    let held = (LIVE.with(Cell::get) - live_0) as u64;
    assert!(
        held <= 96 * n + 48 * blocks + 2_048,
        "{held} bytes held after {n} pages on {blocks} blocks"
    );
    assert_eq!(ssd.stats().writes, n);
    assert_eq!(ssd.read(n - 1, SimTime::ZERO).unwrap().0, page);
}

#[test]
fn overwritten_and_trimmed_pages_hold_no_payload() {
    // The default geometry, on which 1,280 programs fill one block on each
    // of the 32 dies: the collector never runs, so nothing is erased.
    let cfg = FlashConfig::default();
    let (n, rewrites) = (256u64, 4u8);
    let mut ssd = FlashSsd::new(cfg.clone());
    let live_0 = LIVE.with(Cell::get);
    let held = || (LIVE.with(Cell::get) - live_0) as u64;
    let images = n * cfg.page_size as u64;
    // Page slots of the programmed blocks and the map, with room to spare.
    let bookkeeping = 96 * n * (u64::from(rewrites) + 1) + 48 * 1_024;

    for tag in 0..=rewrites {
        for lba in 0..n {
            let page = Bytes::from(vec![tag; cfg.page_size]);
            ssd.write(lba, page, SimTime::ZERO).unwrap();
        }
        let held = held();
        assert!(
            (images..images + bookkeeping).contains(&held),
            "{held} bytes held for {n} live pages of {images} bytes after {tag} overwrites"
        );
    }
    for lba in 0..n {
        ssd.trim(lba).unwrap();
    }
    assert!(
        held() < bookkeeping,
        "{} bytes held after trimming every page",
        held()
    );
    let stats = ssd.stats();
    assert_eq!((stats.erases, stats.gc_moves), (0, 0));
    assert_eq!(stats.writes, n * (u64::from(rewrites) + 1));
}
