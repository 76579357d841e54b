//! A counting global allocator for the traced run.
//!
//! Only the `ssdbench-traced` binary installs it; the timed binary keeps
//! the system allocator untouched. Even where installed it forwards
//! straight to the system allocator until [`start`] switches counting on,
//! so the probes and untraced reps of a traced run pay one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The allocator: `#[global_allocator] static A: Counting = Counting;`
pub struct Counting;

#[inline]
fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (relaxed atomics that publish no other data) and never touch the memory
// being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout (all paths above
        // forward to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Whether the running binary allocates through [`Counting`]: makes one
/// allocation and looks for it in the counters.
pub fn installed() -> bool {
    start();
    drop(std::hint::black_box(Box::new(0u8)));
    stop().allocs > 0
}

/// What was counted between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest number of bytes live at once, counting only memory
    /// allocated since [`start`].
    pub peak_live: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Switches counting off and returns the totals since [`start`].
pub fn stop() -> Counted {
    ON.store(false, Relaxed);
    Counted {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}
