//! A warm device session allocates nothing of its own.
//!
//! The device keeps its session slots and its operator driver's buffers
//! from one `OPEN` to the next. So once a device has run one Q6 session, a
//! second `OPEN` → `GET`s → `CLOSE` over the same table touches the heap
//! once: for the partial-aggregate vector its result batch carries to the
//! host. The counting allocator is local to
//! this test binary, and counts per thread so the tests cannot see each
//! other (or the harness).

use smartssd_device::{DeviceConfig, GetResponse, SmartSsd};
use smartssd_exec::QueryOp;
use smartssd_flash::FlashConfig;
use smartssd_sim::SimTime;
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

/// One Q6 session at `now`, polled at the device's hints until `Done`, then
/// closed; returns its allocations and the batches it delivered.
fn session(dev: &mut SmartSsd, op: &QueryOp, now: SimTime) -> (u64, usize) {
    let before = ALLOCS.with(Cell::get);
    let sid = dev.open(op, now).unwrap();
    let (mut t, mut batches) = (now, 0);
    loop {
        match dev.get(sid, t).unwrap() {
            GetResponse::Running { ready_at } => t = ready_at,
            GetResponse::Batch(batch) => {
                assert!(batch.aggs.is_some(), "Q6 returns partial aggregates");
                batches += 1;
            }
            GetResponse::Done => break,
        }
    }
    dev.close(sid).unwrap();
    (ALLOCS.with(Cell::get) - before, batches)
}

#[test]
fn a_warm_q6_session_allocates_only_its_partial_aggregates() {
    for layout in [Layout::Pax, Layout::Nsm] {
        let smartssd_query::OpTemplate::ScanAgg { spec, .. } = q6().op else {
            unreachable!("Q6 is a scan-aggregate")
        };
        let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), layout);
        b.extend(tpch::lineitem_rows(0.001, 42));
        let img = b.finish();
        let mut dev = SmartSsd::new(FlashConfig::default(), DeviceConfig::default());
        let table = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        let op = QueryOp::ScanAgg { table, spec };

        let (cold, _) = session(&mut dev, &op, SimTime::ZERO);
        let (warm, batches) = session(&mut dev, &op, SimTime::from_millis(100));
        assert!(
            cold > warm,
            "{layout:?}: the first session sizes the buffers"
        );
        assert_eq!(batches, 1, "{layout:?}: one batch of partials");
        assert_eq!(warm, 1, "{layout:?}: {warm} allocations");
        assert_eq!(dev.open_sessions(), 0);
    }
}
