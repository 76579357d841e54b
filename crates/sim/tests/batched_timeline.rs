//! Differential property tests: batched timeline advancement must be
//! bit-identical to the per-request sequential loop.
//!
//! [`Timeline::occupy_batch`] / [`TimelineBank::occupy_batch`] post `n`
//! homogeneous requests in one call instead of `n` `occupy` calls. No
//! library code calls them; they are kept for the frozen benchmark's bank
//! probe. These tests drive both formulations with the same arbitrary
//! schedule — interleaving single requests and batches so the batch calls
//! start from every reachable timeline state — and require exact equality
//! of every interval, the busy totals, the busy-until frontier, and
//! utilization. No tolerance: a one-nanosecond divergence would break the
//! simulator's reproducibility guarantee.

use proptest::prelude::*;
use smartssd_sim::{SimTime, Timeline, TimelineBank};

/// One step of a schedule: arrival time, per-request service, batch size.
/// `n == 1` steps exercise the degenerate batch; larger `n` the arithmetic
/// induction; `n == 0` must post nothing.
fn steps() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..50_000, 1u64..2_000, 0u64..12), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Timeline::occupy_batch` yields exactly the intervals of `n`
    /// sequential `occupy` calls, from any starting state.
    #[test]
    fn timeline_batch_equals_sequential_loop(sched in steps()) {
        let mut batched = Timeline::new();
        let mut looped = Timeline::new();
        let mut frontier = SimTime::ZERO;
        for (arrival, service, n) in sched {
            let at = SimTime::from_nanos(arrival);
            let batch = batched.occupy_batch(at, service, n);
            prop_assert_eq!(batch.len(), n);
            prop_assert_eq!(batch.is_empty(), n == 0);
            for k in 0..n {
                let expect = looped.occupy(at, service);
                let got = batch.get(k);
                prop_assert_eq!(got.start, expect.start, "interval {} start", k);
                prop_assert_eq!(got.end, expect.end, "interval {} end", k);
                frontier = expect.end;
            }
            // Lockstep invariants after every step, not just at the end.
            prop_assert_eq!(batched.busy_total_ns(), looped.busy_total_ns());
            prop_assert_eq!(batched.busy_until(), looped.busy_until());
        }
        if frontier > SimTime::ZERO {
            let u_b = batched.utilization(frontier);
            let u_l = looped.utilization(frontier);
            prop_assert_eq!(u_b.to_bits(), u_l.to_bits(), "utilization diverged");
        }
    }

    /// An empty batch is a no-op: it posts nothing and observes state only.
    #[test]
    fn timeline_empty_batch_posts_nothing(
        warm in prop::collection::vec((0u64..1_000, 1u64..500), 0..10),
        at in 0u64..10_000,
        service in 1u64..1_000,
    ) {
        let mut t = Timeline::new();
        for (a, s) in warm {
            t.occupy(SimTime::from_nanos(a), s);
        }
        let busy = t.busy_total_ns();
        let until = t.busy_until();
        let batch = t.occupy_batch(SimTime::from_nanos(at), service, 0);
        prop_assert!(batch.is_empty());
        prop_assert_eq!(t.busy_total_ns(), busy);
        prop_assert_eq!(t.busy_until(), until);
    }

    /// `TimelineBank::occupy_batch` reproduces the sequential dispatch
    /// exactly: same lane choice for every request (lowest index on
    /// `busy_until` ties), same intervals, same aggregate accounting.
    #[test]
    fn bank_batch_equals_sequential_loop(
        lanes in 1usize..6,
        sched in steps(),
    ) {
        let mut batched = TimelineBank::new(lanes);
        let mut looped = TimelineBank::new(lanes);
        let mut frontier = SimTime::ZERO;
        for (arrival, service, n) in sched {
            let at = SimTime::from_nanos(arrival);
            let batch = batched.occupy_batch(at, service, n);
            prop_assert_eq!(batch.len() as u64, n);
            for (k, (lane_b, iv_b)) in batch.iter().enumerate() {
                let (lane_l, iv_l) = looped.occupy_indexed(at, service);
                prop_assert_eq!(*lane_b, lane_l, "request {} took a different lane", k);
                prop_assert_eq!(iv_b.start, iv_l.start);
                prop_assert_eq!(iv_b.end, iv_l.end);
                frontier = iv_l.end;
            }
            prop_assert_eq!(batched.busy_total_ns(), looped.busy_total_ns());
            prop_assert_eq!(batched.drained_at(), looped.drained_at());
        }
        if frontier > SimTime::ZERO {
            let u_b = batched.utilization(frontier);
            let u_l = looped.utilization(frontier);
            prop_assert_eq!(u_b.to_bits(), u_l.to_bits(), "utilization diverged");
        }
    }
}
