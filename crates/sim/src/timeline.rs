//! FIFO resource timelines: the core serialization primitive of the
//! simulation.

use crate::time::SimTime;

/// A half-open interval `[start, end)` during which a resource served one
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// When service began (request arrival or when the resource freed up,
    /// whichever is later).
    pub start: SimTime,
    /// When service completed; the resource is free again from this instant.
    pub end: SimTime,
}

impl Interval {
    /// Length of the interval.
    #[inline]
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// A single hardware resource that serves requests one at a time, in FIFO
/// order: a flash channel, the shared DRAM bus, a host-interface link, one
/// CPU core.
///
/// The timeline tracks when the resource next becomes free (`busy_until`) and
/// how much total busy time it has accumulated (used for utilization and
/// energy accounting).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy_until: SimTime,
    busy_total_ns: u64,
    requests: u64,
}

impl Timeline {
    /// A fresh, idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `service_ns` nanoseconds, starting no
    /// earlier than `earliest`. Returns the actual service interval.
    pub fn occupy(&mut self, earliest: SimTime, service_ns: u64) -> Interval {
        let start = earliest.max(self.busy_until);
        let end = start + SimTime::from_nanos(service_ns);
        self.busy_until = end;
        self.busy_total_ns = self.busy_total_ns.saturating_add(service_ns);
        self.requests += 1;
        Interval { start, end }
    }

    /// Posts `n` back-to-back requests of `service_ns` each, all arriving at
    /// `earliest`, in one call — the run-length form of calling
    /// [`Timeline::occupy`] `n` times in a loop.
    ///
    /// Equivalence argument: the first request starts at
    /// `max(earliest, busy_until)` exactly as `occupy` would. Every later
    /// request then finds `busy_until` equal to its predecessor's end, which
    /// is `>= earliest`, so `max(earliest, busy_until)` degenerates to
    /// "start where the predecessor ended". The k-th interval is therefore
    /// `[first_start + k*service, first_start + (k+1)*service)` by
    /// induction, and the returned [`BatchIntervals`] yields each one in
    /// O(1) arithmetic instead of O(n) bookkeeping. Aggregate state updates
    /// the same way: `busy_until` advances by `n*service` past the first
    /// start, `busy_total_ns` grows by `n*service` (saturating, as the loop
    /// would saturate), and `requests` by `n`.
    ///
    /// Kept with its equivalence tests beside
    /// [`TimelineBank::occupy_batch`], the frozen benchmark's probe; no
    /// library code calls it (`scripts/check.sh`).
    pub fn occupy_batch(&mut self, earliest: SimTime, service_ns: u64, n: u64) -> BatchIntervals {
        if n == 0 {
            return BatchIntervals {
                first_start: earliest.max(self.busy_until),
                service_ns,
                n: 0,
            };
        }
        let first_start = earliest.max(self.busy_until);
        let total = service_ns.saturating_mul(n);
        self.busy_until = first_start + SimTime::from_nanos(total);
        self.busy_total_ns = self.busy_total_ns.saturating_add(total);
        self.requests += n;
        BatchIntervals {
            first_start,
            service_ns,
            n,
        }
    }

    /// The instant the resource next becomes free.
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated so far, in nanoseconds.
    #[inline]
    pub fn busy_total_ns(&self) -> u64 {
        self.busy_total_ns
    }

    /// Number of requests served.
    #[inline]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Fraction of `[0, elapsed]` this resource spent busy. Returns 0 for a
    /// zero-length run.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        let e = elapsed.as_nanos();
        if e == 0 {
            0.0
        } else {
            (self.busy_total_ns as f64 / e as f64).min(1.0)
        }
    }

    /// Resets the timeline to idle, clearing accumulated statistics.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// The service intervals produced by one [`Timeline::occupy_batch`] call.
///
/// Back-to-back homogeneous service means interval `k` is pure arithmetic
/// on the first start time; nothing is allocated per request. Kept only
/// with that call; no library code names it (`scripts/check.sh`).
#[derive(Debug, Clone, Copy)]
pub struct BatchIntervals {
    first_start: SimTime,
    service_ns: u64,
    n: u64,
}

impl BatchIntervals {
    /// Number of intervals in the batch.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when the batch posted no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `k`-th service interval (0-based). Panics if `k >= len()`.
    #[inline]
    pub fn get(&self, k: u64) -> Interval {
        assert!(k < self.n, "batch interval {k} out of range ({})", self.n);
        let start = self.first_start + SimTime::from_nanos(self.service_ns.saturating_mul(k));
        Interval {
            start,
            end: start + SimTime::from_nanos(self.service_ns),
        }
    }

    /// Completion time of the last request; `first_start` for an empty
    /// batch.
    #[inline]
    pub fn last_end(&self) -> SimTime {
        self.first_start + SimTime::from_nanos(self.service_ns.saturating_mul(self.n))
    }

    /// Iterates the intervals in posting order.
    pub fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
        (0..self.n).map(|k| self.get(k))
    }
}

/// A bank of identical timelines with earliest-available dispatch: models a
/// pool of interchangeable units (CPU cores, flash planes) any of which can
/// serve the next request.
#[derive(Debug, Clone)]
pub struct TimelineBank {
    lanes: Vec<Timeline>,
}

impl TimelineBank {
    /// Creates a bank of `n` idle lanes. `n` must be at least 1.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a timeline bank needs at least one lane");
        Self {
            lanes: vec![Timeline::new(); n],
        }
    }

    /// Number of lanes in the bank.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Dispatches a request to the lane that frees up soonest.
    pub fn occupy(&mut self, earliest: SimTime, service_ns: u64) -> Interval {
        self.occupy_indexed(earliest, service_ns).1
    }

    /// Like [`Self::occupy`], additionally returning the index of the lane
    /// that served the request (used to attribute trace spans to a specific
    /// core/unit). Ties pick the lowest-indexed lane, same as `occupy`.
    pub fn occupy_indexed(&mut self, earliest: SimTime, service_ns: u64) -> (usize, Interval) {
        let (idx, lane) = self
            .lanes
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| l.busy_until())
            .expect("bank is non-empty");
        (idx, lane.occupy(earliest, service_ns))
    }

    /// Posts `n` homogeneous requests in one call — equivalent to calling
    /// [`Self::occupy_indexed`] `n` times with the same arguments — and
    /// returns each request's lane and interval in posting order.
    ///
    /// Dispatch order is reproduced exactly: a min-heap over
    /// `(busy_until, lane_index)` pops the same lane the sequential loop's
    /// `min_by_key` scan would pick (lowest index on ties), but each
    /// selection costs `O(log lanes)` instead of a full lane scan.
    ///
    /// Kept only for the frozen benchmark's `sim.bank_batch_ns_per_interval`
    /// probe; `scripts/check.sh` keeps library code off it.
    pub fn occupy_batch(
        &mut self,
        earliest: SimTime,
        service_ns: u64,
        n: u64,
    ) -> Vec<(usize, Interval)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, l)| Reverse((l.busy_until(), i)))
            .collect();
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let Reverse((_, i)) = heap.pop().expect("bank is non-empty");
            let iv = self.lanes[i].occupy(earliest, service_ns);
            heap.push(Reverse((self.lanes[i].busy_until(), i)));
            out.push((i, iv));
        }
        out
    }

    /// Sum of busy time across all lanes, in nanoseconds.
    pub fn busy_total_ns(&self) -> u64 {
        self.lanes.iter().map(Timeline::busy_total_ns).sum()
    }

    /// The instant *all* lanes are free.
    pub fn drained_at(&self) -> SimTime {
        self.lanes
            .iter()
            .map(Timeline::busy_until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Average per-lane utilization over `[0, elapsed]`.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        let e = elapsed.as_nanos();
        if e == 0 {
            return 0.0;
        }
        let cap = e as f64 * self.lanes.len() as f64;
        (self.busy_total_ns() as f64 / cap).min(1.0)
    }

    /// Resets all lanes to idle.
    pub fn reset(&mut self) {
        for l in &mut self.lanes {
            l.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialization() {
        let mut t = Timeline::new();
        let a = t.occupy(SimTime::ZERO, 100);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_nanos(100));
        // Arrives while busy: queued behind the first request.
        let b = t.occupy(SimTime::from_nanos(50), 100);
        assert_eq!(b.start, SimTime::from_nanos(100));
        assert_eq!(b.end, SimTime::from_nanos(200));
        // Arrives after an idle gap: starts at its arrival time.
        let c = t.occupy(SimTime::from_nanos(500), 100);
        assert_eq!(c.start, SimTime::from_nanos(500));
        assert_eq!(t.busy_total_ns(), 300);
        assert_eq!(t.requests(), 3);
    }

    #[test]
    fn utilization_excludes_idle_gaps() {
        let mut t = Timeline::new();
        t.occupy(SimTime::ZERO, 100);
        t.occupy(SimTime::from_nanos(900), 100);
        let u = t.utilization(SimTime::from_nanos(1000));
        assert!((u - 0.2).abs() < 1e-9);
    }

    #[test]
    fn utilization_zero_elapsed() {
        let t = Timeline::new();
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn bank_dispatches_to_earliest_lane() {
        let mut bank = TimelineBank::new(2);
        let a = bank.occupy(SimTime::ZERO, 100);
        let b = bank.occupy(SimTime::ZERO, 100);
        // Two lanes: both requests start immediately.
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO);
        // Third waits for the first lane to free.
        let c = bank.occupy(SimTime::ZERO, 100);
        assert_eq!(c.start, SimTime::from_nanos(100));
        assert_eq!(bank.drained_at(), SimTime::from_nanos(200));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn bank_rejects_zero_lanes() {
        TimelineBank::new(0);
    }

    #[test]
    fn occupy_batch_matches_sequential_loop() {
        let mut seq = Timeline::new();
        seq.occupy(SimTime::from_nanos(10), 30); // pre-existing state
        let mut bat = seq.clone();

        let loop_ivs: Vec<Interval> = (0..5).map(|_| seq.occupy(SimTime::ZERO, 7)).collect();
        let batch = bat.occupy_batch(SimTime::ZERO, 7, 5);
        assert_eq!(batch.len(), 5);
        assert_eq!(loop_ivs, batch.iter().collect::<Vec<_>>());
        assert_eq!(batch.last_end(), loop_ivs.last().unwrap().end);
        assert_eq!(seq.busy_until(), bat.busy_until());
        assert_eq!(seq.busy_total_ns(), bat.busy_total_ns());
        assert_eq!(seq.requests(), bat.requests());
    }

    #[test]
    fn occupy_batch_empty_posts_nothing() {
        let mut t = Timeline::new();
        t.occupy(SimTime::ZERO, 50);
        let before = t.clone();
        let batch = t.occupy_batch(SimTime::ZERO, 9, 0);
        assert!(batch.is_empty());
        assert_eq!(batch.last_end(), before.busy_until());
        assert_eq!(t.busy_until(), before.busy_until());
        assert_eq!(t.busy_total_ns(), before.busy_total_ns());
        assert_eq!(t.requests(), before.requests());
    }

    #[test]
    fn bank_occupy_batch_matches_sequential_loop() {
        let mut seq = TimelineBank::new(3);
        // Skew the lanes so dispatch order is non-trivial.
        seq.occupy(SimTime::ZERO, 100);
        seq.occupy(SimTime::ZERO, 40);
        let mut bat = seq.clone();

        let loop_out: Vec<(usize, Interval)> = (0..10)
            .map(|_| seq.occupy_indexed(SimTime::from_nanos(20), 25))
            .collect();
        let batch_out = bat.occupy_batch(SimTime::from_nanos(20), 25, 10);
        assert_eq!(loop_out, batch_out);
        assert_eq!(seq.busy_total_ns(), bat.busy_total_ns());
        assert_eq!(seq.drained_at(), bat.drained_at());
    }

    #[test]
    fn reset_clears_state() {
        let mut t = Timeline::new();
        t.occupy(SimTime::ZERO, 100);
        t.reset();
        assert_eq!(t.busy_total_ns(), 0);
        assert_eq!(t.busy_until(), SimTime::ZERO);
    }
}
