//! Session-slot admission: the waiting room between arrivals and device
//! session slots, plus the arena that owns deferred arrivals' state.
//!
//! [`WaitSet`] implements start-time fair queueing (SFQ) with strict
//! priority lanes over per-tenant FIFO queues, or one global FIFO when
//! fairness is off. There is one engine: a [`KeyedMinHeap`] holds one live
//! entry per backlogged queue, keyed by the queue's *effective* grant key
//! `(lane, max(vclock, finish[q]))` with the queue index as the heap's
//! tie-break id — the `(lane, start_tag, tenant)` order a linear scan over
//! the registry would grant in. Keys are monotone (the virtual clock and
//! finish tags only grow), so a stored key is always a lower bound and the
//! heap's refresh-on-pop lazy invalidation recovers the true minimum:
//! storing the raw finish tag would *not* be enough, because two tenants
//! whose tags are both below the virtual clock must tie-break by index, not
//! by tag. Pop is O(log T) plus an amortized refresh per vclock overtake.
//! Under fair queueing every tenant has its own queue; with fairness off
//! all tenants share queue 0, the heap never holds more than that one entry
//! and the grant order is arrival order.
//!
//! The executable specification is the test module's `ScanSet`, the
//! `min_by_key` linear scan over every registered tenant that the heap
//! replaced: the differential proptests below replay random
//! push/pop/charge/cancel schedules through both and demand grant-for-grant
//! equality (and, with fairness off, equality with a plain `VecDeque`).
//!
//! Entries are arena slot ids into a [`PendingSlab`], the PR 6-style slab
//! that owns each deferred arrival's `WorkloadItem` and cancellation flag.
//! Cancellation is event-driven: the scheduler marks the slab entry
//! canceled and calls [`WaitSet::cancel`] to fix the counters, leaving the
//! queue entry behind as a tombstone that [`WaitSet::pop`] skips (and
//! frees) lazily — no queue retain-scan ever runs.

use crate::serving::TenantSpec;
use crate::workload::WorkloadItem;
use smartssd_sim::{KeyedMinHeap, SimTime};
use std::collections::VecDeque;

/// Fixed-point scale for WFQ virtual time: finish tags advance by
/// `service_ns * WFQ_SCALE / weight`, so integer division keeps sub-weight
/// precision without floats (determinism) and a u128 never overflows on
/// any representable workload.
const WFQ_SCALE: u128 = 1 << 20;

/// The waiting room for device session slots: per-tenant FIFO queues under
/// start-time fair queueing (SFQ) with strict priority lanes, or one
/// global FIFO when fairness is off. With a single (implicit) tenant every
/// mode degenerates to exactly the pre-serving FIFO, preserving
/// byte-identical schedules for tenant-unaware workloads.
///
/// The SFQ bookkeeping runs on *simulated* time: when a tenant's query is
/// granted device service costing `c` simulated nanoseconds, the tenant's
/// finish tag advances by `c / weight` (scaled), and the virtual clock
/// jumps to the granted start tag `max(vclock, finish[t])`. A slot is
/// granted to the lowest lane first, then the smallest start tag, then the
/// lowest tenant index — so a newly active tenant starts at the current
/// virtual clock (no banked credit), and any nonzero-weight tenant's tag
/// eventually becomes the minimum of its lane: no starvation within a
/// lane. Host-routed work never charges virtual time (it consumes no
/// session slot).
///
/// Queue entries are [`PendingSlab`] slot ids. A canceled waiter's entry
/// stays in its queue as a tombstone; [`WaitSet::cancel`] pre-decrements
/// the counters and [`WaitSet::pop`] skips (and reports) tombstones via
/// its `dead` callback without ever scanning a queue.
pub(crate) struct WaitSet {
    /// FIFO queues of `(slab slot, tenant)`: one per tenant under fair
    /// queueing, one shared by every tenant with fairness off.
    queues: Vec<VecDeque<(u32, u32)>>,
    /// Waiting count per tenant, for per-tenant queue bounds (all modes).
    /// Counts only live (non-tombstone) waiters.
    waiting: Vec<usize>,
    /// Per-tenant virtual finish tags.
    finish: Vec<u128>,
    /// The scheduler's virtual clock: start tag of the last grant.
    vclock: u128,
    lanes: Vec<u8>,
    weights: Vec<u64>,
    /// Live (non-tombstone) entries across all queues.
    len: usize,
    /// One live entry per backlogged queue, keyed by the effective grant
    /// key at push time (a lower bound on the current effective key).
    heap: KeyedMinHeap<(u8, u128)>,
    /// Epoch per queue: bumped whenever the queue's live heap entry is
    /// consumed or re-armed, so stale heap entries identify themselves.
    epoch: Vec<u32>,
}

impl WaitSet {
    pub(crate) fn new(tenants: &[TenantSpec], fair: bool) -> Self {
        let n = tenants.len().max(1);
        let queues = if fair { n } else { 1 };
        Self {
            queues: (0..queues).map(|_| VecDeque::new()).collect(),
            waiting: vec![0; n],
            finish: vec![0; n],
            vclock: 0,
            lanes: tenants.iter().map(|t| t.lane).chain([0]).take(n).collect(),
            weights: tenants
                .iter()
                .map(|t| t.weight)
                .chain([1])
                .take(n)
                .collect(),
            len: 0,
            heap: KeyedMinHeap::new(),
            epoch: vec![0; queues],
        }
    }

    /// Arms (or re-arms) queue `q`'s live heap entry at its current
    /// effective grant key — lane first, then the start tag
    /// `max(vclock, finish)`, both of which only grow over a run —
    /// invalidating any previous entry via the epoch bump. The shared
    /// queue of a fairness-off set borrows tenant 0's key; it has no rival
    /// to be ordered against.
    fn arm(&mut self, q: usize) {
        self.epoch[q] = self.epoch[q].wrapping_add(1);
        let key = (self.lanes[q], self.vclock.max(self.finish[q]));
        self.heap.push(key, q as u32, self.epoch[q]);
    }

    /// Enqueues the waiter in `slot` for `tenant`.
    pub(crate) fn push(&mut self, slot: u32, tenant: usize) {
        self.waiting[tenant] += 1;
        self.len += 1;
        // The tenant's own queue, or the one shared queue (fairness off).
        let q = tenant.min(self.queues.len() - 1);
        let newly_backlogged = self.queues[q].is_empty();
        self.queues[q].push_back((slot, tenant as u32));
        if newly_backlogged {
            self.arm(q);
        }
    }

    /// Removes a canceled waiter from the books. Its queue entry stays
    /// behind as a tombstone for [`WaitSet::pop`] to skip lazily; only the
    /// counters move now, so per-tenant queue bounds see the cancellation
    /// immediately.
    pub(crate) fn cancel(&mut self, tenant: usize) {
        debug_assert!(self.waiting[tenant] > 0, "cancel of a non-waiting tenant");
        self.waiting[tenant] -= 1;
        self.len -= 1;
    }

    /// The next waiter to admit: the head of the (lane, start tag, queue
    /// index)-minimal queue — global arrival order with fairness off.
    /// `dead` is consulted for every candidate entry: returning `true`
    /// marks it a tombstone (the callback should release its slab slot)
    /// and the pop moves on — tombstones were already un-counted by
    /// [`WaitSet::cancel`].
    pub(crate) fn pop(&mut self, mut dead: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        loop {
            let Self {
                heap,
                epoch,
                lanes,
                finish,
                vclock,
                queues,
                ..
            } = self;
            // A queue's stored key can be stale low (the vclock may have
            // overtaken its tag since the push); the heap refreshes such
            // entries on the fly. Stored keys are always lower bounds, so
            // an exact match is the true minimum — including the index
            // tie-break, since a same-key rival with a smaller index would
            // have had to store a strictly larger key to sort after this
            // entry, and keys never shrink.
            // Every non-empty queue holds exactly one current-epoch heap
            // entry (`push` arms on empty → non-empty, the re-arm below
            // covers every pop that leaves entries), and `len > 0` means
            // some queue is non-empty.
            let q = heap
                .pop_min(|id, e| {
                    let id = id as usize;
                    if epoch[id] != e || queues[id].is_empty() {
                        None
                    } else {
                        Some((lanes[id], (*vclock).max(finish[id])))
                    }
                })
                .expect("len counts live entries, so a live heap entry exists")
                as usize;
            // `pop_min`'s refresh just rejected every empty queue, so
            // `q` is not one.
            let (slot, tenant) = self.queues[q]
                .pop_front()
                .expect("armed queues have waiters");
            // The pop consumed the queue's live entry; re-arm while it
            // still has queued waiters (tombstones included — they are
            // discovered and skipped only when popped).
            if !self.queues[q].is_empty() {
                self.arm(q);
            }
            if dead(slot) {
                continue;
            }
            self.waiting[tenant as usize] -= 1;
            self.len -= 1;
            return Some(slot);
        }
    }

    /// Charges `tenant` for `cost` of simulated device service and
    /// advances the virtual clock to the grant's start tag. No heap
    /// maintenance is needed: stored keys become (possibly stale) lower
    /// bounds, which the heap's refresh-on-pop repairs lazily.
    pub(crate) fn charge(&mut self, tenant: usize, cost: SimTime) {
        let start = self.vclock.max(self.finish[tenant]);
        self.finish[tenant] =
            start + cost.as_nanos() as u128 * WFQ_SCALE / u128::from(self.weights[tenant]);
        self.vclock = start;
    }

    /// Total live waiters across all tenants (tombstones excluded).
    pub(crate) fn total_waiting(&self) -> usize {
        self.len
    }

    /// Smallest weight among tenants with at least one live waiter;
    /// `None` when nothing waits. The brownout rule sheds an arrival only
    /// when its tenant is (one of) the lightest already queueing. A scan
    /// of the registry, made only for arrivals deferred past a configured
    /// `BrownoutPolicy::max_waiting`; no measured workload pairs brownout
    /// with a large registry, so it has not earned an index.
    pub(crate) fn min_waiting_weight(&self) -> Option<u64> {
        self.waiting
            .iter()
            .zip(&self.weights)
            .filter(|(n, _)| **n > 0)
            .map(|(_, w)| *w)
            .min()
    }

    /// The registered weight of `tenant`.
    pub(crate) fn weight_of(&self, tenant: usize) -> u64 {
        self.weights[tenant]
    }

    /// Live waiters for `tenant` (tombstones excluded).
    pub(crate) fn waiting_for(&self, tenant: usize) -> usize {
        self.waiting[tenant]
    }

    /// Whether no live waiters remain (tombstones may linger).
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One deferred arrival, parked in the [`PendingSlab`] while it waits for
/// a session slot.
pub(crate) struct Pending {
    /// The arrival itself (the scheduler's only copy once deferred).
    pub item: WorkloadItem,
    /// Submission index, for outcome recording.
    pub index: usize,
    /// Set by the event-driven cancellation path: the entry is a tombstone
    /// whose outcome was already recorded; [`WaitSet::pop`] frees it when
    /// its queue position surfaces.
    pub canceled: bool,
}

/// Arena for deferred arrivals, in the PR 6 slab style: slots are reused
/// through a free list, and each reuse bumps the slot's generation so a
/// stale reference (a cancellation event that outlived its arrival) can
/// never touch the wrong occupant. Memory is O(waiting + in-flight),
/// regardless of stream length.
#[derive(Default)]
pub(crate) struct PendingSlab {
    slots: Vec<Option<Pending>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl PendingSlab {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Parks `p`, returning its `(slot, generation)` handle.
    pub(crate) fn insert(&mut self, p: Pending) -> (u32, u32) {
        if let Some(slot) = self.free.pop() {
            let gen = self.gens[slot as usize].wrapping_add(1);
            self.gens[slot as usize] = gen;
            self.slots[slot as usize] = Some(p);
            (slot, gen)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Some(p));
            self.gens.push(0);
            (slot, 0)
        }
    }

    /// The occupant of `slot` *if* its generation still matches — the
    /// gate that makes stale cancellation events harmless.
    pub(crate) fn live_mut(&mut self, slot: u32, gen: u32) -> Option<&mut Pending> {
        if self.gens[slot as usize] != gen {
            return None;
        }
        self.slots[slot as usize].as_mut()
    }

    /// Whether `slot` holds a cancellation tombstone.
    pub(crate) fn is_canceled(&self, slot: u32) -> bool {
        self.slots[slot as usize]
            .as_ref()
            .is_some_and(|p| p.canceled)
    }

    /// Removes and returns the occupant of `slot`, recycling the slot.
    /// `None` for an empty slot: that the wait set only ever yields
    /// occupied slots is the scheduler's invariant, not this arena's, so
    /// the caller decides what a violation means.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<Pending> {
        let p = self.slots[slot as usize].take()?;
        self.free.push(slot);
        Some(p)
    }

    /// Drops the tombstone in `slot`, recycling it.
    pub(crate) fn release(&mut self, slot: u32) {
        let p = self.remove(slot);
        debug_assert!(
            p.is_some_and(|p| p.canceled),
            "released a live or empty pending entry"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(lane: u8, weight: u64) -> TenantSpec {
        TenantSpec::new(format!("t{lane}w{weight}"))
            .lane(lane)
            .weight(weight)
    }

    /// What a replayed schedule drives: [`WaitSet`] and its two oracles.
    trait Waiters {
        fn push(&mut self, slot: u32, tenant: usize);
        fn cancel(&mut self, tenant: usize);
        fn pop(&mut self, dead: impl FnMut(u32) -> bool) -> Option<u32>;
        fn charge(&mut self, tenant: usize, cost: SimTime);
    }

    impl Waiters for WaitSet {
        fn push(&mut self, slot: u32, tenant: usize) {
            WaitSet::push(self, slot, tenant);
        }
        fn cancel(&mut self, tenant: usize) {
            WaitSet::cancel(self, tenant);
        }
        fn pop(&mut self, dead: impl FnMut(u32) -> bool) -> Option<u32> {
            WaitSet::pop(self, dead)
        }
        fn charge(&mut self, tenant: usize, cost: SimTime) {
            WaitSet::charge(self, tenant, cost);
        }
    }

    /// The fair-queueing specification: a `min_by_key` scan over every
    /// registered tenant for the `(lane, start tag, tenant)`-minimal
    /// backlogged one, O(registered tenants) per pop. This was the shipped
    /// engine before the heap and is kept as written then.
    struct ScanSet {
        queues: Vec<VecDeque<u32>>,
        finish: Vec<u128>,
        vclock: u128,
        lanes: Vec<u8>,
        weights: Vec<u64>,
    }

    impl ScanSet {
        fn new(tenants: &[TenantSpec]) -> Self {
            Self {
                queues: tenants.iter().map(|_| VecDeque::new()).collect(),
                finish: vec![0; tenants.len()],
                vclock: 0,
                lanes: tenants.iter().map(|t| t.lane).collect(),
                weights: tenants.iter().map(|t| t.weight).collect(),
            }
        }
    }

    impl Waiters for ScanSet {
        fn push(&mut self, slot: u32, tenant: usize) {
            self.queues[tenant].push_back(slot);
        }
        fn cancel(&mut self, _tenant: usize) {}
        fn pop(&mut self, mut dead: impl FnMut(u32) -> bool) -> Option<u32> {
            loop {
                let t = (0..self.queues.len())
                    .filter(|&t| !self.queues[t].is_empty())
                    .min_by_key(|&t| (self.lanes[t], self.vclock.max(self.finish[t]), t))?;
                let slot = self.queues[t].pop_front().expect("queue checked non-empty");
                if !dead(slot) {
                    return Some(slot);
                }
            }
        }
        fn charge(&mut self, tenant: usize, cost: SimTime) {
            let start = self.vclock.max(self.finish[tenant]);
            self.finish[tenant] =
                start + cost.as_nanos() as u128 * WFQ_SCALE / u128::from(self.weights[tenant]);
            self.vclock = start;
        }
    }

    /// The fairness-off specification: arrival order, whoever the tenant.
    impl Waiters for VecDeque<u32> {
        fn push(&mut self, slot: u32, _tenant: usize) {
            self.push_back(slot);
        }
        fn cancel(&mut self, _tenant: usize) {}
        fn pop(&mut self, mut dead: impl FnMut(u32) -> bool) -> Option<u32> {
            loop {
                let slot = self.pop_front()?;
                if !dead(slot) {
                    return Some(slot);
                }
            }
        }
        fn charge(&mut self, _tenant: usize, _cost: SimTime) {}
    }

    /// Replays one op schedule over `t` tenants through `ws`, returning the
    /// grant sequence. Ops: (0, tenant, _) = push, (1, _, cost) =
    /// pop-and-charge the granted tenant, (2, nth, _) = cancel the nth live
    /// waiter.
    fn replay(ws: &mut impl Waiters, t: usize, ops: &[(u8, usize, u64)]) -> Vec<(u32, usize)> {
        let mut next_slot = 0u32;
        // (slot, tenant, dead) — shared notion of which entries are live.
        let mut entries: Vec<(u32, usize, bool)> = Vec::new();
        let mut grants = Vec::new();
        for &(op, a, b) in ops {
            match op {
                0 => {
                    let tenant = a % t;
                    ws.push(next_slot, tenant);
                    entries.push((next_slot, tenant, false));
                    next_slot += 1;
                }
                1 => {
                    let granted = ws.pop(|slot| {
                        entries
                            .iter()
                            .find(|e| e.0 == slot)
                            .expect("popped slots were pushed")
                            .2
                    });
                    if let Some(slot) = granted {
                        let tenant = entries.iter().find(|e| e.0 == slot).unwrap().1;
                        ws.charge(tenant, SimTime::from_nanos(1 + b % 10_000));
                        grants.push((slot, tenant));
                        entries.retain(|e| e.0 != slot);
                    }
                }
                _ => {
                    let live: Vec<usize> = entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| !e.2)
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let k = live[a % live.len()];
                        entries[k].2 = true;
                        let tenant = entries[k].1;
                        ws.cancel(tenant);
                    }
                }
            }
        }
        // Drain what's left so the tail order is compared too.
        loop {
            let granted = ws.pop(|slot| {
                entries
                    .iter()
                    .find(|e| e.0 == slot)
                    .expect("popped slots were pushed")
                    .2
            });
            let Some(slot) = granted else { break };
            let tenant = entries.iter().find(|e| e.0 == slot).unwrap().1;
            ws.charge(tenant, SimTime::from_nanos(17));
            grants.push((slot, tenant));
            entries.retain(|e| e.0 != slot);
        }
        grants
    }

    fn tenants_of(lanes: &[u8], weights: &[u64]) -> Vec<TenantSpec> {
        lanes
            .iter()
            .zip(weights.iter().cycle())
            .enumerate()
            .map(|(i, (&l, &w))| TenantSpec::new(format!("t{i}")).lane(l).weight(w))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole invariant: the heap engine replays the reference
        /// scan grant-for-grant under random lanes, weights, arrival
        /// orders, service costs, and cancellation schedules.
        #[test]
        fn heap_waitset_matches_reference_scan_grant_for_grant(
            lanes in proptest::collection::vec(0u8..3, 1..7),
            weights in proptest::collection::vec(1u64..16, 1..7),
            ops in proptest::collection::vec((0u8..3, 0usize..64, 0u64..10_000), 1..200),
        ) {
            let tenants = tenants_of(&lanes, &weights);
            let t = tenants.len();
            let scan = replay(&mut ScanSet::new(&tenants), t, &ops);
            let mut ws = WaitSet::new(&tenants, true);
            prop_assert_eq!(scan, replay(&mut ws, t, &ops));
            prop_assert!(ws.is_empty());
        }

        /// FIFO rides the heap path too: with fairness off the grant order
        /// is arrival order whatever the lanes, weights, charges and
        /// cancellations — a plain `VecDeque` with tombstones skipped.
        #[test]
        fn fairness_off_waitset_is_a_plain_fifo(
            lanes in proptest::collection::vec(0u8..3, 1..7),
            weights in proptest::collection::vec(1u64..16, 1..7),
            ops in proptest::collection::vec((0u8..3, 0usize..64, 0u64..10_000), 1..200),
        ) {
            let tenants = tenants_of(&lanes, &weights);
            let t = tenants.len();
            let model = replay(&mut VecDeque::new(), t, &ops);
            let mut ws = WaitSet::new(&tenants, false);
            prop_assert_eq!(model, replay(&mut ws, t, &ops));
            prop_assert!(ws.is_empty());
        }
    }

    /// The scenario a raw finish-tag heap gets wrong: two tenants whose
    /// tags are both below the virtual clock must tie-break by *index*,
    /// because both effective start tags clamp to the vclock. The heap
    /// engine must refresh the stale stored keys and grant tenant 0 first
    /// even though tenant 1's raw finish tag is smaller.
    #[test]
    fn vclock_clamp_tie_breaks_by_tenant_index_not_raw_tag() {
        fn check(mut ws: impl Waiters, who: &str) {
            // Seed raw finish tags 0 < tag(1) < tag(0), then queue both
            // tenants while the virtual clock is still at zero — their
            // heap keys are armed with the raw tags.
            ws.charge(1, SimTime::from_nanos(1));
            ws.charge(0, SimTime::from_nanos(2));
            ws.push(3, 1);
            ws.push(4, 0);
            // Tenant 2 is granted twice: the first charge banks a huge
            // finish tag, the second jumps the vclock to it (a grant's
            // start tag is `max(vclock, finish)`), stranding the armed
            // keys of tenants 0 and 1 far below the clock.
            ws.charge(2, SimTime::from_nanos(1_000_000));
            ws.charge(2, SimTime::from_nanos(1));
            // Both effective start tags now clamp to the vclock: the tie
            // must break by tenant *index* (0 before 1), even though
            // tenant 1's raw tag — and its stale heap key — is smaller.
            assert_eq!(ws.pop(|_| false), Some(4), "{who}");
            ws.charge(0, SimTime::from_nanos(1));
            assert_eq!(ws.pop(|_| false), Some(3), "{who}");
        }
        let tenants = [spec(0, 1), spec(0, 1), spec(0, 1)];
        check(ScanSet::new(&tenants), "scan");
        check(WaitSet::new(&tenants, true), "heap");
    }

    #[test]
    fn tombstones_are_skipped_and_released_lazily() {
        let tenants = [spec(0, 1), spec(0, 2)];
        let mut ws = WaitSet::new(&tenants, true);
        ws.push(0, 0);
        ws.push(1, 0);
        ws.push(2, 1);
        assert_eq!(ws.waiting_for(0), 2);
        // Cancel the head of tenant 0's queue: counters move now...
        ws.cancel(0);
        assert_eq!(ws.waiting_for(0), 1);
        // ...but the entry is only skipped (and reported dead) at pop.
        let mut freed = Vec::new();
        let granted = ws.pop(|slot| {
            let dead = slot == 0;
            if dead {
                freed.push(slot);
            }
            dead
        });
        assert!(granted.is_some());
        assert_eq!(freed, vec![0]);
    }

    #[test]
    fn pending_slab_reuses_slots_with_fresh_generations() {
        use crate::builder::RoutePolicy;
        use smartssd_query::{Finalize, OpTemplate};
        use smartssd_storage::expr::{AggSpec, Expr, Pred};
        use std::sync::Arc;
        let item = || WorkloadItem {
            query: Arc::new(smartssd_query::Query {
                name: "q".into(),
                op: OpTemplate::ScanAgg {
                    table: "t".into(),
                    spec: smartssd_exec::spec::ScanAggSpec {
                        pred: Pred::Const(true),
                        aggs: vec![AggSpec::sum(Expr::col(0))],
                    },
                },
                finalize: Finalize::AggRow,
            }),
            route: RoutePolicy::Natural,
            arrival: SimTime::ZERO,
            tenant: 0,
            cancel_at: None,
        };
        let mut slab = PendingSlab::new();
        let (s0, g0) = slab.insert(Pending {
            item: item(),
            index: 0,
            canceled: false,
        });
        let (s1, _) = slab.insert(Pending {
            item: item(),
            index: 1,
            canceled: false,
        });
        assert_ne!(s0, s1);
        assert_eq!(slab.remove(s0).unwrap().index, 0);
        assert!(slab.remove(s0).is_none(), "an empty slot is not a panic");
        // Reuse bumps the generation: the old handle goes stale.
        let (s2, g2) = slab.insert(Pending {
            item: item(),
            index: 2,
            canceled: false,
        });
        assert_eq!(s2, s0);
        assert_ne!(g2, g0);
        assert!(slab.live_mut(s2, g0).is_none());
        assert_eq!(slab.live_mut(s2, g2).unwrap().index, 2);
        // Tombstone release path.
        slab.live_mut(s2, g2).unwrap().canceled = true;
        assert!(slab.is_canceled(s2));
        slab.release(s2);
    }
}
