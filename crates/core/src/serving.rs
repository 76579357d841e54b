//! Multi-tenant serving: an open-system front door over
//! [`System::run_workload`](crate::System::run_workload).
//!
//! The paper evaluates one query at a time; its Section 5 research agenda
//! asks what happens when a Smart SSD is a *shared* resource — many
//! applications, each with its own latency expectations, contending for a
//! handful of device session slots. This module models that production
//! shape:
//!
//! * [`TenantSpec`] names one tenant and carries its QoS contract: a
//!   weighted-fair-queueing weight, a strict priority lane, and an
//!   optional per-tenant admission (queue-bound) override.
//! * [`TenantLoad`] pairs a spec with the tenant's traffic: a query
//!   template, a seeded [`ArrivalModel`] (uniform or Poisson), a mean
//!   inter-arrival gap, an arrival count, and an optional cancellation
//!   budget (arrivals are abandoned `cancel_after` past their arrival,
//!   mid-flight if necessary).
//! * [`ArrivalStream`] is a k-way merge cursor over the per-tenant
//!   arrival generators: it yields `(submission index, item)` pairs in
//!   arrival order while holding only one pending arrival per tenant, so
//!   a million-arrival schedule costs O(tenants) memory. It feeds
//!   [`System::run_serving`](crate::System::run_serving), the streaming
//!   front door the `servescale` benchmark drives.
//! * [`compose`] merges a set of tenant loads into one tagged [`Workload`]
//!   plus the tenant registry to hang on
//!   [`WorkloadOptions::tenant`](crate::WorkloadOptions::tenant) — a thin
//!   eager wrapper that drains an [`ArrivalStream`] into a materialized
//!   schedule. Each tenant's stream is seeded independently so adding a
//!   tenant never perturbs another tenant's schedule.
//! * [`TenantReport`] is the per-tenant slice of a
//!   [`WorkloadReport`](crate::WorkloadReport): arrival accounting by
//!   outcome and a latency distribution over the tenant's completions —
//!   the isolation evidence the serving benchmark plots.
//!
//! Everything stays deterministic: a fixed seed replays the identical
//! multi-tenant schedule, so isolation experiments (victim p99 with and
//! without an aggressor tenant) are exactly reproducible.

use crate::builder::RoutePolicy;
use crate::workload::{Workload, WorkloadItem};
use smartssd_query::Query;
use smartssd_sim::{ArrivalGen, ArrivalModel, LatencyStats, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// One tenant's identity and QoS contract, consumed by the workload
/// scheduler's weighted fair queueing.
///
/// Build with [`TenantSpec::new`] and chain the knobs:
///
/// ```
/// use smartssd::serving::TenantSpec;
///
/// let t = TenantSpec::new("interactive")
///     .weight(4)
///     .lane(0)
///     .queue_bound(32);
/// assert_eq!(t.name(), "interactive");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    pub(crate) name: String,
    pub(crate) weight: u64,
    pub(crate) lane: u8,
    pub(crate) queue_bound: Option<usize>,
}

impl TenantSpec {
    /// A tenant with default QoS: weight 1, lane 0, no per-tenant queue
    /// bound (the workload-level one applies, if set).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1,
            lane: 0,
            queue_bound: None,
        }
    }

    /// Fair-queueing weight: under contention the tenant receives device
    /// session slots in proportion to its weight relative to the other
    /// tenants in its lane. Zero is rejected by
    /// [`WorkloadOptions::try_validate`](crate::WorkloadOptions::try_validate).
    pub fn weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Strict priority lane: a waiting query in lane `k` is always admitted
    /// before any waiter in lane `k + 1`, regardless of weights. Weights
    /// share slots *within* a lane. Lane 0 is the most urgent.
    pub fn lane(mut self, lane: u8) -> Self {
        self.lane = lane;
        self
    }

    /// Per-tenant admission bound on waiting queries, overriding the
    /// workload-level
    /// [`WorkloadOptions::queue_bound`](crate::WorkloadOptions::queue_bound).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound);
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// One tenant's traffic: a spec plus the arrival process that drives it.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    pub(crate) spec: TenantSpec,
    pub(crate) query: Query,
    pub(crate) route: RoutePolicy,
    pub(crate) model: ArrivalModel,
    pub(crate) mean_gap: SimTime,
    pub(crate) count: usize,
    pub(crate) cancel_after: Option<SimTime>,
}

impl TenantLoad {
    /// `count` arrivals of `query` with mean inter-arrival gap `mean_gap`,
    /// drawn from the uniform model on the natural route. Chain
    /// [`TenantLoad::model`], [`TenantLoad::route`], and
    /// [`TenantLoad::cancel_after`] to reshape it.
    pub fn new(spec: TenantSpec, query: Query, count: usize, mean_gap: SimTime) -> Self {
        Self {
            spec,
            query,
            route: RoutePolicy::Natural,
            model: ArrivalModel::Uniform,
            mean_gap,
            count,
            cancel_after: None,
        }
    }

    /// Number of arrivals this load contributes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The arrival model to draw inter-arrival gaps from.
    pub fn model(mut self, model: ArrivalModel) -> Self {
        self.model = model;
        self
    }

    /// Route policy for every arrival of this tenant.
    pub fn route(mut self, route: RoutePolicy) -> Self {
        self.route = route;
        self
    }

    /// Client abandonment: each arrival is canceled `cancel_after` past its
    /// arrival instant if it has not finished by then — mid-flight device
    /// sessions are closed early and their slot freed at the cancel
    /// instant. Host-routed executions are non-preemptible: a cancellation
    /// only takes effect before service starts.
    pub fn cancel_after(mut self, budget: SimTime) -> Self {
        self.cancel_after = Some(budget);
        self
    }
}

/// One tenant's position in an [`ArrivalStream`]: the fields every arrival
/// reads and writes — its seeded generator, the staged arrival's clock and
/// submission index, and how many arrivals are left — plus the index of
/// its [`Profile`].
struct TenantCursor {
    gen: ArrivalGen,
    /// Cumulative arrival clock: the staged arrival's absolute time.
    clock: SimTime,
    /// Submission index of the staged arrival (tenant-major numbering,
    /// matching [`compose`]'s item order exactly).
    next_idx: u64,
    /// Arrivals not yet yielded (including the staged one).
    remaining: usize,
    profile: u32,
}

/// What every arrival of a tenant carries: the query template, the route
/// policy and the cancellation budget. Consecutive tenants whose loads
/// agree on all three share one profile, and equal templates share one
/// `Arc<Query>` across profiles.
struct Profile {
    query: Arc<Query>,
    route: RoutePolicy,
    cancel_after: Option<SimTime>,
}

impl Profile {
    /// Whether `load`'s arrivals carry exactly this profile.
    fn serves(&self, load: &TenantLoad) -> bool {
        self.route == load.route
            && self.cancel_after == load.cancel_after
            && *self.query == load.query
    }
}

/// A k-way merge cursor over per-tenant arrival generators: yields every
/// tenant's arrivals interleaved in `(arrival time, submission index)`
/// order while materializing only **one pending arrival per tenant** —
/// memory O(tenants), not O(total arrivals).
///
/// Submission indices are tenant-major (tenant 0's arrivals first), which
/// is exactly the order [`compose`] lays items out in; draining a stream
/// and scattering by index reproduces the composed [`Workload`]
/// bit-for-bit. [`System::run_serving`](crate::System::run_serving) feeds
/// the scheduler from this cursor directly, skipping materialization.
///
/// Tenants whose loads carry equal query templates share one
/// `Arc<Query>`: every item of one template is pointer-equal in
/// [`WorkloadItem::query`], whichever tenant it belongs to.
pub struct ArrivalStream {
    cursors: Vec<TenantCursor>,
    profiles: Vec<Profile>,
    /// Min-heap of staged arrivals: `(arrival, tenant)`. A tenant stages
    /// one arrival at a time and submission indices are tenant-major, so
    /// the tenant orders same-instant arrivals exactly as their submission
    /// indices do: the order is total, deterministic and the
    /// `(arrival, submission index)` one, in 16 bytes an entry.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    total: usize,
    tenant_base: u32,
}

impl ArrivalStream {
    /// A streaming cursor over `loads`, each tenant's generator sub-seeded
    /// from `seed` exactly as [`compose`] does.
    pub fn new(loads: &[TenantLoad], seed: u64) -> Self {
        Self::with_base(loads, seed, 0)
    }

    /// [`ArrivalStream::new`] with item tenant tags offset by
    /// `tenant_base` — for schedulers whose registry already holds
    /// `tenant_base` earlier entries.
    ///
    /// Equal query templates are interned: every load whose
    /// [`Query`] compares equal (name, operator tree and finalization)
    /// shares one `Arc<Query>`, so 10^4 tenants running Q6 store one
    /// template and the scheduler — which memoizes catalog resolution by
    /// `Arc` pointer — resolves it once per run, not once per tenant
    /// switch. A tenant whose load matches the previous tenant's profile
    /// costs one comparison; any other template is hashed, so setup stays
    /// one pass over the loads even when every template is distinct.
    pub(crate) fn with_base(loads: &[TenantLoad], seed: u64, tenant_base: u32) -> Self {
        let mut templates: HashMap<&Query, Arc<Query>> = HashMap::new();
        let mut profiles: Vec<Profile> = Vec::new();
        let mut cursors = Vec::with_capacity(loads.len());
        let mut heap = BinaryHeap::with_capacity(loads.len());
        let mut base = 0u64;
        for (t, load) in loads.iter().enumerate() {
            if !profiles.last().is_some_and(|p| p.serves(load)) {
                let query = templates
                    .entry(&load.query)
                    .or_insert_with(|| Arc::new(load.query.clone()));
                profiles.push(Profile {
                    query: Arc::clone(query),
                    route: load.route,
                    cancel_after: load.cancel_after,
                });
            }
            // Golden-ratio stride keeps per-tenant sub-seeds well separated
            // even for adjacent tenant indices (ArrivalGen scrambles
            // further).
            let sub_seed = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut cursor = TenantCursor {
                gen: ArrivalGen::with_model(load.mean_gap, sub_seed, load.model),
                clock: SimTime::ZERO,
                next_idx: base,
                remaining: load.count,
                profile: profiles.len() as u32 - 1,
            };
            if cursor.remaining > 0 {
                cursor.clock += cursor.gen.next_gap();
                heap.push(Reverse((cursor.clock, t as u32)));
            }
            cursors.push(cursor);
            base += load.count as u64;
        }
        Self {
            cursors,
            profiles,
            heap,
            total: base as usize,
            tenant_base,
        }
    }

    /// Total arrivals across all tenants (known up front: the sum of the
    /// loads' counts).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Yields the next arrival as `(submission index, item)`, in
    /// `(arrival, submission index)` order.
    pub fn next_arrival(&mut self) -> Option<(usize, WorkloadItem)> {
        let Reverse((at, t)) = self.heap.pop()?;
        let cursor = &mut self.cursors[t as usize];
        let idx = cursor.next_idx;
        let profile = &self.profiles[cursor.profile as usize];
        let item = WorkloadItem {
            query: Arc::clone(&profile.query),
            route: profile.route,
            arrival: at,
            tenant: self.tenant_base + t,
            cancel_at: profile.cancel_after.map(|b| at + b),
        };
        cursor.remaining -= 1;
        if cursor.remaining > 0 {
            cursor.clock += cursor.gen.next_gap();
            cursor.next_idx += 1;
            self.heap.push(Reverse((cursor.clock, t)));
        }
        Some((idx as usize, item))
    }
}

/// Merges tenant loads into one tagged [`Workload`] plus the tenant
/// registry (in load order — item tenant tags index into it).
///
/// Each tenant's arrival stream gets an independent sub-seed derived from
/// `seed` and the tenant's index, so tenants' schedules are mutually
/// independent and adding or removing one tenant leaves every other
/// tenant's arrivals untouched. Items are tagged with their tenant index
/// and, when the load sets [`TenantLoad::cancel_after`], an absolute
/// `cancel_at` instant.
///
/// This is the thin eager wrapper over [`ArrivalStream`]: the cursor is
/// drained and its items scattered to their submission indices, yielding
/// the same tenant-major layout this function always produced. Prefer
/// [`System::run_serving`](crate::System::run_serving) when the schedule
/// does not need to be materialized at all.
pub fn compose(loads: &[TenantLoad], seed: u64) -> (Workload, Vec<TenantSpec>) {
    let mut stream = ArrivalStream::new(loads, seed);
    let specs = loads.iter().map(|l| l.spec.clone()).collect();
    let mut items: Vec<Option<WorkloadItem>> = (0..stream.total()).map(|_| None).collect();
    while let Some((idx, item)) = stream.next_arrival() {
        items[idx] = Some(item);
    }
    let w = Workload::from_items(
        items
            .into_iter()
            .map(|o| o.expect("the stream yields every submission index exactly once"))
            .collect(),
    );
    (w, specs)
}

/// Per-tenant slice of a workload report: arrival accounting by outcome
/// plus the latency distribution over this tenant's completions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// The tenant's name, copied from its [`TenantSpec`].
    pub name: String,
    /// Arrivals tagged with this tenant.
    pub arrivals: u64,
    /// Arrivals that completed (either route).
    pub completed: u64,
    /// Arrivals shed at admission (queue bound).
    pub rejected: u64,
    /// Arrivals shed for missing their start-of-service deadline.
    pub deadline_missed: u64,
    /// Arrivals canceled by their `cancel_at` instant.
    pub canceled: u64,
    /// Arrivals that failed on an unrecoverable fault.
    pub failed: u64,
    /// Latency distribution over this tenant's completions.
    pub latency: LatencyStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_query::{Finalize, OpTemplate};
    use smartssd_storage::expr::{AggSpec, Expr, Pred};

    fn q(name: &str) -> Query {
        Query {
            name: name.into(),
            op: OpTemplate::ScanAgg {
                table: "t".into(),
                spec: smartssd_exec::spec::ScanAggSpec {
                    pred: Pred::Const(true),
                    aggs: vec![AggSpec::sum(Expr::col(1))],
                },
            },
            finalize: Finalize::AggRow,
        }
    }

    #[test]
    fn compose_tags_items_and_is_seed_reproducible() {
        let loads = vec![
            TenantLoad::new(
                TenantSpec::new("a").weight(3),
                q("qa"),
                4,
                SimTime::from_nanos(1000),
            )
            .model(ArrivalModel::Exponential),
            TenantLoad::new(TenantSpec::new("b"), q("qb"), 2, SimTime::from_nanos(500))
                .cancel_after(SimTime::from_nanos(50)),
        ];
        let (w1, specs) = compose(&loads, 42);
        let (w2, _) = compose(&loads, 42);
        let (w3, _) = compose(&loads, 43);
        assert_eq!(w1.len(), 6);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].weight, 3);
        let arrivals = |w: &Workload| {
            w.items()
                .iter()
                .map(|i| (i.tenant, i.arrival))
                .collect::<Vec<_>>()
        };
        assert_eq!(arrivals(&w1), arrivals(&w2));
        assert_ne!(arrivals(&w1), arrivals(&w3));
        // Tenant b's items carry absolute cancel instants, tenant a's none.
        for it in w1.items() {
            match it.tenant {
                0 => assert!(it.cancel_at.is_none()),
                1 => assert_eq!(it.cancel_at, Some(it.arrival + SimTime::from_nanos(50))),
                t => panic!("unexpected tenant {t}"),
            }
        }
    }

    /// Drains a stream and returns each tenant's (first) query `Arc`.
    fn templates_by_tenant(loads: &[TenantLoad]) -> Vec<Arc<Query>> {
        let mut stream = ArrivalStream::new(loads, 42);
        let mut by_tenant: Vec<Option<Arc<Query>>> = vec![None; loads.len()];
        while let Some((_, item)) = stream.next_arrival() {
            let seen =
                by_tenant[item.tenant as usize].get_or_insert_with(|| Arc::clone(&item.query));
            assert!(Arc::ptr_eq(seen, &item.query), "one Arc per tenant");
        }
        by_tenant.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn equal_templates_share_one_arc_across_tenants() {
        let loads: Vec<TenantLoad> = (0..50)
            .map(|i| {
                TenantLoad::new(
                    TenantSpec::new(format!("t{i}")),
                    // Every other tenant runs "qa", the rest "qb".
                    q(if i % 2 == 0 { "qa" } else { "qb" }),
                    3,
                    SimTime::from_nanos(1000),
                )
            })
            .collect();
        let got = templates_by_tenant(&loads);
        for (i, query) in got.iter().enumerate() {
            assert_eq!(**query, loads[i].query);
            assert!(Arc::ptr_eq(query, &got[i % 2]), "tenant {i}");
        }
        assert!(!Arc::ptr_eq(&got[0], &got[1]));
    }

    /// Route policies compare by value, so consecutive planned tenants
    /// share a profile as natural ones do, and a natural tenant after them
    /// starts a new one.
    #[test]
    fn planned_tenants_share_profiles() {
        let load = |route| {
            TenantLoad::new(TenantSpec::new("t"), q("q"), 2, SimTime::from_nanos(1000)).route(route)
        };
        let loads = [
            RoutePolicy::Planned,
            RoutePolicy::Planned,
            RoutePolicy::Natural,
        ]
        .map(load);
        let stream = ArrivalStream::new(&loads, 42);
        assert_eq!(stream.profiles.len(), 2);
    }

    #[test]
    fn unequal_templates_are_not_merged() {
        let base = q("q");
        let mut atom = q("q");
        let OpTemplate::ScanAgg { spec, .. } = &mut atom.op else {
            unreachable!("q() is a ScanAgg");
        };
        spec.pred = Pred::Const(false);
        let mut finalize = q("q");
        finalize.finalize = Finalize::RatioPct { num: 0, den: 0 };
        let variants = [base.clone(), atom, finalize, q("other"), base];
        let loads: Vec<TenantLoad> = variants
            .iter()
            .enumerate()
            .map(|(i, query)| {
                TenantLoad::new(
                    TenantSpec::new(format!("t{i}")),
                    query.clone(),
                    2,
                    SimTime::from_nanos(1000),
                )
            })
            .collect();
        let got = templates_by_tenant(&loads);
        for i in 0..got.len() {
            assert_eq!(*got[i], variants[i]);
            for j in 0..i {
                // Only the first and last variants are the same template.
                assert_eq!(
                    Arc::ptr_eq(&got[i], &got[j]),
                    (j, i) == (0, 4),
                    "{j} vs {i}"
                );
            }
        }
    }

    #[test]
    fn dropping_a_tenant_leaves_other_streams_untouched() {
        let a = TenantLoad::new(TenantSpec::new("a"), q("qa"), 5, SimTime::from_nanos(1000))
            .model(ArrivalModel::Exponential);
        let b = TenantLoad::new(TenantSpec::new("b"), q("qb"), 5, SimTime::from_nanos(1000));
        let (both, _) = compose(&[a.clone(), b], 7);
        let (solo, _) = compose(&[a], 7);
        let a_arrivals = |w: &Workload| {
            w.items()
                .iter()
                .filter(|i| i.tenant == 0)
                .map(|i| i.arrival)
                .collect::<Vec<_>>()
        };
        assert_eq!(a_arrivals(&both), a_arrivals(&solo));
    }
}
