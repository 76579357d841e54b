//! The five workloads. Each builds its inputs from the seed, runs reps that
//! all start from identical state, and checks what the library returned.
//!
//! Sizes are fixed here, not flags: a number measured on one commit must
//! mean the same thing on the next. `smoke` is the one alternative scale,
//! for the self-tests.

pub mod figs_cold;
pub mod fleet_gray;
pub mod oracle;
pub mod serve_tenants;
pub mod stream_open;
pub mod update_mix;

use crate::spans::Spans;
use oracle::{Answer, DIGEST_SEED};
use smartssd::{ArrivalOutcome, CounterSink, RunTrace, SystemBuilder, WorkloadReport};
use std::collections::BTreeMap;

/// Workload names, in the order `run.sh` and `BENCHMARK.json` list them.
pub const NAMES: [&str; 5] = [
    "figs_cold",
    "stream_open",
    "serve_tenants",
    "fleet_gray",
    "update_mix",
];

/// Simulated results of one rep, kept as integers (nanoseconds, counts) so
/// two passes over the same seed compare bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sim {
    /// Simulated nanoseconds the rep covers (see each workload).
    pub elapsed_ns: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Nearest-rank p99 / p90 of completed-query latency.
    pub p99_ns: u64,
    pub p90_ns: u64,
    /// Digest of every completed answer, in completion order.
    pub answers: u64,
}

impl Sim {
    /// Summarizes an open-loop rep over its steady-state window: from the
    /// finish of the 10th-percentile completion to that of the 90th. An
    /// open schedule starts empty and ends ragged — the makespan of 10^4
    /// tenants is set by the one whose last gap ran longest, and moves by a
    /// quarter from seed to seed — so elapsed time and completions are
    /// counted inside the window, where the offered load is what the
    /// workload says it is. Latency percentiles are over all completions.
    pub fn open_loop(mut finishes_ns: Vec<u64>, latencies_ns: Vec<u64>, answers: u64) -> Self {
        finishes_ns.sort_unstable();
        let n = finishes_ns.len();
        let (lo, hi) = (n / 10, (n * 9) / 10);
        let window = finishes_ns
            .get(hi)
            .zip(finishes_ns.get(lo))
            .map_or(0, |(b, a)| b - a);
        Self {
            elapsed_ns: window,
            completed: (hi - lo) as u64,
            ..Self::new(0, latencies_ns, answers)
        }
    }

    /// Summarizes a rep from its completed latencies (any order).
    pub fn new(elapsed_ns: u64, mut latencies_ns: Vec<u64>, answers: u64) -> Self {
        latencies_ns.sort_unstable();
        Self {
            elapsed_ns,
            completed: latencies_ns.len() as u64,
            p99_ns: crate::stats::nearest_rank(&latencies_ns, 99, 100),
            p90_ns: crate::stats::nearest_rank(&latencies_ns, 90, 100),
            answers,
        }
    }
}

/// The model against the paper: `figs_cold` and the calibration pass fill
/// this from the figure cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paper {
    /// Geometric mean over Q6, Q14 and join@1 % of SAS-SSD elapsed over
    /// Smart-SSD-PAX elapsed.
    pub speedup_x: f64,
    /// Mean absolute deviation, in percent, of the ten published ratios.
    pub err_pct: f64,
}

/// Exact operation counts of one rep: what the attribution multiplies the
/// layer probes by, and the *count* layer metrics. All per rep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// LINEITEM rows generated inside the rep.
    pub rows_generated: u64,
    /// PAX pages formatted inside the rep.
    pub pages_built_pax: u64,
    /// Page reads that validate a buffer for the first time (checksum).
    pub pages_validated: u64,
    /// Page reads that hit the pointer-identity decode memo.
    pub pages_decode_hit: u64,
    /// Tuples through the scan+aggregate kernel, by layout, over tables
    /// larger than the cache; and over a cache-resident slice (PAX).
    pub tuples_scan_nsm: u64,
    pub tuples_scan_pax: u64,
    pub tuples_scan_slice: u64,
    /// Tuples through the grouped-aggregate kernel.
    pub tuples_group: u64,
    /// Join build rows and probe tuples.
    pub join_build_rows: u64,
    pub join_probe_tuples: u64,
    /// Predicate atoms evaluated (from the kernels' work receipts).
    pub pred_atoms: u64,
    /// Operators marshalled onto the wire and back (one per session).
    pub wire_ops: u64,
    /// Flash devices constructed.
    pub flash_new: u64,
    pub flash_reads: u64,
    /// Page programs onto never-written LBAs / onto live or trimmed space.
    pub flash_writes_fresh: u64,
    pub flash_overwrites: u64,
    /// Smart SSD runtimes constructed, pages loaded through them.
    pub device_new: u64,
    pub device_load_pages: u64,
    /// Device sessions, by how they crossed the host boundary.
    pub sessions_direct: u64,
    pub sessions_linked: u64,
    pub open_sessions_end: u64,
    pub shared_hits: u64,
    /// Pages scanned on the device route.
    pub device_pages: u64,
    /// Pages that crossed the host block path, and pages the host engine
    /// ran kernels over.
    pub host_reads: u64,
    pub host_run_pages: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Tenants registered; gaps drawn inside the rep; admission grants;
    /// scheduler events; latency samples summarized.
    pub tenants: u64,
    pub gaps_drawn: u64,
    pub grants: u64,
    pub events: u64,
    pub latency_samples: u64,
    /// Outcome counters, as the reports give them.
    pub completed: u64,
    pub canceled: u64,
    pub rejected: u64,
    pub deadline_missed: u64,
    pub failed: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub hedge_denied: u64,
    pub fallbacks: u64,
    pub host_shard_runs: u64,
    pub breaker_transitions: u64,
    pub wasted_sim_ns: u64,
}

/// What one rep produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host nanoseconds of the timed calls (rebuilds between reps are not
    /// in it).
    pub wall_ns: u64,
    /// Queries offered.
    pub arrivals: u64,
    /// 8 KB pages scanned (on `update_mix` also written and checkpointed).
    pub pages: u64,
    pub sim: Sim,
    /// Operations checked and operations that failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub paper: Option<Paper>,
    pub counts: Counts,
    /// Simulated busy nanoseconds per resource, summed over the rep's runs
    /// (traced pass only: needs the `CounterSink`).
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Simulated nanoseconds those busy figures are fractions of, and how
    /// many devices' worth of resources were busy side by side.
    pub busy_span_ns: u64,
    pub busy_devices: u64,
}

impl Rep {
    /// Folds one run's `CounterSink` snapshot into the rep.
    pub fn absorb_trace(&mut self, trace: &RunTrace, elapsed_ns: u64) {
        if let Some(snap) = trace.counters() {
            for (&resource, &ns) in &snap.busy_ns {
                *self.busy_ns.entry(resource).or_default() += ns;
            }
            self.busy_span_ns += elapsed_ns;
            self.busy_devices = self.busy_devices.max(1);
        }
    }
}

/// A set-up workload.
pub trait Workload {
    /// Runs one rep. Every rep starts from identical state, so every rep
    /// does identical simulated work (`fleet_gray` documents its one
    /// exception). With `deep`, every answer is also checked against the
    /// reference computed once per seed; otherwise only against the other
    /// answers of the rep.
    fn rep(&mut self, spans: &mut Spans, deep: bool) -> Rep;

    /// Whether every rep repeats the first one's simulated figures exactly.
    fn reps_identical(&self) -> bool {
        true
    }
}

/// Scale and instrumentation of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Self-test scale: 10^3 arrivals, SF 0.002.
    pub smoke: bool,
    /// Attach the library's `CounterSink` to every system built.
    pub traced: bool,
}

impl Config {
    /// Attaches the `CounterSink` on a traced pass.
    pub fn builder(&self, b: SystemBuilder) -> SystemBuilder {
        if self.traced {
            b.trace(CounterSink::new())
        } else {
            b
        }
    }
}

/// Sets a workload up: everything before the first rep.
pub fn setup(name: &str, cfg: Config, spans: &mut Spans) -> Option<Box<dyn Workload>> {
    Some(match name {
        "figs_cold" => Box::new(figs_cold::FigsCold::setup(cfg, spans)),
        "stream_open" => Box::new(stream_open::StreamOpen::setup(cfg, spans)),
        "serve_tenants" => Box::new(serve_tenants::ServeTenants::setup(cfg, spans)),
        "fleet_gray" => Box::new(fleet_gray::FleetGray::setup(cfg, spans)),
        "update_mix" => Box::new(update_mix::UpdateMix::setup(cfg, spans)),
        _ => return None,
    })
}

/// Checks the one-outcome-per-arrival rule: `outcomes[i]` must be arrival
/// `i`'s. Returns the number of arrivals that break it.
pub fn outcome_gaps(outcomes: &[ArrivalOutcome], arrivals: usize) -> u64 {
    let misplaced = outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| o.index() != *i)
        .count();
    (misplaced + outcomes.len().abs_diff(arrivals)) as u64
}

/// Reduces the report of one single-device arrival stream over a
/// `pages`-page PAX table to the rep's simulated figures, operation counts
/// and check failures. Sheds (cancellations, rejections, missed deadlines)
/// are deliberate and not failures; they show in goodput. With `want`,
/// every completed answer is compared against it, not just against the
/// first.
pub fn digest_stream(
    report: &WorkloadReport,
    arrivals: usize,
    pages: u64,
    want: Option<&Answer>,
) -> Rep {
    let completed = report.completions.len() as u64;
    let first = report.completions.first();
    let first_answer = first.map(|c| Answer::of(&c.result));
    let work = first.map(|c| c.result.work).unwrap_or_default();
    let shed = report.canceled + report.rejected + report.deadline_missed;
    let mut failed = report.failed + outcome_gaps(&report.outcomes, arrivals);
    failed += (arrivals as u64).abs_diff(completed + shed + report.failed);
    if let Some(want) = want {
        failed += report
            .completions
            .iter()
            .filter(|c| Answer::of(&c.result) != *want)
            .count() as u64;
    }
    let mut rep = Rep {
        arrivals: arrivals as u64,
        attempted: arrivals as u64,
        failed,
        pages: completed * pages,
        sim: Sim::open_loop(
            report
                .completions
                .iter()
                .map(|c| c.finished_at.as_nanos())
                .collect(),
            report
                .completions
                .iter()
                .map(|c| c.latency.as_nanos())
                .collect(),
            first_answer.map_or(DIGEST_SEED, |a| a.fold_into(DIGEST_SEED ^ completed)),
        ),
        counts: Counts {
            pages_validated: pages,
            pages_decode_hit: report.flash_reads.saturating_sub(pages),
            tuples_scan_slice: completed * work.tuples_pax,
            pred_atoms: completed * work.pred_atoms,
            flash_new: 1,
            flash_reads: report.flash_reads,
            flash_writes_fresh: pages,
            device_new: 1,
            device_load_pages: pages,
            sessions_direct: completed,
            shared_hits: report.shared_hits,
            device_pages: report.flash_reads,
            pool_hits: report.pool_hits,
            pool_misses: report.pool_misses,
            grants: completed,
            events: completed + report.canceled,
            latency_samples: completed,
            completed,
            canceled: report.canceled,
            rejected: report.rejected,
            deadline_missed: report.deadline_missed,
            failed: report.failed,
            fallbacks: report.faults.fallbacks,
            breaker_transitions: report.breaker_transitions.len() as u64,
            wasted_sim_ns: report.faults.wasted_ns,
            ..Counts::default()
        },
        ..Rep::default()
    };
    rep.absorb_trace(&report.trace, report.makespan.as_nanos());
    rep
}
