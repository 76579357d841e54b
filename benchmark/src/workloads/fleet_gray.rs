//! `fleet_gray` — the fleet engine under gray faults, and the warm
//! counterpart of `figs_cold`: the same kernels with no first-touch
//! validation.
//!
//! One closed-loop client (`SmartSsdFleet::run_stream`). Sixteen devices,
//! LINEITEM partitioned round-robin, the full linked protocol, hedged
//! shard reads on, per-device breakers on with a one-second cooldown.
//! Device 2 runs 4x slow for the whole run (a scripted plan); device 5 is
//! dead (it crashes on every `OPEN`). A rep is one 128-query Q6 stream.
//!
//! The stated exception to "every rep starts from identical state": the
//! fleet is built once, because breaker state persists by design and a
//! rebuild costs as much as a rep. One discarded warm-up stream in set-up
//! trips the dead device's breaker; the reps then run in the degraded
//! steady state and differ by at most one cooldown probe, so the simulated
//! figures are taken from the first rep after set-up.

use super::oracle::{Answer, DIGEST_SEED};
use super::{outcome_gaps, Config, Counts, Rep, Sim, Workload};
use crate::spans::Spans;
use smartssd::{
    BreakerPolicy, DeviceKind, FleetOptions, InterfaceMode, Layout, Query, Route, RunOptions,
    SimTime, SmartSsdFleet, SystemBuilder,
};
use smartssd_sim::FaultPlan;
use smartssd_workload::{q6, queries, tpch};
use std::time::Instant;

const DEVICES: usize = 16;
const SLOW_DEVICE: usize = 2;
const DEAD_DEVICE: usize = 5;
const STREAM: usize = 128;
const SF: f64 = 0.02;
const STREAM_SMOKE: usize = 8;
const SF_SMOKE: f64 = 0.002;

pub struct FleetGray {
    cfg: Config,
    sf: f64,
    fleet: SmartSsdFleet,
    stream: Vec<Query>,
    /// Table pages per device.
    shard_pages: Vec<u64>,
    reference: Option<Answer>,
}

impl FleetGray {
    pub fn setup(cfg: Config, spans: &mut Spans) -> Self {
        let (sf, n) = if cfg.smoke {
            (SF_SMOKE, STREAM_SMOKE)
        } else {
            (SF, STREAM)
        };
        let mut fleet = spans.call("core.build_fleet", || {
            let mut policy = BreakerPolicy::enabled();
            // A probe of the dead device costs a full firmware reset wait,
            // several query lifetimes; the default 8 ms cooldown would
            // re-probe on nearly every query.
            policy.cooldown = SimTime::from_secs(1);
            cfg.builder(SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax))
                .breaker(policy)
                .build_fleet(
                    DEVICES,
                    FleetOptions {
                        interface: InterfaceMode::Linked,
                        hedge: true,
                        ..FleetOptions::default()
                    },
                )
        });
        spans
            .call("core.load_partitioned", || {
                fleet.load_partitioned(
                    queries::LINEITEM,
                    &tpch::lineitem_schema(),
                    tpch::lineitem_rows(sf, cfg.seed),
                )
            })
            .expect("load");
        // Read before `finish_load` zeroes the flash statistics.
        let shard_pages: Vec<u64> = (0..DEVICES)
            .map(|d| fleet.device(d).flash.stats().writes)
            .collect();
        fleet.finish_load();
        fleet.arm_fault_plan(&FaultPlan::new().slowdown(
            SLOW_DEVICE,
            4,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        fleet
            .device_mut(DEAD_DEVICE)
            .config_mut()
            .fault_rates
            .crash_rate = u32::MAX;
        let stream: Vec<Query> = (0..n).map(|_| q6()).collect();
        // The discarded warm-up: an eighth of a stream is enough to trip the
        // dead device's breaker and validate every page on both routes.
        spans
            .call("core.run_stream", || {
                fleet.run_stream(&stream[..(n / 8).max(4)])
            })
            .expect("warm-up stream");
        Self {
            cfg,
            sf,
            fleet,
            stream,
            shard_pages,
            reference: None,
        }
    }

    /// The single-device answer: Q6 over the whole table on one healthy
    /// Smart SSD, which must also equal arithmetic over the rows.
    fn single_device_answer(&self) -> Answer {
        let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
        sys.load_table_rows(
            queries::LINEITEM,
            &tpch::lineitem_schema(),
            tpch::lineitem_rows(self.sf, self.cfg.seed),
        )
        .expect("load");
        sys.finish_load();
        let single = Answer::of(
            &sys.run(&q6(), RunOptions::routed(Route::Device))
                .expect("single-device run")
                .result,
        );
        let rows = super::oracle::q6_from_rows(tpch::lineitem_rows(self.sf, self.cfg.seed));
        assert_eq!(single, rows, "single device disagrees with the row oracle");
        single
    }
}

impl Workload for FleetGray {
    /// Breaker state persists across reps (see the module comment).
    fn reps_identical(&self) -> bool {
        false
    }

    fn rep(&mut self, spans: &mut Spans, deep: bool) -> Rep {
        let t = Instant::now();
        let report = spans
            .call("core.run_stream", || self.fleet.run_stream(&self.stream))
            .expect("run_stream");
        let call_ns = t.elapsed().as_nanos() as u64;

        if deep && self.reference.is_none() {
            self.reference = Some(self.single_device_answer());
        }
        let n = self.stream.len();
        let done: Vec<_> = report
            .outcomes
            .iter()
            .filter_map(|o| o.completion())
            .collect();
        let answers: Vec<Answer> = done.iter().map(|c| Answer::of(&c.result)).collect();
        let want = match (&self.reference, deep) {
            (Some(r), true) => Some(r),
            _ => answers.first(),
        };
        let mut rep = Rep {
            arrivals: n as u64,
            attempted: n as u64,
            ..Rep::default()
        };
        rep.failed += (n - done.len()) as u64;
        rep.failed += answers.iter().filter(|a| Some(*a) != want).count() as u64;
        rep.failed += outcome_gaps(&report.outcomes, n);
        let open: usize = (0..DEVICES)
            .map(|d| self.fleet.device(d).open_sessions())
            .sum();
        rep.failed += open as u64;

        let completed = done.len() as u64;
        let table_pages: u64 = self.shard_pages.iter().sum();
        rep.pages = completed * table_pages;
        rep.sim = Sim::new(
            report.makespan.as_nanos(),
            done.iter().map(|c| c.latency.as_nanos()).collect(),
            answers
                .first()
                .map_or(DIGEST_SEED, |a| a.fold_into(DIGEST_SEED ^ completed)),
        );

        let shard_runs = completed * DEVICES as u64;
        let host_pages = report.host_shard_runs * table_pages / DEVICES as u64;
        let work = done.first().map(|c| c.result.work).unwrap_or_default();
        // Every query zeroes the flash statistics when it starts, so what
        // the devices hold now is the last query's reads.
        let flash_reads = completed
            * (0..DEVICES)
                .map(|d| self.fleet.device(d).flash.stats().reads)
                .sum::<u64>();
        rep.counts = Counts {
            // Warm: every buffer was validated by the warm-up stream.
            pages_decode_hit: flash_reads,
            tuples_scan_pax: completed * work.tuples_pax,
            pred_atoms: completed * work.pred_atoms,
            wire_ops: shard_runs - report.host_shard_runs,
            flash_reads,
            sessions_linked: shard_runs - report.host_shard_runs,
            device_pages: flash_reads.saturating_sub(host_pages),
            open_sessions_end: open as u64,
            host_reads: host_pages,
            host_run_pages: host_pages,
            pool_misses: host_pages,
            latency_samples: completed,
            completed,
            failed: report.failed,
            hedges: report.faults.hedges,
            hedge_wins: report.faults.hedge_wins,
            hedge_denied: report.faults.hedge_denied,
            fallbacks: report.fallbacks,
            host_shard_runs: report.host_shard_runs,
            wasted_sim_ns: report.faults.wasted_ns,
            ..Counts::default()
        };

        let t = Instant::now();
        spans.call("core.drop_report", || drop(report));
        rep.wall_ns = call_ns + t.elapsed().as_nanos() as u64;

        // `run_stream` keeps no trace, so the traced pass reads simulated
        // busy time from one more query, outside the timed calls.
        if self.cfg.traced {
            let one = self.fleet.run_agg(&self.stream[0]).expect("traced query");
            rep.absorb_trace(&one.trace, one.result.elapsed.as_nanos());
            rep.busy_devices = DEVICES as u64;
        }
        rep
    }
}
