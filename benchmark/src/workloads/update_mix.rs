//! `update_mix` — writes beside reads. Every other workload writes flash
//! only while loading a fresh device; this one replaces the table ten
//! times on a flash geometry small enough that greedy garbage collection
//! runs for most of the rep, and alternates host-route scans of the dirty
//! table with device-route scans of the checkpointed one.
//!
//! One closed-loop client on a Smart SSD/PAX. A rep is a fresh system, the
//! load, then ten cycles of `update_table_rows` (fresh rows, generated and
//! formatted inside the call) followed by two rounds of `mark_dirty` -> Q6
//! (forced to the host by the dirty rule) -> `checkpoint` -> Q6 (device).
//!
//! Geometry rule. `update_table_rows` writes each new image to a fresh
//! extent and never reuses a trimmed one (`System`'s `next_lba` only
//! grows), and `FlashSsd::write` rejects an LBA past `logical_pages`. With
//! a table of P pages a rep therefore walks 11 P logical addresses while
//! keeping only P live, and programs 31 P pages. The geometry below gives
//! just over 11 P logical pages, so the 31 P programs are about 2.4x the
//! physical pages and GC runs from about the fourth cycle on. The
//! ever-growing `next_lba` is recorded here, not fixed here.

use super::oracle::{self, Answer, DIGEST_SEED};
use super::{Config, Counts, Rep, Sim, Workload};
use crate::spans::Spans;
use smartssd::{DeviceKind, Layout, RunOptions, RunReport, SystemBuilder};
use smartssd_flash::FlashConfig;
use smartssd_storage::TableImage;
use smartssd_workload::{q6, queries, tpch};
use std::time::Instant;

pub const CYCLES: u64 = 10;
/// Dirty/checkpoint rounds per cycle.
pub const ROUNDS: u64 = 2;
const SF: f64 = 0.01;
const SF_SMOKE: f64 = 0.002;

/// The smallest 8-channel x 4-chip geometry whose logical space holds the
/// `(CYCLES + 1) * pages` addresses a rep walks, with 2 % to spare.
pub fn geometry(pages: u64) -> FlashConfig {
    let mut flash = FlashConfig {
        pages_per_block: 16,
        gc_low_water_blocks: 2,
        ..FlashConfig::default()
    };
    let per_block_row = (flash.channels * flash.chips_per_channel * flash.pages_per_block) as f64;
    let logical_needed = ((CYCLES + 1) * pages) as f64 * 1.02;
    let blocks = (logical_needed / (1.0 - flash.overprovision) / per_block_row).ceil() as usize;
    flash.blocks_per_chip = blocks.max(flash.gc_low_water_blocks + 2);
    flash
}

/// The seed of cycle `c`'s fresh rows.
pub fn cycle_seed(seed: u64, c: u64) -> u64 {
    seed.wrapping_add(1 + c)
}

pub struct UpdateMix {
    cfg: Config,
    sf: f64,
    img: TableImage,
    flash: FlashConfig,
    /// Q6 over each cycle's rows, computed on the first deep rep.
    reference: Option<Vec<Answer>>,
}

impl UpdateMix {
    pub fn setup(cfg: Config, spans: &mut Spans) -> Self {
        let sf = if cfg.smoke { SF_SMOKE } else { SF };
        let rows = (tpch::LINEITEM_ROWS_SF1 as f64 * sf) as u64;
        let img = super::stream_open::lineitem_slice(rows, cfg.seed, spans);
        Self {
            flash: geometry(img.num_pages() as u64),
            cfg,
            sf,
            img,
            reference: None,
        }
    }
}

impl Workload for UpdateMix {
    fn rep(&mut self, spans: &mut Spans, deep: bool) -> Rep {
        if deep && self.reference.is_none() {
            self.reference = Some(
                (0..CYCLES)
                    .map(|c| {
                        oracle::q6_from_rows(tpch::lineitem_rows(
                            self.sf,
                            cycle_seed(self.cfg.seed, c),
                        ))
                    })
                    .collect(),
            );
        }
        let query = q6();
        let pages = self.img.num_pages() as u64;
        let mut rep = Rep::default();
        let mut counts = Counts::default();
        let mut latencies = Vec::new();
        let mut digest = DIGEST_SEED;

        let t = Instant::now();
        let mut sys = spans.call("core.build", || {
            self.cfg
                .builder(SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax))
                .flash(self.flash.clone())
                .build()
        });
        spans
            .call("core.load_table", || {
                sys.load_table(queries::LINEITEM, &self.img)
            })
            .expect("load");
        sys.finish_load();
        for c in 0..CYCLES {
            let rows = tpch::lineitem_rows(self.sf, cycle_seed(self.cfg.seed, c));
            spans
                .call("core.update_table_rows", || {
                    sys.update_table_rows(queries::LINEITEM, rows)
                })
                .expect("update");
            let mut answers = Vec::new();
            let run = |sys: &mut smartssd::System, spans: &mut Spans| -> RunReport {
                spans
                    .call("core.run", || sys.run(&query, RunOptions::default()))
                    .expect("run")
            };
            for _ in 0..ROUNDS {
                sys.mark_dirty(queries::LINEITEM);
                let on_host = run(&mut sys, spans);
                spans
                    .call("core.checkpoint", || sys.checkpoint(queries::LINEITEM))
                    .expect("checkpoint");
                let on_device = run(&mut sys, spans);
                for r in [on_host, on_device] {
                    latencies.push(r.result.elapsed.as_nanos());
                    counts.pred_atoms += r.result.work.pred_atoms;
                    counts.tuples_scan_pax += r.result.work.tuples_pax;
                    counts.wasted_sim_ns += r.faults.wasted_ns;
                    rep.absorb_trace(&r.trace, r.result.elapsed.as_nanos());
                    answers.push((r.route, Answer::of(&r.result)));
                }
            }
            // Checks: the dirty rule routed as it must, and every answer of
            // the cycle is Q6 over the cycle's rows.
            let want = match (&self.reference, deep) {
                (Some(r), true) => r[c as usize].clone(),
                _ => answers[0].1.clone(),
            };
            for (i, (route, answer)) in answers.iter().enumerate() {
                let expect_route = if i % 2 == 0 {
                    smartssd::Route::Host
                } else {
                    smartssd::Route::Device
                };
                rep.failed += u64::from(*route != expect_route || *answer != want);
            }
            digest = want.fold_into(digest);
        }
        counts.open_sessions_end = sys.open_device_sessions() as u64;
        spans.call("core.drop_system", || drop(sys));
        rep.wall_ns = t.elapsed().as_nanos() as u64;

        let queries_run = CYCLES * ROUNDS * 2;
        let scans = queries_run * pages;
        let checkpoints = CYCLES * ROUNDS * pages;
        rep.arrivals = queries_run;
        rep.attempted = queries_run;
        rep.failed += counts.open_sessions_end;
        // Scanned, written by the load and the updates, and checkpointed.
        rep.pages = scans + (1 + CYCLES) * pages + checkpoints;
        rep.sim = Sim::new(latencies.iter().sum(), latencies, digest);

        let rows = (tpch::LINEITEM_ROWS_SF1 as f64 * self.sf) as u64;
        counts.rows_generated = CYCLES * rows;
        counts.pages_built_pax = CYCLES * pages;
        // Each new image is validated once per route's decode memo; the
        // second round of a cycle reads rewritten (checkpointed) buffers,
        // which share the allocation and hit.
        counts.pages_validated = 2 * CYCLES * pages;
        counts.pages_decode_hit = scans - counts.pages_validated;
        counts.flash_new = 1;
        counts.device_new = 1;
        counts.device_load_pages = pages;
        // The load programs a fresh device; everything after it programs
        // under trims and GC, which is what the overwrite probe replays
        // (its checkpoint reads and trims included, so they are not
        // counted again as reads).
        counts.flash_writes_fresh = pages;
        counts.flash_overwrites = CYCLES * pages + checkpoints;
        counts.flash_reads = scans;
        counts.device_pages = scans / 2;
        counts.sessions_linked = queries_run / 2;
        counts.wire_ops = queries_run / 2;
        counts.host_reads = scans / 2;
        counts.host_run_pages = scans / 2;
        counts.completed = rep.sim.completed;
        rep.counts = counts;
        rep
    }
}
