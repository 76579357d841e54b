//! Flash controller timing: chip/channel interleaving and the serialized
//! DRAM bus.
//!
//! Models the data path of paper Section 2: NAND cell -> per-die register
//! (tR, occupies the die) -> channel bus transfer (+ ECC decode in the
//! per-channel engine) -> DMA onto the controller's DRAM over the single
//! shared DRAM bus. Chip-level interleaving (multiple dies per channel hide
//! tR) and channel-level interleaving (channels run in parallel) both fall
//! out of the per-resource timelines; the shared DRAM bus is the final
//! serialization point and caps achievable internal bandwidth — the reason
//! Table 2 reports 1,560 MB/s instead of the NAND aggregate.

use crate::config::FlashConfig;
use smartssd_sim::trace::pid;
use smartssd_sim::{Bus, Interval, SimTime, Timeline, TraceLevel, Tracer};

/// Timelines for every timing-relevant controller resource.
pub struct FlashTiming {
    cfg: FlashConfig,
    /// One timeline per die, channel-major.
    chips: Vec<Timeline>,
    /// One timeline per channel bus.
    channels: Vec<Timeline>,
    /// The single shared DRAM DMA bus.
    dram: Bus,
    tracer: Tracer,
    /// Scratch for [`Self::read_pages`] (per-chip page counts, batch
    /// handles, assignment cursors, and the intervals it returns), held
    /// across calls so the batched path allocates nothing per run.
    scratch: BatchScratch,
}

#[derive(Default)]
struct BatchScratch {
    per_chip_count: Vec<u64>,
    batches: Vec<Option<smartssd_sim::BatchIntervals>>,
    taken: Vec<u64>,
    out: Vec<Interval>,
}

impl FlashTiming {
    /// Creates idle timelines for the geometry.
    pub fn new(cfg: &FlashConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            chips: vec![Timeline::new(); cfg.channels * cfg.chips_per_channel],
            channels: vec![Timeline::new(); cfg.channels],
            dram: Bus::new("flash-dram", cfg.dram_bw, cfg.dram_latency_ns),
            tracer: Tracer::none(),
            scratch: BatchScratch::default(),
        }
    }

    /// Replaces the scripted fault plan. The timing model holds its own
    /// config copy, so [`crate::FlashSsd::arm_fault_plan`] threads the
    /// plan through here too.
    pub(crate) fn arm_fault_plan(&mut self, plan: smartssd_sim::DeviceFaultPlan) {
        self.cfg.fault_plan = plan;
    }

    /// Attaches a tracer: channel occupancy is emitted per page transfer
    /// (tid `1 + channel` under the flash pid) and the shared DRAM bus
    /// emits its transfers on tid 0.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dram.set_tracer(tracer.clone(), pid::FLASH, 0);
        self.tracer = tracer;
    }

    #[inline]
    fn chip_idx(&self, channel: u16, chip: u16) -> usize {
        channel as usize * self.cfg.chips_per_channel + chip as usize
    }

    /// Service time of the register->controller transfer plus ECC decode.
    fn channel_service_ns(&self) -> u64 {
        smartssd_sim::time::transfer_ns(self.cfg.page_size as u64, self.cfg.channel_bw)
            + self.cfg.ecc_ns
    }

    /// Charges one page read: die tR, channel transfer + ECC, DMA to DRAM.
    /// Returns the interval from issue to the page landing in device DRAM.
    ///
    /// A scripted [`smartssd_sim::FaultEvent::Slowdown`] window covering
    /// `now` scales all three occupancies by its factor (the DRAM share as
    /// extra per-request setup, so `bytes_moved` stays honest): a gray
    /// device loses time, not data.
    pub fn read_page(&mut self, channel: u16, chip: u16, now: SimTime) -> Interval {
        let ci = self.chip_idx(channel, chip);
        let factor = self.cfg.fault_plan.slowdown_factor(now) as u64;
        let svc = self.channel_service_ns() * factor;
        let cell = self.chips[ci].occupy(now, self.cfg.t_read_ns * factor);
        let xfer = self.channels[channel as usize].occupy(cell.end, svc);
        self.tracer.span(
            TraceLevel::Full,
            pid::FLASH,
            1 + channel as u32,
            "read",
            "flash-chan",
            xfer,
            &[("bytes", self.cfg.page_size as f64)],
        );
        let dma = if factor > 1 {
            let extra = (factor - 1)
                * smartssd_sim::time::transfer_ns(self.cfg.page_size as u64, self.cfg.dram_bw);
            self.dram
                .transfer_with_setup(xfer.end, self.cfg.page_size as u64, extra)
        } else {
            self.dram.transfer(xfer.end, self.cfg.page_size as u64)
        };
        Interval {
            start: cell.start,
            end: dma.end,
        }
    }

    /// True when no tracer wants per-transfer spans, so a batched charge
    /// (which would emit spans in a different interleaving) is
    /// indistinguishable from the page-at-a-time path.
    pub fn tracer_quiet(&self) -> bool {
        !self.tracer.active(TraceLevel::Full)
    }

    /// Charges a batch of page reads issued at the same instant, one per
    /// `(channel, chip)` coordinate, in coordinate order. Returns each
    /// page's issue-to-DRAM interval — bit-identical to calling
    /// [`Self::read_page`] in a loop.
    ///
    /// Equivalence: the per-page loop interleaves occupies on chip,
    /// channel, and DRAM timelines, but each timeline's state depends only
    /// on the sequence of `(earliest, service)` requests *it* receives, and
    /// those sequences are unchanged by regrouping across distinct
    /// timelines. So the charge runs in three stages — every chip first
    /// (per-chip runs are homogeneous `(now, t_read)` batches, posted with
    /// [`Timeline::occupy_batch`]), then every channel in page order (each
    /// page's transfer starts no earlier than its cell read's end), then
    /// the shared DRAM bus in page order — and produces the same intervals
    /// and the same final timeline states as the loop.
    ///
    /// The caller must check [`Self::tracer_quiet`] first: this path emits
    /// no per-transfer spans. Returns one interval per coordinate, in the
    /// timing's own scratch (valid until the next batch).
    pub fn read_pages(&mut self, coords: &[(u16, u16)], now: SimTime) -> &[Interval] {
        debug_assert!(self.tracer_quiet(), "batched reads skip trace spans");
        debug_assert!(
            !self.cfg.fault_plan.perturbs_reads(),
            "batched reads bypass scripted slowdowns/bursts; gate on can_batch_reads"
        );
        let svc = self.channel_service_ns();
        // Stage 1: cell reads. Group each chip's pages (they keep their
        // relative order) into one homogeneous occupy_batch; chips are
        // independent timelines, so the order chips are posted in does not
        // matter. The per-chip scratch is sized once and left zeroed by
        // every batch, which touches only the chips it reads.
        let n_chips = self.chips.len();
        if self.scratch.taken.len() != n_chips {
            self.scratch.per_chip_count = vec![0; n_chips];
            self.scratch.batches = vec![None; n_chips];
            self.scratch.taken = vec![0; n_chips];
        }
        for &(ch, chip) in coords {
            let ci = self.chip_idx(ch, chip);
            self.scratch.per_chip_count[ci] += 1;
        }
        for &(ch, chip) in coords {
            let ci = self.chip_idx(ch, chip);
            if self.scratch.batches[ci].is_none() {
                let count = self.scratch.per_chip_count[ci];
                self.scratch.batches[ci] =
                    Some(self.chips[ci].occupy_batch(now, self.cfg.t_read_ns, count));
            }
        }
        let mut out = std::mem::take(&mut self.scratch.out);
        out.clear();
        for &(ch, chip) in coords {
            let ci = self.chip_idx(ch, chip);
            let k = self.scratch.taken[ci];
            self.scratch.taken[ci] += 1;
            let cell = self.scratch.batches[ci].expect("chip has a batch").get(k);
            out.push(Interval {
                start: cell.start,
                end: cell.end,
            });
        }
        for &(ch, chip) in coords {
            let ci = self.chip_idx(ch, chip);
            self.scratch.per_chip_count[ci] = 0;
            self.scratch.batches[ci] = None;
            self.scratch.taken[ci] = 0;
        }
        // Stage 2: channel transfers in page order, each gated on its cell
        // read's completion.
        for (iv, &(ch, _)) in out.iter_mut().zip(coords) {
            let xfer = self.channels[ch as usize].occupy(iv.end, svc);
            iv.end = xfer.end;
        }
        // Stage 3: the shared DRAM bus in page order.
        for iv in out.iter_mut() {
            let dma = self.dram.transfer(iv.end, self.cfg.page_size as u64);
            iv.end = dma.end;
        }
        self.scratch.out = out;
        &self.scratch.out
    }

    /// Charges one page program: DMA from DRAM, channel transfer, die tPROG.
    pub fn program_page(&mut self, channel: u16, chip: u16, now: SimTime) -> Interval {
        let svc = self.channel_service_ns();
        let dma = self.dram.transfer(now, self.cfg.page_size as u64);
        let xfer = self.channels[channel as usize].occupy(dma.end, svc);
        self.tracer.span(
            TraceLevel::Full,
            pid::FLASH,
            1 + channel as u32,
            "program",
            "flash-chan",
            xfer,
            &[("bytes", self.cfg.page_size as f64)],
        );
        let ci = self.chip_idx(channel, chip);
        let prog = self.chips[ci].occupy(xfer.end, self.cfg.t_program_ns);
        Interval {
            start: dma.start,
            end: prog.end,
        }
    }

    /// Charges one block erase (occupies the die only).
    pub fn erase_block(&mut self, channel: u16, chip: u16, now: SimTime) -> Interval {
        let ci = self.chip_idx(channel, chip);
        self.chips[ci].occupy(now, self.cfg.t_erase_ns)
    }

    /// Total busy time of the shared DRAM bus, in nanoseconds (the device's
    /// internal-transfer activity, used for energy accounting).
    pub fn dram_busy_ns(&self) -> u64 {
        self.dram.busy_total_ns()
    }

    /// Utilization of the DRAM bus over `[0, elapsed]`.
    pub fn dram_utilization(&self, elapsed: SimTime) -> f64 {
        self.dram.utilization(elapsed)
    }

    /// Sum of die busy time, in nanoseconds.
    pub fn chips_busy_ns(&self) -> u64 {
        self.chips.iter().map(Timeline::busy_total_ns).sum()
    }

    /// The instant every resource is idle again.
    pub fn drained_at(&self) -> SimTime {
        let chips = self
            .chips
            .iter()
            .map(Timeline::busy_until)
            .max()
            .unwrap_or(SimTime::ZERO);
        let chans = self
            .channels
            .iter()
            .map(Timeline::busy_until)
            .max()
            .unwrap_or(SimTime::ZERO);
        chips.max(chans).max(self.dram.busy_until())
    }

    /// Resets all timelines to idle (e.g. between load phase and the timed
    /// query phase of an experiment).
    pub fn reset(&mut self) {
        for t in &mut self.chips {
            t.reset();
        }
        for t in &mut self.channels {
            t.reset();
        }
        self.dram.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `n` pages striped round-robin over channels and chips and
    /// returns achieved bandwidth in MB/s.
    fn striped_read_bw(cfg: &FlashConfig, n: usize) -> f64 {
        let mut t = FlashTiming::new(cfg);
        let mut done = SimTime::ZERO;
        for i in 0..n {
            let ch = (i % cfg.channels) as u16;
            let chip = ((i / cfg.channels) % cfg.chips_per_channel) as u16;
            done = done.max(t.read_page(ch, chip, SimTime::ZERO).end);
        }
        (n * cfg.page_size) as f64 / done.as_secs_f64() / 1e6
    }

    #[test]
    fn internal_bandwidth_matches_table2() {
        // Paper Table 2: internal sequential read ~1,560 MB/s, limited by
        // the shared DRAM bus rather than NAND aggregate.
        let bw = striped_read_bw(&FlashConfig::default(), 4096);
        assert!(
            (1500.0..1600.0).contains(&bw),
            "internal seq read {bw:.0} MB/s, expected ~1560"
        );
    }

    #[test]
    fn dram_bus_is_the_bottleneck() {
        let cfg = FlashConfig::default();
        let mut t = FlashTiming::new(&cfg);
        let mut done = SimTime::ZERO;
        for i in 0..2048usize {
            let ch = (i % cfg.channels) as u16;
            let chip = ((i / cfg.channels) % cfg.chips_per_channel) as u16;
            done = done.max(t.read_page(ch, chip, SimTime::ZERO).end);
        }
        assert!(
            t.dram_utilization(done) > 0.95,
            "DRAM util {}",
            t.dram_utilization(done)
        );
    }

    #[test]
    fn single_channel_reads_are_slower_than_striped() {
        let cfg = FlashConfig::default();
        let mut t = FlashTiming::new(&cfg);
        let mut done = SimTime::ZERO;
        let n = 1024usize;
        for i in 0..n {
            // All on channel 0, rotating chips (chip interleave only).
            let chip = (i % cfg.chips_per_channel) as u16;
            done = done.max(t.read_page(0, chip, SimTime::ZERO).end);
        }
        let bw = (n * cfg.page_size) as f64 / done.as_secs_f64() / 1e6;
        assert!(bw < 500.0, "single channel read {bw:.0} MB/s");
        assert!(bw > 200.0, "single channel read {bw:.0} MB/s");
    }

    #[test]
    fn chip_interleaving_hides_cell_read_time() {
        // With one die per channel the 50us tR serializes; with four dies it
        // overlaps the channel transfers and bandwidth rises.
        let one = FlashConfig {
            chips_per_channel: 1,
            channels: 1,
            ..FlashConfig::default()
        };
        let four = FlashConfig {
            chips_per_channel: 4,
            channels: 1,
            ..FlashConfig::default()
        };
        let bw1 = striped_read_bw(&one, 512);
        let bw4 = striped_read_bw(&four, 512);
        assert!(bw4 > bw1 * 2.0, "bw1={bw1:.0} bw4={bw4:.0}");
    }

    #[test]
    fn program_throughput_is_die_limited() {
        let cfg = FlashConfig::default();
        let mut t = FlashTiming::new(&cfg);
        let mut done = SimTime::ZERO;
        let n = 1024usize;
        for i in 0..n {
            let ch = (i % cfg.channels) as u16;
            let chip = ((i / cfg.channels) % cfg.chips_per_channel) as u16;
            done = done.max(t.program_page(ch, chip, SimTime::ZERO).end);
        }
        let bw = (n * cfg.page_size) as f64 / done.as_secs_f64() / 1e6;
        // 32 dies * 8KB/600us ~ 437 MB/s: far below read bandwidth.
        assert!((300.0..500.0).contains(&bw), "program bw {bw:.0} MB/s");
    }

    #[test]
    fn erase_occupies_die_blocking_reads() {
        let cfg = FlashConfig::default();
        let mut t = FlashTiming::new(&cfg);
        let e = t.erase_block(0, 0, SimTime::ZERO);
        assert_eq!(e.duration().as_nanos(), cfg.t_erase_ns);
        let r = t.read_page(0, 0, SimTime::ZERO);
        // The read queues behind the erase on the same die.
        assert!(r.start >= e.end);
        // A read on another die proceeds immediately.
        let r2 = t.read_page(0, 1, SimTime::ZERO);
        assert_eq!(r2.start, SimTime::ZERO);
    }

    #[test]
    fn reset_clears_all_resources() {
        let cfg = FlashConfig::default();
        let mut t = FlashTiming::new(&cfg);
        t.read_page(0, 0, SimTime::ZERO);
        t.reset();
        assert_eq!(t.dram_busy_ns(), 0);
        assert_eq!(t.chips_busy_ns(), 0);
        assert_eq!(t.drained_at(), SimTime::ZERO);
    }
}
