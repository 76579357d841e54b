//! The assembled flash device: NAND array + FTL + controller timing.
//!
//! [`FlashSsd`] is the logical-block device both the host path and the
//! Smart SSD runtime sit on. Reads and writes move real bytes *and* charge
//! simulated time, so functional results and timing results always come
//! from the same execution.

use crate::config::FlashConfig;
use crate::ftl::Ftl;
use crate::nand::{NandArray, NandError};
use crate::timing::FlashTiming;
use bytes::Bytes;
use smartssd_sim::{Interval, SimTime};
use std::fmt;

/// Errors surfaced by the block interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// LBA beyond the advertised logical capacity.
    LbaOutOfRange(u64),
    /// Read of an LBA that was never written (or was trimmed).
    Unmapped(u64),
    /// No free space even after garbage collection.
    DeviceFull,
    /// Injected uncorrectable media error; a retry re-reads the page.
    /// `failed_at` is the simulated completion time of the failed read —
    /// retries must be issued no earlier than this, so recovery latency is
    /// charged to the run instead of replaying at the original issue time.
    Uncorrectable {
        /// Logical address of the failed read.
        lba: u64,
        /// Completion time of the failed read attempt.
        failed_at: SimTime,
    },
    /// Internal NAND rule violation — indicates an emulator bug.
    Nand(NandError),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::LbaOutOfRange(l) => write!(f, "LBA {l} out of range"),
            FlashError::Unmapped(l) => write!(f, "LBA {l} is unmapped"),
            FlashError::DeviceFull => write!(f, "device full (GC reclaimed nothing)"),
            FlashError::Uncorrectable { lba, failed_at } => {
                write!(
                    f,
                    "uncorrectable read error at LBA {lba} (failed at {failed_at})"
                )
            }
            FlashError::Nand(e) => write!(f, "NAND error: {e}"),
        }
    }
}

impl std::error::Error for FlashError {}

impl From<NandError> for FlashError {
    fn from(e: NandError) -> Self {
        FlashError::Nand(e)
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashStats {
    /// Page reads requested by the host/device runtime.
    pub reads: u64,
    /// Page writes requested by the host/device runtime.
    pub writes: u64,
    /// Valid-page relocations performed by garbage collection.
    pub gc_moves: u64,
    /// Block erases.
    pub erases: u64,
    /// Correctable read errors recovered by an ECC retry.
    pub ecc_retries: u64,
    /// Uncorrectable read errors surfaced to the caller.
    pub ecc_failures: u64,
    /// Silently-corrupted reads injected (ECC escapes).
    pub silent_corruptions: u64,
}

impl FlashStats {
    /// Write amplification: physical programs per host write.
    pub fn write_amplification(&self) -> f64 {
        if self.writes == 0 {
            1.0
        } else {
            (self.writes + self.gc_moves) as f64 / self.writes as f64
        }
    }
}

/// A deterministic xorshift generator for error injection — keeps failure
/// tests reproducible without pulling a full RNG into the device.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn next_u32(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 32) as u32
    }
}

/// The emulated SSD.
pub struct FlashSsd {
    cfg: FlashConfig,
    nand: NandArray,
    ftl: Ftl,
    timing: FlashTiming,
    stats: FlashStats,
    err_rng: XorShift,
    /// LBA that just failed with `Uncorrectable`; the retry succeeds
    /// (models a read-retry with adjusted reference voltages).
    pending_retry: Option<u64>,
    /// LBA whose last read returned silently-corrupted data; the re-read
    /// returns the true payload.
    pending_clean: Option<u64>,
}

impl FlashSsd {
    /// Builds an erased device.
    pub fn new(cfg: FlashConfig) -> Self {
        cfg.validate();
        Self {
            nand: NandArray::new(&cfg),
            ftl: Ftl::new(&cfg),
            timing: FlashTiming::new(&cfg),
            stats: FlashStats::default(),
            err_rng: XorShift(0x9E37_79B9_7F4A_7C15),
            pending_retry: None,
            pending_clean: None,
            cfg,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// Arms (or replaces) the scripted gray-failure plan on this device's
    /// flash path — the per-device fault-injection hook fleet chaos
    /// scenarios use. An empty plan disarms. The plan is threaded into the
    /// timing model too, which holds its own config copy.
    pub fn arm_fault_plan(&mut self, plan: smartssd_sim::DeviceFaultPlan) {
        self.cfg.fault_plan = plan.clone();
        self.timing.arm_fault_plan(plan);
    }

    /// Advertised logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// Operation counters so far.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Wear spread across all blocks `(min, max)` erase counts.
    pub fn wear_spread(&self) -> (u32, u32) {
        self.nand.wear_spread()
    }

    /// Busy time of the internal DRAM bus (energy accounting).
    pub fn dram_busy_ns(&self) -> u64 {
        self.timing.dram_busy_ns()
    }

    /// Attaches a tracer to the flash data path (channel occupancy and DRAM
    /// bus transfers).
    pub fn set_tracer(&mut self, tracer: smartssd_sim::Tracer) {
        self.timing.set_tracer(tracer);
    }

    /// DRAM bus utilization over `[0, elapsed]`.
    pub fn dram_utilization(&self, elapsed: SimTime) -> f64 {
        self.timing.dram_utilization(elapsed)
    }

    /// Resets timing state (not data): used between the untimed load phase
    /// and a timed experiment.
    pub fn reset_timing(&mut self) {
        self.timing.reset();
        self.stats = FlashStats::default();
    }

    /// Writes one logical page. Runs GC first if the target die is low on
    /// free blocks. Returns the simulated interval of the write itself.
    pub fn write(&mut self, lba: u64, data: Bytes, now: SimTime) -> Result<Interval, FlashError> {
        if lba >= self.ftl.logical_pages() {
            return Err(FlashError::LbaOutOfRange(lba));
        }
        assert_eq!(data.len(), self.cfg.page_size, "payload must be page-sized");
        // Invalidate the previous version, if any.
        if let Some(old) = self.ftl.lookup(lba) {
            self.nand.invalidate(old)?;
        }
        // Try the stripe target first; if that die is out of space even
        // after GC, spill to the next die (allocation is global even though
        // GC relocation is per-die).
        let dies = self.cfg.channels * self.cfg.chips_per_channel;
        for _ in 0..dies {
            let (ch, chip) = self.ftl.next_stripe();
            let gc_done = match self.ensure_space(ch, chip, now) {
                Ok(t) => t,
                Err(FlashError::DeviceFull) => continue,
                Err(e) => return Err(e),
            };
            let Some(ppa) = self.ftl.alloc_slot(ch, chip, &self.nand) else {
                continue;
            };
            self.nand.program(ppa, lba, data)?;
            self.ftl.map_set(lba, ppa);
            self.stats.writes += 1;
            // The host write waits for any GC that had to run first.
            return Ok(self.timing.program_page(ch, chip, gc_done.max(now)));
        }
        Err(FlashError::DeviceFull)
    }

    /// Reads one logical page: returns the payload and the simulated
    /// interval from issue to the page being available in device DRAM.
    pub fn read(&mut self, lba: u64, now: SimTime) -> Result<(Bytes, Interval), FlashError> {
        if lba >= self.ftl.logical_pages() {
            return Err(FlashError::LbaOutOfRange(lba));
        }
        let ppa = self.ftl.lookup(lba).ok_or(FlashError::Unmapped(lba))?;
        let data = self.nand.read(ppa)?;
        self.stats.reads += 1;
        let mut iv = self.timing.read_page(ppa.channel, ppa.chip, now);
        // Scripted ECC burst: a read of an afflicted LBA whose cell read
        // starts inside the window needs one correctable re-read. Data is
        // intact by construction — the burst costs time, never answers —
        // and the extra read is charged after the failed attempt, so
        // recovery latency lands on the run. Composes with (and runs
        // before) the rate-based injection below.
        if self.cfg.fault_plan.ecc_burst_hits(lba, iv.start) {
            self.stats.ecc_retries += 1;
            iv = Interval {
                start: iv.start,
                end: self.timing.read_page(ppa.channel, ppa.chip, iv.end).end,
            };
        }
        // Error injection: correctable errors cost a re-read; an
        // uncorrectable error is surfaced once, after which the retry (with
        // adjusted read-reference voltage) succeeds.
        if self.pending_retry == Some(lba) {
            self.pending_retry = None;
        } else if self.pending_clean == Some(lba) {
            self.pending_clean = None;
        } else if self.cfg.ecc_fail_rate > 0
            || self.cfg.ecc_retry_rate > 0
            || self.cfg.silent_corruption_rate > 0
        {
            // Injection enabled: one RNG draw per read. With all rates at
            // zero (the common configuration) this whole arm is skipped, so
            // clean reads hand back the shared payload with no RNG traffic
            // and no copies; a corrupted copy is only materialized below
            // when silent-corruption injection actually fires.
            let draw = self.err_rng.next_u32();
            if self.cfg.ecc_fail_rate > 0 && draw < self.cfg.ecc_fail_rate {
                self.stats.ecc_failures += 1;
                self.pending_retry = Some(lba);
                // The failed attempt still occupied the channel and chip:
                // report its completion time so the caller's retry starts
                // after it, not in parallel with it.
                return Err(FlashError::Uncorrectable {
                    lba,
                    failed_at: iv.end,
                });
            }
            if self.cfg.ecc_retry_rate > 0 && draw < self.cfg.ecc_retry_rate {
                self.stats.ecc_retries += 1;
                iv = Interval {
                    start: iv.start,
                    end: self.timing.read_page(ppa.channel, ppa.chip, iv.end).end,
                };
            }
            if self.cfg.silent_corruption_rate > 0 && draw < self.cfg.silent_corruption_rate {
                // An ECC escape: hand back a flipped byte with no error.
                // The next read of this LBA returns the true payload.
                self.stats.silent_corruptions += 1;
                self.pending_clean = Some(lba);
                let mut bad = data.to_vec();
                let idx = bad.len() / 2;
                bad[idx] ^= 0x01;
                return Ok((Bytes::from(bad), iv));
            }
        }
        Ok((data, iv))
    }

    /// True when a run of reads can be charged as one batch with results
    /// bit-identical to page-at-a-time [`Self::read`] calls: no error
    /// injection configured (so no RNG draws are owed), no one-shot retry
    /// or scrub pending, no scripted fault plan perturbing reads (each
    /// page must observe the slowdown factor / ECC burst in effect at its
    /// own start time), and no tracer expecting per-transfer spans.
    pub fn can_batch_reads(&self) -> bool {
        self.cfg.ecc_fail_rate == 0
            && self.cfg.ecc_retry_rate == 0
            && self.cfg.silent_corruption_rate == 0
            && !self.cfg.fault_plan.perturbs_reads()
            && self.pending_retry.is_none()
            && self.pending_clean.is_none()
            && self.timing.tracer_quiet()
    }

    /// Looks up and fetches one page's payload **without** charging timing
    /// or counting the read — the planning half of a batched read. Returns
    /// the payload and the physical `(channel, chip)` the page lives on.
    ///
    /// A caller that peeks and validates a run of pages one at a time,
    /// consuming each as it goes, and then posts [`Self::charge_reads`] for
    /// the consumed run's coordinates performs exactly the reads the
    /// sequential loop would. If a page fails to peek or validate, the run
    /// ends before it: the caller charges the run so far and reads the rest
    /// through [`Self::read`], with no state to unwind.
    pub fn peek_page(&self, lba: u64) -> Result<(Bytes, (u16, u16)), FlashError> {
        if lba >= self.ftl.logical_pages() {
            return Err(FlashError::LbaOutOfRange(lba));
        }
        let ppa = self.ftl.lookup(lba).ok_or(FlashError::Unmapped(lba))?;
        let data = self.nand.read(ppa)?;
        Ok((data, (ppa.channel, ppa.chip)))
    }

    /// Charges the timing and statistics for a batch of page reads issued
    /// at `now`, one per coordinate from [`Self::peek_page`], in order.
    /// Only meaningful when [`Self::can_batch_reads`] holds (checked by
    /// debug assertion): with injection disabled, [`Self::read`] is exactly
    /// "fetch payload + charge timing + count", which this call completes.
    pub fn charge_reads(&mut self, coords: &[(u16, u16)], now: SimTime) -> Vec<Interval> {
        self.charge_batch(coords, now).to_vec()
    }

    /// [`Self::charge_reads`] without the copy: the intervals stay in the
    /// timing model's scratch, valid until the next batch, so a caller that
    /// charges batch after batch allocates nothing.
    pub fn charge_batch(&mut self, coords: &[(u16, u16)], now: SimTime) -> &[Interval] {
        debug_assert!(self.can_batch_reads(), "batched charge with injection live");
        self.stats.reads += coords.len() as u64;
        self.timing.read_pages(coords, now)
    }

    /// Trims a logical page: the mapping is dropped and the physical page
    /// becomes GC fodder.
    pub fn trim(&mut self, lba: u64) -> Result<(), FlashError> {
        if lba >= self.ftl.logical_pages() {
            return Err(FlashError::LbaOutOfRange(lba));
        }
        if let Some(ppa) = self.ftl.lookup(lba) {
            self.nand.invalidate(ppa)?;
            self.ftl.map_clear(lba);
        }
        Ok(())
    }

    /// Runs garbage collection on a die until its free-block count reaches
    /// the low-water mark. Returns the sim time at which GC finished.
    fn ensure_space(&mut self, ch: u16, chip: u16, now: SimTime) -> Result<SimTime, FlashError> {
        let mut t = now;
        while self.ftl.free_blocks(ch, chip) < self.cfg.gc_low_water_blocks {
            let Some(victim) = self.ftl.pick_victim(ch, chip, &self.nand) else {
                // Nothing reclaimable; if we still have at least one free
                // block the write can proceed, otherwise the device is full.
                return if self.ftl.free_blocks(ch, chip) > 0 {
                    Ok(t)
                } else {
                    Err(FlashError::DeviceFull)
                };
            };
            // Relocate the victim's valid pages within the same die.
            for (page, lba) in self.nand.valid_pages(ch, chip, victim) {
                let src = crate::nand::Ppa {
                    channel: ch,
                    chip,
                    block: victim,
                    page,
                };
                let data = self.nand.read(src)?;
                t = self.timing.read_page(ch, chip, t).end;
                let dst = self
                    .ftl
                    .alloc_slot(ch, chip, &self.nand)
                    .ok_or(FlashError::DeviceFull)?;
                self.nand.program(dst, lba, data)?;
                t = self.timing.program_page(ch, chip, t).end;
                self.nand.invalidate(src)?;
                self.ftl.map_set(lba, dst);
                self.stats.gc_moves += 1;
            }
            self.nand.erase(ch, chip, victim)?;
            t = self.timing.erase_block(ch, chip, t).end;
            self.ftl.retire_victim(ch, chip, victim);
            self.stats.erases += 1;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(cfg: &FlashConfig, tag: u64) -> Bytes {
        let mut v = vec![0u8; cfg.page_size];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        Bytes::from(v)
    }

    #[test]
    fn write_read_round_trip() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        for lba in 0..10u64 {
            ssd.write(lba, page(&cfg, lba), SimTime::ZERO).unwrap();
        }
        for lba in 0..10u64 {
            let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
            assert_eq!(&data[..8], &lba.to_le_bytes());
        }
    }

    #[test]
    fn overwrite_returns_latest_version() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        ssd.write(3, page(&cfg, 100), SimTime::ZERO).unwrap();
        ssd.write(3, page(&cfg, 200), SimTime::ZERO).unwrap();
        let (data, _) = ssd.read(3, SimTime::ZERO).unwrap();
        assert_eq!(&data[..8], &200u64.to_le_bytes());
    }

    #[test]
    fn unmapped_and_out_of_range_reads_fail() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg);
        assert_eq!(
            ssd.read(0, SimTime::ZERO).unwrap_err(),
            FlashError::Unmapped(0)
        );
        let big = ssd.logical_pages();
        assert_eq!(
            ssd.read(big, SimTime::ZERO).unwrap_err(),
            FlashError::LbaOutOfRange(big)
        );
    }

    #[test]
    fn trim_unmaps() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        ssd.write(1, page(&cfg, 1), SimTime::ZERO).unwrap();
        ssd.trim(1).unwrap();
        assert_eq!(
            ssd.read(1, SimTime::ZERO).unwrap_err(),
            FlashError::Unmapped(1)
        );
        // Trimming again (or an unmapped LBA) is a no-op, not an error.
        ssd.trim(1).unwrap();
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_preserve_data() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        let logical = ssd.logical_pages();
        // Fill the device, then overwrite everything several times: GC must
        // kick in and every read must still return the latest version.
        let mut version = vec![0u64; logical as usize];
        let mut stamp = 0u64;
        for round in 0..6 {
            for lba in 0..logical {
                stamp += 1;
                version[lba as usize] = stamp;
                ssd.write(lba, page(&cfg, stamp), SimTime::ZERO)
                    .unwrap_or_else(|e| panic!("round {round} lba {lba}: {e}"));
            }
        }
        assert!(ssd.stats().gc_moves > 0, "GC never ran");
        assert!(ssd.stats().erases > 0);
        assert!(ssd.stats().write_amplification() > 1.0);
        for lba in 0..logical {
            let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
            assert_eq!(&data[..8], &version[lba as usize].to_le_bytes());
        }
    }

    #[test]
    fn random_overwrites_keep_wear_bounded() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        let logical = ssd.logical_pages();
        let mut rng = XorShift(12345);
        for lba in 0..logical {
            ssd.write(lba, page(&cfg, lba), SimTime::ZERO).unwrap();
        }
        for i in 0..3000u64 {
            let lba = (rng.next_u32() as u64) % logical;
            ssd.write(lba, page(&cfg, i), SimTime::ZERO).unwrap();
        }
        let (min, max) = ssd.wear_spread();
        // Wear-aware allocation keeps the spread within a modest band.
        assert!(
            max - min <= (max / 2).max(8),
            "wear spread too wide: min={min} max={max}"
        );
    }

    #[test]
    fn correctable_errors_retry_and_succeed() {
        let cfg = FlashConfig {
            ecc_retry_rate: u32::MAX / 2, // ~50% of reads need a retry
            ..FlashConfig::tiny()
        };
        let mut ssd = FlashSsd::new(cfg.clone());
        for lba in 0..20u64 {
            ssd.write(lba, page(&cfg, lba), SimTime::ZERO).unwrap();
        }
        for lba in 0..20u64 {
            let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
            assert_eq!(&data[..8], &lba.to_le_bytes());
        }
        assert!(ssd.stats().ecc_retries > 0);
    }

    #[test]
    fn uncorrectable_error_surfaces_then_retry_succeeds() {
        let cfg = FlashConfig {
            ecc_fail_rate: u32::MAX, // every fresh read fails once
            ..FlashConfig::tiny()
        };
        let mut ssd = FlashSsd::new(cfg.clone());
        ssd.write(0, page(&cfg, 7), SimTime::ZERO).unwrap();
        let err = ssd.read(0, SimTime::ZERO).unwrap_err();
        let failed_at = match err {
            FlashError::Uncorrectable { lba: 0, failed_at } => failed_at,
            other => panic!("expected Uncorrectable at LBA 0, got {other:?}"),
        };
        // The failed attempt was still charged to the channel/chip, so the
        // reported completion time is strictly after issue.
        assert!(failed_at > SimTime::ZERO);
        let (data, _) = ssd.read(0, SimTime::ZERO).unwrap();
        assert_eq!(&data[..8], &7u64.to_le_bytes());
        assert_eq!(ssd.stats().ecc_failures, 1);
    }

    #[test]
    fn silent_corruption_flips_bytes_then_clears_on_reread() {
        let cfg = FlashConfig {
            silent_corruption_rate: u32::MAX, // every fresh read corrupts
            ..FlashConfig::tiny()
        };
        let mut ssd = FlashSsd::new(cfg.clone());
        ssd.write(0, page(&cfg, 7), SimTime::ZERO).unwrap();
        let (bad, _) = ssd.read(0, SimTime::ZERO).unwrap();
        assert_ne!(bad, page(&cfg, 7), "first read should be corrupted");
        let (good, _) = ssd.read(0, SimTime::ZERO).unwrap();
        assert_eq!(good, page(&cfg, 7), "re-read must return the truth");
        assert!(ssd.stats().silent_corruptions >= 1);
    }

    #[test]
    fn reset_timing_clears_stats_not_data() {
        let cfg = FlashConfig::tiny();
        let mut ssd = FlashSsd::new(cfg.clone());
        ssd.write(0, page(&cfg, 1), SimTime::ZERO).unwrap();
        ssd.reset_timing();
        assert_eq!(ssd.stats().writes, 0);
        assert_eq!(ssd.dram_busy_ns(), 0);
        let (data, _) = ssd.read(0, SimTime::ZERO).unwrap();
        assert_eq!(&data[..8], &1u64.to_le_bytes());
    }

    #[test]
    fn batched_reads_match_sequential_reads() {
        // Two identically-written devices: one read page-at-a-time, one
        // through the peek/charge batch path. Every interval and counter
        // must agree.
        let cfg = FlashConfig::default();
        let build = || {
            let mut ssd = FlashSsd::new(cfg.clone());
            for lba in 0..300u64 {
                ssd.write(lba, page(&cfg, lba), SimTime::ZERO).unwrap();
            }
            ssd.reset_timing();
            ssd
        };
        let mut seq = build();
        let mut bat = build();
        let at = SimTime::from_nanos(17);

        let (seq_data, seq_ivs): (Vec<Bytes>, Vec<Interval>) =
            (0..300u64).map(|lba| seq.read(lba, at).unwrap()).unzip();

        assert!(bat.can_batch_reads());
        let mut coords = Vec::new();
        for lba in 0..300u64 {
            let (data, coord) = bat.peek_page(lba).unwrap();
            assert_eq!(data, seq_data[lba as usize]);
            coords.push(coord);
        }
        let bat_ivs = bat.charge_reads(&coords, at);
        assert_eq!(seq_ivs, bat_ivs);
        assert_eq!(bat.stats().reads, 300);
        assert_eq!(seq.dram_busy_ns(), bat.dram_busy_ns());

        // Timelines converged: the next sequential read on each device
        // lands on identical intervals.
        let (_, a) = seq.read(0, at).unwrap();
        let (_, b) = bat.read(0, at).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn injection_disables_read_batching() {
        let cfg = FlashConfig {
            ecc_retry_rate: 1,
            ..FlashConfig::tiny()
        };
        assert!(!FlashSsd::new(cfg).can_batch_reads());
        let clean = FlashConfig::tiny();
        assert!(FlashSsd::new(clean).can_batch_reads());
    }

    #[test]
    fn striped_table_read_achieves_internal_bandwidth() {
        // End-to-end Table 2 check at the device level: write a table
        // sequentially, then read it back and measure internal bandwidth.
        let cfg = FlashConfig::default();
        let mut ssd = FlashSsd::new(cfg.clone());
        let n: u64 = 4096;
        for lba in 0..n {
            ssd.write(lba, page(&cfg, lba), SimTime::ZERO).unwrap();
        }
        ssd.reset_timing();
        let mut done = SimTime::ZERO;
        for lba in 0..n {
            let (_, iv) = ssd.read(lba, SimTime::ZERO).unwrap();
            done = done.max(iv.end);
        }
        let bw = (n * cfg.page_size as u64) as f64 / done.as_secs_f64() / 1e6;
        assert!(
            (1450.0..1600.0).contains(&bw),
            "device-level internal read {bw:.0} MB/s, expected ~1560"
        );
    }
}
