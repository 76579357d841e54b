//! Host read paths: storage device + interface + buffer pool composed into
//! a page stream for the query engine.
//!
//! The host route reads pages across the host interface into the buffer
//! pool and processes them on the host CPU. The paths here charge that data
//! movement: flash/disk mechanism time, then the interface bus. Like the
//! paper's measurement setup, sequential reads are issued as 32-page
//! (256 KB) commands, so the per-command protocol latency is amortized —
//! that is what lets SAS 6 Gbps achieve its full 550 MB/s in Table 2.
//!
//! There is one flash path, [`LinkedFlashView`]: every part borrowed, so the
//! SAS SSD baseline, a Smart SSD's host route and [`SsdHostPath`] (which
//! owns its parts) all read through it. The disk has its own,
//! [`HddHostPath`].

use crate::bufferpool::BufferPool;
use crate::hdd::HddModel;
use crate::interface::InterfaceKind;
use smartssd_flash::{FlashError, FlashSsd, READ_RETRY_LIMIT};
use smartssd_sim::{mb_per_sec, Bus, FaultCounters, SimTime};
use smartssd_storage::{page::PageError, PageBuf, PageDecodeCache, TableImage, PAGE_SIZE};
use std::fmt;

/// Pages per host I/O command (the paper's 32-page / 256 KB unit).
pub const PAGES_PER_COMMAND: u64 = 32;

/// Errors surfaced by a host read path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The underlying flash device failed the read.
    Flash(FlashError),
    /// The page image failed validation after transfer.
    Page(PageError),
    /// The HDD has no data at this address.
    HddUnmapped(u64),
    /// The driver's bounded retry policy ran out of budget.
    RetriesExhausted {
        /// Logical address of the failing page.
        lba: u64,
        /// Retries spent before giving up.
        attempts: u32,
        /// The error the final attempt failed with.
        cause: Box<IoError>,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Flash(e) => write!(f, "flash: {e}"),
            IoError::Page(e) => write!(f, "page: {e}"),
            IoError::HddUnmapped(l) => write!(f, "hdd: LBA {l} unwritten"),
            IoError::RetriesExhausted {
                lba,
                attempts,
                cause,
            } => write!(
                f,
                "read retries exhausted at LBA {lba} after {attempts} retries: {cause}"
            ),
        }
    }
}

impl std::error::Error for IoError {}

/// A stream of pages with simulated availability times.
pub trait PageSource {
    /// Reads one page; lends the page (the pool's or the decode memo's, so
    /// a warm read clones nothing) with the simulated time at which it is
    /// available to the consumer.
    fn read_page(&mut self, lba: u64, now: SimTime) -> Result<(&PageBuf, SimTime), IoError>;
}

/// I/O-command batching state: tracks whether the next page continues the
/// current 32-page command or starts a new one (paying the command setup).
#[derive(Debug, Clone, Default)]
pub struct CommandState {
    last_lba: Option<u64>,
    in_command: u64,
}

impl CommandState {
    /// Charges the command setup latency at batch boundaries: every
    /// `PAGES_PER_COMMAND` sequential pages, or on any discontinuity.
    fn setup_ns(&mut self, lba: u64, cmd_latency_ns: u64) -> u64 {
        let sequential = self.last_lba == Some(lba.wrapping_sub(1));
        self.last_lba = Some(lba);
        if sequential && self.in_command < PAGES_PER_COMMAND {
            self.in_command += 1;
            0
        } else {
            self.in_command = 1;
            cmd_latency_ns
        }
    }

    /// Forgets the current command (timing reset).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// SSD behind a host interface with a buffer pool, owned: the standalone
/// composition Table 2's external-bandwidth measurement reads through. It
/// reads through a [`LinkedFlashView`] over its own parts, so it charges
/// exactly what a `System`'s flash devices charge on the host route.
pub struct SsdHostPath {
    /// The flash device.
    pub ssd: FlashSsd,
    link: Bus,
    cmd_latency_ns: u64,
    /// The DBMS buffer pool.
    pub pool: BufferPool,
    cmd: CommandState,
    faults: FaultCounters,
    /// Per-LBA decode memo (not timing state; survives `reset_timing`).
    page_cache: PageDecodeCache,
}

impl SsdHostPath {
    /// Composes an SSD, an interface, and a pool of `pool_pages` pages.
    pub fn new(ssd: FlashSsd, interface: InterfaceKind, pool_pages: usize) -> Self {
        Self {
            ssd,
            link: Bus::new("host-interface", mb_per_sec(interface.effective_mbps()), 0),
            cmd_latency_ns: interface.command_latency_ns(),
            pool: BufferPool::new(pool_pages),
            cmd: CommandState::default(),
            faults: FaultCounters::default(),
            page_cache: PageDecodeCache::new(),
        }
    }

    /// Resets timing (not data or pool) between load and timed phases.
    pub fn reset_timing(&mut self) {
        self.ssd.reset_timing();
        self.link.reset();
        self.cmd.reset();
        self.faults = FaultCounters::default();
    }
}

impl PageSource for SsdHostPath {
    fn read_page(&mut self, lba: u64, now: SimTime) -> Result<(&PageBuf, SimTime), IoError> {
        LinkedFlashView {
            ssd: &mut self.ssd,
            link: &mut self.link,
            pool: &mut self.pool,
            cmd: &mut self.cmd,
            cmd_latency_ns: self.cmd_latency_ns,
            faults: &mut self.faults,
            page_cache: &mut self.page_cache,
        }
        .lend(lba, now)
    }
}

/// The host read path over a flash device: every part borrowed, so the
/// device can be owned elsewhere — by a Smart SSD, or by a plain SSD that is
/// a Smart SSD whose device route is refused.
pub struct LinkedFlashView<'a> {
    /// The borrowed flash device.
    pub ssd: &'a mut FlashSsd,
    /// The borrowed host interface.
    pub link: &'a mut Bus,
    /// The borrowed buffer pool.
    pub pool: &'a mut BufferPool,
    /// Command batching state.
    pub cmd: &'a mut CommandState,
    /// Per-command setup latency.
    pub cmd_latency_ns: u64,
    /// Fault counters the borrowed path reports recoveries into.
    pub faults: &'a mut FaultCounters,
    /// The borrowed per-LBA decode memo.
    pub page_cache: &'a mut PageDecodeCache,
}

impl PageSource for LinkedFlashView<'_> {
    /// The view's read loop, run on a view reborrowed from this one.
    fn read_page(&mut self, lba: u64, now: SimTime) -> Result<(&PageBuf, SimTime), IoError> {
        LinkedFlashView {
            ssd: self.ssd,
            link: self.link,
            pool: self.pool,
            cmd: self.cmd,
            cmd_latency_ns: self.cmd_latency_ns,
            faults: self.faults,
            page_cache: self.page_cache,
        }
        .lend(lba, now)
    }
}

impl<'a> LinkedFlashView<'a> {
    /// Pool hit, flash read under a bounded transparent retry policy,
    /// interface transfer with batched command setup, pool insert; the page
    /// is lent for as long as the view's parts are borrowed, the pool's on
    /// a hit and the decode memo's otherwise.
    ///
    /// Retries cover both uncorrectable device errors and checksum
    /// mismatches after transfer (silent corruption that escaped the device
    /// ECC), as a real driver + DBMS pair would. Each retry is issued at the
    /// *failed attempt's completion time* — an uncorrectable read held the
    /// device until `failed_at`, and a checksum mismatch is only seen once
    /// the page crossed the link — so recovery latency is charged to the
    /// run.
    fn lend(self, lba: u64, now: SimTime) -> Result<(&'a PageBuf, SimTime), IoError> {
        if let Some(frame) = self.pool.hit(lba) {
            return Ok((self.pool.frame(frame), now));
        }
        let mut t = now;
        let mut attempts = 0u32;
        let arrived = loop {
            let cause = match self.ssd.read_ref(lba, t) {
                Ok((data, iv)) => {
                    let setup = self.cmd.setup_ns(lba, self.cmd_latency_ns);
                    let link_iv = self
                        .link
                        .transfer_with_setup(iv.end, PAGE_SIZE as u64, setup);
                    // Pointer-identity memo: repeated reads of an unchanged
                    // LBA skip re-walking the 8 KB checksum; a rewritten or
                    // corrupt buffer misses the memo and is validated for
                    // real.
                    match self.page_cache.validate(lba, &data) {
                        Ok(()) => break link_iv.end,
                        Err(e) => {
                            // The DBMS checksum catches the escape only
                            // after the transfer: re-read from the link
                            // completion.
                            self.faults.escapes_detected += 1;
                            t = link_iv.end;
                            IoError::Page(e)
                        }
                    }
                }
                Err(FlashError::Uncorrectable { lba, failed_at }) => {
                    // The failed device attempt completed at failed_at; the
                    // driver retry starts there, not at the original `now`.
                    t = failed_at;
                    IoError::Flash(FlashError::Uncorrectable { lba, failed_at })
                }
                Err(e) => return Err(IoError::Flash(e)),
            };
            if attempts >= READ_RETRY_LIMIT {
                return Err(IoError::RetriesExhausted {
                    lba,
                    attempts,
                    cause: Box::new(cause),
                });
            }
            attempts += 1;
            self.faults.read_retries += 1;
        };
        let page = self.page_cache.page(lba).expect("validated above");
        self.pool.insert(lba, page.clone());
        Ok((page, arrived))
    }
}

/// HDD with a buffer pool — the paper's disk baseline (Table 3). The SAS
/// link is far faster than the platters, so its occupancy is folded into
/// the drive's own timing.
pub struct HddHostPath {
    /// The disk model.
    pub hdd: HddModel,
    /// The DBMS buffer pool.
    pub pool: BufferPool,
    /// Per-LBA decode memo (not timing state; survives `reset_timing`).
    page_cache: PageDecodeCache,
}

impl HddHostPath {
    /// Composes a disk and a pool.
    pub fn new(hdd: HddModel, pool_pages: usize) -> Self {
        Self {
            hdd,
            pool: BufferPool::new(pool_pages),
            page_cache: PageDecodeCache::new(),
        }
    }

    /// Writes `img` to the disk from `first_lba` on and seeds the decode
    /// memo with its pages ([`PageDecodeCache::seed`]), so a read that
    /// returns the buffer written here hashes nothing.
    pub fn load_table(&mut self, img: &TableImage, first_lba: u64) {
        for (i, page) in img.pages().iter().enumerate() {
            self.hdd
                .write(first_lba + i as u64, page.raw().clone(), SimTime::ZERO);
        }
        self.page_cache.seed(first_lba, img);
    }

    /// Resets timing (not data or pool).
    pub fn reset_timing(&mut self) {
        self.hdd.reset_timing();
    }
}

impl PageSource for HddHostPath {
    fn read_page(&mut self, lba: u64, now: SimTime) -> Result<(&PageBuf, SimTime), IoError> {
        if let Some(frame) = self.pool.hit(lba) {
            return Ok((self.pool.frame(frame), now));
        }
        let (data, iv) = self.hdd.read(lba, now).ok_or(IoError::HddUnmapped(lba))?;
        self.page_cache
            .validate(lba, &data)
            .map_err(IoError::Page)?;
        let page = self.page_cache.page(lba).expect("validated above");
        self.pool.insert(lba, page.clone());
        Ok((page, iv.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_flash::FlashConfig;
    use smartssd_storage::{DataType, Datum, Layout, Schema, TableBuilder};

    /// Builds a small table and loads it onto a default-geometry SSD.
    fn loaded_ssd(pages_wanted: usize) -> (FlashSsd, usize) {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let per_page = smartssd_storage::nsm::capacity(s.tuple_width());
        let mut b = TableBuilder::new("t", s, Layout::Nsm);
        b.extend(
            (0..(per_page * pages_wanted) as i32)
                .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)] as Vec<Datum>),
        );
        let img = b.finish();
        let mut ssd = FlashSsd::new(FlashConfig::default());
        for (lba, page) in img.pages().iter().enumerate() {
            ssd.write(lba as u64, page.raw().clone(), SimTime::ZERO)
                .unwrap();
        }
        ssd.reset_timing();
        (ssd, img.num_pages())
    }

    #[test]
    fn ssd_path_external_bandwidth_matches_table2() {
        let (ssd, n) = loaded_ssd(2048);
        let mut path = SsdHostPath::new(ssd, InterfaceKind::Sas6, 0);
        let mut done = SimTime::ZERO;
        for lba in 0..n as u64 {
            let (_, at) = path.read_page(lba, SimTime::ZERO).unwrap();
            done = done.max(at);
        }
        let mbps = (n * PAGE_SIZE) as f64 / done.as_secs_f64() / 1e6;
        assert!(
            (510.0..560.0).contains(&mbps),
            "external seq read {mbps:.0} MB/s, expected ~550 (Table 2)"
        );
    }

    #[test]
    fn buffer_pool_short_circuits_device() {
        let (ssd, _) = loaded_ssd(8);
        let mut path = SsdHostPath::new(ssd, InterfaceKind::Sas6, 16);
        let (_, cold) = path.read_page(0, SimTime::ZERO).unwrap();
        assert!(cold > SimTime::ZERO);
        let reads_before = path.ssd.stats().reads;
        let (_, warm) = path.read_page(0, SimTime::from_secs(1)).unwrap();
        // Cache hit: no new device read, available immediately.
        assert_eq!(path.ssd.stats().reads, reads_before);
        assert_eq!(warm, SimTime::from_secs(1));
    }

    #[test]
    fn random_reads_pay_command_latency_per_page() {
        let (ssd, n) = loaded_ssd(512);
        let mut seq = SsdHostPath::new(ssd, InterfaceKind::Sas6, 0);
        let mut seq_done = SimTime::ZERO;
        for lba in 0..n as u64 {
            seq_done = seq_done.max(seq.read_page(lba, SimTime::ZERO).unwrap().1);
        }
        let (ssd2, _) = loaded_ssd(512);
        let mut rnd = SsdHostPath::new(ssd2, InterfaceKind::Sas6, 0);
        let mut rnd_done = SimTime::ZERO;
        for i in 0..n as u64 {
            let lba = (i * 17) % n as u64; // co-prime stride
            rnd_done = rnd_done.max(rnd.read_page(lba, SimTime::ZERO).unwrap().1);
        }
        assert!(
            rnd_done > seq_done,
            "random {rnd_done} should exceed sequential {seq_done}"
        );
    }

    #[test]
    fn hdd_path_round_trips_pages() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = TableBuilder::new("t", s, Layout::Nsm);
        b.extend((0..500_000i32).map(|k| vec![Datum::I32(k)] as Vec<Datum>));
        let img = b.finish();
        let mut hdd = HddModel::new(crate::hdd::HddConfig::default());
        for (lba, page) in img.pages().iter().enumerate() {
            hdd.write(lba as u64, page.raw().clone(), SimTime::ZERO);
        }
        hdd.reset_timing();
        let mut path = HddHostPath::new(hdd, 0);
        let mut done = SimTime::ZERO;
        for lba in 0..img.num_pages() as u64 {
            let (page, at) = path.read_page(lba, SimTime::ZERO).unwrap();
            assert_eq!(page.layout(), Layout::Nsm);
            done = done.max(at);
        }
        let mbps = (img.num_pages() * PAGE_SIZE) as f64 / done.as_secs_f64() / 1e6;
        assert!((55.0..72.0).contains(&mbps), "HDD path {mbps:.0} MB/s");
    }

    #[test]
    fn hdd_unmapped_read_errors() {
        let hdd = HddModel::new(crate::hdd::HddConfig::default());
        let mut path = HddHostPath::new(hdd, 0);
        assert_eq!(
            path.read_page(3, SimTime::ZERO).unwrap_err(),
            IoError::HddUnmapped(3)
        );
    }

    #[test]
    fn uncorrectable_errors_are_retried_transparently() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = TableBuilder::new("t", s, Layout::Nsm);
        b.push(vec![Datum::I32(1)]);
        let img = b.finish();
        let cfg = FlashConfig {
            ecc_fail_rate: u32::MAX,
            ..FlashConfig::default()
        };
        let mut ssd = FlashSsd::new(cfg);
        ssd.write(0, img.pages()[0].raw().clone(), SimTime::ZERO)
            .unwrap();
        ssd.reset_timing();
        let mut path = SsdHostPath::new(ssd, InterfaceKind::Sas6, 0);
        // The injected failure is absorbed by the path's retry.
        let (page, _) = path.read_page(0, SimTime::ZERO).unwrap();
        assert_eq!(page.tuple_count(), 1);
        assert_eq!(path.ssd.stats().ecc_failures, 1);
    }
}
