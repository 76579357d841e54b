//! Flash device geometry and timing parameters.

use smartssd_sim::DeviceFaultPlan;

/// Geometry and timing of the emulated SSD.
///
/// Defaults are calibrated so that the assembled device reproduces the
/// paper's Table 2: ~550 MB/s external sequential read (set by the host
/// interface, see the host crate) and ~1,560 MB/s internal sequential read
/// (set here by the shared DRAM bus).
#[derive(Debug, Clone)]
pub struct FlashConfig {
    /// Number of independent flash channels.
    pub channels: usize,
    /// NAND dies per channel (chip-level interleaving depth).
    pub chips_per_channel: usize,
    /// Erase blocks per chip.
    pub blocks_per_chip: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Page size in bytes (matches the host's 8 KB database page).
    pub page_size: usize,
    /// Fraction of physical capacity hidden from the logical space for GC
    /// headroom (overprovisioning).
    pub overprovision: f64,
    /// Cell-to-register read time, nanoseconds (tR).
    pub t_read_ns: u64,
    /// Program time, nanoseconds (tPROG).
    pub t_program_ns: u64,
    /// Block erase time, nanoseconds (tBERS).
    pub t_erase_ns: u64,
    /// Per-channel register<->controller transfer bandwidth, bytes/s.
    pub channel_bw: u64,
    /// Shared controller-DRAM DMA bandwidth, bytes/s. All channels contend
    /// for this single bus (paper Section 2 / Section 4.2).
    pub dram_bw: u64,
    /// Per-transfer DMA setup latency on the DRAM bus, nanoseconds.
    pub dram_latency_ns: u64,
    /// ECC decode latency per page read, nanoseconds.
    pub ecc_ns: u64,
    /// Deterministic injected rate of correctable read errors (per read,
    /// out of 2^32). Each costs a re-read of the page. 0 disables.
    pub ecc_retry_rate: u32,
    /// Deterministic injected rate of uncorrectable read errors (per read,
    /// out of 2^32). Surfaced to the caller as [`crate::FlashError::Uncorrectable`].
    pub ecc_fail_rate: u32,
    /// Deterministic injected rate of *silent* corruption (per read, out of
    /// 2^32): the returned payload has a flipped byte and no error is
    /// raised — an ECC escape. Consumers detect it via the page checksum
    /// and re-read. 0 disables.
    pub silent_corruption_rate: u32,
    /// GC trigger: collect when a chip's free blocks drop below this count.
    pub gc_low_water_blocks: usize,
    /// Scripted gray-failure plan for this device's flash path: slowdown
    /// windows scale cell/channel/DRAM occupancy, ECC bursts charge
    /// deterministic correctable re-reads over an LBA extent. Empty by
    /// default — no timing change, no extra draws, goldens untouched.
    /// (Scripted crashes live on the device config, not here.)
    pub fault_plan: DeviceFaultPlan,
}

impl FlashConfig {
    /// Total physical pages.
    pub fn physical_pages(&self) -> u64 {
        (self.channels * self.chips_per_channel * self.blocks_per_chip * self.pages_per_block)
            as u64
    }

    /// Logical pages exposed after overprovisioning.
    pub fn logical_pages(&self) -> u64 {
        (self.physical_pages() as f64 * (1.0 - self.overprovision)) as u64
    }

    /// Logical capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages() * self.page_size as u64
    }

    /// A small geometry for unit tests: fast to fill, quick to trigger GC.
    pub fn tiny() -> Self {
        Self {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 8,
            pages_per_block: 8,
            page_size: 512,
            overprovision: 0.25,
            gc_low_water_blocks: 2,
            ..Self::default()
        }
    }

    /// Checks internal consistency, naming the first rule a nonsensical
    /// geometry breaks.
    pub fn check(&self) -> Result<(), &'static str> {
        let rules = [
            (self.channels >= 1, "need at least one channel"),
            (self.chips_per_channel >= 1, "need at least one chip"),
            (
                self.blocks_per_chip >= 2,
                "need at least two blocks per chip",
            ),
            (
                self.pages_per_block >= 1,
                "need at least one page per block",
            ),
            (self.page_size >= 16, "page size too small"),
            (
                (0.0..0.9).contains(&self.overprovision),
                "overprovision must be in [0, 0.9)",
            ),
            (
                self.gc_low_water_blocks >= 1,
                "GC low-water mark must be >= 1",
            ),
            (
                self.gc_low_water_blocks < self.blocks_per_chip,
                "GC low-water mark must leave usable blocks",
            ),
            (
                self.channel_bw > 0 && self.dram_bw > 0,
                "channel and DRAM bandwidth must be positive",
            ),
        ];
        match rules.iter().find(|(holds, _)| !holds) {
            Some(&(_, broken)) => Err(broken),
            None => Ok(()),
        }
    }

    /// Sequential read bandwidth inside the device, bytes/s: every page
    /// read crosses the shared DRAM bus once and pays its DMA setup, which
    /// bounds the whole device (~1,560 MB/s on the default, Table 2).
    pub fn internal_read_bw(&self) -> f64 {
        let page = self.page_size as f64;
        page / (page / self.dram_bw as f64 + self.dram_latency_ns as f64 * 1e-9)
    }

    /// [`FlashConfig::check`], panicking with the broken rule.
    pub fn validate(&self) {
        if let Err(broken) = self.check() {
            panic!("{broken}");
        }
    }
}

impl Default for FlashConfig {
    /// Paper-calibrated device: 8 channels x 4 chips; DRAM bus at 1,600 MB/s
    /// yields ~1,560 MB/s achieved internal sequential read (Table 2) after
    /// DMA setup overheads.
    fn default() -> Self {
        Self {
            channels: 8,
            chips_per_channel: 4,
            blocks_per_chip: 256,
            pages_per_block: 64,
            page_size: 8192,
            overprovision: 0.125,
            t_read_ns: 50_000,       // 50 us tR (MLC-era NAND)
            t_program_ns: 600_000,   // 600 us tPROG
            t_erase_ns: 3_000_000,   // 3 ms tBERS
            channel_bw: 400_000_000, // 400 MB/s ONFI-style channel
            dram_bw: 1_600_000_000,  // 1.6 GB/s shared DRAM DMA bus
            dram_latency_ns: 120,
            ecc_ns: 3_000,
            ecc_retry_rate: 0,
            ecc_fail_rate: 0,
            silent_corruption_rate: 0,
            gc_low_water_blocks: 4,
            fault_plan: DeviceFaultPlan::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_internal_read_is_table_2s() {
        let mbps = FlashConfig::default().internal_read_bw() / 1e6;
        assert!((mbps - 1_560.0).abs() < 10.0, "{mbps} MB/s");
    }

    #[test]
    fn default_capacity_is_plausible() {
        let c = FlashConfig::default();
        c.validate();
        // 8 * 4 * 256 * 64 pages * 8 KB = 4 GiB physical.
        assert_eq!(c.physical_pages(), 524_288);
        assert!(c.logical_pages() < c.physical_pages());
        assert!(c.logical_bytes() > 3_500_000_000);
    }

    #[test]
    fn tiny_geometry_valid() {
        let c = FlashConfig::tiny();
        c.validate();
        assert_eq!(c.physical_pages(), 2 * 2 * 8 * 8);
    }

    #[test]
    #[should_panic(expected = "overprovision")]
    fn bad_overprovision_rejected() {
        let c = FlashConfig {
            overprovision: 0.95,
            ..FlashConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "low-water")]
    fn bad_gc_water_mark_rejected() {
        let c = FlashConfig {
            gc_low_water_blocks: 0,
            ..FlashConfig::default()
        };
        c.validate();
    }
}
