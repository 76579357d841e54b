//! Smart SSD device-side configuration.

use smartssd_exec::CostTable;
use smartssd_sim::{DeviceFaultPlan, FaultRates};

/// Resources of the embedded computer inside the Smart SSD.
///
/// The paper describes "a low-powered 32-bit RISC processor, like an ARM
/// series processor, which typically has multiple cores" (Section 2) and
/// notes that "the CPU quickly became a bottleneck as the Smart SSD that we
/// used was not designed to run general purpose programs" (Section 5).
/// Defaults are calibrated with the cost table so the end-to-end system
/// reproduces the paper's ratios.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Embedded cores available to user sessions (beyond FTL duties).
    pub cpu_cores: usize,
    /// Embedded core clock, Hz.
    pub cpu_hz: u64,
    /// Device DRAM available as session memory grants, bytes. A session
    /// whose hash table outgrows its grant fails with
    /// [`crate::DeviceError::MemoryGrantExceeded`] and the host must fall
    /// back to host-side execution.
    pub session_memory_bytes: u64,
    /// Maximum concurrent sessions (thread grants).
    pub max_sessions: usize,
    /// Result buffer size: a `GET` retrieves at most this many bytes of
    /// output per poll (the protocol rides on fixed-size block transfers).
    pub result_buffer_bytes: u64,
    /// Device-side shared scans (MQO-style fan-out): when enabled,
    /// concurrent scan sessions over the same extent reuse each other's
    /// page reads — each flash page is fetched once and fanned out from
    /// device DRAM to every attached session, so N concurrent scans of one
    /// table cost ~1x flash traffic instead of Nx. Only the scan-shaped
    /// operators (`Scan`, `ScanAgg`) participate; answers are unchanged,
    /// only timing and flash traffic shift. Off by default so every
    /// single-query figure stays bit-identical.
    pub shared_scans: bool,
    /// Injected whole-device fault rates (firmware crash/reset). Zero by
    /// default, so no random numbers are drawn and clean runs reproduce
    /// bit-identically.
    pub fault_rates: FaultRates,
    /// Scripted gray-failure plan for the smart runtime: crash instants
    /// fire deterministically at the first session activity at or after
    /// each scripted time (same reset machinery as `fault_rates`, minus
    /// the randomness), and slowdown windows scale the embedded CPU's
    /// per-batch occupancy. Empty by default; composes with `fault_rates`.
    /// (The flash-path events of the same plan live on the flash config.)
    pub fault_plan: DeviceFaultPlan,
    /// Cycle prices for the embedded CPU.
    pub costs: CostTable,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            cpu_cores: 2,
            cpu_hz: 400_000_000,
            session_memory_bytes: 256 * 1024 * 1024,
            max_sessions: 4,
            result_buffer_bytes: 8 * 1024 * 1024,
            shared_scans: false,
            fault_rates: FaultRates::default(),
            fault_plan: DeviceFaultPlan::default(),
            costs: CostTable::device(),
        }
    }
}

impl DeviceConfig {
    /// Validates the configuration.
    pub fn validate(&self) {
        assert!(self.cpu_cores >= 1, "need at least one device core");
        assert!(self.cpu_hz > 0, "device clock must be positive");
        assert!(self.max_sessions >= 1, "need at least one session slot");
        assert!(
            self.result_buffer_bytes >= 4096,
            "result buffer unreasonably small"
        );
    }

    /// Total cycles per second across cores.
    pub fn cycles_per_sec(&self) -> u64 {
        self.cpu_cores as u64 * self.cpu_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_modest() {
        let c = DeviceConfig::default();
        c.validate();
        // The device must be far weaker than the host's Xeons - that
        // imbalance is the paper's central tension.
        assert!(c.cycles_per_sec() < 2_260_000_000);
    }

    #[test]
    #[should_panic(expected = "device core")]
    fn zero_cores_rejected() {
        DeviceConfig {
            cpu_cores: 0,
            ..DeviceConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "session slot")]
    fn zero_sessions_rejected() {
        DeviceConfig {
            max_sessions: 0,
            ..DeviceConfig::default()
        }
        .validate();
    }
}
