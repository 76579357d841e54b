//! Run-level utilization and fault reporting.

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// End-to-end fault observability for one run: every recovery action taken
/// between the NAND cells and the query result, so a "clean" figure can be
/// distinguished from one that silently absorbed retries.
///
/// Counters are additive across layers — the flash emulator contributes the
/// ECC events, the device/host read paths contribute re-reads and detected
/// escapes, and the system façade contributes fallbacks, the simulated time
/// wasted on failed device attempts, and the breaker and hedge counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Correctable read errors recovered by the device's own ECC re-read.
    pub ecc_retries: u64,
    /// Uncorrectable read errors surfaced past the device ECC.
    pub ecc_failures: u64,
    /// Silent corruptions (ECC escapes) caught by a consumer's page
    /// checksum after the fact.
    pub escapes_detected: u64,
    /// Page re-reads issued by the device firmware or host driver to
    /// recover from a surfaced error or a detected escape.
    pub read_retries: u64,
    /// Device-route runs that degraded to host-side execution.
    pub fallbacks: u64,
    /// Simulated time burned on failed device attempts before a fallback,
    /// in nanoseconds.
    pub wasted_ns: u64,
    /// Whole-device firmware crashes (every open session dies, the smart
    /// runtime is unavailable until the reset completes).
    pub device_crashes: u64,
    /// Sessions killed by device crashes before they could deliver.
    pub killed_sessions: u64,
    /// Simulated time the device spent resetting after crashes, in
    /// nanoseconds.
    pub reset_downtime_ns: u64,
    /// Breaker trips caused by sustained slow service (latency EWMA past
    /// the slow-trip threshold) rather than hard failures.
    pub slow_trips: u64,
    /// Host-side hedge runs launched against slow shards.
    pub hedges: u64,
    /// Hedge runs that beat the device shard they raced.
    pub hedge_wins: u64,
    /// Hedges wanted but denied because the retry budget was exhausted.
    pub hedge_denied: u64,
}

impl FaultCounters {
    /// Accumulates another layer's counters into this one.
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.ecc_retries += other.ecc_retries;
        self.ecc_failures += other.ecc_failures;
        self.escapes_detected += other.escapes_detected;
        self.read_retries += other.read_retries;
        self.fallbacks += other.fallbacks;
        self.wasted_ns += other.wasted_ns;
        self.device_crashes += other.device_crashes;
        self.killed_sessions += other.killed_sessions;
        self.reset_downtime_ns += other.reset_downtime_ns;
        self.slow_trips += other.slow_trips;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
        self.hedge_denied += other.hedge_denied;
    }

    /// Whether any fault or recovery action was recorded at all.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }

    /// Renders the counters as a JSON object (the schema documented in
    /// README/EXPERIMENTS): every field, in declaration order, as a
    /// non-negative integer.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ecc_retries\": {}, \"ecc_failures\": {}, \"escapes_detected\": {}, \
             \"read_retries\": {}, \"fallbacks\": {}, \"wasted_ns\": {}, \
             \"device_crashes\": {}, \"killed_sessions\": {}, \"reset_downtime_ns\": {}, \
             \"slow_trips\": {}, \"hedges\": {}, \"hedge_wins\": {}, \"hedge_denied\": {}}}",
            self.ecc_retries,
            self.ecc_failures,
            self.escapes_detected,
            self.read_retries,
            self.fallbacks,
            self.wasted_ns,
            self.device_crashes,
            self.killed_sessions,
            self.reset_downtime_ns,
            self.slow_trips,
            self.hedges,
            self.hedge_wins,
            self.hedge_denied
        )
    }
}

/// Injected whole-device fault rates: the failure domain above per-page
/// flash errors. A crash models a firmware fault that kills every open
/// query session at once and takes the smart runtime offline for
/// `reset_latency` of simulated time; the block-device path (and thus the
/// host route) survives, which is what makes health-aware rerouting pay.
///
/// All rates default to zero, so existing configurations draw no random
/// numbers and reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRates {
    /// Probability (out of 2^32, per session open) that the device firmware
    /// crashes while admitting the session.
    pub crash_rate: u32,
    /// Simulated time the device needs to reset after a crash before it
    /// accepts sessions again.
    pub reset_latency: SimTime,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self {
            crash_rate: 0,
            reset_latency: SimTime::from_micros(5_000),
        }
    }
}

impl FaultRates {
    /// Whether any fault injection is configured at all.
    pub fn any(&self) -> bool {
        self.crash_rate > 0
    }
}

/// Per-component utilization summary for one simulated run.
///
/// Collected by the façade after a query completes; used by the experiment
/// harness to explain *why* a configuration is slow (e.g. the device CPU at
/// ~100% on Q6 explains the 1.7x-instead-of-2.8x result in Section 4.2.1).
#[derive(Debug, Clone, Default)]
pub struct UtilizationReport {
    /// Simulated elapsed time of the run.
    pub elapsed: SimTime,
    /// Component name -> (busy nanoseconds, utilization in \[0,1\]).
    /// Names are [`crate::trace::intern`]ed: the component vocabulary is a
    /// handful of fixed resource labels, so per-run report assembly does
    /// not allocate key strings.
    pub components: BTreeMap<&'static str, (u64, f64)>,
}

impl UtilizationReport {
    /// Creates an empty report for a run of the given length.
    pub fn new(elapsed: SimTime) -> Self {
        Self {
            elapsed,
            components: BTreeMap::new(),
        }
    }

    /// Records a component's busy time; utilization is computed against the
    /// run length times `lanes` (for multi-lane resources such as CPU banks).
    pub fn record(&mut self, name: &str, busy_ns: u64, lanes: usize) {
        let cap = self.elapsed.as_nanos() as f64 * lanes.max(1) as f64;
        let util = if cap > 0.0 {
            (busy_ns as f64 / cap).min(1.0)
        } else {
            0.0
        };
        self.components
            .insert(crate::trace::intern(name), (busy_ns, util));
    }

    /// Utilization of a named component, if recorded.
    pub fn utilization(&self, name: &str) -> Option<f64> {
        self.components.get(name).map(|&(_, u)| u)
    }

    /// The component with the highest utilization — the pipeline bottleneck.
    pub fn bottleneck(&self) -> Option<(&str, f64)> {
        self.components
            .iter()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(&n, &(_, u))| (n, u))
    }
}

impl fmt::Display for UtilizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "elapsed {}", self.elapsed)?;
        for (name, (busy, util)) in &self.components {
            writeln!(
                f,
                "  {name:<18} busy {:>10.3}ms  util {:>5.1}%",
                *busy as f64 / 1e6,
                util * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_finds_bottleneck() {
        let mut r = UtilizationReport::new(SimTime::from_secs(1));
        r.record("bus", 500_000_000, 1);
        r.record("cpu", 900_000_000, 1);
        assert_eq!(r.utilization("bus"), Some(0.5));
        let (name, util) = r.bottleneck().unwrap();
        assert_eq!(name, "cpu");
        assert!((util - 0.9).abs() < 1e-9);
    }

    #[test]
    fn multi_lane_capacity() {
        let mut r = UtilizationReport::new(SimTime::from_secs(1));
        // 2 lanes, 1 lane-second busy => 50%.
        r.record("cpu", 1_000_000_000, 2);
        assert_eq!(r.utilization("cpu"), Some(0.5));
    }

    #[test]
    fn zero_elapsed_is_zero_util() {
        let mut r = UtilizationReport::new(SimTime::ZERO);
        r.record("x", 100, 1);
        assert_eq!(r.utilization("x"), Some(0.0));
        assert!(r.utilization("missing").is_none());
    }

    #[test]
    fn display_renders_components() {
        let mut r = UtilizationReport::new(SimTime::from_secs(1));
        r.record("bus", 100_000_000, 1);
        let s = r.to_string();
        assert!(s.contains("bus"));
        assert!(s.contains("10.0%"));
    }
}
