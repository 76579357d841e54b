//! Health-aware device routing: a deterministic circuit breaker.
//!
//! The Smart SSD's session protocol has a failure domain the block path does
//! not share: a firmware crash kills every open session and takes the smart
//! runtime offline for a whole reset window, while plain block reads (and
//! thus host-side execution) keep working. Without health tracking, every
//! arrival during sustained faults still pays for a doomed `OPEN` (and, in
//! linked mode, the command transfer) before falling back to the host — the
//! throughput cliff the `degrade` experiment measures.
//!
//! The breaker is the classic three-state machine, made fully deterministic
//! so fixed-seed runs replay bit-exactly:
//!
//! - **Closed** — device route allowed. Recoverable session faults are
//!   counted in a sliding window; once [`BreakerPolicy::failure_threshold`]
//!   faults land within [`BreakerPolicy::window`], the breaker trips.
//! - **Open** — arrivals route straight to the host with no device traffic
//!   at all. After [`BreakerPolicy::cooldown`] of simulated time the next
//!   arrival is admitted as a probe.
//! - **HalfOpen** — exactly one probe session is in flight; everyone else
//!   still routes to the host. The probe's outcome decides: success closes
//!   the breaker, another fault re-trips it for a fresh cooldown.
//!
//! Every transition is recorded with its simulated timestamp; the system
//! façade emits them as trace instants and surfaces them in
//! [`crate::WorkloadReport::breaker_transitions`].

use smartssd_sim::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Tuning knobs for the circuit breaker, validated at
/// [`crate::SystemBuilder::try_build`] time (nonzero window and threshold,
/// finite cooldown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Master switch. Off by default so every existing figure (and the
    /// golden `repro` output) is bit-identical: a disabled breaker never
    /// changes routing and records nothing.
    pub enabled: bool,
    /// Recoverable device faults within `window` that trip the breaker.
    pub failure_threshold: u32,
    /// Sliding window over which failures are counted.
    pub window: SimTime,
    /// Simulated time the breaker stays Open before admitting one probe.
    pub cooldown: SimTime,
    /// Slow-trip rule for gray failures: once the service-time EWMA exceeds
    /// `slow_trip_factor` times the calibrated baseline, the breaker opens
    /// even though every request *succeeded*. 0 disables the rule (the
    /// default), so latency is not even sampled and existing figures are
    /// untouched. A sick-but-not-dead device — scripted slowdown windows,
    /// ECC retry storms — never fails a request, so the failure counter
    /// alone would keep routing arrivals into a 16x-slower path.
    pub slow_trip_factor: u32,
    /// Number of leading service-time samples averaged into the latency
    /// baseline the slow-trip rule compares against. The first samples of a
    /// run are taken as representative of a healthy device; calibration
    /// never trips.
    pub baseline_samples: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            failure_threshold: 3,
            window: SimTime::from_millis(50),
            // Slightly longer than the default device reset latency (5 ms),
            // so a probe admitted after one cooldown finds a healthy device.
            cooldown: SimTime::from_millis(8),
            slow_trip_factor: 0,
            baseline_samples: 8,
        }
    }
}

impl BreakerPolicy {
    /// An enabled breaker with the default thresholds.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// The breaker's routing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Device route allowed; failures are being counted.
    Closed,
    /// Device route denied; arrivals go straight to the host.
    Open,
    /// One probe session decides whether to close or re-trip.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, used for trace instants and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One breaker state change, timestamped in the run's simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// When the transition happened.
    pub at: SimTime,
    /// The state entered.
    pub to: BreakerState,
}

/// The deterministic breaker state machine owned by [`crate::System`].
///
/// All decisions depend only on the policy and the simulated timestamps fed
/// in — there is no wall-clock or randomness, so replays are bit-exact.
/// Timestamps must be non-decreasing across calls; the event-driven
/// scheduler guarantees that by consulting the breaker in event order.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    /// Timestamps of recent recoverable faults, pruned to the window.
    failures: VecDeque<SimTime>,
    /// When the breaker last tripped (valid while Open).
    opened_at: SimTime,
    /// Whether the single HalfOpen probe has been handed out.
    probe_in_flight: bool,
    transitions: Vec<BreakerTransition>,
    /// Sum of the calibration samples (valid until `baseline_seen` reaches
    /// the policy's `baseline_samples`).
    baseline_sum_ns: u64,
    /// Calibration samples consumed so far.
    baseline_seen: u32,
    /// Calibrated healthy service time, ns. 0 until calibration completes.
    baseline_ns: u64,
    /// Integer EWMA of device service times, ns (gain 1/8).
    ewma_ns: u64,
    /// Consecutive post-calibration samples whose EWMA sat above the
    /// slow-trip threshold. Two are required to trip, so one extreme
    /// outlier can never open the breaker on its own.
    slow_streak: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(policy: BreakerPolicy) -> Self {
        Self {
            policy,
            state: BreakerState::Closed,
            failures: VecDeque::new(),
            opened_at: SimTime::ZERO,
            probe_in_flight: false,
            transitions: Vec::new(),
            baseline_sum_ns: 0,
            baseline_seen: 0,
            baseline_ns: 0,
            ewma_ns: 0,
            slow_streak: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a device-routed attempt may start at `now`. A disabled
    /// breaker always says yes. While Open, says no until the cooldown
    /// elapses, then transitions to HalfOpen and admits exactly one probe;
    /// further callers are denied until the probe's outcome is recorded.
    pub fn allows_device(&mut self, now: SimTime) -> bool {
        if !self.policy.enabled {
            return true;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= self.opened_at + self.policy.cooldown {
                    self.transition(now, BreakerState::HalfOpen);
                    self.probe_in_flight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records a device attempt that delivered its answer. Closes the
    /// breaker if this was the HalfOpen probe.
    pub fn record_success(&mut self, now: SimTime) {
        if !self.policy.enabled {
            return;
        }
        if self.state == BreakerState::HalfOpen {
            self.failures.clear();
            self.probe_in_flight = false;
            self.transition(now, BreakerState::Closed);
        }
    }

    /// Records a recoverable device fault (crash, exhausted retries, hang —
    /// anything the host recovers from by rerouting). Trips the breaker
    /// when the windowed count reaches the threshold, or immediately if the
    /// fault was the HalfOpen probe.
    pub fn record_failure(&mut self, now: SimTime) {
        if !self.policy.enabled {
            return;
        }
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.failures.push_back(now);
                let horizon = now.as_nanos().saturating_sub(self.policy.window.as_nanos());
                while self
                    .failures
                    .front()
                    .is_some_and(|t| t.as_nanos() < horizon)
                {
                    self.failures.pop_front();
                }
                if self.failures.len() as u64 >= u64::from(self.policy.failure_threshold) {
                    self.trip(now);
                }
            }
            // No device attempts run while Open, so nothing to record.
            BreakerState::Open => {}
        }
    }

    /// Feeds one successful device attempt's service time into the latency
    /// health score. Returns `true` when the sample tripped the slow-trip
    /// rule — sustained latency above `slow_trip_factor` times the
    /// calibrated baseline opens the breaker with zero hard failures; the
    /// caller should count that as a `slow_trips` fault.
    ///
    /// Deterministic integer arithmetic throughout: the first
    /// `baseline_samples` observations average into the baseline (never
    /// tripping), after which an EWMA with gain 1/8 tracks the service
    /// time. Tripping requires the EWMA above threshold on two consecutive
    /// samples, so a single outlier — however extreme — never opens the
    /// breaker alone. On a trip the EWMA rewinds to the baseline so the
    /// device is judged afresh when the probe closes the breaker —
    /// otherwise one poisoned average would re-trip instantly on recovery.
    /// Samples while Open are ignored (no device attempts run), and the
    /// HalfOpen probe's outcome is decided by success/failure, not speed.
    pub fn record_service_time(&mut self, now: SimTime, service: SimTime) -> bool {
        if !self.policy.enabled || self.policy.slow_trip_factor == 0 {
            return false;
        }
        if self.state != BreakerState::Closed {
            return false;
        }
        let sample = service.as_nanos();
        if self.baseline_seen < self.policy.baseline_samples {
            self.baseline_sum_ns += sample;
            self.baseline_seen += 1;
            if self.baseline_seen == self.policy.baseline_samples {
                self.baseline_ns = self.baseline_sum_ns / u64::from(self.baseline_seen);
                self.ewma_ns = self.baseline_ns;
            }
            return false;
        }
        self.ewma_ns = (self.ewma_ns as i64 + (sample as i64 - self.ewma_ns as i64) / 8) as u64;
        if self.ewma_ns
            > self
                .baseline_ns
                .saturating_mul(u64::from(self.policy.slow_trip_factor))
        {
            self.slow_streak += 1;
            if self.slow_streak >= 2 {
                self.trip(now);
                self.ewma_ns = self.baseline_ns;
                self.slow_streak = 0;
                return true;
            }
        } else {
            self.slow_streak = 0;
        }
        false
    }

    /// Releases the HalfOpen probe slot without deciding: the admitted
    /// attempt never reached the device (e.g. it was deferred on a full
    /// session table), so its outcome says nothing about health.
    pub fn probe_abandoned(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = false;
        }
    }

    /// Drains the transitions recorded since the last call.
    pub fn take_transitions(&mut self) -> Vec<BreakerTransition> {
        std::mem::take(&mut self.transitions)
    }

    fn trip(&mut self, now: SimTime) {
        self.failures.clear();
        self.probe_in_flight = false;
        self.opened_at = now;
        self.transition(now, BreakerState::Open);
    }

    fn transition(&mut self, at: SimTime, to: BreakerState) {
        self.state = to;
        self.transitions.push(BreakerTransition { at, to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            enabled: true,
            failure_threshold: 3,
            window: SimTime::from_nanos(100),
            cooldown: SimTime::from_nanos(50),
            ..BreakerPolicy::default()
        }
    }

    #[test]
    fn disabled_breaker_is_transparent() {
        let mut b = CircuitBreaker::new(BreakerPolicy::default());
        for t in 0..10 {
            assert!(b.allows_device(SimTime::from_nanos(t)));
            b.record_failure(SimTime::from_nanos(t));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.take_transitions().is_empty());
    }

    #[test]
    fn trips_after_threshold_within_window() {
        let mut b = CircuitBreaker::new(policy());
        b.record_failure(SimTime::from_nanos(10));
        b.record_failure(SimTime::from_nanos(20));
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(SimTime::from_nanos(30));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_device(SimTime::from_nanos(40)));
    }

    #[test]
    fn old_failures_age_out_of_the_window() {
        let mut b = CircuitBreaker::new(policy());
        b.record_failure(SimTime::from_nanos(0));
        b.record_failure(SimTime::from_nanos(10));
        // 200 is past the 100 ns window: both earlier failures age out.
        b.record_failure(SimTime::from_nanos(200));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_admits_exactly_one_probe() {
        let mut b = CircuitBreaker::new(policy());
        for t in [10, 11, 12] {
            b.record_failure(SimTime::from_nanos(t));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_device(SimTime::from_nanos(20)));
        // Cooldown (50 ns from the trip at 12) elapsed: one probe goes.
        assert!(b.allows_device(SimTime::from_nanos(70)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allows_device(SimTime::from_nanos(71)));
        b.record_success(SimTime::from_nanos(80));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_device(SimTime::from_nanos(81)));
    }

    #[test]
    fn failed_probe_retrips_for_a_fresh_cooldown() {
        let mut b = CircuitBreaker::new(policy());
        for t in [10, 11, 12] {
            b.record_failure(SimTime::from_nanos(t));
        }
        assert!(b.allows_device(SimTime::from_nanos(70)));
        b.record_failure(SimTime::from_nanos(75));
        assert_eq!(b.state(), BreakerState::Open);
        // The new cooldown counts from the re-trip at 75, not the first trip.
        assert!(!b.allows_device(SimTime::from_nanos(100)));
        assert!(b.allows_device(SimTime::from_nanos(125)));
    }

    #[test]
    fn abandoned_probe_frees_the_slot_without_deciding() {
        let mut b = CircuitBreaker::new(policy());
        for t in [10, 11, 12] {
            b.record_failure(SimTime::from_nanos(t));
        }
        assert!(b.allows_device(SimTime::from_nanos(70)));
        b.probe_abandoned();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The slot is free again for the next arrival.
        assert!(b.allows_device(SimTime::from_nanos(72)));
    }

    fn slow_policy() -> BreakerPolicy {
        BreakerPolicy {
            slow_trip_factor: 4,
            baseline_samples: 4,
            ..policy()
        }
    }

    #[test]
    fn slow_trip_opens_with_zero_hard_failures() {
        let mut b = CircuitBreaker::new(slow_policy());
        // Calibration: four healthy 100 ns services. Never trips.
        for t in 0..4 {
            assert!(!b.record_service_time(SimTime::from_nanos(t), SimTime::from_nanos(100)));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Gray failure: the device answers, 64x slower. The EWMA needs a
        // few samples to cross 4x baseline, then the breaker opens without
        // a single record_failure call.
        let mut tripped_at = None;
        for t in 10..40 {
            if b.record_service_time(SimTime::from_nanos(t), SimTime::from_nanos(6400)) {
                tripped_at = Some(t);
                break;
            }
        }
        assert!(tripped_at.is_some(), "sustained 64x latency must slow-trip");
        assert!(tripped_at.unwrap() > 10, "one slow sample must not trip");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn slow_trip_recovery_is_not_poisoned() {
        let mut b = CircuitBreaker::new(slow_policy());
        for t in 0..4 {
            b.record_service_time(SimTime::from_nanos(t), SimTime::from_nanos(100));
        }
        let mut t = 10;
        while !b.record_service_time(SimTime::from_nanos(t), SimTime::from_nanos(6400)) {
            t += 1;
        }
        // Probe succeeds after cooldown; the EWMA was rewound to baseline,
        // so healthy services keep the breaker closed instead of instantly
        // re-tripping off the poisoned average.
        assert!(b.allows_device(SimTime::from_nanos(t + 60)));
        b.record_success(SimTime::from_nanos(t + 70));
        assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..20 {
            assert!(
                !b.record_service_time(SimTime::from_nanos(t + 80 + i), SimTime::from_nanos(100))
            );
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn slow_trip_disabled_by_default_records_nothing() {
        let mut b = CircuitBreaker::new(policy());
        for t in 0..100 {
            assert!(!b.record_service_time(SimTime::from_nanos(t), SimTime::from_secs(1)));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.take_transitions().is_empty());
    }

    #[test]
    fn probe_dying_in_a_reset_storm_reopens_cleanly() {
        // Edge case: the HalfOpen probe is admitted, but the device is
        // still mid-reset (a storm pushed recovery back), so the attempt
        // never reaches a session — the caller abandons the probe, a later
        // arrival probes again, and its hard failure re-trips. The slot
        // must not leak and the transition log must stay coherent.
        let mut b = CircuitBreaker::new(policy());
        for t in [10, 11, 12] {
            b.record_failure(SimTime::from_nanos(t));
        }
        assert!(b.allows_device(SimTime::from_nanos(70)));
        b.probe_abandoned();
        // Slot free again; the next arrival takes it and dies for real.
        assert!(b.allows_device(SimTime::from_nanos(75)));
        b.record_failure(SimTime::from_nanos(76));
        assert_eq!(b.state(), BreakerState::Open);
        // Fresh cooldown counts from the re-trip.
        assert!(!b.allows_device(SimTime::from_nanos(100)));
        assert!(b.allows_device(SimTime::from_nanos(126)));
        let got: Vec<_> = b
            .take_transitions()
            .iter()
            .map(|t| (t.at.as_nanos(), t.to))
            .collect();
        assert_eq!(
            got,
            vec![
                (12, BreakerState::Open),
                (70, BreakerState::HalfOpen),
                (76, BreakerState::Open),
                (126, BreakerState::HalfOpen),
            ]
        );
    }

    #[test]
    fn transitions_are_timestamped_in_order() {
        let mut b = CircuitBreaker::new(policy());
        for t in [10, 11, 12] {
            b.record_failure(SimTime::from_nanos(t));
        }
        assert!(b.allows_device(SimTime::from_nanos(70)));
        b.record_success(SimTime::from_nanos(80));
        let trs = b.take_transitions();
        let got: Vec<_> = trs.iter().map(|t| (t.at.as_nanos(), t.to)).collect();
        assert_eq!(
            got,
            vec![
                (12, BreakerState::Open),
                (70, BreakerState::HalfOpen),
                (80, BreakerState::Closed),
            ]
        );
        assert!(b.take_transitions().is_empty());
    }
}
