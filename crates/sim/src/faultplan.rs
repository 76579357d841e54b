//! Scripted, deterministic gray-failure plans.
//!
//! Rate-based injection ([`crate::FaultRates`], the flash ECC knobs) answers
//! "how does the stack behave under *this much* random failure"; it cannot
//! express the scenarios production fleets actually die from — one device
//! that turns 5x slow at 10:00 and recovers at 10:05, a firmware crash in
//! the middle of the busy hour, an ECC storm confined to one worn extent.
//! A [`FaultPlan`] scripts exactly those: a list of fault *events* pinned to
//! simulated time (and, for fleets, to a device index), applied
//! deterministically in the flash/device timing so a scenario replays
//! bit-exactly under any seed.
//!
//! Plans compose with the rate-based knobs: both can be armed at once, and
//! an empty plan (the default everywhere) perturbs nothing — no extra RNG
//! draws, no timing change, so existing goldens stay byte-identical.
//!
//! All windows are half-open `[from, until)` on the simulated clock.

use crate::time::SimTime;

/// One scripted fault event. `device` is a fleet device index; single-device
/// systems use index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A gray failure: between `from` and `until`, every flash read issued
    /// on `device` occupies its NAND cell, channel, and device-DRAM slots
    /// for `factor`x the healthy duration (a retention-scrub storm, a
    /// thermally throttled die, background firmware work stealing channel
    /// time). The device stays up and answers stay correct — only time is
    /// lost, which is exactly what failure-count breakers miss.
    Slowdown {
        /// Fleet device index the slowdown applies to.
        device: usize,
        /// Occupancy multiplier (1 = healthy; 2–16x are realistic grays).
        factor: u32,
        /// Window start (inclusive), simulated time.
        from: SimTime,
        /// Window end (exclusive), simulated time.
        until: SimTime,
    },
    /// A fail-stop event: the device firmware crashes at the first session
    /// activity at or after `at` — every open session dies, and the smart
    /// runtime is offline for the configured reset latency (the same
    /// machinery as rate-based [`crate::FaultRates`] crashes, minus the
    /// randomness).
    CrashAt {
        /// Fleet device index that crashes.
        device: usize,
        /// Simulated time at (or after) which the crash fires.
        at: SimTime,
    },
    /// A localized media fault: reads of LBAs in `[lba_from, lba_until)`
    /// during the window each need one correctable ECC re-read (a worn
    /// block, a read-disturbed neighborhood). Correctable by construction:
    /// data is intact, the cost is an extra cell read per hit.
    EccBurst {
        /// Fleet device index the burst applies to.
        device: usize,
        /// First LBA of the afflicted extent (inclusive).
        lba_from: u64,
        /// One past the last afflicted LBA (exclusive).
        lba_until: u64,
        /// Window start (inclusive), simulated time.
        from: SimTime,
        /// Window end (exclusive), simulated time.
        until: SimTime,
    },
}

impl FaultEvent {
    /// The fleet device index this event targets.
    pub fn device(&self) -> usize {
        match *self {
            FaultEvent::Slowdown { device, .. }
            | FaultEvent::CrashAt { device, .. }
            | FaultEvent::EccBurst { device, .. } => device,
        }
    }
}

/// A scripted fault scenario: an ordered list of [`FaultEvent`]s across a
/// fleet. Build with the fluent methods, then split into per-device views
/// with [`FaultPlan::for_device`] when arming a device's config.
///
/// The default plan is empty and perturbs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no scripted faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a [`FaultEvent::Slowdown`] window. Factors below 1 are
    /// clamped to 1 (no speed-ups: this is a fault model).
    pub fn slowdown(mut self, device: usize, factor: u32, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::Slowdown {
            device,
            factor: factor.max(1),
            from,
            until,
        });
        self
    }

    /// Adds a [`FaultEvent::CrashAt`].
    pub fn crash_at(mut self, device: usize, at: SimTime) -> Self {
        self.events.push(FaultEvent::CrashAt { device, at });
        self
    }

    /// Adds a [`FaultEvent::EccBurst`] over an LBA range.
    pub fn ecc_burst(
        mut self,
        device: usize,
        lbas: std::ops::Range<u64>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::EccBurst {
            device,
            lba_from: lbas.start,
            lba_until: lbas.end,
            from,
            until,
        });
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan scripts nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events affecting one fleet device, folded into the flat view the
    /// flash/device layers consume.
    pub fn for_device(&self, device: usize) -> DeviceFaultPlan {
        let mut plan = DeviceFaultPlan::default();
        for ev in &self.events {
            if ev.device() != device {
                continue;
            }
            match *ev {
                FaultEvent::Slowdown {
                    factor,
                    from,
                    until,
                    ..
                } => plan.slowdowns.push((factor, from, until)),
                FaultEvent::CrashAt { at, .. } => plan.crashes.push(at),
                FaultEvent::EccBurst {
                    lba_from,
                    lba_until,
                    from,
                    until,
                    ..
                } => plan.bursts.push((lba_from, lba_until, from, until)),
            }
        }
        plan.crashes.sort_unstable();
        plan
    }
}

/// One device's slice of a [`FaultPlan`]: what the flash emulator and smart
/// runtime actually consult on their hot paths. Slowdowns and ECC bursts are
/// consumed by the flash layer; crash instants by the device runtime.
///
/// Empty (the default) scripts nothing: every read sees a slowdown factor
/// of 1 and no burst, so the device times its reads as a healthy one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceFaultPlan {
    /// (factor, from, until) slowdown windows.
    slowdowns: Vec<(u32, SimTime, SimTime)>,
    /// Scripted crash instants, sorted ascending.
    crashes: Vec<SimTime>,
    /// (lba_from, lba_until, from, until) correctable ECC bursts.
    bursts: Vec<(u64, u64, SimTime, SimTime)>,
}

impl DeviceFaultPlan {
    /// Whether this device's plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty() && self.crashes.is_empty() && self.bursts.is_empty()
    }

    /// The occupancy multiplier in effect at `at` (1 = healthy). When
    /// windows overlap, the largest factor wins — the device is as slow as
    /// its worst affliction, not the product of them.
    pub fn slowdown_factor(&self, at: SimTime) -> u32 {
        self.slowdowns
            .iter()
            .filter(|&&(_, from, until)| at >= from && at < until)
            .map(|&(f, _, _)| f)
            .max()
            .unwrap_or(1)
    }

    /// Whether a read of `lba` starting at `at` lands in a scripted ECC
    /// burst (costing one correctable re-read).
    pub fn ecc_burst_hits(&self, lba: u64, at: SimTime) -> bool {
        self.bursts
            .iter()
            .any(|&(lo, hi, from, until)| lba >= lo && lba < hi && at >= from && at < until)
    }

    /// Scripted crash instants, sorted ascending. The device runtime keeps
    /// a cursor into this list and fires each crash at the first session
    /// activity at or after its instant.
    pub fn crashes(&self) -> &[SimTime] {
        &self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_perturbs_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let dev = plan.for_device(0);
        assert!(dev.is_empty());
        assert_eq!(dev.slowdown_factor(SimTime::from_secs(1)), 1);
        assert!(!dev.ecc_burst_hits(42, SimTime::from_secs(1)));
        assert!(dev.crashes().is_empty());
    }

    #[test]
    fn for_device_filters_by_index() {
        let plan = FaultPlan::new()
            .slowdown(1, 4, SimTime::from_millis(10), SimTime::from_millis(20))
            .crash_at(0, SimTime::from_millis(5))
            .ecc_burst(1, 100..200, SimTime::ZERO, SimTime::from_millis(50));
        let d0 = plan.for_device(0);
        assert_eq!(d0.crashes(), &[SimTime::from_millis(5)]);
        let d1 = plan.for_device(1);
        assert!(d1.crashes().is_empty());
        assert_eq!(d1.slowdown_factor(SimTime::from_millis(15)), 4);
        assert!(d1.ecc_burst_hits(150, SimTime::from_millis(1)));
    }

    #[test]
    fn windows_are_half_open() {
        let from = SimTime::from_millis(10);
        let until = SimTime::from_millis(20);
        let dev = FaultPlan::new().slowdown(0, 8, from, until).for_device(0);
        assert_eq!(
            dev.slowdown_factor(SimTime::from_nanos(from.as_nanos() - 1)),
            1
        );
        assert_eq!(dev.slowdown_factor(from), 8);
        assert_eq!(
            dev.slowdown_factor(SimTime::from_nanos(until.as_nanos() - 1)),
            8
        );
        assert_eq!(dev.slowdown_factor(until), 1);

        let dev = FaultPlan::new()
            .ecc_burst(0, 100..200, from, until)
            .for_device(0);
        assert!(dev.ecc_burst_hits(100, from));
        assert!(!dev.ecc_burst_hits(200, from));
        assert!(!dev.ecc_burst_hits(99, from));
        assert!(!dev.ecc_burst_hits(100, until));
    }

    #[test]
    fn overlapping_slowdowns_take_the_worst_factor() {
        let dev = FaultPlan::new()
            .slowdown(0, 2, SimTime::ZERO, SimTime::from_millis(30))
            .slowdown(0, 8, SimTime::from_millis(10), SimTime::from_millis(20))
            .for_device(0);
        assert_eq!(dev.slowdown_factor(SimTime::from_millis(5)), 2);
        assert_eq!(dev.slowdown_factor(SimTime::from_millis(15)), 8);
        assert_eq!(dev.slowdown_factor(SimTime::from_millis(25)), 2);
    }

    #[test]
    fn crash_instants_come_back_sorted() {
        let dev = FaultPlan::new()
            .crash_at(0, SimTime::from_millis(30))
            .crash_at(0, SimTime::from_millis(10))
            .for_device(0);
        assert_eq!(
            dev.crashes(),
            &[SimTime::from_millis(10), SimTime::from_millis(30)]
        );
    }

    #[test]
    fn factor_below_one_is_clamped() {
        let dev = FaultPlan::new()
            .slowdown(0, 0, SimTime::ZERO, SimTime::from_secs(1))
            .for_device(0);
        assert_eq!(dev.slowdown_factor(SimTime::from_millis(1)), 1);
    }
}
