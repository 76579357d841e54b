//! Fluent construction of a [`System`] and the per-run options accepted by
//! [`System::run`].
//!
//! [`SystemBuilder`] is the one front door for assembling a test bed: device
//! kind, page layout, component scales, session recovery policy, injected
//! fault rates, and — new in this layer — the trace sink that observes the
//! run. [`RunOptions`] carries everything that varies per run: the route
//! policy and the trace verbosity.

use crate::breaker::BreakerPolicy;
use crate::config::{DeviceKind, SystemConfig};
use crate::fleet::{FleetOptions, SmartSsdFleet};
use crate::system::System;
use smartssd_device::DeviceConfig;
use smartssd_flash::FlashConfig;
use smartssd_host::{HddConfig, InterfaceKind};
use smartssd_query::{PlannerConfig, PlannerInputs, Route, SessionPolicy};
use smartssd_sim::{FaultPlan, SimTime, TraceLevel, TraceSink, Tracer};
use smartssd_storage::Layout;
use std::fmt;

/// A configuration the system refuses to assemble, caught at
/// [`SystemBuilder::try_build`] time instead of being silently clamped (or
/// misbehaving) deep inside a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The session policy's backoff cap is below its first backoff step, so
    /// the exponential backoff could never take even one step.
    BackoffCapBelowPoll {
        /// The configured cap.
        cap: SimTime,
        /// The configured first step.
        poll: SimTime,
    },
    /// An enabled breaker with a zero failure window can never accumulate
    /// the failures needed to trip.
    ZeroBreakerWindow,
    /// An enabled breaker with a zero failure threshold would trip on
    /// nothing at all.
    ZeroBreakerThreshold,
    /// An enabled breaker whose probe cooldown is the maximum representable
    /// time would stay Open forever once tripped.
    InfiniteBreakerCooldown,
    /// An enabled slow-trip rule with zero baseline samples has nothing to
    /// compare the latency EWMA against.
    ZeroBreakerBaseline,
    /// A brownout policy with a zero waiting threshold would shed the
    /// lightest tenant's every deferred arrival, overloaded or not.
    ZeroBrownoutThreshold,
    /// A registered tenant has weight zero: weighted fair queueing could
    /// never schedule it, so any query it submits would starve forever.
    ZeroTenantWeight {
        /// Registry index of the offending tenant.
        tenant: usize,
    },
    /// Two registered tenants share a name, so per-tenant reports would be
    /// ambiguous.
    DuplicateTenant {
        /// Registry index of the second occurrence.
        tenant: usize,
    },
    /// A workload item was tagged with a tenant index that is not in the
    /// options' tenant registry.
    UnknownTenant {
        /// The out-of-range tenant index.
        tenant: usize,
    },
    /// A Smart SSD with zero session slots could never admit a query.
    ZeroSessionSlots,
    /// A Smart SSD needs at least one embedded core to run sessions on.
    ZeroDeviceCores,
    /// A Smart SSD's embedded clock must be positive.
    ZeroDeviceClock,
    /// A Smart SSD's `GET` result buffer is below one 4 KiB block.
    ResultBufferTooSmall {
        /// The configured buffer size, bytes.
        bytes: u64,
    },
    /// The host needs at least one CPU core to run anything on.
    ZeroHostCores,
    /// The host CPU clock must be positive.
    ZeroHostClock,
    /// The flash geometry or timing breaks one of
    /// [`FlashConfig::check`]'s rules.
    FlashGeometry {
        /// The rule that failed.
        broken: &'static str,
    },
    /// A fleet needs at least one device.
    EmptyFleet,
    /// The fleet's hedge trigger factor is negative or not finite.
    InvalidHedgeFactor,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BackoffCapBelowPoll { cap, poll } => write!(
                f,
                "session policy backoff_cap ({cap}) is below poll_backoff ({poll})"
            ),
            ConfigError::ZeroBreakerWindow => {
                write!(f, "an enabled breaker needs a nonzero failure window")
            }
            ConfigError::ZeroBreakerThreshold => {
                write!(
                    f,
                    "an enabled breaker needs a failure threshold of at least 1"
                )
            }
            ConfigError::InfiniteBreakerCooldown => {
                write!(f, "an enabled breaker needs a finite probe cooldown")
            }
            ConfigError::ZeroBreakerBaseline => {
                write!(
                    f,
                    "an enabled slow-trip rule needs at least one baseline sample"
                )
            }
            ConfigError::ZeroBrownoutThreshold => {
                write!(
                    f,
                    "a brownout policy needs a waiting threshold of at least 1"
                )
            }
            ConfigError::ZeroTenantWeight { tenant } => {
                write!(
                    f,
                    "tenant {tenant} has weight zero and could never be scheduled"
                )
            }
            ConfigError::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant} duplicates an earlier tenant's name")
            }
            ConfigError::UnknownTenant { tenant } => {
                write!(f, "workload item references unregistered tenant {tenant}")
            }
            ConfigError::ZeroSessionSlots => {
                write!(f, "a Smart SSD needs at least one session slot")
            }
            ConfigError::ZeroDeviceCores => {
                write!(f, "a Smart SSD needs at least one device core")
            }
            ConfigError::ZeroDeviceClock => {
                write!(f, "a Smart SSD's device clock must be positive")
            }
            ConfigError::ResultBufferTooSmall { bytes } => write!(
                f,
                "result buffer of {bytes} bytes is below one 4096-byte block"
            ),
            ConfigError::ZeroHostCores => write!(f, "the host needs at least one CPU core"),
            ConfigError::ZeroHostClock => write!(f, "the host CPU clock must be positive"),
            ConfigError::FlashGeometry { broken } => write!(f, "flash geometry: {broken}"),
            ConfigError::EmptyFleet => write!(f, "a fleet needs at least one device"),
            ConfigError::InvalidHedgeFactor => {
                write!(f, "hedge_factor must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How [`System::run`] picks the execution route.
///
/// A policy rides on every [`WorkloadItem`](crate::WorkloadItem): the
/// scheduler copies it once per arrival and parks it once per deferred
/// waiter, and a serving stream stores one per tenant. The planner's
/// inputs (~230 bytes) are therefore boxed: the common `Natural` and
/// `Force` policies cost 16 bytes a copy, and only a planned run pays for
/// the payload (built by [`RunOptions::planned`]).
#[derive(Debug, Clone, Default)]
pub enum RoutePolicy {
    /// The system's natural route: pushdown on a Smart SSD, host execution
    /// otherwise.
    #[default]
    Natural,
    /// Force a specific route. [`Route::Device`] requires a Smart SSD
    /// system and still yields to the dirty-data correctness rule.
    Force(Route),
    /// Let the cost-based planner decide (Smart SSD systems only; others
    /// always run on the host). Residency is measured from the live buffer
    /// pool, overriding whatever the inputs carry.
    Planned(Box<PlannedRoute>),
}

const _: () = assert!(std::mem::size_of::<RoutePolicy>() <= 24);

/// What [`RoutePolicy::Planned`] hands the cost-based planner.
#[derive(Debug, Clone)]
pub struct PlannedRoute {
    /// Machine description for the estimator.
    pub planner: PlannerConfig,
    /// Per-query statistics (residency is overwritten from the pool).
    pub inputs: PlannerInputs,
}

/// Per-run knobs for [`System::run`]: route policy and trace verbosity.
/// Host parallelism is a property of the system
/// ([`SystemBuilder::host_dop`]).
///
/// `RunOptions::default()` reproduces the old `System::run(&query)`
/// behavior exactly: natural route, full trace verbosity (which records
/// nothing unless a sink was attached at build time).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// How to pick the execution route.
    pub route: RoutePolicy,
    /// Trace verbosity for this run. Ignored without an attached sink.
    pub verbosity: TraceLevel,
}

impl RunOptions {
    /// Force an explicit route (the old `run_routed`).
    pub fn routed(route: Route) -> Self {
        Self {
            route: RoutePolicy::Force(route),
            ..Self::default()
        }
    }

    /// Let the planner pick the route (the old `run_with_planner`).
    pub fn planned(planner: PlannerConfig, inputs: PlannerInputs) -> Self {
        Self {
            route: RoutePolicy::Planned(Box::new(PlannedRoute { planner, inputs })),
            ..Self::default()
        }
    }

    /// Set the trace verbosity for this run.
    pub fn with_verbosity(mut self, level: TraceLevel) -> Self {
        self.verbosity = level;
        self
    }
}

/// Builder for a [`System`]: configuration knobs plus the trace sink.
///
/// ```
/// use smartssd::{DeviceKind, SystemBuilder};
/// use smartssd_storage::Layout;
///
/// let sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
///     .host_dop(4)
///     .build();
/// assert_eq!(sys.config().host_dop, 4);
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    cfg: SystemConfig,
    tracer: Tracer,
}

impl SystemBuilder {
    /// Starts from the paper's test bed with the given device and layout.
    pub fn new(device: DeviceKind, layout: Layout) -> Self {
        Self::from_config(SystemConfig::new(device, layout))
    }

    /// Starts from an existing configuration.
    pub fn from_config(cfg: SystemConfig) -> Self {
        Self {
            cfg,
            tracer: Tracer::none(),
        }
    }

    /// Replaces the flash geometry/timing (SSD and Smart SSD systems).
    pub fn flash(mut self, flash: FlashConfig) -> Self {
        self.cfg.flash = flash;
        self
    }

    /// Replaces the Smart SSD runtime resources.
    pub fn smart(mut self, smart: DeviceConfig) -> Self {
        self.cfg.smart = smart;
        self
    }

    /// Replaces the HDD parameters.
    pub fn hdd(mut self, hdd: HddConfig) -> Self {
        self.cfg.hdd = hdd;
        self
    }

    /// Sets the host interface generation.
    pub fn interface(mut self, interface: InterfaceKind) -> Self {
        self.cfg.interface = interface;
        self
    }

    /// Sets the host CPU core count and clock.
    pub fn host_cpu(mut self, cores: usize, hz: u64) -> Self {
        self.cfg.host_cpu_cores = cores;
        self.cfg.host_cpu_hz = hz;
        self
    }

    /// Sets the host degree of parallelism for host-routed execution.
    pub fn host_dop(mut self, dop: usize) -> Self {
        self.cfg.host_dop = dop;
        self
    }

    /// Sets the buffer pool capacity, in pages.
    pub fn bufferpool_pages(mut self, pages: usize) -> Self {
        self.cfg.bufferpool_pages = pages;
        self
    }

    /// Sets the session recovery policy for device-routed queries.
    pub fn session_policy(mut self, policy: SessionPolicy) -> Self {
        self.cfg.session_policy = policy;
        self
    }

    /// Enables or disables device-side scan sharing: with it on, concurrent
    /// pushdown scans over the same table fan each flash page read out to
    /// every attached session instead of re-reading it per session. Off by
    /// default, so single-query figures are unaffected.
    pub fn shared_scans(mut self, on: bool) -> Self {
        self.cfg.smart.shared_scans = on;
        self
    }

    /// Sets the injected flash fault rates (each per read, out of 2^32):
    /// correctable ECC retries, uncorrectable failures, and silent
    /// corruption.
    pub fn fault_rates(mut self, ecc_retry: u32, ecc_fail: u32, silent: u32) -> Self {
        self.cfg.flash.ecc_retry_rate = ecc_retry;
        self.cfg.flash.ecc_fail_rate = ecc_fail;
        self.cfg.flash.silent_corruption_rate = silent;
        self
    }

    /// Sets the injected whole-device crash rate (per session open, out of
    /// 2^32) and the reset latency a crash costs before the smart runtime
    /// accepts sessions again.
    pub fn crash_faults(mut self, crash_rate: u32, reset_latency: SimTime) -> Self {
        self.cfg.smart.fault_rates.crash_rate = crash_rate;
        self.cfg.smart.fault_rates.reset_latency = reset_latency;
        self
    }

    /// Sets the circuit-breaker policy for health-aware device routing.
    pub fn breaker(mut self, policy: BreakerPolicy) -> Self {
        self.cfg.breaker = policy;
        self
    }

    /// Arms a scripted gray-failure plan on the (single) device: the
    /// plan's device-0 view is split between the flash path (slowdown
    /// windows, ECC bursts) and the smart runtime (crash instants, CPU
    /// slowdowns). An empty plan is the default and changes nothing.
    /// Fleets arm per-device views through
    /// [`SmartSsdFleet::arm_fault_plan`](crate::SmartSsdFleet::arm_fault_plan).
    pub fn fault_plan(mut self, plan: &FaultPlan) -> Self {
        let view = plan.for_device(0);
        self.cfg.flash.fault_plan = view.clone();
        self.cfg.smart.fault_plan = view;
        self
    }

    /// Attaches a trace sink. Every timeline-owning component reports its
    /// occupancy intervals to it during runs; the collected trace comes
    /// back in [`crate::RunReport::trace`]. Without this call the system
    /// carries a no-op tracer with zero overhead.
    pub fn trace(mut self, sink: impl TraceSink + 'static) -> Self {
        self.tracer = Tracer::new(sink);
        self
    }

    /// Applies an arbitrary edit to the configuration — the escape hatch
    /// for knobs without a dedicated setter (cost tables, power params,
    /// flash scaling sweeps).
    pub fn tweak(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Assembles the system after validating the configuration, wiring the
    /// tracer into every timeline-owning component. This is the checked
    /// front door; [`SystemBuilder::build`] panics on the same conditions.
    pub fn try_build(self) -> Result<System, ConfigError> {
        self.validate(self.cfg.device)?;
        Ok(System::assemble(self.cfg, self.tracer, 1))
    }

    /// Shared configuration validation for [`SystemBuilder::try_build`] and
    /// [`SystemBuilder::try_build_fleet`], ahead of every component's own
    /// construction-time assertions. The flash geometry and the Smart SSD
    /// runtime resources are checked only when a `device` of that kind is
    /// what the build instantiates.
    fn validate(&self, device: DeviceKind) -> Result<(), ConfigError> {
        if self.cfg.host_cpu_cores == 0 {
            return Err(ConfigError::ZeroHostCores);
        }
        if self.cfg.host_cpu_hz == 0 {
            return Err(ConfigError::ZeroHostClock);
        }
        if device != DeviceKind::Hdd {
            self.cfg
                .flash
                .check()
                .map_err(|broken| ConfigError::FlashGeometry { broken })?;
        }
        let dev = &self.cfg.smart;
        if device == DeviceKind::SmartSsd {
            if dev.cpu_cores == 0 {
                return Err(ConfigError::ZeroDeviceCores);
            }
            if dev.cpu_hz == 0 {
                return Err(ConfigError::ZeroDeviceClock);
            }
            if dev.max_sessions == 0 {
                return Err(ConfigError::ZeroSessionSlots);
            }
            if dev.result_buffer_bytes < 4096 {
                return Err(ConfigError::ResultBufferTooSmall {
                    bytes: dev.result_buffer_bytes,
                });
            }
        }
        let sp = &self.cfg.session_policy;
        if sp.backoff_cap < sp.poll_backoff {
            return Err(ConfigError::BackoffCapBelowPoll {
                cap: sp.backoff_cap,
                poll: sp.poll_backoff,
            });
        }
        let br = &self.cfg.breaker;
        if br.enabled {
            if br.window == SimTime::ZERO {
                return Err(ConfigError::ZeroBreakerWindow);
            }
            if br.failure_threshold == 0 {
                return Err(ConfigError::ZeroBreakerThreshold);
            }
            if br.cooldown == SimTime::MAX {
                return Err(ConfigError::InfiniteBreakerCooldown);
            }
            if br.slow_trip_factor > 0 && br.baseline_samples == 0 {
                return Err(ConfigError::ZeroBreakerBaseline);
            }
        }
        Ok(())
    }

    /// Assembles a [`SmartSsdFleet`] — a view over a [`System`] of `n` Smart
    /// SSDs — after validating the configuration, wiring the tracer into
    /// the shared link, the host CPU and every device (one thread drives
    /// them all, so a shared sink records in a deterministic order).
    /// Each device gets its own circuit breaker built from the configured
    /// [`BreakerPolicy`], its own crash domain, and its own host-side read
    /// state for block-path fallback. An empty fleet and a hedge factor
    /// that is negative or not finite are configuration errors too.
    pub fn try_build_fleet(
        mut self,
        n: usize,
        opts: FleetOptions,
    ) -> Result<SmartSsdFleet, ConfigError> {
        self.validate(DeviceKind::SmartSsd)?;
        if n == 0 {
            return Err(ConfigError::EmptyFleet);
        }
        if !(opts.hedge_factor.is_finite() && opts.hedge_factor >= 0.0) {
            return Err(ConfigError::InvalidHedgeFactor);
        }
        self.cfg.device = DeviceKind::SmartSsd;
        let sys = System::assemble(self.cfg, self.tracer, n);
        Ok(SmartSsdFleet { sys, opts })
    }

    /// Assembles a [`SmartSsdFleet`] of `n` devices.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`ConfigError`]) or
    /// `n == 0`; use [`SystemBuilder::try_build_fleet`] to handle
    /// configuration errors as values.
    pub fn build_fleet(self, n: usize, opts: FleetOptions) -> SmartSsdFleet {
        self.try_build_fleet(n, opts)
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }

    /// Assembles the system and wires the tracer into every
    /// timeline-owning component.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`ConfigError`]); use
    /// [`SystemBuilder::try_build`] to handle that as a value. The default
    /// configuration is always valid.
    pub fn build(self) -> System {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_sim::NullSink;

    #[test]
    fn builder_setters_land_in_config() {
        let sys = SystemBuilder::new(DeviceKind::Ssd, Layout::Nsm)
            .interface(InterfaceKind::Sas12)
            .host_cpu(4, 3_000_000_000)
            .host_dop(8)
            .bufferpool_pages(1024)
            .fault_rates(1, 2, 3)
            .tweak(|c| c.power.system_idle_w = 200.0)
            .build();
        let c = sys.config();
        assert_eq!(c.device, DeviceKind::Ssd);
        assert_eq!(c.layout, Layout::Nsm);
        assert_eq!(c.interface, InterfaceKind::Sas12);
        assert_eq!(c.host_cpu_cores, 4);
        assert_eq!(c.host_dop, 8);
        assert_eq!(c.bufferpool_pages, 1024);
        assert_eq!(c.flash.ecc_retry_rate, 1);
        assert_eq!(c.flash.ecc_fail_rate, 2);
        assert_eq!(c.flash.silent_corruption_rate, 3);
        assert!((c.power.system_idle_w - 200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn default_run_options_are_natural_full() {
        let opts = RunOptions::default();
        assert!(matches!(opts.route, RoutePolicy::Natural));
        assert_eq!(opts.verbosity, smartssd_sim::TraceLevel::Full);
    }

    #[test]
    fn try_build_rejects_inverted_backoff() {
        let err = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .tweak(|c| {
                c.session_policy.poll_backoff = SimTime::from_nanos(100);
                c.session_policy.backoff_cap = SimTime::from_nanos(10);
            })
            .try_build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ConfigError::BackoffCapBelowPoll { .. }));
        assert!(err.to_string().contains("backoff_cap"));
    }

    #[test]
    fn try_build_rejects_degenerate_enabled_breaker() {
        let cases = [
            (
                BreakerPolicy {
                    window: SimTime::ZERO,
                    ..BreakerPolicy::enabled()
                },
                ConfigError::ZeroBreakerWindow,
            ),
            (
                BreakerPolicy {
                    failure_threshold: 0,
                    ..BreakerPolicy::enabled()
                },
                ConfigError::ZeroBreakerThreshold,
            ),
            (
                BreakerPolicy {
                    cooldown: SimTime::MAX,
                    ..BreakerPolicy::enabled()
                },
                ConfigError::InfiniteBreakerCooldown,
            ),
            (
                BreakerPolicy {
                    slow_trip_factor: 4,
                    baseline_samples: 0,
                    ..BreakerPolicy::enabled()
                },
                ConfigError::ZeroBreakerBaseline,
            ),
        ];
        for (policy, want) in cases {
            let err = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                .breaker(policy)
                .try_build()
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, want);
        }

        // The same junk on a *disabled* breaker is inert, so it builds.
        let off = BreakerPolicy {
            window: SimTime::ZERO,
            ..BreakerPolicy::default()
        };
        assert!(SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .breaker(off)
            .try_build()
            .is_ok());
    }

    /// The checked front door returns every degenerate Smart SSD runtime
    /// configuration as a value instead of reaching the device's
    /// construction-time assertions — for a single system and for a fleet.
    #[test]
    fn try_build_rejects_degenerate_device_resources() {
        type Tweak = fn(&mut SystemConfig);
        let cases: [(Tweak, ConfigError); 4] = [
            (|c| c.smart.max_sessions = 0, ConfigError::ZeroSessionSlots),
            (|c| c.smart.cpu_cores = 0, ConfigError::ZeroDeviceCores),
            (|c| c.smart.cpu_hz = 0, ConfigError::ZeroDeviceClock),
            (
                |c| c.smart.result_buffer_bytes = 4095,
                ConfigError::ResultBufferTooSmall { bytes: 4095 },
            ),
        ];
        for (tweak, want) in cases {
            let smart = || SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).tweak(tweak);
            assert_eq!(smart().try_build().map(|_| ()).unwrap_err(), want);
            let fleet = smart().try_build_fleet(2, FleetOptions::default());
            assert_eq!(fleet.map(|_| ()).unwrap_err(), want);
            // A system that never instantiates the Smart SSD runtime does
            // not care what its (unused) configuration says.
            assert!(SystemBuilder::new(DeviceKind::Ssd, Layout::Pax)
                .tweak(tweak)
                .try_build()
                .is_ok());
        }
    }

    /// The same for the host CPU and the flash geometry: every input the
    /// components assert on at construction comes back as a value first.
    #[test]
    fn try_build_rejects_degenerate_host_cpu_and_flash_geometry() {
        type Tweak = fn(&mut SystemConfig);
        let flash = |broken| ConfigError::FlashGeometry { broken };
        let cases: [(Tweak, ConfigError); 13] = [
            (|c| c.host_cpu_cores = 0, ConfigError::ZeroHostCores),
            (|c| c.host_cpu_hz = 0, ConfigError::ZeroHostClock),
            (|c| c.flash.channels = 0, flash("need at least one channel")),
            (
                |c| c.flash.chips_per_channel = 0,
                flash("need at least one chip"),
            ),
            (
                |c| c.flash.blocks_per_chip = 1,
                flash("need at least two blocks per chip"),
            ),
            (
                |c| c.flash.pages_per_block = 0,
                flash("need at least one page per block"),
            ),
            (|c| c.flash.page_size = 8, flash("page size too small")),
            (
                |c| c.flash.overprovision = 0.9,
                flash("overprovision must be in [0, 0.9)"),
            ),
            (
                |c| c.flash.overprovision = f64::NAN,
                flash("overprovision must be in [0, 0.9)"),
            ),
            (
                |c| c.flash.gc_low_water_blocks = 0,
                flash("GC low-water mark must be >= 1"),
            ),
            (
                |c| c.flash.gc_low_water_blocks = c.flash.blocks_per_chip,
                flash("GC low-water mark must leave usable blocks"),
            ),
            (
                |c| c.flash.channel_bw = 0,
                flash("channel and DRAM bandwidth must be positive"),
            ),
            (
                |c| c.flash.dram_bw = 0,
                flash("channel and DRAM bandwidth must be positive"),
            ),
        ];
        for (tweak, want) in cases {
            for device in [DeviceKind::SmartSsd, DeviceKind::Ssd] {
                let got = SystemBuilder::new(device, Layout::Pax)
                    .tweak(tweak)
                    .try_build();
                assert_eq!(got.map(|_| ()).unwrap_err(), want, "{device:?}");
            }
            let fleet = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                .tweak(tweak)
                .try_build_fleet(2, FleetOptions::default());
            assert_eq!(fleet.map(|_| ()).unwrap_err(), want);
            // An HDD system has a host CPU but never instantiates flash.
            let hdd = SystemBuilder::new(DeviceKind::Hdd, Layout::Pax)
                .tweak(tweak)
                .try_build();
            match want {
                ConfigError::FlashGeometry { .. } => assert!(hdd.is_ok()),
                _ => assert_eq!(hdd.map(|_| ()).unwrap_err(), want),
            }
            assert!(!want.to_string().is_empty());
        }
    }

    #[test]
    fn try_build_fleet_rejects_an_empty_fleet() {
        let err = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .try_build_fleet(0, FleetOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyFleet);
        assert!(err.to_string().contains("at least one device"));
    }

    #[test]
    fn try_build_fleet_rejects_a_junk_hedge_factor() {
        for hedge_factor in [-0.5, f64::NAN, f64::INFINITY] {
            let opts = FleetOptions {
                hedge_factor,
                ..FleetOptions::default()
            };
            let err = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                .try_build_fleet(4, opts)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, ConfigError::InvalidHedgeFactor, "{hedge_factor}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid system configuration")]
    fn build_panics_on_invalid_config() {
        SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .breaker(BreakerPolicy {
                window: SimTime::ZERO,
                ..BreakerPolicy::enabled()
            })
            .build();
    }

    #[test]
    fn crash_and_breaker_setters_land_in_config() {
        let sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .crash_faults(42, SimTime::from_micros(500))
            .breaker(BreakerPolicy::enabled())
            .build();
        assert_eq!(sys.config().smart.fault_rates.crash_rate, 42);
        assert_eq!(
            sys.config().smart.fault_rates.reset_latency,
            SimTime::from_micros(500)
        );
        assert!(sys.config().breaker.enabled);
    }

    #[test]
    fn trace_sink_can_be_attached() {
        let sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .trace(NullSink)
            .build();
        assert_eq!(sys.config().device, DeviceKind::SmartSsd);
    }
}
