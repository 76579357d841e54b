#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Deterministic simulation substrate for the Smart SSD reproduction.
//!
//! The paper's evaluation ran on real hardware (a Samsung Smart SSD prototype
//! behind a SAS HBA). This crate provides the timing and energy substrate that
//! stands in for that hardware: a nanosecond-resolution simulated clock
//! ([`SimTime`]), *resource timelines* that serialize access to shared
//! hardware resources ([`Timeline`], [`Bus`], [`CpuModel`]), and an energy
//! meter that integrates per-component power over busy time
//! ([`energy::PowerModel`]).
//!
//! # Why resource timelines instead of a full event queue
//!
//! Every experiment in the paper is a streaming pipeline: pages flow from
//! NAND through the device DRAM, then either across the host interface into
//! the host CPU, or into the device CPU. Each hardware stage serves requests
//! in FIFO order, so the *only* state a stage needs is the time at which it
//! becomes free. A timeline stores exactly that cursor; pipelining across
//! stages and serialization within a stage (e.g. the paper's shared DRAM bus
//! that caps internal bandwidth at 1,560 MB/s instead of the 10x channel
//! aggregate) fall out naturally, and the simulation stays deterministic and
//! allocation-free on the hot path.

pub mod bus;
pub mod cpu;
pub mod energy;
pub mod faultplan;
pub mod report;
pub mod sched;
pub mod time;
pub mod timeline;
pub mod trace;

pub use bus::Bus;
pub use cpu::CpuModel;
pub use energy::{EnergyBreakdown, PowerModel};
pub use faultplan::{DeviceFaultPlan, FaultEvent, FaultPlan};
pub use report::{FaultCounters, FaultRates, UtilizationReport};
pub use sched::{ArrivalGen, ArrivalModel, EventQueue, KeyedMinHeap, LatencyStats};
pub use time::SimTime;
pub use timeline::{BatchIntervals, Interval, Timeline, TimelineBank};
pub use trace::{
    intern, ChromeTraceSink, CounterSink, MetricsSnapshot, NullSink, RunTrace, TraceLevel,
    TraceSink, Tracer,
};

/// Bandwidths in this workspace are quoted in MB/s using the drive-vendor
/// convention of 10^6 bytes, matching the paper's "550 MB/s" / "1,560 MB/s"
/// figures.
pub const MB: u64 = 1_000_000;

/// Converts a bandwidth in MB/s (10^6 bytes) to bytes per second.
#[inline]
pub const fn mb_per_sec(mb: u64) -> u64 {
    mb * MB
}
