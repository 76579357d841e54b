#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! # smartssd — Query Processing on Smart SSDs, reproduced
//!
//! A full-system reproduction of Do, Kee, Patel, Park, Park, and DeWitt,
//! *"Query Processing on Smart SSDs: Opportunities and Challenges"*
//! (SIGMOD 2013 / IEEE Data Eng. Bulletin 2014): an emulated Samsung-style
//! Smart SSD (NAND array, FTL, shared-DRAM-bus controller, embedded CPU, a
//! session protocol of `OPEN`/`GET`/`CLOSE`) plus the host-side stack
//! (interface bus, buffer pool, single-threaded DBMS scan path) needed to
//! rerun the paper's entire evaluation.
//!
//! The entry point is [`SystemBuilder`]: pick a device ([`DeviceKind::Hdd`],
//! [`DeviceKind::Ssd`], or [`DeviceKind::SmartSsd`]) and a page layout (NSM
//! or PAX), optionally attach a trace sink, then load tables and run
//! queries via [`System::run`] with per-run [`RunOptions`]. Results carry
//! simulated elapsed time, per-component utilization, wall-plug energy, and
//! the run's trace, calibrated so the paper's headline ratios reproduce
//! (Table 2's 2.8x internal bandwidth, Figure 3's 1.7x on Q6, Figure 5's
//! 2.2x -> 1x selectivity sweep, Figure 7's 1.3x on Q14, Table 3's energy
//! ratios).
//!
//! ```
//! use smartssd::{DeviceKind, RunOptions, SystemBuilder};
//! use smartssd_storage::Layout;
//! use smartssd_workload::{q6, tpch};
//!
//! let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
//! sys.load_table_rows(
//!     "lineitem",
//!     &tpch::lineitem_schema(),
//!     tpch::lineitem_rows(0.001, 42),
//! ).unwrap();
//! sys.finish_load();
//! let report = sys.run(&q6(), RunOptions::default()).unwrap();
//! println!("Q6 on the Smart SSD: {}", report.result.elapsed);
//! ```
//!
//! There is one host and one execution path. A [`System`] holds 1..N Smart
//! SSDs behind one host link (the paper's Section 4.3 array; a single
//! device is the array with one member, and the SAS SSD baseline is that
//! member with its device route refused), and [`System::run`] is a
//! one-arrival workload over the event-loop scheduler behind
//! [`System::run_workload`] and [`System::run_serving`] (see [`workload`]),
//! whose device attempt scatters a query over every device of the system
//! and gathers the partials. The multi-device [`SmartSsdFleet`] (see
//! [`fleet`]) is a view over an N-device `System`; a fleet query is one
//! more one-arrival workload. Every attempt is settled by the same rule: a
//! recoverable fault re-runs that device's share on the host from the fault
//! instant, so recovery is paid in simulated time and energy, never hidden.
//!
//! To watch where the simulated time goes, attach a sink:
//!
//! ```
//! use smartssd::{DeviceKind, RunOptions, SystemBuilder};
//! use smartssd_sim::ChromeTraceSink;
//! use smartssd_storage::Layout;
//! use smartssd_workload::{q6, tpch};
//!
//! let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
//!     .trace(ChromeTraceSink::new())
//!     .build();
//! sys.load_table_rows(
//!     "lineitem",
//!     &tpch::lineitem_schema(),
//!     tpch::lineitem_rows(0.001, 42),
//! ).unwrap();
//! sys.finish_load();
//! let report = sys.run(&q6(), RunOptions::default()).unwrap();
//! let json = report.trace.chrome_json().unwrap();
//! assert!(json.contains("traceEvents"));
//! ```

mod admit;
mod shard;

pub mod breaker;
pub mod builder;
pub mod config;
pub mod fleet;
pub mod serving;
pub mod system;
pub mod workload;

pub use breaker::{BreakerPolicy, BreakerState, BreakerTransition, CircuitBreaker};
pub use builder::{ConfigError, PlannedRoute, RoutePolicy, RunOptions, SystemBuilder};
pub use config::{DeviceKind, PowerParams, SystemConfig};
pub use fleet::{FleetOptions, FleetReport, FleetStreamReport, ShardOutcome, SmartSsdFleet};
pub use serving::{compose, ArrivalStream, TenantLoad, TenantReport, TenantSpec};
pub use smartssd_sim::ArrivalModel;
pub use system::{RunError, RunErrorKind, RunReport, System};
pub use workload::{
    ArrivalOutcome, BrownoutPolicy, FailedQuery, InterfaceMode, QueryCompletion, ShedQuery,
    Workload, WorkloadItem, WorkloadOptions, WorkloadReport,
};

pub use smartssd_sim::LatencyStats;

pub use smartssd_query::{Finalize, Query, QueryResult, Route};
pub use smartssd_sim::{
    ChromeTraceSink, CounterSink, EnergyBreakdown, MetricsSnapshot, NullSink, RunTrace, SimTime,
    TraceLevel, TraceSink, Tracer, UtilizationReport,
};
pub use smartssd_storage::Layout;
