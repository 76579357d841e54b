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
//! There is one host type and one execution path. A [`System`] holds 1..N
//! Smart SSDs behind one host link ([`SystemBuilder::devices`]; the paper's
//! Section 4.3 array, where "the host machine ... \[is\] the coordinator
//! that stages computation across an array of Smart SSDs". A single device
//! is the array with one member, and the SAS SSD baseline is that member
//! with its device route refused). [`System::run`] is a one-arrival
//! workload over the event-loop scheduler behind [`System::run_workload`]
//! and [`System::run_serving`] (see [`workload`]), whose device attempt
//! scatters a query over every device of the system and gathers the
//! partials; [`RunReport::shards`] says how each device's share went. Every
//! attempt is settled by the same rule: a recoverable fault re-runs that
//! device's share on the host from the fault instant, so recovery is paid
//! in simulated time and energy, never hidden. Two defenses guard the
//! device route, both set on the builder: a per-device
//! [`CircuitBreaker`] and hedged shard reads ([`HedgePolicy`]).
//!
//! ```
//! use smartssd::{DeviceKind, HedgePolicy, Route, RunOptions, SystemBuilder};
//! use smartssd_storage::Layout;
//! use smartssd_workload::{q6, queries, tpch};
//!
//! let mut array = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
//!     .devices(4)
//!     .hedge(HedgePolicy::default())
//!     .build();
//! array.load_partitioned(
//!     queries::LINEITEM,
//!     &tpch::lineitem_schema(),
//!     tpch::lineitem_rows(0.001, 42),
//! ).unwrap();
//! array.finish_load();
//! let report = array.run(&q6(), RunOptions::routed(Route::Device)).unwrap();
//! assert_eq!(report.shards.len(), 4);
//! ```
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
#[doc(hidden)]
pub mod fleet;
pub mod serving;
pub mod system;
pub mod workload;

pub use breaker::{BreakerPolicy, BreakerState, BreakerTransition, CircuitBreaker};
pub use builder::{ConfigError, RoutePolicy, RunOptions, SystemBuilder};
pub use config::{DeviceKind, HedgePolicy, PowerParams, SystemConfig};
#[doc(hidden)]
pub use fleet::*;
pub use serving::{compose, ArrivalStream, TenantLoad, TenantReport, TenantSpec};
pub use shard::ShardOutcome;
pub use smartssd_sim::ArrivalModel;
pub use system::{RunError, RunErrorKind, RunReport, System};
pub use workload::{
    ArrivalOutcome, BrownoutPolicy, FailedQuery, InterfaceMode, QueryCompletion, ShedQuery,
    StreamReport, Workload, WorkloadItem, WorkloadOptions, WorkloadReport,
};

pub use smartssd_sim::LatencyStats;

pub use smartssd_query::{Finalize, Query, QueryResult, Route};
pub use smartssd_sim::{
    ChromeTraceSink, CounterSink, EnergyBreakdown, MetricsSnapshot, NullSink, RunTrace, SimTime,
    TraceLevel, TraceSink, Tracer, UtilizationReport,
};
pub use smartssd_storage::Layout;
