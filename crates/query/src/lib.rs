#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Host-side query processing: plans, the host engine, and the pushdown
//! planner.
//!
//! The paper modified SQL Server so that "for each query that is used in
//! this empirical evaluation, we have a special path ... to communicate with
//! the SSD using the API described in Section 3" (Section 4.1.2). This crate
//! is that special path, generalized:
//!
//! * [`plan`] — query templates (the physical [`smartssd_exec::QueryOp`]
//!   over table names), resolved into the operator that either engine
//!   executes, plus a host-side finalize step (e.g. Q14's
//!   `100 * sum_a / sum_b`) and a plan pretty-printer (Figures 4 and 6 are
//!   plan diagrams);
//! * [`engine`] — the host execution engine: streams pages from a
//!   [`smartssd_host::PageSource`] (SSD-behind-interface or HDD), runs the
//!   shared operator kernels on a single host thread, and prices the work
//!   with the host cost table — the paper's "same plan ... run entirely in
//!   the host" baseline;
//! * [`planner`] — the pushdown decision. The paper's Discussion (Section
//!   4.3) lists the rules a real optimizer would need: don't push when data
//!   is cached in the buffer pool, don't push updates or data newer than the
//!   on-device copy, weigh device-CPU saturation. The planner implements
//!   the cost rules by pricing the kernels' own work receipt with the same
//!   cost tables the engines use; the stale-data rule is the system's,
//!   applied before any cost;
//! * [`session`] — the fault-tolerant OPEN/GET/CLOSE driver: one `GET` at
//!   each readiness hint the device gives, and typed faults carrying the
//!   simulated time a failed device attempt burned, so callers can degrade
//!   to host execution without losing the cost of the detour.

pub mod engine;
pub mod plan;
pub mod planner;
pub mod session;

pub use engine::{EngineError, HostEngine, QueryResult, RawRun};
pub use plan::{Catalog, Finalize, OpTemplate, Query};
pub use planner::{
    choose_route, choose_route_traced, CostEstimate, PlannerConfig, PlannerInputs, Route,
};
pub use session::{
    Collected, SessionDriver, SessionError, SessionFault, SessionOutcome, SessionPolicy,
};
