#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! The Smart SSD: a programmable storage device running query operators.
//!
//! This crate assembles the paper's device-side stack:
//!
//! * the **session protocol** of Section 3 — `OPEN` starts a session,
//!   granting runtime resources (threads and memory) and returning a session
//!   id; `GET` polls status and retrieves result batches (the device is a
//!   passive SATA/SAS target, so the host always initiates); `CLOSE` clears
//!   session state;
//! * the **runtime framework** — session table, memory grants, the embedded
//!   CPU model ([`config::DeviceConfig`]);
//! * the **in-device operators** — scan, aggregation, and simple hash join
//!   executed against pages read over the device's internal data path
//!   (NAND -> shared DRAM bus -> embedded CPU), using the shared kernels
//!   from `smartssd-exec` priced with the device cost table.
//!
//! The division of labor mirrors the paper exactly: the host passes a
//! [`smartssd_exec::QueryOp`] as the `OPEN` parameter, the device does the
//! heavy reading and computing at internal bandwidth, and only results cross
//! the narrow host interface.

pub mod config;
pub mod runtime;

pub use config::DeviceConfig;
pub use runtime::{DeviceError, GetResponse, ResultBatch, SessionId, SmartSsd};
