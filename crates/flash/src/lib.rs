#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! NAND flash SSD emulator.
//!
//! This crate is the substrate that stands in for the paper's Samsung SSD
//! hardware (Section 2 describes the architecture we model):
//!
//! * a **NAND array** ([`nand`]) organized as channels x chips x blocks x
//!   pages, with erase-before-program and sequential-program-within-block
//!   rules enforced, plus per-block wear counters;
//! * a **flash controller** timing model ([`timing`]) with chip-level and
//!   channel-level interleaving, an ECC pass per page read, and - crucially -
//!   a single shared **DRAM bus** on which all channel DMA transfers are
//!   serialized. The paper calls this out as the reason its Smart SSD
//!   realizes only 2.8x internal bandwidth (1,560 MB/s vs 550 MB/s external)
//!   rather than the ~10x aggregate NAND bandwidth;
//! * a page-mapped **FTL** ([`ftl`]) with round-robin write striping across
//!   channels/chips (which is what gives sequential reads their channel
//!   parallelism), greedy garbage collection, and wear-aware free-block
//!   allocation;
//! * the assembled device ([`ssd::FlashSsd`]): a logical-block read/write
//!   interface that moves real bytes and charges simulated time.
//!
//! The emulator is *functional*: pages hold actual data, reads return the
//! bytes most recently written. Timing and data move together so that query
//! results and query timings come from a single execution.

pub mod config;
pub mod ftl;
pub mod nand;
pub mod ssd;
pub mod timing;

pub use config::FlashConfig;
pub use ssd::{FlashError, FlashSsd, FlashStats};

/// Page-read retries before a read error is surfaced: the budget of both
/// retry loops over this flash, the device firmware's and the host
/// driver's. Each retry is posted at the failed attempt's completion time,
/// so recovery latency is charged. The emulated media recovers on the first
/// retry, so only a page stored corrupted exhausts it.
pub const READ_RETRY_LIMIT: u32 = 2;
