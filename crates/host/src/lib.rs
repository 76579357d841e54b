#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Host-side hardware models.
//!
//! Everything between the DBMS and the storage media on the paper's test
//! bed (Section 4.1.2): the SAS/SATA/PCIe host interface behind the LSI HBA
//! ([`interface`]), the 10K RPM SAS HDD baseline ([`hdd`]), the DBMS buffer
//! pool ([`bufferpool`]), and the host read paths that compose them into a
//! [`io::PageSource`] the query engine can stream pages from — one over
//! flash, one over the disk.

pub mod bufferpool;
pub mod hdd;
pub mod interface;
pub mod io;

pub use bufferpool::BufferPool;
pub use hdd::{HddConfig, HddModel};
pub use interface::{roadmap, InterfaceKind, RoadmapPoint};
pub use io::{CommandState, HddHostPath, LinkedFlashView, PageSource, SsdHostPath};
