#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Shared physical operators with work accounting.
//!
//! The paper runs "the same query plan" in two places: inside the Smart SSD
//! (pushdown) and on the host (the regular SSD/HDD baselines, Section 4.2.2:
//! "we used the same query plan as the Smart SSD, but the plan was run
//! entirely in the host"). To honour that symmetry — and to guarantee both
//! paths compute identical answers — the operators are implemented once,
//! here: the page *kernels* ([`kernels`], [`join`]) and the *driver* that
//! turns a [`QueryOp`] into page reads, kernel calls, CPU charges and result
//! batches ([`driver::run_op`]). The device runtime and the host engine each
//! supply an [`OpSite`] — how pages are read, what a receipt costs, the
//! memory grant and the batch size — and nothing else.
//!
//! What differs between the two environments is *how long the work takes*.
//! Every kernel therefore returns a [`WorkCounts`] receipt of the primitive
//! operations it performed (tuples decoded per layout, predicate atoms
//! evaluated with short-circuiting, hash probes, output bytes, ...). The
//! device and host each own a [`CostTable`] that converts a receipt into CPU
//! cycles for their respective processors: a few hundred cycles per NSM
//! tuple on the device's embedded cores is what turns the 2.8x bandwidth
//! advantage of Table 2 into the 1.7x end-to-end gain of Figure 3.

pub mod driver;
pub mod join;
pub mod kernels;
pub mod par;
pub mod reference;
pub mod spec;
pub mod wire;
pub mod work;

pub use driver::{run_op, OpRun, OpScratch, OpSite, ResultBatch};
pub use join::{JoinHashTable, JoinSink};
pub use kernels::{
    fold_group_rows, group_table_memory_bytes, group_table_rows, page_reader, scan_agg_page,
    scan_group_agg_page, GroupTable, ScanScratch,
};
pub use par::parallel_map;
pub use spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, QueryOp, ScanAggSpec, ScanSpec, TableRef,
};
pub use wire::{decode_op, encode_op, WireError};
pub use work::{CostTable, WorkCounts};
