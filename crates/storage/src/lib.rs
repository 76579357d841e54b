#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Relational storage substrate: schemas, tuples, page layouts, expressions.
//!
//! The paper stores tables in SQL Server heap files: 8 KB slotted pages in
//! the traditional N-ary Storage Model (NSM). For the Smart SSD it also
//! implements the PAX layout (Ailamaki et al., VLDB 2001), where all values
//! of a column are grouped together *within* a page — that is what lets the
//! in-device scan touch only the referenced columns and is the difference
//! between the NSM and PAX bars in the paper's Figures 3, 5 and 7.
//!
//! This crate is purely functional — no timing. It provides:
//!
//! * [`schema`] / [`types`] / [`mod@tuple`]: fixed-width relational types
//!   (the paper's workload modifications make every column fixed width:
//!   fixed-length chars, decimals stored as scaled integers, dates as day
//!   numbers);
//! * [`nsm`] and [`pax`]: the two page codecs over raw 8 KB byte pages;
//! * [`table`]: in-memory table images (ordered page lists) plus builders;
//! * [`expr`]: the expression/predicate/aggregate language shared by the
//!   host engine and the in-device operators (the paper passes these as
//!   parameters to the `OPEN` session call);
//! * [`row`]: the `RowAccessor` abstraction both page codecs implement, so
//!   operators are layout-agnostic;
//! * [`vector`]: selection-vector-driven predicate/expression evaluation —
//!   the columnar fast path over either page codec, with work counts
//!   identical to row-at-a-time evaluation.

pub mod expr;
pub mod nsm;
pub mod page;
pub mod pax;
pub mod row;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod types;
pub mod vector;

pub use page::{Layout, PageBuf, PageDecodeCache, PAGE_SIZE};
pub use row::RowAccessor;
pub use schema::{Column, Schema};
pub use table::{RowError, TableBuilder, TableImage};
pub use tuple::{RecordRun, Tuple, TupleError};
pub use types::{DataType, Datum};
pub use vector::{eval_select, filter_select, filter_select_with, EvalScratch, SelectionVector};
