#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Workloads: the tables and queries of the paper's evaluation (Section 4.1.1).
//!
//! * [`tpch`] — `LINEITEM` and `PART` generators with the paper's three
//!   schema modifications: variable-length strings become fixed-length
//!   chars, decimals are multiplied by 100 and stored as integers, and
//!   dates become day counts since an epoch (1992-01-01);
//! * [`synthetic`] — the `Synthetic64_R` / `Synthetic64_S` tables: 64
//!   integer columns each, `R.col_1` the primary key, `S.col_2` a foreign
//!   key into R, `S.col_3` the selection column for the Figure 5 sweep;
//! * [`queries`] — TPC-H Q6, TPC-H Q14, the selection-with-join query, and
//!   the single-table-scan sweep family from the companion paper \[7\],
//!   expressed as [`smartssd_query::Query`] templates;
//! * [`dates`] — the day-number calendar helpers.
//!
//! All generators are deterministic given a seed and a scale factor; the
//! paper runs at SF 100 (600 M LINEITEM rows), this reproduction defaults
//! to small SFs and projects — ratios are SF-invariant because every
//! timing model is linear in pages at fixed selectivity.

pub mod dates;
pub mod queries;
pub mod synthetic;
pub mod tpch;

pub use queries::{join_query, q1, q14, q6, scan_sweep};
pub use synthetic::{synthetic64_r, synthetic64_s, SYNTH_COLS};
pub use tpch::{lineitem_rows, part_rows, LINEITEM_ROWS_SF1, PART_ROWS_SF1};
