//! Layout-agnostic row access.
//!
//! Operators (scan, filter, join, aggregate) are written once against this
//! trait; the NSM and PAX page readers both implement it. The *cost* of each
//! access differs by layout — that asymmetry lives in the execution cost
//! model, not here.

use crate::expr::CmpOp;
use crate::schema::Schema;
use crate::tuple::{decode_field, read_i64, Tuple};
use crate::types::Datum;

/// Read access to the rows of one page (or any row batch).
pub trait RowAccessor {
    /// Schema of the rows.
    fn schema(&self) -> &Schema;

    /// Number of rows available.
    fn num_rows(&self) -> usize;

    /// Raw bytes of field `(row, col)`, exactly the column's width.
    fn field(&self, row: usize, col: usize) -> &[u8];

    /// Numeric field as `i64` (widens `Int32`). Panics on char columns.
    #[inline]
    fn i64_at(&self, row: usize, col: usize) -> i64 {
        read_i64(self.schema().column(col).ty, self.field(row, col))
    }

    /// Decodes a single field to a `Datum`.
    #[inline]
    fn datum_at(&self, row: usize, col: usize) -> Datum {
        decode_field(self.schema().column(col).ty, self.field(row, col))
    }

    /// Decodes a whole row.
    fn tuple_at(&self, row: usize) -> Tuple {
        (0..self.schema().len())
            .map(|c| self.datum_at(row, c))
            .collect()
    }

    /// Appends `i64_at(row, col)` for each row in `rows` to `out`.
    ///
    /// This is the batched accessor behind vectorized evaluation: page
    /// readers override it with layout-specific loops (PAX decodes the
    /// minipage with a typed loop, NSM hoists the column offset out of
    /// the slot walk) so the per-row virtual dispatch and type match of
    /// the default path disappear from scan inner loops.
    fn gather_i64_into(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) {
        out.reserve(rows.len());
        out.extend(rows.iter().map(|&row| self.i64_at(row as usize, col)));
    }

    /// Retains in `rows` only those where `i64_at(row, col) <op> lit` (or
    /// `lit <op> i64_at(row, col)` when `flipped`). Fuses the gather and
    /// the compare of a column-vs-literal predicate atom into one pass so
    /// no intermediate value vector is materialized. This default is the
    /// specification; the page readers override it with one branch-free
    /// compaction loop each (`tests/filter_kernels.rs` holds them to it).
    fn filter_i64_cmp(&self, col: usize, op: CmpOp, lit: i64, flipped: bool, rows: &mut Vec<u32>) {
        rows.retain(|&row| {
            let v = self.i64_at(row as usize, col);
            op.matches(if flipped { lit.cmp(&v) } else { v.cmp(&lit) })
        });
    }
}
