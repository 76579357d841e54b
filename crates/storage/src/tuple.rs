//! Tuples and their fixed-width binary field encoding.

use crate::page::{le_i32, le_i64};
use crate::schema::Schema;
use crate::types::{DataType, Datum, IntWidth};
use std::fmt;
use std::sync::Arc;

/// An in-memory tuple: one datum per schema column.
pub type Tuple = Vec<Datum>;

/// Why a tuple cannot be stored under a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleError {
    /// The tuple has `got` fields; the schema has `expected` columns.
    Arity {
        /// Columns in the schema.
        expected: usize,
        /// Fields in the tuple.
        got: usize,
    },
    /// Column `col` cannot hold `datum`: the types differ, or the string is
    /// longer than the column.
    Mismatch {
        /// Column index.
        col: usize,
        /// Column name.
        name: String,
        /// Column type.
        ty: DataType,
        /// The datum given for it.
        datum: Datum,
    },
}

impl TupleError {
    /// Built off the hot path: a push that fails allocates, one that
    /// succeeds does not.
    #[cold]
    fn mismatch(schema: &Schema, col: usize, datum: &Datum) -> Self {
        let c = schema.column(col);
        TupleError::Mismatch {
            col,
            name: c.name.clone(),
            ty: c.ty,
            datum: datum.clone(),
        }
    }
}

impl fmt::Display for TupleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TupleError::Arity { expected, got } => {
                write!(f, "{got} fields for a schema of {expected} columns")
            }
            TupleError::Mismatch {
                col,
                name,
                ty,
                datum,
            } => match datum {
                Datum::Str(b) => write!(
                    f,
                    "column {col} ({name} {ty}) cannot hold a {}-byte string",
                    b.len()
                ),
                _ => write!(f, "column {col} ({name} {ty}) cannot hold {datum:?}"),
            },
        }
    }
}

impl std::error::Error for TupleError {}

/// Where one column's fields lie in a staging buffer: row `r`'s field
/// starts at `base + r * stride`. A record (a [`RecordRun`]'s, so an NSM
/// page's) puts column `c` at `base = schema.offset(c)` with
/// `stride = tuple_width`; a PAX minipage at
/// `base = capacity * schema.offset(c)` with `stride = width`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldSlot {
    pub(crate) base: usize,
    pub(crate) stride: usize,
    pub(crate) ty: DataType,
}

/// Writes `tuple` as row `row` of `buf`: each field once, at its final
/// offset, with the type and width check in the `match` that writes it.
/// Integers are little-endian; a string writes only its own bytes, so the
/// caller keeps the row's `Char` fields space-filled beforehand.
///
/// On error the row's earlier fields may already be written; the caller has
/// not counted the row and restores its spaces, so the next write lands on
/// a padded row.
///
/// Always inlined: shared out of line by the two builders it was a call
/// per row, and pushes read several percent slower.
#[inline(always)]
pub(crate) fn write_row(
    schema: &Schema,
    slots: &[FieldSlot],
    buf: &mut [u8],
    row: usize,
    tuple: &[Datum],
) -> Result<(), TupleError> {
    if tuple.len() != slots.len() {
        return Err(TupleError::Arity {
            expected: slots.len(),
            got: tuple.len(),
        });
    }
    for (col, (datum, slot)) in tuple.iter().zip(slots).enumerate() {
        let at = slot.base + row * slot.stride;
        // The column type first, so each arm compares the datum against the
        // one variant it needs instead of decoding which of three it is.
        let fits = match slot.ty {
            DataType::Int32 => match datum {
                Datum::I32(v) => {
                    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
                    true
                }
                _ => false,
            },
            DataType::Int64 => match datum {
                Datum::I64(v) => {
                    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    true
                }
                _ => false,
            },
            DataType::Char(w) => match datum {
                Datum::Str(b) if b.len() <= w as usize => {
                    buf[at..at + b.len()].copy_from_slice(b);
                    true
                }
                _ => false,
            },
        };
        if !fits {
            return Err(TupleError::mismatch(schema, col, datum));
        }
    }
    Ok(())
}

/// Encodes a tuple as a fixed-width record into `out`, appending
/// `schema.tuple_width()` bytes. Integers are little-endian; chars are
/// space padded to the declared width.
///
/// This is the reference encoding, one row at a time: the page builders
/// write the same bytes straight into their pages (`write_row`), and
/// `tests/builder_reference.rs` holds every sealed page to this function.
///
/// Panics if the tuple does not match the schema.
pub fn encode(schema: &Schema, tuple: &[Datum], out: &mut Vec<u8>) {
    assert_eq!(
        tuple.len(),
        schema.len(),
        "tuple arity {} does not match schema {}",
        tuple.len(),
        schema
    );
    for (datum, col) in tuple.iter().zip(schema.columns()) {
        assert!(
            datum.fits(col.ty),
            "datum {datum:?} does not fit column {} {}",
            col.name,
            col.ty
        );
        match (datum, col.ty) {
            (Datum::I32(v), DataType::Int32) => out.extend_from_slice(&v.to_le_bytes()),
            (Datum::I64(v), DataType::Int64) => out.extend_from_slice(&v.to_le_bytes()),
            (Datum::Str(b), DataType::Char(n)) => {
                out.extend_from_slice(b);
                out.resize(out.len() + (n as usize - b.len()), b' ');
            }
            _ => unreachable!("fits() checked above"),
        }
    }
}

/// Rows checked and encoded once, as [`encode`]'s fixed-width records back
/// to back: the compact form in which a load stages rows it cannot stream
/// straight into one page builder (an array's per-device partitions, the
/// shared half of a two-layout build). A page builder takes them with its
/// `append_records`; a record costs `schema.tuple_width()` bytes, where the
/// `Tuple` it came from costs a `Datum` per column on top of its own
/// allocation.
pub struct RecordRun {
    schema: Arc<Schema>,
    fields: Box<[FieldSlot]>,
    bytes: Vec<u8>,
    len: usize,
}

impl RecordRun {
    /// An empty run with room for `rows` records.
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        let width = schema.tuple_width();
        let fields = schema.columns().iter().enumerate();
        let fields = fields.map(|(c, col)| FieldSlot {
            base: schema.offset(c),
            stride: width,
            ty: col.ty,
        });
        Self {
            fields: fields.collect(),
            bytes: Vec::with_capacity(rows * width),
            len: 0,
            schema,
        }
    }

    /// The schema of the records.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Appends `tuple`'s record, or returns why the schema cannot hold it
    /// and leaves the run as it was. The record is space-filled before it is
    /// written, so its `Char` fields arrive padded.
    pub fn try_push(&mut self, tuple: &[Datum]) -> Result<(), TupleError> {
        let width = self.schema.tuple_width();
        self.bytes.resize((self.len + 1) * width, b' ');
        let written = write_row(&self.schema, &self.fields, &mut self.bytes, self.len, tuple);
        match written {
            Ok(()) => self.len += 1,
            Err(_) => self.bytes.truncate(self.len * width),
        }
        written
    }

    /// Appends records already encoded. Panics unless `records` is whole
    /// records of this schema.
    pub fn extend_records(&mut self, records: &[u8]) {
        let width = self.schema.tuple_width();
        assert_eq!(
            records.len() % width,
            0,
            "not whole records of width {width}"
        );
        self.bytes.extend_from_slice(records);
        self.len += records.len() / width;
    }

    /// Number of records in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records, back to back.
    pub fn records(&self) -> &[u8] {
        &self.bytes
    }

    /// Empties the run, keeping its allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
    }
}

/// Decodes a fixed-width record back into a tuple.
///
/// `rec` must be exactly `schema.tuple_width()` bytes.
pub fn decode(schema: &Schema, rec: &[u8]) -> Tuple {
    assert_eq!(
        rec.len(),
        schema.tuple_width(),
        "record length mismatch for schema {schema}"
    );
    let mut out = Vec::with_capacity(schema.len());
    for (idx, col) in schema.columns().iter().enumerate() {
        let off = schema.offset(idx);
        out.push(decode_field(col.ty, &rec[off..off + col.ty.width()]));
    }
    out
}

/// Decodes a single field of type `ty` from its raw bytes.
#[inline]
pub fn decode_field(ty: DataType, bytes: &[u8]) -> Datum {
    match ty {
        DataType::Int32 => Datum::I32(le_i32(bytes, 0)),
        DataType::Int64 => Datum::I64(le_i64(bytes, 0)),
        DataType::Char(_) => Datum::Str(bytes.to_vec().into()),
    }
}

/// Reads an `i64` (widening `i32`) directly from a raw field without
/// allocating a `Datum`. Used on operator hot paths.
#[inline]
pub fn read_i64(ty: DataType, bytes: &[u8]) -> i64 {
    match ty.int_width() {
        IntWidth::W4 => le_i32(bytes, 0) as i64,
        IntWidth::W8 => le_i64(bytes, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Int64),
            ("s", DataType::Char(6)),
        ])
    }

    #[test]
    fn round_trip() {
        let s = schema();
        let t: Tuple = vec![Datum::I32(-5), Datum::I64(1 << 40), Datum::str("hi")];
        let mut buf = Vec::new();
        encode(&s, &t, &mut buf);
        assert_eq!(buf.len(), s.tuple_width());
        let back = decode(&s, &buf);
        assert_eq!(back[0], Datum::I32(-5));
        assert_eq!(back[1], Datum::I64(1 << 40));
        // Strings come back at full declared width, space padded.
        assert_eq!(back[2], Datum::Str(b"hi    ".as_slice().into()));
    }

    #[test]
    fn padding_is_spaces() {
        let s = Schema::from_pairs(&[("s", DataType::Char(4))]);
        let mut buf = Vec::new();
        encode(&s, &[Datum::str("ab")], &mut buf);
        assert_eq!(&buf, b"ab  ");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let s = schema();
        encode(&s, &[Datum::I32(1)], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn type_mismatch_panics() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        encode(&s, &[Datum::I64(1)], &mut Vec::new());
    }

    /// A run holds exactly `encode`'s records, and a refused row leaves
    /// no trace in it.
    #[test]
    fn record_run_holds_encoded_records() {
        let s = schema();
        let rows = [
            vec![Datum::I32(1), Datum::I64(-2), Datum::str("abc")],
            vec![Datum::I32(3), Datum::I64(4), Datum::str("")],
        ];
        let mut run = RecordRun::with_capacity(Arc::clone(&s), 1);
        let mut want = Vec::new();
        for t in &rows {
            run.try_push(t).unwrap();
            encode(&s, t, &mut want);
        }
        let err = run.try_push(&[Datum::I32(5), Datum::I64(6), Datum::str("seven!!")]);
        assert!(matches!(err, Err(TupleError::Mismatch { col: 2, .. })));
        assert!(run.try_push(&[Datum::I32(5)]).is_err());
        assert_eq!(run.len(), 2);
        assert_eq!(run.records(), &want[..]);
        run.clear();
        assert!(run.is_empty());
    }

    #[test]
    fn read_i64_fast_path_matches_decode() {
        let s = schema();
        let mut buf = Vec::new();
        encode(
            &s,
            &[Datum::I32(42), Datum::I64(-9), Datum::str("x")],
            &mut buf,
        );
        assert_eq!(read_i64(DataType::Int32, &buf[0..4]), 42);
        assert_eq!(read_i64(DataType::Int64, &buf[4..12]), -9);
    }
}
