//! Tuples and their fixed-width binary record encoding.

use crate::page::{le_i32, le_i64};
use crate::schema::Schema;
use crate::types::{DataType, Datum, IntWidth};

/// An in-memory tuple: one datum per schema column.
pub type Tuple = Vec<Datum>;

/// Encodes a tuple as a fixed-width record into `out`, appending
/// `schema.tuple_width()` bytes. Integers are little-endian; chars are
/// space padded to the declared width.
///
/// Panics if the tuple does not match the schema — catching a mismatch at
/// load time is preferable to corrupting a page.
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
        DataType::Char(_) => Datum::Str(bytes.into()),
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
