//! Fixed-width column types and values.
//!
//! The paper (Section 4.1.1) modifies the TPC-H schema so that every column
//! is fixed width: variable-length strings become fixed-length chars,
//! decimals are multiplied by 100 and stored as integers, and dates become
//! day counts since an epoch. We therefore support exactly three physical
//! types: 4-byte integers, 8-byte integers, and fixed-length byte strings.

use std::borrow::Cow;
use std::fmt;

/// Physical column type. All types have a fixed on-page width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 4-byte signed integer (also used for dates-as-day-numbers and
    /// decimals scaled by 100).
    Int32,
    /// 8-byte signed integer (used for keys and wide sums).
    Int64,
    /// Fixed-length character string of `n` bytes, space padded.
    Char(u16),
}

impl DataType {
    /// On-page width in bytes.
    #[inline]
    pub const fn width(self) -> usize {
        match self {
            DataType::Int32 => 4,
            DataType::Int64 => 8,
            DataType::Char(n) => n as usize,
        }
    }

    /// Width class of a numeric column — what the typed field loaders
    /// dispatch on once per column instead of once per row.
    ///
    /// Panics on `Char`. `Expr::validate` rejects a char column in numeric
    /// context (`ExprError::CharInNumericContext`) and both engines validate
    /// an operator before its first page, so the arm is reachable only
    /// through a caller bug; it is the one such arm in this crate.
    #[inline]
    pub(crate) fn int_width(self) -> IntWidth {
        match self {
            DataType::Int32 => IntWidth::W4,
            DataType::Int64 => IntWidth::W8,
            DataType::Char(_) => panic!("char field used in numeric context"),
        }
    }
}

/// The two numeric field widths (see [`DataType::int_width`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntWidth {
    /// `Int32`: four bytes, widened to `i64` on load.
    W4,
    /// `Int64`: eight bytes.
    W8,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int32 => write!(f, "int32"),
            DataType::Int64 => write!(f, "int64"),
            DataType::Char(n) => write!(f, "char({n})"),
        }
    }
}

/// A single column value.
///
/// A `Str` may be shorter than its column (the page builders space pad it)
/// and comes back from a page at exactly the declared width. It either
/// borrows static text — what the generators draw from their constant
/// vocabularies, at no allocation — or owns its bytes. Equality, hashing and
/// encoding look only at the bytes, never at which of the two it is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datum {
    /// 4-byte integer value.
    I32(i32),
    /// 8-byte integer value.
    I64(i64),
    /// Fixed-width string value (raw bytes; trailing spaces are padding).
    Str(Cow<'static, [u8]>),
}

impl Datum {
    /// Builds a string datum that owns a copy of `s`. For text that lives
    /// for the whole program use [`Datum::static_str`], which copies
    /// nothing.
    pub fn str(s: &str) -> Self {
        Datum::Str(Cow::Owned(s.as_bytes().to_vec()))
    }

    /// Builds a string datum that borrows static text.
    pub const fn static_str(s: &'static str) -> Self {
        Datum::Str(Cow::Borrowed(s.as_bytes()))
    }

    /// The datum's value as `i64`, widening `I32`. Panics on strings — the
    /// expression layer type-checks before evaluation.
    #[inline]
    pub fn as_i64(&self) -> i64 {
        match self {
            Datum::I32(v) => *v as i64,
            Datum::I64(v) => *v,
            Datum::Str(_) => panic!("string datum used in numeric context"),
        }
    }

    /// The raw bytes of a string datum. Panics on numerics.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Datum::Str(b) => b,
            other => panic!("numeric datum {other:?} used in string context"),
        }
    }

    /// Whether this datum is storable in a column of type `ty` (strings may
    /// be shorter than the declared width; they get padded on encode).
    pub fn fits(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Datum::I32(_), DataType::Int32) => true,
            (Datum::I64(_), DataType::Int64) => true,
            (Datum::Str(b), DataType::Char(n)) => b.len() <= n as usize,
            _ => false,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::I32(v) => write!(f, "{v}"),
            Datum::I64(v) => write!(f, "{v}"),
            Datum::Str(b) => {
                let s = String::from_utf8_lossy(b);
                write!(f, "'{}'", s.trim_end())
            }
        }
    }
}

impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::I32(v)
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::I64(v)
    }
}

/// Takes the string's buffer as the datum's bytes, without a copy.
impl From<String> for Datum {
    fn from(s: String) -> Self {
        Datum::Str(Cow::Owned(s.into_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(DataType::Int32.width(), 4);
        assert_eq!(DataType::Int64.width(), 8);
        assert_eq!(DataType::Char(25).width(), 25);
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(Datum::I32(-7).as_i64(), -7);
        assert_eq!(Datum::I64(1 << 40).as_i64(), 1 << 40);
    }

    #[test]
    #[should_panic(expected = "numeric context")]
    fn string_in_numeric_context_panics() {
        Datum::str("x").as_i64();
    }

    #[test]
    fn fits_checks_type_and_width() {
        assert!(Datum::I32(1).fits(DataType::Int32));
        assert!(!Datum::I32(1).fits(DataType::Int64));
        assert!(Datum::str("abc").fits(DataType::Char(3)));
        assert!(Datum::str("abc").fits(DataType::Char(10)));
        assert!(!Datum::str("abcd").fits(DataType::Char(3)));
    }

    /// A tuple is a `Vec<Datum>`: borrowing strings must not widen it.
    #[test]
    fn datum_is_three_words() {
        assert_eq!(std::mem::size_of::<Datum>(), 24);
    }

    #[test]
    fn borrowed_and_owned_strings_are_the_same_datum() {
        use std::hash::{BuildHasher, RandomState};
        let (b, o) = (Datum::static_str("MAIL"), Datum::str("MAIL"));
        assert!(matches!(&b, Datum::Str(Cow::Borrowed(_))));
        assert!(matches!(&o, Datum::Str(Cow::Owned(_))));
        assert_eq!(b, o);
        let h = RandomState::new();
        assert_eq!(h.hash_one(&b), h.hash_one(&o));
        assert_eq!(Datum::from(String::from("MAIL")), b);
    }

    #[test]
    fn display_trims_padding() {
        let d = Datum::Str(b"PROMO    ".as_slice().into());
        assert_eq!(d.to_string(), "'PROMO'");
    }
}
