//! Table schemas: ordered, named, fixed-width columns.

use crate::types::DataType;
use std::fmt;
use std::sync::Arc;

/// A named column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (used by plan builders and pretty printers).
    pub name: String,
    /// Physical type.
    pub ty: DataType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of fixed-width columns.
///
/// Because every type is fixed width (see [`crate::types`]), a schema fully
/// determines tuple width and per-column byte offsets within an NSM record,
/// which both page codecs exploit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    /// Byte offset of each column within a fixed-width record, plus a final
    /// entry equal to the record width.
    offsets: Vec<usize>,
}

impl Schema {
    /// Builds a schema from columns. Panics on empty or duplicate names.
    pub fn new(columns: Vec<Column>) -> Arc<Self> {
        Self::try_new(columns).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Schema::new`] for columns from outside the program: an empty or
    /// duplicate-named column list is an error that says why, not a panic.
    pub fn try_new(columns: Vec<Column>) -> Result<Arc<Self>, String> {
        if columns.is_empty() {
            return Err("schema needs at least one column".into());
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(format!("duplicate column name {:?}", c.name));
            }
        }
        let mut offsets = Vec::with_capacity(columns.len() + 1);
        let mut off = 0usize;
        for c in &columns {
            offsets.push(off);
            off += c.ty.width();
        }
        offsets.push(off);
        Ok(Arc::new(Self { columns, offsets }))
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Arc<Self> {
        Self::new(
            pairs
                .iter()
                .map(|&(n, t)| Column::new(n, t))
                .collect::<Vec<_>>(),
        )
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Always false; schemas are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The columns in order.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by index.
    #[inline]
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Byte offset of column `idx` within a fixed-width record.
    #[inline]
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// Total fixed record width in bytes.
    #[inline]
    pub fn tuple_width(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Builds the schema that results from projecting `cols` (by index).
    pub fn project(&self, cols: &[usize]) -> Arc<Schema> {
        Schema::new(cols.iter().map(|&i| self.columns[i].clone()).collect())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("a", DataType::Int32),
            ("b", DataType::Int64),
            ("c", DataType::Char(10)),
        ])
    }

    #[test]
    fn offsets_and_width() {
        let s = sample();
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 4);
        assert_eq!(s.offset(2), 12);
        assert_eq!(s.tuple_width(), 22);
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zz"), None);
    }

    #[test]
    fn projection_preserves_order() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.column(0).name, "c");
        assert_eq!(p.column(1).name, "a");
        assert_eq!(p.tuple_width(), 14);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        Schema::from_pairs(&[("a", DataType::Int32), ("a", DataType::Int32)]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_rejected() {
        Schema::new(vec![]);
    }

    #[test]
    fn display() {
        assert_eq!(sample().to_string(), "(a int32, b int64, c char(10))");
    }
}
