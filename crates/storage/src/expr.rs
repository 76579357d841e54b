//! The expression, predicate, and aggregate language.
//!
//! This is the vocabulary that the host passes to the device as `OPEN`
//! parameters (paper Section 3: "the query operation to be performed is
//! passed as parameters to the OPEN call") and that the host engine
//! evaluates itself on the regular SSD/HDD paths. It covers exactly what the
//! paper's queries need: integer arithmetic, comparisons, conjunctions,
//! prefix `LIKE`, `CASE WHEN`, and `SUM`/`COUNT`/`MIN`/`MAX` aggregates.
//!
//! All numeric values are integers — the paper's workload modifications
//! scale decimals by 100 and store dates as day numbers precisely so that
//! the in-device code can be pure integer arithmetic.

use crate::row::RowAccessor;
use crate::schema::Schema;
use crate::types::DataType;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering.
    #[inline]
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater | Equal)
        )
    }

    /// The operator with its operands swapped: `a <op> b` is
    /// `b <op.mirrored()> a`.
    #[inline]
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Eq | CmpOp::Ne => self,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar integer expression over one row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Column reference by index (numeric columns only).
    Col(usize),
    /// Integer literal.
    Lit(i64),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// `CASE WHEN pred THEN a ELSE b END`.
    Case {
        /// Branch condition.
        when: Box<Pred>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise.
        otherwise: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    /// Shorthand for a literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Expr values
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// Evaluates the expression for `row` of `rows`. Arithmetic wraps — the
    /// workload generators keep values far from the i64 edges, and the
    /// aggregate accumulators widen to i128.
    pub fn eval<R: RowAccessor + ?Sized>(&self, rows: &R, row: usize) -> i64 {
        self.eval_counted(rows, row, &mut EvalCounts::default())
    }

    /// Number of nodes — the execution cost model charges cycles per node
    /// per row evaluated.
    pub fn weight(&self) -> u64 {
        match self {
            Expr::Col(_) | Expr::Lit(_) => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => 1 + a.weight() + b.weight(),
            Expr::Case {
                when,
                then,
                otherwise,
            } => 1 + when.weight() + then.weight() + otherwise.weight(),
        }
    }

    /// Adds every referenced column index to `out`.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(c) => {
                if !out.contains(c) {
                    out.push(*c);
                }
            }
            Expr::Lit(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                when.collect_columns(out);
                then.collect_columns(out);
                otherwise.collect_columns(out);
            }
        }
    }

    /// Checks the expression against a schema: column indexes in range and
    /// numeric.
    pub fn validate(&self, schema: &Schema) -> Result<(), ExprError> {
        match self {
            Expr::Col(c) => {
                if *c >= schema.len() {
                    return Err(ExprError::ColumnOutOfRange(*c));
                }
                if matches!(schema.column(*c).ty, DataType::Char(_)) {
                    return Err(ExprError::CharInNumericContext(*c));
                }
                Ok(())
            }
            Expr::Lit(_) => Ok(()),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                when.validate(schema)?;
                then.validate(schema)?;
                otherwise.validate(schema)
            }
        }
    }
}

/// A boolean predicate over one row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Numeric comparison of two expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Comparison of a char column against a literal (padded byte order).
    StrCmp {
        /// Char column index.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Literal, padded to column width before comparing.
        lit: Box<[u8]>,
    },
    /// `col LIKE 'prefix%'` — the only LIKE form the paper's queries use
    /// (Q14's `p_type LIKE 'PROMO%'`).
    LikePrefix {
        /// Char column index.
        col: usize,
        /// Required prefix bytes.
        prefix: Box<[u8]>,
    },
    /// Conjunction; empty list is `true`.
    And(Vec<Pred>),
    /// Disjunction; empty list is `false`.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Constant.
    Const(bool),
}

impl Pred {
    /// `a BETWEEN lo AND hi` exclusive variant helper: `lo < a AND a < hi`.
    pub fn between_exclusive(col: usize, lo: i64, hi: i64) -> Pred {
        Pred::And(vec![
            Pred::Cmp(CmpOp::Gt, Expr::col(col), Expr::lit(lo)),
            Pred::Cmp(CmpOp::Lt, Expr::col(col), Expr::lit(hi)),
        ])
    }

    /// Half-open range `lo <= a AND a < hi` (the paper's date ranges).
    pub fn range_half_open(col: usize, lo: i64, hi: i64) -> Pred {
        Pred::And(vec![
            Pred::Cmp(CmpOp::Ge, Expr::col(col), Expr::lit(lo)),
            Pred::Cmp(CmpOp::Lt, Expr::col(col), Expr::lit(hi)),
        ])
    }

    /// Evaluates the predicate for `row` of `rows`.
    pub fn eval<R: RowAccessor + ?Sized>(&self, rows: &R, row: usize) -> bool {
        self.eval_counted(rows, row, &mut EvalCounts::default())
    }

    /// Number of nodes, for the cost model.
    pub fn weight(&self) -> u64 {
        match self {
            Pred::Cmp(_, a, b) => 1 + a.weight() + b.weight(),
            Pred::StrCmp { .. } | Pred::LikePrefix { .. } | Pred::Const(_) => 1,
            Pred::And(ps) | Pred::Or(ps) => 1 + ps.iter().map(Pred::weight).sum::<u64>(),
            Pred::Not(p) => 1 + p.weight(),
        }
    }

    /// Number of atomic comparisons — the paper counts Q6 as "five
    /// predicates"; this measure matches that counting.
    pub fn num_atoms(&self) -> u64 {
        match self {
            Pred::Cmp(..) | Pred::StrCmp { .. } | Pred::LikePrefix { .. } => 1,
            Pred::Const(_) => 0,
            Pred::And(ps) | Pred::Or(ps) => ps.iter().map(Pred::num_atoms).sum(),
            Pred::Not(p) => p.num_atoms(),
        }
    }

    /// Adds every referenced column index to `out`.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Pred::Cmp(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Pred::StrCmp { col, .. } | Pred::LikePrefix { col, .. } => {
                if !out.contains(col) {
                    out.push(*col);
                }
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Pred::Not(p) => p.collect_columns(out),
            Pred::Const(_) => {}
        }
    }

    /// Checks the predicate against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), ExprError> {
        match self {
            Pred::Cmp(_, a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Pred::StrCmp { col, .. } | Pred::LikePrefix { col, .. } => {
                if *col >= schema.len() {
                    return Err(ExprError::ColumnOutOfRange(*col));
                }
                if !matches!(schema.column(*col).ty, DataType::Char(_)) {
                    return Err(ExprError::NumericInStringContext(*col));
                }
                Ok(())
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.validate(schema)?;
                }
                Ok(())
            }
            Pred::Not(p) => p.validate(schema),
            Pred::Const(_) => Ok(()),
        }
    }
}

/// Expression validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// Column index exceeds the schema.
    ColumnOutOfRange(usize),
    /// Char column used where a number is required.
    CharInNumericContext(usize),
    /// Numeric column used where a char is required.
    NumericInStringContext(usize),
    /// A column listed twice where each must appear once.
    DuplicateColumn(usize),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::ColumnOutOfRange(c) => write!(f, "column index {c} out of range"),
            ExprError::CharInNumericContext(c) => {
                write!(f, "char column {c} used in numeric context")
            }
            ExprError::NumericInStringContext(c) => {
                write!(f, "numeric column {c} used in string context")
            }
            ExprError::DuplicateColumn(c) => write!(f, "column {c} listed twice"),
        }
    }
}

impl std::error::Error for ExprError {}

/// Work performed while evaluating expressions, respecting boolean
/// short-circuiting. The execution cost models convert these to CPU cycles
/// (with different constants for the host Xeon and the device's embedded
/// cores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Atomic predicates actually evaluated (AND stops at the first false,
    /// OR at the first true).
    pub atoms: u64,
    /// Column values actually read from the page.
    pub values: u64,
    /// Expression nodes actually evaluated.
    pub nodes: u64,
}

impl EvalCounts {
    /// Adds another count set into this one.
    pub fn absorb(&mut self, other: EvalCounts) {
        self.atoms += other.atoms;
        self.values += other.values;
        self.nodes += other.nodes;
    }
}

impl Expr {
    /// Evaluates while tallying the work performed into `counts`.
    pub fn eval_counted<R: RowAccessor + ?Sized>(
        &self,
        rows: &R,
        row: usize,
        counts: &mut EvalCounts,
    ) -> i64 {
        counts.nodes += 1;
        match self {
            Expr::Col(c) => {
                counts.values += 1;
                rows.i64_at(row, *c)
            }
            Expr::Lit(v) => *v,
            Expr::Add(a, b) => a
                .eval_counted(rows, row, counts)
                .wrapping_add(b.eval_counted(rows, row, counts)),
            Expr::Sub(a, b) => a
                .eval_counted(rows, row, counts)
                .wrapping_sub(b.eval_counted(rows, row, counts)),
            Expr::Mul(a, b) => a
                .eval_counted(rows, row, counts)
                .wrapping_mul(b.eval_counted(rows, row, counts)),
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                if when.eval_counted(rows, row, counts) {
                    then.eval_counted(rows, row, counts)
                } else {
                    otherwise.eval_counted(rows, row, counts)
                }
            }
        }
    }
}

impl Pred {
    /// Evaluates while tallying the work performed into `counts`.
    /// Conjunction and disjunction short-circuit, so selective leading
    /// predicates genuinely save simulated CPU cycles - the effect the
    /// paper leans on when it relates selectivity to Smart SSD benefit.
    pub fn eval_counted<R: RowAccessor + ?Sized>(
        &self,
        rows: &R,
        row: usize,
        counts: &mut EvalCounts,
    ) -> bool {
        match self {
            Pred::Cmp(op, a, b) => {
                counts.atoms += 1;
                op.matches(
                    a.eval_counted(rows, row, counts)
                        .cmp(&b.eval_counted(rows, row, counts)),
                )
            }
            Pred::StrCmp { col, op, lit } => {
                counts.atoms += 1;
                counts.values += 1;
                let field = rows.field(row, *col);
                // Compare against the literal as if padded to field width.
                let n = lit.len().min(field.len());
                let ord = field[..n].cmp(&lit[..n]).then_with(|| {
                    // Remaining field bytes compare against implied padding.
                    field[n..].cmp(&vec![b' '; field.len() - n][..])
                });
                op.matches(ord)
            }
            Pred::LikePrefix { col, prefix } => {
                counts.atoms += 1;
                counts.values += 1;
                rows.field(row, *col).starts_with(prefix)
            }
            Pred::And(ps) => ps.iter().all(|p| p.eval_counted(rows, row, counts)),
            Pred::Or(ps) => ps.iter().any(|p| p.eval_counted(rows, row, counts)),
            Pred::Not(p) => !p.eval_counted(rows, row, counts),
            Pred::Const(b) => *b,
        }
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `SUM(expr)` — accumulates in i128 to survive SF-100-scale sums.
    Sum,
    /// `COUNT(*)` (the expression is ignored).
    Count,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// One aggregate column of an aggregation operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input expression (ignored for `Count`).
    pub expr: Expr,
}

impl AggSpec {
    /// `SUM(expr)`.
    pub fn sum(expr: Expr) -> Self {
        Self {
            func: AggFunc::Sum,
            expr,
        }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Self {
            func: AggFunc::Count,
            expr: Expr::lit(1),
        }
    }

    /// `MIN(expr)`.
    pub fn min(expr: Expr) -> Self {
        Self {
            func: AggFunc::Min,
            expr,
        }
    }

    /// `MAX(expr)`.
    pub fn max(expr: Expr) -> Self {
        Self {
            func: AggFunc::Max,
            expr,
        }
    }
}

/// Running state of one aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggState {
    /// Running sum.
    Sum(i128),
    /// Running count.
    Count(u64),
    /// Running minimum (None until the first row).
    Min(Option<i64>),
    /// Running maximum (None until the first row).
    Max(Option<i64>),
}

impl AggState {
    /// Initial state for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggState::Sum(0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Folds in one row's value.
    #[inline]
    pub fn update(&mut self, v: i64) {
        match self {
            AggState::Sum(acc) => *acc += v as i128,
            AggState::Count(n) => *n += 1,
            AggState::Min(m) => *m = Some(m.map_or(v, |cur| cur.min(v))),
            AggState::Max(m) => *m = Some(m.map_or(v, |cur| cur.max(v))),
        }
    }

    /// Merges a partial state (e.g. device-side partials combined on the
    /// host after `GET`s).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            _ => panic!("merging mismatched aggregate states"),
        }
    }

    /// Folds one batch of partial states into a running merge, which is
    /// `None` until the first batch arrives — how a coordinator gathers the
    /// partials of a session's `GET`s or of a fleet's shards.
    pub fn merge_partials(acc: &mut Option<Vec<AggState>>, parts: Vec<AggState>) {
        match acc {
            None => *acc = Some(parts),
            Some(states) => {
                for (a, p) in states.iter_mut().zip(&parts) {
                    a.merge(p);
                }
            }
        }
    }

    /// Final value as i128 (Min/Max of zero rows yield 0, matching SQL NULL
    /// folded to zero in the paper's integer-only setting).
    pub fn finish(&self) -> i128 {
        match self {
            AggState::Sum(v) => *v,
            AggState::Count(n) => *n as i128,
            AggState::Min(m) => m.unwrap_or(0) as i128,
            AggState::Max(m) => m.unwrap_or(0) as i128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsm::NsmPageBuilder;
    use crate::schema::Schema;
    use crate::types::Datum;

    fn page() -> (crate::page::PageBuf, std::sync::Arc<Schema>) {
        let s = Schema::from_pairs(&[
            ("qty", DataType::Int32),
            ("price", DataType::Int64),
            ("ty", DataType::Char(10)),
        ]);
        let mut b = NsmPageBuilder::new(std::sync::Arc::clone(&s));
        b.push(&[Datum::I32(10), Datum::I64(500), Datum::str("PROMO ABC")]);
        b.push(&[Datum::I32(30), Datum::I64(700), Datum::str("STD XYZ")]);
        (b.seal(), s)
    }

    #[test]
    fn arithmetic_and_case() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        let e = Expr::col(0).mul(Expr::col(1)); // qty * price
        assert_eq!(e.eval(&r, 0), 5000);
        assert_eq!(e.eval(&r, 1), 21000);
        let case = Expr::Case {
            when: Box::new(Pred::LikePrefix {
                col: 2,
                prefix: b"PROMO".as_slice().into(),
            }),
            then: Box::new(Expr::col(1)),
            otherwise: Box::new(Expr::lit(0)),
        };
        assert_eq!(case.eval(&r, 0), 500);
        assert_eq!(case.eval(&r, 1), 0);
    }

    #[test]
    fn comparisons() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        let lt = Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(24));
        assert!(lt.eval(&r, 0));
        assert!(!lt.eval(&r, 1));
        assert!(Pred::between_exclusive(1, 400, 600).eval(&r, 0));
        assert!(!Pred::between_exclusive(1, 400, 600).eval(&r, 1));
        assert!(Pred::range_half_open(1, 500, 701).eval(&r, 0));
        // range_half_open upper bound is exclusive:
        assert!(!Pred::range_half_open(1, 600, 700).eval(&r, 0));
    }

    #[test]
    fn boolean_composition() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        let a = Pred::Cmp(CmpOp::Gt, Expr::col(0), Expr::lit(5));
        let b = Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(600));
        assert!(Pred::And(vec![a.clone(), b.clone()]).eval(&r, 0));
        assert!(!Pred::And(vec![a.clone(), b.clone()]).eval(&r, 1));
        assert!(Pred::Or(vec![a.clone(), b.clone()]).eval(&r, 1));
        assert!(!Pred::Not(Box::new(a)).eval(&r, 0));
        assert!(Pred::And(vec![]).eval(&r, 0)); // empty AND is true
        assert!(!Pred::Or(vec![]).eval(&r, 0)); // empty OR is false
    }

    #[test]
    fn str_cmp_respects_padding() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        // Field is "PROMO ABC " (width 10); literal shorter than width.
        let eq = Pred::StrCmp {
            col: 2,
            op: CmpOp::Eq,
            lit: b"PROMO ABC".as_slice().into(),
        };
        assert!(eq.eval(&r, 0));
        assert!(!eq.eval(&r, 1));
    }

    #[test]
    fn weights_and_atoms() {
        let q6ish = Pred::And(vec![
            Pred::range_half_open(0, 1, 2),
            Pred::between_exclusive(1, 5, 7),
            Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(24)),
        ]);
        // The paper counts Q6 as five predicates.
        assert_eq!(q6ish.num_atoms(), 5);
        assert!(q6ish.weight() > q6ish.num_atoms());
    }

    #[test]
    fn column_collection_dedups() {
        let e = Expr::col(1).mul(Expr::col(1)).add(Expr::col(0));
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn validation_catches_type_errors() {
        let s = Schema::from_pairs(&[("n", DataType::Int32), ("c", DataType::Char(4))]);
        assert!(Expr::col(0).validate(&s).is_ok());
        assert_eq!(
            Expr::col(1).validate(&s),
            Err(ExprError::CharInNumericContext(1))
        );
        assert_eq!(
            Expr::col(9).validate(&s),
            Err(ExprError::ColumnOutOfRange(9))
        );
        let lp = Pred::LikePrefix {
            col: 0,
            prefix: b"x".as_slice().into(),
        };
        assert_eq!(lp.validate(&s), Err(ExprError::NumericInStringContext(0)));
    }

    #[test]
    fn aggregate_states() {
        let mut sum = AggState::new(AggFunc::Sum);
        let mut cnt = AggState::new(AggFunc::Count);
        let mut min = AggState::new(AggFunc::Min);
        let mut max = AggState::new(AggFunc::Max);
        for v in [3i64, -1, 7] {
            sum.update(v);
            cnt.update(v);
            min.update(v);
            max.update(v);
        }
        assert_eq!(sum.finish(), 9);
        assert_eq!(cnt.finish(), 3);
        assert_eq!(min.finish(), -1);
        assert_eq!(max.finish(), 7);
    }

    #[test]
    fn aggregate_merge_matches_single_pass() {
        let vals = [5i64, 2, 9, -4, 0, 11];
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let mut whole = AggState::new(func);
            vals.iter().for_each(|&v| whole.update(v));
            let mut left = AggState::new(func);
            let mut right = AggState::new(func);
            vals[..3].iter().for_each(|&v| left.update(v));
            vals[3..].iter().for_each(|&v| right.update(v));
            left.merge(&right);
            assert_eq!(left.finish(), whole.finish(), "{func:?}");
        }
    }

    #[test]
    fn empty_min_max_finish_zero() {
        assert_eq!(AggState::new(AggFunc::Min).finish(), 0);
        assert_eq!(AggState::new(AggFunc::Max).finish(), 0);
    }

    #[test]
    fn counted_eval_matches_plain_eval() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        let pred = Pred::And(vec![
            Pred::Cmp(CmpOp::Gt, Expr::col(0), Expr::lit(5)),
            Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(600)),
        ]);
        for row in 0..2 {
            let mut c = EvalCounts::default();
            assert_eq!(pred.eval_counted(&r, row, &mut c), pred.eval(&r, row));
        }
    }

    #[test]
    fn and_short_circuits_counts() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        // First conjunct is false for row 0 (qty=10 > 20 fails), so the
        // second must not be counted.
        let pred = Pred::And(vec![
            Pred::Cmp(CmpOp::Gt, Expr::col(0), Expr::lit(20)),
            Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(600)),
        ]);
        let mut c = EvalCounts::default();
        assert!(!pred.eval_counted(&r, 0, &mut c));
        assert_eq!(c.atoms, 1);
        assert_eq!(c.values, 1);
        // Row 1 passes the first conjunct, so both atoms are counted.
        let mut c = EvalCounts::default();
        assert!(!pred.eval_counted(&r, 1, &mut c));
        assert_eq!(c.atoms, 2);
    }

    #[test]
    fn or_short_circuits_counts() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        let pred = Pred::Or(vec![
            Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(999)), // true
            Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(600)),
        ]);
        let mut c = EvalCounts::default();
        assert!(pred.eval_counted(&r, 0, &mut c));
        assert_eq!(c.atoms, 1);
    }

    #[test]
    fn case_counts_only_taken_branch() {
        let (p, s) = page();
        let r = crate::nsm::NsmReader::new(&p, &s);
        let case = Expr::Case {
            when: Box::new(Pred::LikePrefix {
                col: 2,
                prefix: b"PROMO".as_slice().into(),
            }),
            then: Box::new(Expr::col(1)),
            otherwise: Box::new(Expr::lit(0)),
        };
        let mut c0 = EvalCounts::default();
        case.eval_counted(&r, 0, &mut c0); // PROMO row: reads col 1
        let mut c1 = EvalCounts::default();
        case.eval_counted(&r, 1, &mut c1); // non-PROMO: literal branch
        assert_eq!(c0.values, 2); // like col + then col
        assert_eq!(c1.values, 1); // like col only
        assert!(c0.nodes >= c1.nodes);
    }
}
