//! Vectorized, selection-vector-driven predicate and expression
//! evaluation.
//!
//! The row-at-a-time path (`Pred::eval_counted` per row) walks the
//! expression tree once per tuple, which dominates kernel wall-clock time
//! at scale. This module evaluates each tree node once per *page* over a
//! [`SelectionVector`] of still-active rows, with tight columnar inner
//! loops fed by [`RowAccessor::gather_i64_into`] (PAX minipages decode
//! with typed loops; NSM hoists the record walk per column).
//!
//! The tallied [`EvalCounts`] are bit-identical to what the row-at-a-time
//! evaluator would report over the same rows — including AND/OR
//! short-circuiting (a conjunct is only evaluated for rows where every
//! earlier conjunct passed) and CASE branch-taken counting — so simulated
//! timing and energy derived from work receipts are unchanged.

use crate::expr::{CmpOp, EvalCounts, Expr, Pred};
use crate::row::RowAccessor;

/// Indices of the rows of one page still active in a scan, in ascending
/// row order.
#[derive(Debug, Clone, Default)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// An empty selection.
    pub fn new() -> Self {
        SelectionVector { rows: Vec::new() }
    }

    /// Selects all `n` rows.
    pub fn with_all(n: usize) -> Self {
        let mut sel = SelectionVector::new();
        sel.reset_all(n);
        sel
    }

    /// Reuses the buffer, selecting all `n` rows.
    pub fn reset_all(&mut self, n: usize) {
        self.rows.clear();
        self.rows.extend(0..n as u32);
    }

    /// Keeps the `i`-th selected row where `keep(i, row)`, preserving order.
    pub fn retain(&mut self, keep: impl FnMut(usize, u32) -> bool) {
        compact(&mut self.rows, keep);
    }

    /// The selected row indices, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Buffers the evaluator borrows below the top-level selection: the
/// pass/fail halves of `Or`/`Not`/`Case` partitions and the right-hand
/// value vectors of arithmetic nodes. One per operator execution, reused
/// across its pages; a node takes a buffer and gives it back, so after the
/// first page of a shape no evaluation allocates.
#[derive(Debug, Default)]
pub struct EvalScratch {
    rows: Vec<Vec<u32>>,
    vals: Vec<Vec<i64>>,
}

impl EvalScratch {
    /// An empty scratch (allocates nothing until a node needs a buffer).
    pub fn new() -> Self {
        EvalScratch::default()
    }
}

/// Takes a cleared buffer from `pool`. Nodes take and give in the same
/// order on every page, so each node meets the buffer it grew last time.
fn take<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf
}

/// Retains in `sel` only the rows satisfying `pred`, tallying exactly the
/// work the row-at-a-time `eval_counted` would tally over the same rows.
/// Makes a fresh [`EvalScratch`]; scans call [`filter_select_with`].
pub fn filter_select<R: RowAccessor + ?Sized>(
    pred: &Pred,
    r: &R,
    sel: &mut SelectionVector,
    counts: &mut EvalCounts,
) {
    filter_select_with(pred, r, sel, counts, &mut EvalScratch::new());
}

/// [`filter_select`] borrowing its temporaries from `scratch`.
pub fn filter_select_with<R: RowAccessor + ?Sized>(
    pred: &Pred,
    r: &R,
    sel: &mut SelectionVector,
    counts: &mut EvalCounts,
    scratch: &mut EvalScratch,
) {
    filter_rows(pred, r, &mut sel.rows, counts, scratch);
}

/// Evaluates `expr` for each row in `rows`, filling `out` (cleared first)
/// element-aligned with `rows`. Counts match per-row `eval_counted`.
pub fn eval_select<R: RowAccessor + ?Sized>(
    expr: &Expr,
    r: &R,
    rows: &[u32],
    out: &mut Vec<i64>,
    counts: &mut EvalCounts,
    scratch: &mut EvalScratch,
) {
    out.clear();
    eval_into(expr, r, rows, out, counts, scratch);
}

/// Branch-free in-place compaction: keeps `rows[i]` where `keep(i, rows[i])`,
/// preserving order. Every row index is stored unconditionally at the write
/// cursor and the cursor advances by `keep as usize`, so the loop has no
/// data-dependent branch to mispredict and is the same for dense and sparse
/// selections.
#[inline(always)]
pub(crate) fn compact(rows: &mut Vec<u32>, mut keep: impl FnMut(usize, u32) -> bool) {
    let slots = rows.as_mut_slice();
    let mut k = 0;
    for i in 0..slots.len() {
        let row = slots[i];
        slots[k] = row;
        k += keep(i, row) as usize;
    }
    rows.truncate(k);
}

/// [`compact`] on `lhs(i, row) <op> rhs(i)`, dispatching `op` once so each
/// operator gets its own monomorphised loop around a plain integer compare.
#[inline(always)]
pub(crate) fn compact_cmp(
    rows: &mut Vec<u32>,
    op: CmpOp,
    lhs: impl Fn(usize, u32) -> i64,
    rhs: impl Fn(usize) -> i64,
) {
    match op {
        CmpOp::Eq => compact(rows, |i, row| lhs(i, row) == rhs(i)),
        CmpOp::Ne => compact(rows, |i, row| lhs(i, row) != rhs(i)),
        CmpOp::Lt => compact(rows, |i, row| lhs(i, row) < rhs(i)),
        CmpOp::Le => compact(rows, |i, row| lhs(i, row) <= rhs(i)),
        CmpOp::Gt => compact(rows, |i, row| lhs(i, row) > rhs(i)),
        CmpOp::Ge => compact(rows, |i, row| lhs(i, row) >= rhs(i)),
    }
}

/// Stable partition of `rows` by `pred`: on return `pass` holds the rows
/// that satisfy it and `rows` those that do not, both ascending. `pred` is
/// evaluated (and counted) once per row of `rows`.
fn partition_rows<R: RowAccessor + ?Sized>(
    pred: &Pred,
    r: &R,
    rows: &mut Vec<u32>,
    pass: &mut Vec<u32>,
    counts: &mut EvalCounts,
    scratch: &mut EvalScratch,
) {
    pass.clear();
    pass.extend_from_slice(rows);
    filter_rows(pred, r, pass, counts, scratch);
    remove_sorted(rows, pass);
}

/// Removes from `rows` the members of its ascending subsequence `gone`, in
/// one pass over `rows`.
fn remove_sorted(rows: &mut Vec<u32>, gone: &[u32]) {
    let mut next = gone.iter().copied().peekable();
    compact(rows, |_, row| next.next_if_eq(&row).is_none());
}

fn filter_rows<R: RowAccessor + ?Sized>(
    pred: &Pred,
    r: &R,
    active: &mut Vec<u32>,
    counts: &mut EvalCounts,
    scratch: &mut EvalScratch,
) {
    if active.is_empty() {
        return;
    }
    match pred {
        Pred::Const(true) => {}
        Pred::Const(false) => active.clear(),
        Pred::And(ps) => {
            // Each conjunct sees only rows every earlier conjunct passed —
            // exactly the rows the short-circuiting scalar path evaluates
            // it on.
            for p in ps {
                if active.is_empty() {
                    break;
                }
                filter_rows(p, r, active, counts, scratch);
            }
        }
        Pred::Or(ps) => {
            // Each disjunct sees only rows every earlier disjunct failed;
            // what is left pending at the end failed them all.
            let mut pending = take(&mut scratch.rows);
            let mut pass = take(&mut scratch.rows);
            pending.extend_from_slice(active);
            for p in ps {
                if pending.is_empty() {
                    break;
                }
                partition_rows(p, r, &mut pending, &mut pass, counts, scratch);
            }
            remove_sorted(active, &pending);
            scratch.rows.push(pass);
            scratch.rows.push(pending);
        }
        Pred::Not(p) => {
            let mut pass = take(&mut scratch.rows);
            partition_rows(p, r, active, &mut pass, counts, scratch);
            scratch.rows.push(pass);
        }
        Pred::Cmp(op, a, b) => {
            let n = active.len() as u64;
            counts.atoms += n;
            // Column-vs-literal is the dominant atom shape; skip
            // materializing the literal side. Counts stay exact: the
            // general path would tally nodes += n for each side plus
            // values += n for the column.
            let col_lit = match (a, b) {
                (Expr::Col(c), Expr::Lit(v)) => Some((*c, *v, false)),
                (Expr::Lit(v), Expr::Col(c)) => Some((*c, *v, true)),
                _ => None,
            };
            if let Some((c, v, flipped)) = col_lit {
                counts.nodes += 2 * n;
                counts.values += n;
                r.filter_i64_cmp(c, *op, v, flipped, active);
                return;
            }
            let mut va = take(&mut scratch.vals);
            let mut vb = take(&mut scratch.vals);
            eval_into(a, r, active, &mut va, counts, scratch);
            eval_into(b, r, active, &mut vb, counts, scratch);
            compact_cmp(active, *op, |i, _| va[i], |i| vb[i]);
            scratch.vals.push(vb);
            scratch.vals.push(va);
        }
        Pred::StrCmp { col, op, lit } => {
            counts.atoms += active.len() as u64;
            counts.values += active.len() as u64;
            compact(active, |_, row| {
                op.matches(padded_cmp(r.field(row as usize, *col), lit))
            });
        }
        Pred::LikePrefix { col, prefix } => {
            counts.atoms += active.len() as u64;
            counts.values += active.len() as u64;
            compact(active, |_, row| {
                r.field(row as usize, *col).starts_with(prefix)
            });
        }
    }
}

/// `out[i] = f(out[i], rhs[i])`.
#[inline(always)]
fn zip_apply(out: &mut [i64], rhs: &[i64], f: impl Fn(i64, i64) -> i64) {
    for (x, y) in out.iter_mut().zip(rhs) {
        *x = f(*x, *y);
    }
}

fn eval_into<R: RowAccessor + ?Sized>(
    expr: &Expr,
    r: &R,
    rows: &[u32],
    out: &mut Vec<i64>,
    counts: &mut EvalCounts,
    scratch: &mut EvalScratch,
) {
    counts.nodes += rows.len() as u64;
    match expr {
        Expr::Col(c) => {
            counts.values += rows.len() as u64;
            r.gather_i64_into(*c, rows, out);
        }
        Expr::Lit(v) => {
            out.resize(rows.len(), *v);
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            let mut vb = take(&mut scratch.vals);
            eval_into(a, r, rows, out, counts, scratch);
            eval_into(b, r, rows, &mut vb, counts, scratch);
            match expr {
                Expr::Add(..) => zip_apply(out, &vb, i64::wrapping_add),
                Expr::Sub(..) => zip_apply(out, &vb, i64::wrapping_sub),
                _ => zip_apply(out, &vb, i64::wrapping_mul),
            }
            scratch.vals.push(vb);
        }
        Expr::Case {
            when,
            then,
            otherwise,
        } => {
            // Only the taken branch is evaluated (and counted) per row.
            let mut taken = take(&mut scratch.rows);
            let mut not_taken = take(&mut scratch.rows);
            not_taken.extend_from_slice(rows);
            partition_rows(when, r, &mut not_taken, &mut taken, counts, scratch);
            let mut vt = take(&mut scratch.vals);
            let mut vf = take(&mut scratch.vals);
            eval_into(then, r, &taken, &mut vt, counts, scratch);
            eval_into(otherwise, r, &not_taken, &mut vf, counts, scratch);
            // Merge branch results back into row order.
            let (mut it, mut if_) = (0, 0);
            out.clear();
            out.reserve(rows.len());
            for &row in rows {
                if it < taken.len() && taken[it] == row {
                    out.push(vt[it]);
                    it += 1;
                } else {
                    out.push(vf[if_]);
                    if_ += 1;
                }
            }
            scratch.vals.push(vf);
            scratch.vals.push(vt);
            scratch.rows.push(not_taken);
            scratch.rows.push(taken);
        }
    }
}

/// Ordering of a char field against a literal treated as space-padded to
/// the field's width (same semantics as `Pred::StrCmp`'s scalar eval,
/// without materializing the padding).
#[inline]
pub fn padded_cmp(field: &[u8], lit: &[u8]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let n = lit.len().min(field.len());
    match field[..n].cmp(&lit[..n]) {
        Ordering::Equal => {
            for &b in &field[n..] {
                match b.cmp(&b' ') {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggSpec, CmpOp, Expr, Pred};
    use crate::nsm::NsmPageBuilder;
    use crate::pax::PaxPageBuilder;
    use crate::schema::Schema;
    use crate::types::{DataType, Datum};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("a", DataType::Int32),
            ("b", DataType::Int64),
            ("s", DataType::Char(6)),
        ])
    }

    fn rows() -> Vec<Vec<Datum>> {
        (0..57)
            .map(|i| {
                vec![
                    Datum::I32(i * 7 % 23 - 11),
                    Datum::I64((i as i64 * 13 % 101) - 50),
                    Datum::str(if i % 3 == 0 { "PROMO" } else { "STD" }),
                ]
            })
            .collect()
    }

    fn preds() -> Vec<Pred> {
        vec![
            Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(3)),
            Pred::And(vec![
                Pred::Cmp(CmpOp::Ge, Expr::col(0), Expr::lit(-5)),
                Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(20)),
                Pred::LikePrefix {
                    col: 2,
                    prefix: b"PRO".as_slice().into(),
                },
            ]),
            Pred::Or(vec![
                Pred::Cmp(CmpOp::Gt, Expr::col(1), Expr::lit(40)),
                Pred::StrCmp {
                    col: 2,
                    op: CmpOp::Eq,
                    lit: b"STD".as_slice().into(),
                },
                Pred::Cmp(CmpOp::Eq, Expr::col(0), Expr::lit(0)),
            ]),
            Pred::Not(Box::new(Pred::Cmp(
                CmpOp::Le,
                Expr::col(0).add(Expr::col(1)),
                Expr::lit(0),
            ))),
            Pred::And(vec![Pred::Const(true), Pred::Const(false)]),
            Pred::Cmp(
                CmpOp::Gt,
                Expr::Case {
                    when: Box::new(Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(0))),
                    then: Box::new(Expr::col(1).mul(Expr::lit(2))),
                    otherwise: Box::new(Expr::col(1).sub(Expr::col(0))),
                },
                Expr::lit(10),
            ),
        ]
    }

    fn pages() -> Vec<(crate::page::PageBuf, Arc<Schema>)> {
        let s = schema();
        let mut nsm = NsmPageBuilder::new(Arc::clone(&s));
        let mut pax = PaxPageBuilder::new(Arc::clone(&s));
        for t in rows() {
            nsm.push(&t);
            pax.push(&t);
        }
        vec![(nsm.seal(), Arc::clone(&s)), (pax.seal(), Arc::clone(&s))]
    }

    #[test]
    fn filter_matches_rowwise_rows_and_counts() {
        for (page, s) in pages() {
            for pred in preds() {
                let (expected_rows, expected_counts) = match page.layout() {
                    crate::page::Layout::Nsm => {
                        let r = crate::nsm::NsmReader::new(&page, &s);
                        rowwise(&pred, &r)
                    }
                    crate::page::Layout::Pax => {
                        let r = crate::pax::PaxReader::new(&page, &s);
                        rowwise(&pred, &r)
                    }
                };
                let (got_rows, got_counts) = match page.layout() {
                    crate::page::Layout::Nsm => {
                        let r = crate::nsm::NsmReader::new(&page, &s);
                        vectorized(&pred, &r)
                    }
                    crate::page::Layout::Pax => {
                        let r = crate::pax::PaxReader::new(&page, &s);
                        vectorized(&pred, &r)
                    }
                };
                assert_eq!(got_rows, expected_rows, "{pred:?} on {:?}", page.layout());
                assert_eq!(
                    got_counts,
                    expected_counts,
                    "{pred:?} on {:?}",
                    page.layout()
                );
            }
        }
    }

    fn rowwise<R: RowAccessor>(pred: &Pred, r: &R) -> (Vec<u32>, EvalCounts) {
        let mut counts = EvalCounts::default();
        let mut keep = Vec::new();
        for row in 0..r.num_rows() {
            let mut ev = EvalCounts::default();
            if pred.eval_counted(r, row, &mut ev) {
                keep.push(row as u32);
            }
            counts.absorb(ev);
        }
        (keep, counts)
    }

    fn vectorized<R: RowAccessor>(pred: &Pred, r: &R) -> (Vec<u32>, EvalCounts) {
        let mut counts = EvalCounts::default();
        let mut sel = SelectionVector::with_all(r.num_rows());
        filter_select(pred, r, &mut sel, &mut counts);
        (sel.rows().to_vec(), counts)
    }

    #[test]
    fn expr_eval_matches_rowwise() {
        let exprs = vec![
            Expr::col(1),
            Expr::lit(5),
            Expr::col(0).mul(Expr::col(1)).add(Expr::lit(3)),
            Expr::Case {
                when: Box::new(Pred::LikePrefix {
                    col: 2,
                    prefix: b"PROMO".as_slice().into(),
                }),
                then: Box::new(Expr::col(1)),
                otherwise: Box::new(Expr::lit(0)),
            },
        ];
        for (page, s) in pages() {
            if page.layout() != crate::page::Layout::Pax {
                continue;
            }
            let r = crate::pax::PaxReader::new(&page, &s);
            let active: Vec<u32> = (0..r.num_rows() as u32).filter(|i| i % 2 == 0).collect();
            for e in &exprs {
                let mut expected_counts = EvalCounts::default();
                let expected: Vec<i64> = active
                    .iter()
                    .map(|&row| e.eval_counted(&r, row as usize, &mut expected_counts))
                    .collect();
                let mut got_counts = EvalCounts::default();
                let mut got = Vec::new();
                eval_select(
                    e,
                    &r,
                    &active,
                    &mut got,
                    &mut got_counts,
                    &mut EvalScratch::new(),
                );
                assert_eq!(got, expected, "{e:?}");
                assert_eq!(got_counts, expected_counts, "{e:?}");
            }
        }
        let _ = AggSpec::count();
    }

    #[test]
    fn selection_vector_basics() {
        let mut sel = SelectionVector::with_all(4);
        assert_eq!(sel.rows(), &[0, 1, 2, 3]);
        assert_eq!(sel.len(), 4);
        assert!(!sel.is_empty());
        sel.reset_all(2);
        assert_eq!(sel.rows(), &[0, 1]);
        assert!(SelectionVector::new().is_empty());
    }

    #[test]
    fn padded_cmp_matches_scalar_strcmp() {
        // Field "STD   " vs literal "STD" → equal under padding.
        assert_eq!(padded_cmp(b"STD   ", b"STD"), std::cmp::Ordering::Equal);
        assert_eq!(padded_cmp(b"STD  X", b"STD"), std::cmp::Ordering::Greater);
        assert_eq!(padded_cmp(b"STC   ", b"STD"), std::cmp::Ordering::Less);
        // Literal longer than field: only field-width prefix compared.
        assert_eq!(padded_cmp(b"AB", b"ABX"), std::cmp::Ordering::Equal);
    }
}
