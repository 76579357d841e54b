//! Tuple-at-a-time reference kernels.
//!
//! These are the pre-vectorization implementations, kept verbatim: one
//! expression-tree walk per row via `eval_counted`, a `BTreeMap`-based
//! group accumulator, and a join probe that looks each row up on its own.
//! They exist so the vectorized kernels in [`crate::kernels`] and
//! [`crate::join`] can be differentially tested (results *and*
//! [`WorkCounts`] receipts must match exactly) and benchmarked against the
//! row-at-a-time baseline. Production paths never call them.

use crate::join::{JoinHashTable, JoinSink, JoinedRows};
use crate::kernels::{count_tuples, page_reader};
use crate::spec::{ColRef, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec, ScanSpec};
use crate::work::WorkCounts;
use smartssd_storage::expr::{AggState, EvalCounts};
use smartssd_storage::{PageBuf, RowAccessor, Schema, Tuple};
use std::collections::BTreeMap;

/// Reference group accumulator: encoded key -> one state per aggregate.
pub type RefGroupTable = BTreeMap<Vec<u8>, Vec<AggState>>;

/// Row-at-a-time filter + project (reference for
/// [`ScanScratch::scan_page`](crate::ScanScratch::scan_page)).
pub fn scan_page_rowwise(
    page: &PageBuf,
    schema: &Schema,
    spec: &ScanSpec,
    out: &mut Vec<Tuple>,
    w: &mut WorkCounts,
) -> usize {
    let r = page_reader(page, schema);
    w.pages += 1;
    count_tuples(w, r.layout(), r.num_rows() as u64);
    let mut qualifying = 0;
    for row in 0..r.num_rows() {
        let mut ev = EvalCounts::default();
        let pass = spec.pred.eval_counted(&r, row, &mut ev);
        w.absorb_eval(ev);
        if !pass {
            continue;
        }
        qualifying += 1;
        let mut t = Tuple::with_capacity(spec.project.len());
        let mut bytes = 0u64;
        for &c in &spec.project {
            bytes += schema.column(c).ty.width() as u64;
            t.push(r.datum_at(row, c));
        }
        w.values += spec.project.len() as u64;
        w.out_tuples += 1;
        w.out_bytes += bytes;
        out.push(t);
    }
    qualifying
}

/// Row-at-a-time filter + aggregate (reference for [`crate::scan_agg_page`]).
pub fn scan_agg_page_rowwise(
    page: &PageBuf,
    schema: &Schema,
    spec: &ScanAggSpec,
    states: &mut [AggState],
    w: &mut WorkCounts,
) {
    assert_eq!(states.len(), spec.aggs.len(), "one state per aggregate");
    let r = page_reader(page, schema);
    w.pages += 1;
    count_tuples(w, r.layout(), r.num_rows() as u64);
    for row in 0..r.num_rows() {
        let mut ev = EvalCounts::default();
        let pass = spec.pred.eval_counted(&r, row, &mut ev);
        w.absorb_eval(ev);
        if !pass {
            continue;
        }
        for (agg, state) in spec.aggs.iter().zip(states.iter_mut()) {
            let mut ev = EvalCounts::default();
            let v = agg.expr.eval_counted(&r, row, &mut ev);
            w.absorb_eval(ev);
            state.update(v);
            w.agg_updates += 1;
        }
    }
}

/// Row-at-a-time filter + group + aggregate (reference for
/// [`crate::scan_group_agg_page`]).
pub fn scan_group_agg_page_rowwise(
    page: &PageBuf,
    schema: &Schema,
    spec: &GroupAggSpec,
    acc: &mut RefGroupTable,
    w: &mut WorkCounts,
) {
    let r = page_reader(page, schema);
    w.pages += 1;
    count_tuples(w, r.layout(), r.num_rows() as u64);
    let key_width: usize = spec
        .group_by
        .iter()
        .map(|&c| schema.column(c).ty.width())
        .sum();
    for row in 0..r.num_rows() {
        let mut ev = EvalCounts::default();
        let pass = spec.pred.eval_counted(&r, row, &mut ev);
        w.absorb_eval(ev);
        if !pass {
            continue;
        }
        let mut key = Vec::with_capacity(key_width);
        for &c in &spec.group_by {
            key.extend_from_slice(r.field(row, c));
        }
        w.values += spec.group_by.len() as u64;
        w.hash_probes += 1;
        let states = acc
            .entry(key)
            .or_insert_with(|| spec.aggs.iter().map(|a| AggState::new(a.func)).collect());
        for (agg, state) in spec.aggs.iter().zip(states.iter_mut()) {
            let mut ev = EvalCounts::default();
            let v = agg.expr.eval_counted(&r, row, &mut ev);
            w.absorb_eval(ev);
            state.update(v);
            w.agg_updates += 1;
        }
    }
}

/// Materializes a [`RefGroupTable`] with the same decoding rules as
/// [`crate::group_table_rows`] (BTreeMap iteration is already key-sorted).
pub fn ref_group_table_rows(acc: &RefGroupTable, key_schema: &Schema) -> Vec<Tuple> {
    acc.iter()
        .map(|(key, states)| {
            let mut row = Tuple::with_capacity(key_schema.len() + states.len());
            for (i, col) in key_schema.columns().iter().enumerate() {
                let off = key_schema.offset(i);
                row.push(smartssd_storage::tuple::decode_field(
                    col.ty,
                    &key[off..off + col.ty.width()],
                ));
            }
            for st in states {
                let v = st.finish();
                row.push(smartssd_storage::Datum::I64(
                    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
                ));
            }
            row
        })
        .collect()
}

/// Row-at-a-time join probe (reference for [`crate::join::probe_page`]):
/// each row is filtered, looked up and emitted before the next is touched.
pub fn probe_page_rowwise(
    page: &PageBuf,
    probe_schema: &Schema,
    spec: &JoinSpec,
    ht: &JoinHashTable,
    joined_schema: &Schema,
    sink: &mut JoinSink,
    w: &mut WorkCounts,
) {
    let r = page_reader(page, probe_schema);
    w.pages += 1;
    count_tuples(w, r.layout(), r.num_rows() as u64);
    for row in 0..r.num_rows() {
        if spec.filter_first {
            let mut ev = EvalCounts::default();
            let pass = spec.probe_pred.eval_counted(&r, row, &mut ev);
            w.absorb_eval(ev);
            if !pass {
                continue;
            }
        }
        let key = r.i64_at(row, spec.probe_key);
        w.values += 1;
        w.hash_probes += 1;
        let matches = ht.lookup(key);
        if matches.is_empty() {
            continue;
        }
        if !spec.filter_first {
            let mut ev = EvalCounts::default();
            let pass = spec.probe_pred.eval_counted(&r, row, &mut ev);
            w.absorb_eval(ev);
            if !pass {
                continue;
            }
        }
        for m in matches {
            sink.matches += 1;
            let payload = ht.payload(m);
            match &spec.output {
                JoinOutput::Project(cols) => {
                    let mut t = Tuple::with_capacity(cols.len());
                    let mut bytes = 0u64;
                    for cr in cols {
                        match *cr {
                            ColRef::Probe(c) => {
                                bytes += probe_schema.column(c).ty.width() as u64;
                                t.push(r.datum_at(row, c));
                            }
                            ColRef::Build(c) => {
                                let ps = ht.payload_schema();
                                let off = ps.offset(c);
                                let width = ps.column(c).ty.width();
                                bytes += width as u64;
                                t.push(smartssd_storage::tuple::decode_field(
                                    ps.column(c).ty,
                                    &payload[off..off + width],
                                ));
                            }
                        }
                    }
                    w.values += cols.len() as u64;
                    w.out_tuples += 1;
                    w.out_bytes += bytes;
                    sink.rows.push(t);
                }
                JoinOutput::Aggregate(aggs) => {
                    let jr = JoinedRows {
                        probe: &r,
                        probe_rows: &[row as u32],
                        records: &[m],
                        ht,
                        joined_schema,
                    };
                    for (a, state) in aggs.iter().zip(sink.aggs.iter_mut()) {
                        let mut ev = EvalCounts::default();
                        let v = a.expr.eval_counted(&jr, 0, &mut ev);
                        w.absorb_eval(ev);
                        state.update(v);
                        w.agg_updates += 1;
                    }
                }
            }
        }
    }
}
