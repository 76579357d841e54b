//! Binary marshalling of `OPEN` parameters.
//!
//! Paper Section 3: the protocol is "compatible with the standard SATA/SAS
//! interfaces", so the query operator must cross the bus as bytes inside a
//! vendor-specific command payload. This module is that marshalling layer:
//! the host encodes a [`QueryOp`] (schemas, expressions, predicates,
//! aggregates, table extents) into a self-contained buffer; the device
//! firmware decodes and validates it before granting the session.
//!
//! The format is a deliberately simple tag-length-value encoding:
//! little-endian integers, length-prefixed byte strings, recursive nodes
//! with one-byte tags. Decoding is defensive — any truncation, unknown tag,
//! or oversized length yields a [`WireError`] instead of a panic, because
//! the device must survive malformed host commands.

use crate::spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, QueryOp, ScanAggSpec, ScanSpec, TableRef,
};
use smartssd_storage::expr::{AggFunc, AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{Column, DataType, Layout, Schema};
use std::fmt;
use std::sync::Arc;

/// Decoding failures (malformed or hostile command payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before a field was complete.
    Truncated,
    /// Unknown tag byte at the given offset.
    BadTag(u8),
    /// A length field exceeded the remaining payload or a sanity bound.
    BadLength(u64),
    /// Trailing garbage after a complete operator.
    TrailingBytes(usize),
    /// Nesting deeper than the decoder permits (stack protection).
    TooDeep,
    /// The columns make no schema (none, or two named alike).
    BadSchema,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            WireError::TooDeep => write!(f, "expression nesting too deep"),
            WireError::BadSchema => write!(f, "no columns, or two named alike"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum recursive depth the decoder accepts — generous for real queries,
/// small enough to bound firmware stack usage.
const MAX_DEPTH: usize = 64;

/// Sanity cap on any single length field (schemas, strings, vectors).
const MAX_LEN: u64 = 1 << 20;

// ---------------------------------------------------------------- encoder

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
    fn usizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
    }

    fn datatype(&mut self, t: DataType) {
        match t {
            DataType::Int32 => self.u8(0),
            DataType::Int64 => self.u8(1),
            DataType::Char(w) => {
                self.u8(2);
                self.u16(w);
            }
        }
    }

    fn schema(&mut self, s: &Schema) {
        self.u64(s.len() as u64);
        for c in s.columns() {
            self.bytes(c.name.as_bytes());
            self.datatype(c.ty);
        }
    }

    fn table(&mut self, t: &TableRef) {
        self.u64(t.first_lba);
        self.u64(t.num_pages);
        self.u8(match t.layout {
            Layout::Nsm => 0,
            Layout::Pax => 1,
        });
        self.schema(&t.schema);
    }

    fn cmp(&mut self, op: CmpOp) {
        self.u8(match op {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Col(c) => {
                self.u8(0);
                self.u64(*c as u64);
            }
            Expr::Lit(v) => {
                self.u8(1);
                self.i64(*v);
            }
            Expr::Add(a, b) => {
                self.u8(2);
                self.expr(a);
                self.expr(b);
            }
            Expr::Sub(a, b) => {
                self.u8(3);
                self.expr(a);
                self.expr(b);
            }
            Expr::Mul(a, b) => {
                self.u8(4);
                self.expr(a);
                self.expr(b);
            }
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                self.u8(5);
                self.pred(when);
                self.expr(then);
                self.expr(otherwise);
            }
        }
    }

    fn pred(&mut self, p: &Pred) {
        match p {
            Pred::Cmp(op, a, b) => {
                self.u8(0);
                self.cmp(*op);
                self.expr(a);
                self.expr(b);
            }
            Pred::StrCmp { col, op, lit } => {
                self.u8(1);
                self.u64(*col as u64);
                self.cmp(*op);
                self.bytes(lit);
            }
            Pred::LikePrefix { col, prefix } => {
                self.u8(2);
                self.u64(*col as u64);
                self.bytes(prefix);
            }
            Pred::And(ps) => {
                self.u8(3);
                self.u64(ps.len() as u64);
                for q in ps {
                    self.pred(q);
                }
            }
            Pred::Or(ps) => {
                self.u8(4);
                self.u64(ps.len() as u64);
                for q in ps {
                    self.pred(q);
                }
            }
            Pred::Not(q) => {
                self.u8(5);
                self.pred(q);
            }
            Pred::Const(b) => {
                self.u8(6);
                self.u8(u8::from(*b));
            }
        }
    }

    fn aggs(&mut self, aggs: &[AggSpec]) {
        self.u64(aggs.len() as u64);
        for a in aggs {
            self.u8(match a.func {
                AggFunc::Sum => 0,
                AggFunc::Count => 1,
                AggFunc::Min => 2,
                AggFunc::Max => 3,
            });
            self.expr(&a.expr);
        }
    }
}

/// Encodes an operator into a self-contained command payload.
pub fn encode_op(op: &QueryOp) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    match op {
        QueryOp::Scan { table, spec } => {
            e.u8(0);
            e.table(table);
            e.pred(&spec.pred);
            e.usizes(&spec.project);
        }
        QueryOp::ScanAgg { table, spec } => {
            e.u8(1);
            e.table(table);
            e.pred(&spec.pred);
            e.aggs(&spec.aggs);
        }
        QueryOp::GroupAgg { table, spec } => {
            e.u8(2);
            e.table(table);
            e.pred(&spec.pred);
            e.usizes(&spec.group_by);
            e.aggs(&spec.aggs);
        }
        QueryOp::Join { probe, spec } => {
            e.u8(3);
            e.table(probe);
            e.table(&spec.build.table);
            e.u64(spec.build.key_col as u64);
            e.usizes(&spec.build.payload);
            e.u64(spec.probe_key as u64);
            e.pred(&spec.probe_pred);
            e.u8(u8::from(spec.filter_first));
            match &spec.output {
                JoinOutput::Project(cols) => {
                    e.u8(0);
                    e.u64(cols.len() as u64);
                    for c in cols {
                        match *c {
                            ColRef::Probe(i) => {
                                e.u8(0);
                                e.u64(i as u64);
                            }
                            ColRef::Build(i) => {
                                e.u8(1);
                                e.u64(i as u64);
                            }
                        }
                    }
                }
                JoinOutput::Aggregate(aggs) => {
                    e.u8(1);
                    e.aggs(aggs);
                }
            }
        }
    }
    e.buf
}

// ---------------------------------------------------------------- decoder

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    /// Little-endian unsigned integer of `n <= 8` bytes.
    fn le(&mut self, n: usize) -> Result<u64, WireError> {
        let bytes = self.take(n)?.iter().rev();
        Ok(bytes.fold(0, |acc, &b| acc << 8 | u64::from(b)))
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(self.le(2)? as u16)
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        self.le(8)
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.le(8)? as i64)
    }
    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len()?;
        self.take(n)
    }
    fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| Ok(self.u64()? as usize)).collect()
    }

    fn datatype(&mut self) -> Result<DataType, WireError> {
        match self.u8()? {
            0 => Ok(DataType::Int32),
            1 => Ok(DataType::Int64),
            2 => Ok(DataType::Char(self.u16()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn schema(&mut self) -> Result<Arc<Schema>, WireError> {
        let n = self.len()?;
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            let name = String::from_utf8_lossy(self.bytes()?).into_owned();
            let ty = self.datatype()?;
            cols.push(Column::new(name, ty));
        }
        Schema::try_new(cols).map_err(|_| WireError::BadSchema)
    }

    fn table(&mut self) -> Result<TableRef, WireError> {
        let first_lba = self.u64()?;
        let num_pages = self.u64()?;
        let layout = match self.u8()? {
            0 => Layout::Nsm,
            1 => Layout::Pax,
            t => return Err(WireError::BadTag(t)),
        };
        Ok(TableRef {
            first_lba,
            num_pages,
            schema: self.schema()?,
            layout,
        })
    }

    fn cmp(&mut self) -> Result<CmpOp, WireError> {
        Ok(match self.u8()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn expr(&mut self, depth: usize) -> Result<Expr, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.u8()? {
            0 => Expr::Col(self.u64()? as usize),
            1 => Expr::Lit(self.i64()?),
            2 => Expr::Add(
                Box::new(self.expr(depth + 1)?),
                Box::new(self.expr(depth + 1)?),
            ),
            3 => Expr::Sub(
                Box::new(self.expr(depth + 1)?),
                Box::new(self.expr(depth + 1)?),
            ),
            4 => Expr::Mul(
                Box::new(self.expr(depth + 1)?),
                Box::new(self.expr(depth + 1)?),
            ),
            5 => Expr::Case {
                when: Box::new(self.pred(depth + 1)?),
                then: Box::new(self.expr(depth + 1)?),
                otherwise: Box::new(self.expr(depth + 1)?),
            },
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn pred(&mut self, depth: usize) -> Result<Pred, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.u8()? {
            0 => Pred::Cmp(self.cmp()?, self.expr(depth + 1)?, self.expr(depth + 1)?),
            1 => Pred::StrCmp {
                col: self.u64()? as usize,
                op: self.cmp()?,
                lit: self.bytes()?.into(),
            },
            2 => Pred::LikePrefix {
                col: self.u64()? as usize,
                prefix: self.bytes()?.into(),
            },
            3 => {
                let n = self.len()?;
                Pred::And(
                    (0..n)
                        .map(|_| self.pred(depth + 1))
                        .collect::<Result<_, _>>()?,
                )
            }
            4 => {
                let n = self.len()?;
                Pred::Or(
                    (0..n)
                        .map(|_| self.pred(depth + 1))
                        .collect::<Result<_, _>>()?,
                )
            }
            5 => Pred::Not(Box::new(self.pred(depth + 1)?)),
            6 => Pred::Const(self.u8()? != 0),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn aggs(&mut self) -> Result<Vec<AggSpec>, WireError> {
        let n = self.len()?;
        (0..n)
            .map(|_| {
                let func = match self.u8()? {
                    0 => AggFunc::Sum,
                    1 => AggFunc::Count,
                    2 => AggFunc::Min,
                    3 => AggFunc::Max,
                    t => return Err(WireError::BadTag(t)),
                };
                Ok(AggSpec {
                    func,
                    expr: self.expr(0)?,
                })
            })
            .collect()
    }
}

/// Decodes a command payload back into an operator. The result still goes
/// through [`QueryOp::validate`] on the device — the wire layer only
/// guarantees structural well-formedness.
pub fn decode_op(bytes: &[u8]) -> Result<QueryOp, WireError> {
    let mut d = Dec { buf: bytes, pos: 0 };
    let op = match d.u8()? {
        0 => QueryOp::Scan {
            table: d.table()?,
            spec: ScanSpec {
                pred: d.pred(0)?,
                project: d.usizes()?,
            },
        },
        1 => QueryOp::ScanAgg {
            table: d.table()?,
            spec: ScanAggSpec {
                pred: d.pred(0)?,
                aggs: d.aggs()?,
            },
        },
        2 => QueryOp::GroupAgg {
            table: d.table()?,
            spec: GroupAggSpec {
                pred: d.pred(0)?,
                group_by: d.usizes()?,
                aggs: d.aggs()?,
            },
        },
        3 => {
            let probe = d.table()?;
            let build_table = d.table()?;
            let key_col = d.u64()? as usize;
            let payload = d.usizes()?;
            let probe_key = d.u64()? as usize;
            let probe_pred = d.pred(0)?;
            let filter_first = d.u8()? != 0;
            let output = match d.u8()? {
                0 => {
                    let n = d.len()?;
                    let mut cols = Vec::with_capacity(n);
                    for _ in 0..n {
                        cols.push(match d.u8()? {
                            0 => ColRef::Probe(d.u64()? as usize),
                            1 => ColRef::Build(d.u64()? as usize),
                            t => return Err(WireError::BadTag(t)),
                        });
                    }
                    JoinOutput::Project(cols)
                }
                1 => JoinOutput::Aggregate(d.aggs()?),
                t => return Err(WireError::BadTag(t)),
            };
            QueryOp::Join {
                probe,
                spec: JoinSpec {
                    build: BuildSide {
                        table: build_table,
                        key_col,
                        payload,
                    },
                    probe_key,
                    probe_pred,
                    filter_first,
                    output,
                },
            }
        }
        t => return Err(WireError::BadTag(t)),
    };
    if d.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - d.pos));
    }
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Int64),
            ("s", DataType::Char(10)),
        ])
    }

    fn sample_table() -> TableRef {
        TableRef {
            first_lba: 42,
            num_pages: 1000,
            schema: sample_schema(),
            layout: Layout::Pax,
        }
    }

    /// Structural equality for ops (TableRef has no PartialEq because of
    /// Arc<Schema>; compare the encodings instead — the codec is
    /// deterministic).
    fn assert_round_trip(op: &QueryOp) {
        let bytes = encode_op(op);
        let back = decode_op(&bytes).expect("decode");
        assert_eq!(bytes, encode_op(&back), "re-encoding differs");
    }

    #[test]
    fn scan_round_trips() {
        assert_round_trip(&QueryOp::Scan {
            table: sample_table(),
            spec: ScanSpec {
                pred: Pred::And(vec![
                    Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5)),
                    Pred::LikePrefix {
                        col: 2,
                        prefix: b"PRO".as_slice().into(),
                    },
                ]),
                project: vec![2, 0],
            },
        });
    }

    #[test]
    fn scan_agg_round_trips() {
        assert_round_trip(&QueryOp::ScanAgg {
            table: sample_table(),
            spec: ScanAggSpec {
                pred: Pred::Or(vec![
                    Pred::Const(true),
                    Pred::Not(Box::new(Pred::Const(false))),
                ]),
                aggs: vec![
                    AggSpec::sum(Expr::col(1).mul(Expr::lit(100).sub(Expr::col(0)))),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(0)),
                    AggSpec::max(Expr::col(1)),
                ],
            },
        });
    }

    #[test]
    fn group_agg_round_trips() {
        assert_round_trip(&QueryOp::GroupAgg {
            table: sample_table(),
            spec: GroupAggSpec {
                pred: Pred::StrCmp {
                    col: 2,
                    op: CmpOp::Eq,
                    lit: b"x".as_slice().into(),
                },
                group_by: vec![2, 0],
                aggs: vec![AggSpec::sum(Expr::Case {
                    when: Box::new(Pred::Const(true)),
                    then: Box::new(Expr::col(1)),
                    otherwise: Box::new(Expr::lit(0)),
                })],
            },
        });
    }

    #[test]
    fn join_round_trips_both_outputs() {
        let build = TableRef {
            first_lba: 0,
            num_pages: 5,
            schema: sample_schema(),
            layout: Layout::Nsm,
        };
        for output in [
            JoinOutput::Project(vec![ColRef::Probe(1), ColRef::Build(0)]),
            JoinOutput::Aggregate(vec![AggSpec::sum(Expr::col(3))]),
        ] {
            assert_round_trip(&QueryOp::Join {
                probe: sample_table(),
                spec: JoinSpec {
                    build: BuildSide {
                        table: build.clone(),
                        key_col: 0,
                        payload: vec![1, 2],
                    },
                    probe_key: 0,
                    probe_pred: Pred::between_exclusive(1, -5, 5),
                    filter_first: true,
                    output,
                },
            });
        }
    }

    #[test]
    fn truncation_at_every_point_is_an_error_not_a_panic() {
        let op = QueryOp::ScanAgg {
            table: sample_table(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Ge, Expr::col(0), Expr::lit(7)),
                aggs: vec![AggSpec::sum(Expr::col(1))],
            },
        };
        let bytes = encode_op(&op);
        for cut in 0..bytes.len() {
            assert!(
                decode_op(&bytes[..cut]).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let op = QueryOp::Scan {
            table: sample_table(),
            spec: ScanSpec {
                pred: Pred::Const(true),
                project: vec![0],
            },
        };
        let mut bytes = encode_op(&op);
        bytes.push(0);
        assert_eq!(decode_op(&bytes).unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn bad_tags_and_lengths_rejected() {
        assert_eq!(decode_op(&[9]).unwrap_err(), WireError::BadTag(9));
        assert_eq!(decode_op(&[]).unwrap_err(), WireError::Truncated);
        // Huge schema length.
        let mut bytes = vec![0u8]; // Scan
        bytes.extend_from_slice(&42u64.to_le_bytes()); // first_lba
        bytes.extend_from_slice(&1u64.to_le_bytes()); // num_pages
        bytes.push(0); // layout NSM
        let mut empty = bytes.clone();
        bytes.extend_from_slice(&(u64::MAX).to_le_bytes()); // column count
        assert!(matches!(decode_op(&bytes), Err(WireError::BadLength(_))));
        empty.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(decode_op(&empty).unwrap_err(), WireError::BadSchema);
    }

    #[test]
    fn duplicate_column_names_rejected() {
        let op = QueryOp::Scan {
            table: sample_table(),
            spec: ScanSpec {
                pred: Pred::Const(true),
                project: vec![0],
            },
        };
        let mut bytes = encode_op(&op);
        // Rename column `v` to `k`.
        let v = bytes.iter().position(|&b| b == b'v').unwrap();
        bytes[v] = b'k';
        assert_eq!(decode_op(&bytes).unwrap_err(), WireError::BadSchema);
    }

    #[test]
    fn depth_bomb_rejected() {
        // NOT(NOT(NOT(... Const ...))) deeper than MAX_DEPTH.
        let mut pred = Pred::Const(true);
        for _ in 0..200 {
            pred = Pred::Not(Box::new(pred));
        }
        let op = QueryOp::Scan {
            table: sample_table(),
            spec: ScanSpec {
                pred,
                project: vec![0],
            },
        };
        let bytes = encode_op(&op);
        assert_eq!(decode_op(&bytes).unwrap_err(), WireError::TooDeep);
    }

    #[test]
    fn decoded_op_validates_like_the_original() {
        let op = QueryOp::ScanAgg {
            table: sample_table(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1)),
                aggs: vec![AggSpec::sum(Expr::col(1))],
            },
        };
        let back = decode_op(&encode_op(&op)).unwrap();
        assert!(back.validate().is_ok());
    }
}
