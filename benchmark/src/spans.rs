//! Host-time spans recorded from the benchmark's own code, around every
//! call it makes into a library crate. Kept in memory, written out as
//! Chrome `trace_event` JSON when the traced run ends.
//!
//! A timed run carries a recorder that is switched off: `enter`/`exit`
//! are then one branch each and read no clock.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`; the part before the first dot is the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Which rep the span belongs to (0 = set-up).
    pub rep: u32,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    stack: Vec<u32>,
    rep: u32,
    pub spans: Vec<Span>,
}

/// Handle returned by [`Spans::enter`]; give it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<u32>);

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A live recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            stack: Vec::new(),
            rep: 0,
            spans: Vec::new(),
        }
    }

    /// Tags the spans that follow with a rep id.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Records a span around one call.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Chrome `trace_event` JSON: one complete (`"X"`) event per span, in
    /// host microseconds, carrying its rep and parent as arguments.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(layer_of(s.name).into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::Num(1.0)),
                    ("tid".into(), Value::Num(1.0)),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::Num(i as f64)),
                            ("rep".into(), Value::Num(s.rep as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("displayTimeUnit".into(), Value::Str("ns".into())),
            ("traceEvents".into(), Value::Arr(events)),
        ])
        .emit()
    }
}

/// The layer a span name belongs to: the text before its first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            // Clip to the parent so a stray child cannot push it negative.
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                if b > edge {
                    covered += b - a.max(edge);
                    edge = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(calls, total ns, self ns)`, over the spans of reps in
/// `reps` (inclusive range).
pub fn by_name(
    spans: &[Span],
    reps: std::ops::RangeInclusive<u32>,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if reps.contains(&s.rep) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // rep [0,100) ── a [10,40) ── a1 [15,25)
        //             ├─ b [50,90) ── b1 [55,70), b2 [65,80) (overlap 65..70)
        //             └─ c [95,120) (runs past its parent: clipped to 95..100)
        let spans = vec![
            span("bench.rep", 0, 100, None),
            span("core.a", 10, 40, Some(0)),
            span("flash.a1", 15, 25, Some(1)),
            span("core.b", 50, 90, Some(0)),
            span("exec.b1", 55, 70, Some(3)),
            span("exec.b2", 65, 80, Some(3)),
            span("core.c", 95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 10, 15, 15, 15, 25]);
        let names = by_name(&spans, 1..=1);
        assert_eq!(names["exec.b1"], (1, 15, 15));
        assert_eq!(names["core.b"], (1, 40, 15));
        assert!(by_name(&spans, 2..=9).is_empty());
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        let mut s = Spans::on();
        s.set_rep(3);
        let outer = s.enter("bench.rep");
        let got = s.call("core.run", || 7);
        s.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].rep, 3);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        let json = crate::json::parse(&s.chrome_json()).expect("valid JSON");
        assert_eq!(json.get("traceEvents").map(|e| e.items().len()), Some(2));

        let mut off = Spans::off();
        let o = off.enter("bench.rep");
        off.exit(o);
        assert!(off.spans.is_empty());
        assert_eq!(layer_of("storage.validate"), "storage");
    }
}
