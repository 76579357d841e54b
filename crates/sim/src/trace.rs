//! Simulated-time tracing: a span/event recorder every timeline-owning
//! component emits into.
//!
//! The paper explains *why* each configuration wins or loses by decomposing
//! elapsed time into flash-channel, DRAM-bus, interface, and CPU occupancy.
//! This module makes that decomposition a first-class output: each resource
//! reservation (a [`Timeline`](crate::Timeline) occupancy) can be mirrored as
//! a *span* on a [`TraceSink`], stamped with **simulated** time — never wall
//! clock — so traces are deterministic and byte-identical across runs.
//!
//! Three sinks cover the common uses:
//!
//! * [`NullSink`] — discards everything; with no sink attached the
//!   [`Tracer`] is a single branch per event, so tracing can be compiled in
//!   everywhere and cost nothing when off;
//! * [`CounterSink`] — a metrics registry: per-resource busy-ns counters and
//!   log2 histograms of span durations;
//! * [`ChromeTraceSink`] — Chrome `trace_event` JSON (one pid per subsystem,
//!   one tid per channel/core) viewable in Perfetto or `chrome://tracing`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::time::SimTime;
use crate::timeline::Interval;

/// Interns `s` into a process-wide pool, returning a `&'static str` with
/// the same contents.
///
/// Trace categories and resource names form a small fixed vocabulary
/// ("flash-chan", "device-cpu", ...), so metric maps key on interned
/// `&'static str` instead of owned `String`s: the steady-state tracing path
/// allocates nothing per event, and map lookups compare short pointers-plus
/// -lengths instead of freshly heap-allocated keys. Each distinct string is
/// leaked exactly once, bounded by the vocabulary size.
pub fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // An insert that unwound left the set whole, so a poisoned pool is
    // still a valid pool.
    let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&hit) = pool.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Fixed process ids: one per subsystem, per the Chrome trace convention.
pub mod pid {
    /// Top-level run span (one per `System::run`).
    pub const RUN: u32 = 0;
    /// Flash subsystem: NAND channels plus the shared DRAM bus.
    pub const FLASH: u32 = 1;
    /// The device-side (in-SSD) CPU.
    pub const DEVICE_CPU: u32 = 2;
    /// Host interface link (SATA/SAS/PCIe).
    pub const INTERFACE: u32 = 3;
    /// Host CPU cores.
    pub const HOST_CPU: u32 = 4;
    /// Session protocol phases (OPEN, GET and the waits between, CLOSE).
    pub const SESSION: u32 = 5;
    /// Planner route decisions.
    pub const PLANNER: u32 = 6;

    /// Human-readable subsystem name for a pid.
    pub fn name(p: u32) -> &'static str {
        match p {
            RUN => "run",
            FLASH => "flash",
            DEVICE_CPU => "device-cpu",
            INTERFACE => "host-interface",
            HOST_CPU => "host-cpu",
            SESSION => "session",
            PLANNER => "planner",
            _ => "other",
        }
    }
}

/// How much detail a run records. Carried by the run options and applied to
/// the attached sink for the duration of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing, even with a sink attached.
    Off = 0,
    /// Protocol-level events only: the run span, session phases, planner
    /// decisions. Per-page and per-kernel data-path spans are skipped.
    Protocol = 1,
    /// Everything, including per-page channel occupancy, bus transfers and
    /// per-kernel CPU charges.
    #[default]
    Full = 2,
}

/// What happened: a duration on a resource, or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span `[start, start + dur_ns)` on one resource track.
    Span {
        /// Simulated start instant.
        start: SimTime,
        /// Span length in nanoseconds.
        dur_ns: u64,
    },
    /// A point event (a retry, a route decision).
    Instant {
        /// Simulated instant.
        at: SimTime,
    },
}

/// One trace record, passed by reference to the sink.
///
/// `cat` identifies the *resource* (e.g. `"flash-dram"`, `"host-cpu"`) and is
/// the key under which [`CounterSink`] accumulates busy time; `name` labels
/// the individual operation (e.g. `"read"`, `"xfer"`, `"exec"`).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent<'a> {
    /// Subsystem id (see [`pid`]).
    pub pid: u32,
    /// Track within the subsystem: channel index, core index, 0 otherwise.
    pub tid: u32,
    /// Operation label.
    pub name: &'a str,
    /// Resource/category label; the busy-ns accounting key.
    pub cat: &'a str,
    /// Span or instant payload.
    pub kind: EventKind,
    /// Small numeric arguments (bytes, cycles, cost estimates).
    pub args: &'a [(&'a str, f64)],
}

/// Destination for trace events. Implementations must not read wall-clock
/// time: every event is fully described by its simulated-time payload, which
/// is what keeps traces byte-identical across identical runs.
pub trait TraceSink: Send {
    /// Called at the start of each traced run; sinks should drop any state
    /// accumulated outside the run window (e.g. table-load activity).
    fn begin_run(&mut self) {}
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent<'_>);
    /// Called at the end of a traced run; returns the run's trace artifact
    /// for embedding in the run report.
    fn finish_run(&mut self) -> RunTrace {
        RunTrace::None
    }
    /// True if this sink discards everything. [`Tracer::new`] collapses
    /// such sinks to the no-sink tracer, so every emit through a
    /// [`NullSink`] is a single branch — no event construction, no lock,
    /// no allocation.
    fn is_null(&self) -> bool {
        false
    }
}

/// A sink that discards every event. Equivalent to attaching no sink at all;
/// provided so call sites can be explicit about "tracing off".
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent<'_>) {}
    fn is_null(&self) -> bool {
        true
    }
}

/// The trace artifact one run produced, embedded in the run report.
#[derive(Debug, Clone, Default)]
pub enum RunTrace {
    /// No sink attached, or verbosity was [`TraceLevel::Off`].
    #[default]
    None,
    /// Metrics from a [`CounterSink`].
    Counters(MetricsSnapshot),
    /// Chrome `trace_event` JSON from a [`ChromeTraceSink`].
    Chrome(String),
}

impl RunTrace {
    /// True if no trace was recorded.
    pub fn is_none(&self) -> bool {
        matches!(self, RunTrace::None)
    }

    /// The Chrome trace JSON, if this run used a [`ChromeTraceSink`].
    pub fn chrome_json(&self) -> Option<&str> {
        match self {
            RunTrace::Chrome(s) => Some(s),
            _ => None,
        }
    }

    /// The metrics snapshot, if this run used a [`CounterSink`].
    pub fn counters(&self) -> Option<&MetricsSnapshot> {
        match self {
            RunTrace::Counters(m) => Some(m),
            _ => None,
        }
    }
}

/// Log2-bucketed histogram of span durations in nanoseconds.
///
/// Bucket `i` counts durations in `[2^i, 2^(i+1))` ns (bucket 0 also takes
/// zero-length spans); 48 buckets cover everything up to ~3.2 simulated days.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationHistogram {
    counts: [u64; 48],
    count: u64,
    sum_ns: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self {
            counts: [0; 48],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl DurationHistogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let idx = if ns < 2 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(47)
        };
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Total spans recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean span duration in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The raw log2 buckets: `buckets()[i]` counts durations in
    /// `[2^i, 2^(i+1))` ns.
    pub fn buckets(&self) -> &[u64; 48] {
        &self.counts
    }
}

/// Metrics a [`CounterSink`] accumulated over one run.
///
/// Keys are [`intern`]ed `&'static str`: category/name vocabularies are
/// tiny and fixed, so after the first event per key the recording path
/// allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Busy nanoseconds per resource category (span durations summed).
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Span-duration histograms per resource category.
    pub durations: BTreeMap<&'static str, DurationHistogram>,
    /// Counts of instant events by name (retries, route decisions, ...).
    pub instants: BTreeMap<&'static str, u64>,
}

impl MetricsSnapshot {
    /// Busy nanoseconds recorded for `resource` (0 if never seen).
    pub fn busy_ns(&self, resource: &str) -> u64 {
        self.busy_ns.get(resource).copied().unwrap_or(0)
    }

    /// Count of instant events named `name`.
    pub fn instant_count(&self, name: &str) -> u64 {
        self.instants.get(name).copied().unwrap_or(0)
    }
}

/// A metrics-registry sink: accumulates per-resource busy-ns counters and
/// span-duration histograms. The per-resource totals match the run's
/// `UtilizationReport` busy times, because both are fed by the same
/// [`Interval`]s.
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    snap: MetricsSnapshot,
}

impl CounterSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for CounterSink {
    fn begin_run(&mut self) {
        self.snap = MetricsSnapshot::default();
    }

    fn record(&mut self, ev: &TraceEvent<'_>) {
        // Lookups go straight through `&str`; only a first-seen key pays
        // the interning, so the steady state is allocation-free.
        match ev.kind {
            EventKind::Span { dur_ns, .. } => {
                match self.snap.busy_ns.get_mut(ev.cat) {
                    Some(e) => *e = e.saturating_add(dur_ns),
                    None => {
                        self.snap.busy_ns.insert(intern(ev.cat), dur_ns);
                    }
                }
                match self.snap.durations.get_mut(ev.cat) {
                    Some(h) => h.record(dur_ns),
                    None => {
                        let mut h = DurationHistogram::default();
                        h.record(dur_ns);
                        self.snap.durations.insert(intern(ev.cat), h);
                    }
                }
            }
            EventKind::Instant { .. } => match self.snap.instants.get_mut(ev.name) {
                Some(n) => *n += 1,
                None => {
                    self.snap.instants.insert(intern(ev.name), 1);
                }
            },
        }
    }

    fn finish_run(&mut self) -> RunTrace {
        RunTrace::Counters(std::mem::take(&mut self.snap))
    }
}

/// One buffered Chrome event.
#[derive(Debug, Clone)]
struct ChromeEvent {
    pid: u32,
    tid: u32,
    name: String,
    cat: String,
    kind: EventKind,
    args: Vec<(String, f64)>,
}

/// Buffers events and serializes them as Chrome `trace_event` JSON at the
/// end of the run: one pid per subsystem, one tid per channel/core.
///
/// Open the emitted file in <https://ui.perfetto.dev> or
/// `chrome://tracing`. Timestamps are simulated microseconds (Chrome's
/// native unit) with nanosecond precision kept in the fraction, so the JSON
/// is byte-identical across identical runs.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    events: Vec<ChromeEvent>,
}

impl ChromeTraceSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn serialize(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool, body: fmt::Arguments<'_>| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('{');
            let _ = out.write_fmt(body);
            out.push('}');
        };
        // Metadata: process names per subsystem, thread names per track,
        // derived from the events actually seen (sorted => deterministic).
        let mut pids: Vec<u32> = self.events.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        for p in &pids {
            emit(
                &mut out,
                &mut first,
                format_args!(
                    "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}",
                    escape(pid::name(*p))
                ),
            );
        }
        let mut tracks: BTreeMap<(u32, u32), &str> = BTreeMap::new();
        for e in &self.events {
            tracks.entry((e.pid, e.tid)).or_insert(e.cat.as_str());
        }
        for ((p, t), cat) in &tracks {
            emit(
                &mut out,
                &mut first,
                format_args!(
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":{t},\
                     \"args\":{{\"name\":\"{}/{t}\"}}",
                    escape(cat)
                ),
            );
        }
        for e in &self.events {
            let mut args = String::new();
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                let _ = write!(args, "\"{}\":{}", escape(k), fmt_f64(*v));
            }
            match e.kind {
                EventKind::Span { start, dur_ns } => emit(
                    &mut out,
                    &mut first,
                    format_args!(
                        "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{args}}}",
                        escape(&e.name),
                        escape(&e.cat),
                        micros(start.as_nanos()),
                        micros(dur_ns),
                        e.pid,
                        e.tid,
                    ),
                ),
                EventKind::Instant { at } => emit(
                    &mut out,
                    &mut first,
                    format_args!(
                        "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\
                         \"s\":\"t\",\"pid\":{},\"tid\":{},\"args\":{{{args}}}",
                        escape(&e.name),
                        escape(&e.cat),
                        micros(at.as_nanos()),
                        e.pid,
                        e.tid,
                    ),
                ),
            }
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds rendered as Chrome microseconds with the sub-us part kept as
/// an exact decimal fraction ("1234.567").
fn micros(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

/// Minimal JSON string escaping for the label alphabet used here.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Deterministic float formatting for JSON args: integers print without a
/// fraction, everything else with enough digits to round-trip.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl TraceSink for ChromeTraceSink {
    fn begin_run(&mut self) {
        self.events.clear();
    }

    fn record(&mut self, ev: &TraceEvent<'_>) {
        self.events.push(ChromeEvent {
            pid: ev.pid,
            tid: ev.tid,
            name: ev.name.to_string(),
            cat: ev.cat.to_string(),
            kind: ev.kind,
            args: ev.args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    fn finish_run(&mut self) -> RunTrace {
        let json = self.serialize();
        self.events.clear();
        RunTrace::Chrome(json)
    }
}

/// Shared state behind a [`Tracer`]: the sink plus the current trace level.
///
/// The level lives in an atomic so the cheap "is tracing on?" check never
/// takes the sink lock.
pub struct TraceHandle {
    level: AtomicU8,
    sink: Mutex<Box<dyn TraceSink>>,
}

impl TraceHandle {
    /// The sink, also after a panic while it was held. A sink that
    /// unwound mid-event has at worst recorded part of that event, and the
    /// next `begin_run` drops what it holds: recovering the guard keeps one
    /// failed run from turning every later run on this tracer into a
    /// second panic.
    fn sink(&self) -> MutexGuard<'_, Box<dyn TraceSink>> {
        self.sink.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("level", &self.level.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A cheap, cloneable handle every instrumented component holds.
///
/// The default tracer has no sink: each emit is a single branch, which is
/// what makes "compiled in everywhere, costs nothing when off" true. A
/// tracer with a sink still skips events above the current [`TraceLevel`]
/// without locking.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    handle: Option<Arc<TraceHandle>>,
}

impl Tracer {
    /// A tracer with no sink; every emit is a no-op.
    pub fn none() -> Self {
        Self::default()
    }

    /// Wraps `sink` in a shared handle, initially at [`TraceLevel::Off`]
    /// (the owning system raises the level for the duration of each run).
    ///
    /// A sink reporting [`TraceSink::is_null`] collapses to the no-sink
    /// tracer: the zero-alloc fast path for "tracing explicitly off" is
    /// identical to never attaching a sink.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        if sink.is_null() {
            return Self::none();
        }
        Self {
            handle: Some(Arc::new(TraceHandle {
                level: AtomicU8::new(TraceLevel::Off as u8),
                sink: Mutex::new(Box::new(sink)),
            })),
        }
    }

    /// True if a sink is attached (it may still be at [`TraceLevel::Off`]).
    pub fn is_attached(&self) -> bool {
        self.handle.is_some()
    }

    /// Sets the level below which events are dropped.
    pub fn set_level(&self, level: TraceLevel) {
        if let Some(h) = &self.handle {
            h.level.store(level as u8, Ordering::Relaxed);
        }
    }

    /// True when events at `level` would actually be recorded — lets hot
    /// paths skip building an event when nobody listens.
    #[inline]
    pub fn active(&self, level: TraceLevel) -> bool {
        match &self.handle {
            None => false,
            Some(h) => h.level.load(Ordering::Relaxed) >= level as u8,
        }
    }

    /// Emits a span covering `iv`, attributed to `cat` on track
    /// `(pid, tid)`. Dropped unless the current level is at least `level`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        level: TraceLevel,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        iv: Interval,
        args: &[(&str, f64)],
    ) {
        if !self.active(level) {
            return;
        }
        self.record(&TraceEvent {
            pid,
            tid,
            name,
            cat,
            kind: EventKind::Span {
                start: iv.start,
                dur_ns: iv.duration().as_nanos(),
            },
            args,
        });
    }

    /// Emits a point event at `at`. Dropped unless the current level is at
    /// least `level`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn instant(
        &self,
        level: TraceLevel,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        at: SimTime,
        args: &[(&str, f64)],
    ) {
        if !self.active(level) {
            return;
        }
        self.record(&TraceEvent {
            pid,
            tid,
            name,
            cat,
            kind: EventKind::Instant { at },
            args,
        });
    }

    fn record(&self, ev: &TraceEvent<'_>) {
        if let Some(h) = &self.handle {
            h.sink().record(ev);
        }
    }

    /// Notifies the sink that a traced run is starting; drops state
    /// accumulated outside the run window.
    pub fn begin_run(&self) {
        if let Some(h) = &self.handle {
            h.sink().begin_run();
        }
    }

    /// Collects the run's trace artifact from the sink.
    pub fn finish_run(&self) -> RunTrace {
        match &self.handle {
            None => RunTrace::None,
            Some(h) => h.sink().finish_run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval {
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    /// Counts events; panics, holding the sink lock, on one named "boom".
    #[derive(Default)]
    struct Fussy(MetricsSnapshot);

    impl TraceSink for Fussy {
        fn begin_run(&mut self) {
            self.0 = MetricsSnapshot::default();
        }
        fn record(&mut self, ev: &TraceEvent<'_>) {
            assert_ne!(ev.name, "boom", "sink refuses the event");
            *self.0.busy_ns.entry(intern(ev.cat)).or_default() += 1;
        }
        fn finish_run(&mut self) -> RunTrace {
            RunTrace::Counters(self.0.clone())
        }
    }

    #[test]
    fn a_panic_inside_the_sink_does_not_poison_later_runs() {
        let t = Tracer::new(Fussy::default());
        t.set_level(TraceLevel::Full);
        t.begin_run();
        t.span(TraceLevel::Full, 1, 0, "read", "c", iv(0, 10), &[]);
        let emit_boom = std::panic::AssertUnwindSafe(|| {
            t.span(TraceLevel::Full, 1, 0, "boom", "c", iv(0, 10), &[]);
        });
        assert!(std::panic::catch_unwind(emit_boom).is_err());
        // The lock is poisoned now; the next run goes ahead regardless.
        t.begin_run();
        t.span(TraceLevel::Full, 1, 0, "read", "c", iv(0, 10), &[]);
        t.span(TraceLevel::Full, 1, 0, "read", "c", iv(10, 20), &[]);
        let trace = t.finish_run();
        assert_eq!(trace.counters().unwrap().busy_ns.get("c"), Some(&2));
    }

    #[test]
    fn null_tracer_is_inert() {
        let t = Tracer::none();
        assert!(!t.is_attached());
        t.span(TraceLevel::Full, 1, 0, "x", "c", iv(0, 10), &[]);
        assert!(t.finish_run().is_none());
    }

    #[test]
    fn level_gates_events() {
        let t = Tracer::new(CounterSink::new());
        t.begin_run();
        // Level starts Off: nothing recorded.
        t.span(TraceLevel::Protocol, 1, 0, "x", "c", iv(0, 10), &[]);
        t.set_level(TraceLevel::Protocol);
        // Full-detail events still dropped at Protocol level.
        t.span(TraceLevel::Full, 1, 0, "x", "c", iv(0, 10), &[]);
        t.span(TraceLevel::Protocol, 1, 0, "x", "c", iv(0, 7), &[]);
        let m = match t.finish_run() {
            RunTrace::Counters(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(m.busy_ns("c"), 7);
        assert_eq!(m.durations["c"].count(), 1);
    }

    #[test]
    fn counter_sink_accumulates_and_resets() {
        let t = Tracer::new(CounterSink::new());
        t.set_level(TraceLevel::Full);
        t.span(TraceLevel::Full, 1, 0, "a", "bus", iv(0, 100), &[]);
        t.begin_run(); // discards pre-run state
        t.span(TraceLevel::Full, 1, 0, "a", "bus", iv(0, 40), &[]);
        t.span(TraceLevel::Full, 1, 1, "a", "bus", iv(40, 100), &[]);
        t.instant(
            TraceLevel::Full,
            5,
            0,
            "retry",
            "session",
            SimTime::ZERO,
            &[],
        );
        let m = t.finish_run();
        let m = m.counters().expect("counters");
        assert_eq!(m.busy_ns("bus"), 100);
        assert_eq!(m.instant_count("retry"), 1);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = DurationHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 1030);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[10], 1); // 1024
    }

    #[test]
    fn chrome_sink_emits_valid_shape() {
        let t = Tracer::new(ChromeTraceSink::new());
        t.set_level(TraceLevel::Full);
        t.begin_run();
        t.span(
            TraceLevel::Full,
            pid::FLASH,
            1,
            "read",
            "flash-chan",
            iv(1_500, 2_500),
            &[("bytes", 8192.0)],
        );
        t.instant(
            TraceLevel::Full,
            pid::PLANNER,
            0,
            "route=Device",
            "planner",
            SimTime::from_nanos(10),
            &[("device_secs", 0.5)],
        );
        let json = match t.finish_run() {
            RunTrace::Chrome(j) => j,
            other => panic!("unexpected {other:?}"),
        };
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":1"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("route=Device"));
    }

    #[test]
    fn chrome_sink_is_deterministic() {
        let mk = || {
            let t = Tracer::new(ChromeTraceSink::new());
            t.set_level(TraceLevel::Full);
            t.begin_run();
            for i in 0..10u64 {
                t.span(
                    TraceLevel::Full,
                    pid::FLASH,
                    (i % 4) as u32,
                    "read",
                    "flash-chan",
                    iv(i * 100, i * 100 + 50),
                    &[("bytes", 8192.0)],
                );
            }
            match t.finish_run() {
                RunTrace::Chrome(j) => j,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn micros_keeps_ns_precision() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(999), "0.999");
    }
}
