//! The two kinds of run: timed (end-to-end metrics) and traced (per-layer).

use crate::cli::Args;
use crate::json::Value;
use crate::names::{Metric, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{self, figs_cold, Config, Rep, Sim, Workload};
use crate::{alloc, attrib, calib, probes, spans, stats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Complete set-ups per timed run, in two batches: before the timed reps
/// (at least 2: one for the deep-checked pass, one for the reps) and after
/// them (at least 1). Each batch goes on while set-ups are cheap: up to 8,
/// or until the batch has taken [`SETUP_SHARE`] of `--seconds`. `setup_s`
/// is the fastest of them all. Two batches ten seconds apart, because this
/// box's memory system switches between a fast and a slow level for
/// seconds at a time and a 16-device fleet's set-up (480 MB to clear) takes
/// 0.30 s in one and 0.70 s in the other.
const SETUPS_BEFORE: (usize, usize) = (2, 8);
const SETUPS_AFTER: (usize, usize) = (1, 8);
const SETUP_SHARE: f64 = 0.15;
/// Fewest timed reps, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Fewest untraced reps of a traced run, after its first.
const MIN_REPS_TRACED: usize = 2;

/// What a run reports on its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, metrics: Vec<(Metric, f64)>) -> Self {
        // A metric that is not a finite number is itself a failed check.
        let finite = metrics.iter().all(|(_, v)| v.is_finite());
        Self {
            correct: failed == 0 && finite,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// The process exit code: non-zero when any output check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct)
    }

    /// The result line: one JSON object.
    pub fn line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.to_string(),
                                Value::Obj(vec![
                                    ("value".into(), Value::Num(*v)),
                                    ("unit".into(), Value::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .emit()
    }
}

/// Timed reps plus what was checked along the way.
struct Reps {
    /// Wall time of each rep's timed calls, raw and calibrated
    /// ([`calib`]), in seconds.
    raw_s: Vec<f64>,
    walls_s: Vec<f64>,
    /// The first rep: all reps do identical work, so its counts stand for
    /// all.
    first: Rep,
    attempted: u64,
    failed: u64,
}

/// Runs reps for `budget` of loop time (at least `min_reps`). The first
/// rep's simulated figures are held to `expect`, an independent same-seed
/// pass; where the workload promises identical reps, every later rep's are
/// held to the first's.
fn timed_reps(
    w: &mut dyn Workload,
    min_reps: usize,
    budget: Duration,
    expect: &Sim,
    first_rep_id: u32,
    spans: &mut Spans,
) -> Reps {
    let start = Instant::now();
    let mut reps = Reps {
        raw_s: Vec::new(),
        walls_s: Vec::new(),
        first: Rep::default(),
        attempted: 0,
        failed: 0,
    };
    let mut id = first_rep_id;
    let mut drift_before = calib::drift();
    while reps.walls_s.len() < min_reps.max(1) || start.elapsed() < budget {
        spans.set_rep(id);
        let open = spans.enter("bench.rep");
        let mut rep = w.rep(spans, false);
        spans.exit(open);
        // One reading serves as this rep's "after" and the next's "before".
        let drift_after = calib::drift();
        let raw_s = rep.wall_ns as f64 / 1e9;
        reps.raw_s.push(raw_s);
        reps.walls_s.push(raw_s / drift_before.min(drift_after));
        drift_before = drift_after;

        let is_first = reps.walls_s.len() == 1;
        let hold_to = if is_first { expect } else { &reps.first.sim };
        if (is_first || w.reps_identical()) && rep.sim != *hold_to {
            eprintln!(
                "  check failed: rep {id} differs from a same-seed pass in its simulated figures:\n    {:?}\n    {:?}",
                rep.sim, hold_to
            );
            rep.failed += rep.attempted;
        }
        reps.attempted += rep.attempted;
        reps.failed += rep.failed;
        if is_first {
            reps.first = rep;
        }
        id += 1;
    }
    reps
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_metrics(metrics: &[(Metric, f64)]) {
    for (m, v) in metrics {
        println!(
            "  {:<44} {:>16.6} {:<6} [{}]",
            m.name,
            v,
            m.unit,
            m.kind.label()
        );
    }
}

/// A timed run: set-up several times, one deep-checked pass, then reps for
/// `--seconds`; prints every end-to-end metric.
pub fn timed(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let cfg = Config {
        seed: args.seed,
        smoke: args.smoke,
        traced: false,
    };
    let mut spans = Spans::off();
    println!(
        "== {name}: timed run, seed {}, {} s{} ==",
        args.seed,
        args.seconds,
        if args.smoke { ", smoke scale" } else { "" }
    );

    // Set-up, several times over. The first instance makes the deep-checked
    // pass (every answer against the references), which doubles as the
    // warm-up; the last one runs the timed reps.
    let mut setups_s = Vec::new();
    let mut verified: Option<Rep> = None;
    let mut w = None;
    let batch_budget_s = args.seconds * SETUP_SHARE;
    let mut batch_raw_s = 0.0;
    while setups_s.len() < SETUPS_BEFORE.0
        || (setups_s.len() < SETUPS_BEFORE.1 && batch_raw_s < batch_budget_s)
    {
        drop(w.take());
        let (cal_s, raw_s, inst) = calib::time(|| workloads::setup(name, cfg, &mut spans));
        let mut inst = inst.ok_or("unknown workload")?;
        setups_s.push(cal_s);
        batch_raw_s += raw_s;
        if verified.is_none() {
            verified = Some(inst.rep(&mut spans, true));
        }
        w = Some(inst);
    }
    let verified = verified.expect("at least one set-up");
    let mut w = w.expect("at least one set-up");
    if verified.failed > 0 {
        eprintln!(
            "  check failed: {} of {} operations in the deep-checked pass",
            verified.failed, verified.attempted
        );
    }

    let reps = timed_reps(
        w.as_mut(),
        MIN_REPS,
        Duration::from_secs_f64(args.seconds),
        &verified.sim,
        1,
        &mut spans,
    );
    drop(w);
    let (before, mut batch_raw_s) = (setups_s.len(), 0.0);
    while setups_s.len() - before < SETUPS_AFTER.0
        || (setups_s.len() - before < SETUPS_AFTER.1 && batch_raw_s < batch_budget_s)
    {
        let (cal_s, raw_s, inst) = calib::time(|| workloads::setup(name, cfg, &mut spans));
        drop(inst);
        setups_s.push(cal_s);
        batch_raw_s += raw_s;
    }
    let paper = reps
        .first
        .paper
        .unwrap_or_else(|| figs_cold::FigsCold::paper_at_quick_scale(cfg));

    let fast_s = stats::min(&reps.walls_s);
    let sim = &reps.first.sim;
    let sim_s = sim.elapsed_ns as f64 / 1e9;
    let values = [
        stats::min(&setups_s),
        reps.first.arrivals as f64 / fast_s,
        reps.first.pages as f64 / fast_s,
        peak_rss_mb(),
        sim_s,
        paper.speedup_x,
        paper.err_pct,
        sim.p99_ns as f64 / 1e6,
        sim.p90_ns as f64 / 1e6,
        sim.completed as f64 / sim_s,
    ];
    let metrics: Vec<(Metric, f64)> = END_TO_END.iter().copied().zip(values).collect();
    print_metrics(&metrics);
    let attempted = verified.attempted + reps.attempted;
    let failed = verified.failed + reps.failed;
    println!(
        "  failed_frac {} ({failed} of {attempted} checked operations)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "  reps {}: fastest {:.4} s, median {:.4} s, quartiles {:.4}..{:.4} s (IQR {:.1} % of median), calibrated; {} set-ups, fastest {:.4} s, median {:.4} s",
        reps.walls_s.len(),
        fast_s,
        stats::median(&reps.walls_s),
        stats::quantile(&reps.walls_s, 0.25),
        stats::quantile(&reps.walls_s, 0.75),
        stats::iqr_pct(&reps.walls_s),
        setups_s.len(),
        stats::min(&setups_s),
        stats::median(&setups_s),
    );
    let in_order = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  rep walls, calibrated s, in order: {}",
        in_order(&reps.walls_s)
    );
    println!(
        "  rep walls, raw s, in order:        {}",
        in_order(&reps.raw_s)
    );
    println!("  arrival schedules live in simulated time: the generator cannot run late, so no lateness is reported");
    Ok(Outcome::new(attempted, failed, metrics))
}

/// A traced run: one pass under host-time spans, the library's
/// `CounterSink` and the counting allocator; untraced reps for the
/// baseline; then the layer probes and the attribution table. Prints every
/// per-layer metric and writes `trace_<workload>.json` under `--out`.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    traced_with(args, None)
}

/// [`traced`] with the layer probes already run (they do not depend on the
/// workload, so a caller tracing several workloads in one process — the
/// self-tests — can run them once).
pub fn traced_with(args: &Args, probed: Option<&probes::Probed>) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let cfg = Config {
        seed: args.seed,
        smoke: args.smoke,
        traced: true,
    };
    println!(
        "== {name}: traced run, seed {}, {} s{} ==",
        args.seed,
        args.seconds,
        if args.smoke { ", smoke scale" } else { "" }
    );
    if !alloc::installed() {
        println!("  (counting allocator not installed in this binary: proc.alloc_* read 0; use ssdbench-traced)");
    }

    // The traced pass: spans around every library call, CounterSink
    // attached to every system built, allocations counted.
    let mut spans = Spans::on();
    let open = spans.enter("bench.setup");
    let mut w = workloads::setup(name, cfg, &mut spans).ok_or("unknown workload")?;
    spans.exit(open);
    spans.set_rep(1);
    let open = spans.enter("bench.rep");
    // No deep checks here: their allocations would be counted as the
    // library's. The untraced pass below makes them.
    alloc::start();
    let traced_rep = w.rep(&mut spans, false);
    let counted = alloc::stop();
    spans.exit(open);
    drop(w);

    // Untraced reps, same binary: the baseline the traced pass and the
    // shares are measured against.
    let plain = Config {
        traced: false,
        ..cfg
    };
    let mut off = Spans::off();
    let mut w = workloads::setup(name, plain, &mut off).ok_or("unknown workload")?;
    let first = w.rep(&mut off, true);
    // Overhead of tracing: the timed calls of the traced pass over those of
    // the untraced pass made right after it.
    let (traced_pass_s, untraced_pass_s) =
        (traced_rep.wall_ns as f64 / 1e9, first.wall_ns as f64 / 1e9);
    let reps = timed_reps(
        w.as_mut(),
        MIN_REPS_TRACED,
        Duration::from_secs_f64(args.seconds * 0.3),
        &first.sim,
        2,
        &mut off,
    );
    drop(w);
    // Raw seconds here, not calibrated: the probes below are raw too, and
    // run within seconds of these reps.
    let fast_s = stats::min(&reps.raw_s);

    // Layer probes, then the attribution of the fastest rep's host time.
    let probed = match probed {
        Some(probed) => probed.clone(),
        None => probes::run_all(
            args.seed,
            args.smoke,
            Duration::from_secs_f64(args.seconds * 0.55),
        ),
    };
    let shares = attrib::attribute(&traced_rep.counts, &probed, fast_s * 1e9);

    let mut values: BTreeMap<&str, f64> = probed.clone();
    let c = &traced_rep.counts;
    // Busy fraction of a resource with `lanes` lanes per device: 8 flash
    // channels, one DRAM bus, 2 device cores, one link, one host thread.
    let busy = |cat: &str, lanes: f64, per_device: bool| {
        let devices = if per_device {
            traced_rep.busy_devices.max(1) as f64
        } else {
            1.0
        };
        let span = traced_rep.busy_span_ns as f64 * lanes * devices;
        if span > 0.0 {
            traced_rep.busy_ns.get(cat).copied().unwrap_or(0) as f64 / span
        } else {
            0.0
        }
    };
    let flash = probes::flash_ledger(name, c.device_load_pages / c.device_new.max(1));
    let ops = traced_rep.arrivals.max(1) as f64;
    values.extend([
        (
            "exec.tuples_scanned",
            (c.tuples_scan_nsm
                + c.tuples_scan_pax
                + c.tuples_scan_slice
                + c.tuples_group
                + c.join_build_rows
                + c.join_probe_tuples) as f64,
        ),
        ("exec.pred_atoms", c.pred_atoms as f64),
        ("flash.reads", c.flash_reads as f64),
        ("flash.writes", flash.writes as f64),
        ("flash.gc_moves", flash.gc_moves as f64),
        ("flash.erases", flash.erases as f64),
        ("flash.write_amp", flash.write_amp),
        ("flash.wear_spread", flash.wear_spread as f64),
        ("flash.chan_busy_frac", busy("flash-chan", 8.0, true)),
        ("flash.dram_busy_frac", busy("flash-dram", 1.0, true)),
        (
            "device.sessions",
            (c.sessions_direct + c.sessions_linked) as f64,
        ),
        ("device.open_sessions_end", c.open_sessions_end as f64),
        ("device.shared_hits", c.shared_hits as f64),
        ("device.cpu_busy_frac", busy("device-cpu", 2.0, true)),
        ("host.pool_hits", c.pool_hits as f64),
        ("host.pool_misses", c.pool_misses as f64),
        ("host.link_busy_frac", busy("host-interface", 1.0, false)),
        ("host.cpu_busy_frac", busy("host-cpu", 1.0, false)),
        ("core.completed", c.completed as f64),
        ("core.canceled", c.canceled as f64),
        ("core.rejected", c.rejected as f64),
        ("core.deadline_missed", c.deadline_missed as f64),
        ("core.failed", c.failed as f64),
        ("core.hedges", c.hedges as f64),
        ("core.hedge_wins", c.hedge_wins as f64),
        ("core.hedge_denied", c.hedge_denied as f64),
        ("core.fallbacks", c.fallbacks as f64),
        ("core.host_shard_runs", c.host_shard_runs as f64),
        ("core.breaker_transitions", c.breaker_transitions as f64),
        ("core.wasted_sim_ns", c.wasted_sim_ns as f64),
        ("proc.alloc_per_op", counted.allocs as f64 / ops),
        ("proc.alloc_bytes_per_op", counted.bytes as f64 / ops),
        (
            "proc.peak_live_mb",
            counted.peak_live as f64 / (1024.0 * 1024.0),
        ),
        (
            "proc.trace_overhead_pct",
            100.0 * (traced_pass_s / untraced_pass_s - 1.0),
        ),
        ("proc.reps", reps.walls_s.len() as f64),
        ("proc.wall_median_s", stats::median(&reps.raw_s)),
        ("proc.rep_iqr_pct", stats::iqr_pct(&reps.raw_s)),
    ]);
    for row in &shares.rows {
        values.insert(row.metric, row.share_pct);
    }

    let metrics: Vec<(Metric, f64)> = PER_LAYER
        .iter()
        .map(|m| (*m, values.get(m.name).copied().unwrap_or(f64::NAN)))
        .collect();
    print_metrics(&metrics);

    println!("\n  host-time spans of the traced pass (rep 1), by call:");
    println!(
        "    {:<28} {:>7} {:>12} {:>12}",
        "call", "calls", "total ms", "self ms"
    );
    for (call, (n, total, own)) in spans::by_name(&spans.spans, 1..=1) {
        println!(
            "    {call:<28} {n:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    println!(
        "\n  attribution of the fastest untraced rep ({:.4} s) — outside-in: probe ns/op x exact op count.",
        fast_s
    );
    println!("  Probes run hot and alone, so shares of cache-sensitive layers are lower bounds;");
    println!("  core_residual is what no probe reaches: scheduler, event loop, report glue.");
    print!("{}", shares.table());
    println!(
        "  traced pass {:.4} s vs first untraced pass {:.4} s: overhead {:.1} %",
        traced_pass_s,
        untraced_pass_s,
        100.0 * (traced_pass_s / untraced_pass_s - 1.0)
    );

    let dir = args.out_dir.as_path();
    let path = dir.join(format!("trace_{name}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  wrote {} ({} spans)", path.display(), spans.spans.len());

    let attempted = traced_rep.attempted + first.attempted + reps.attempted;
    let mut failed = traced_rep.failed + first.failed + reps.failed;
    if traced_rep.sim != first.sim {
        eprintln!(
            "  check failed: the traced pass and the untraced pass disagree on simulated figures"
        );
        failed += traced_rep.attempted;
    }
    Ok(Outcome::new(attempted, failed, metrics))
}
