//! Layer probes: each times calls into one public function of one crate,
//! from outside, on the pages, specs and sizes the workloads use.
//!
//! A probe reports the fastest of its calls, in nanoseconds per operation.
//! Probes run hot and alone, so they give the cost of a layer with warm
//! caches and no neighbours — a lower bound on what it costs inside a
//! workload.

use crate::spans::Spans;
use crate::workloads::stream_open::{lineitem_slice, slice_system, MEAN_GAP, ROWS as SLICE_ROWS};
use crate::workloads::{serve_tenants, update_mix, Config};
use bytes::Bytes;
use smartssd::{
    ArrivalStream, BreakerPolicy, CircuitBreaker, DeviceKind, FleetOptions, InterfaceMode, Layout,
    RunOptions, SimTime, System, SystemBuilder, WorkloadOptions,
};
use smartssd_device::{DeviceConfig, GetResponse, SmartSsd};
use smartssd_exec::{
    decode_op, encode_op, join::probe_page, parallel_map, scan_agg_page, scan_group_agg_page,
    CostTable, GroupTable, JoinHashTable, JoinSink, QueryOp, WorkCounts,
};
use smartssd_flash::{FlashConfig, FlashSsd};
use smartssd_host::{BufferPool, InterfaceKind, PageSource, SsdHostPath};
use smartssd_query::{
    choose_route, Catalog, HostEngine, PlannerConfig, PlannerInputs, SessionDriver, SessionPolicy,
};
use smartssd_sim::{
    mb_per_sec, ArrivalGen, ArrivalModel, Bus, ChromeTraceSink, CounterSink, CpuModel, EventQueue,
    FaultPlan, Interval, KeyedMinHeap, LatencyStats, Timeline, TimelineBank, TraceLevel, Tracer,
};
use smartssd_storage::expr::{AggState, EvalCounts};
use smartssd_storage::{
    filter_select, page, PageBuf, PageDecodeCache, SelectionVector, TableBuilder, TableImage, Tuple,
};
use smartssd_workload::{q1, q14, q6, queries, synthetic64_s, tpch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe results by per-layer metric name.
pub type Probed = BTreeMap<&'static str, f64>;

/// Times one probe: calls until its budget is spent (at least three
/// times), keeps the fastest.
struct Clock {
    budget: Duration,
}

impl Clock {
    /// Fastest nanoseconds per operation of `f`, which does `ops`
    /// operations a call on state `prep` builds untimed. What `f` returns
    /// is dropped after the clock stops.
    fn per_op<S, R>(
        &self,
        ops: u64,
        mut prep: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> f64 {
        let start = Instant::now();
        let mut best = f64::INFINITY;
        let mut calls = 0;
        while calls < 3 || start.elapsed() < self.budget {
            let state = prep();
            let t = Instant::now();
            let out = black_box(f(black_box(state)));
            best = best.min(t.elapsed().as_nanos() as f64);
            drop(out);
            calls += 1;
        }
        best / ops.max(1) as f64
    }

    /// [`Clock::per_op`] with nothing to prepare.
    fn hot<R>(&self, ops: u64, mut f: impl FnMut() -> R) -> f64 {
        self.per_op(ops, || (), |()| f())
    }
}

/// The tables the probes share.
struct Inputs {
    seed: u64,
    /// LINEITEM at the scale `update_mix` uses, both layouts, and PART.
    nsm: TableImage,
    pax: TableImage,
    part: TableImage,
    /// The 360-row slice `stream_open` queries.
    slice: TableImage,
    /// Rows for the page-building probes: about a hundred pages' worth.
    rows: Vec<Tuple>,
    sf: f64,
}

impl Inputs {
    fn new(seed: u64, smoke: bool) -> Self {
        let sf = if smoke { 0.002 } else { 0.01 };
        let build = |name: &str, schema, layout, rows: &mut dyn Iterator<Item = Tuple>| {
            let mut b = TableBuilder::new(name, schema, layout);
            b.extend(rows);
            b.finish()
        };
        Self {
            seed,
            sf,
            nsm: build(
                queries::LINEITEM,
                tpch::lineitem_schema(),
                Layout::Nsm,
                &mut tpch::lineitem_rows(sf, seed),
            ),
            pax: build(
                queries::LINEITEM,
                tpch::lineitem_schema(),
                Layout::Pax,
                &mut tpch::lineitem_rows(sf, seed),
            ),
            part: build(
                queries::PART,
                tpch::part_schema(),
                Layout::Pax,
                &mut tpch::part_rows(sf, seed),
            ),
            slice: lineitem_slice(SLICE_ROWS, seed, &mut Spans::off()),
            rows: tpch::lineitem_rows(sf, seed).take(5_700).collect(),
        }
    }
}

/// Resolves a query against a catalog holding `tables` back to back from
/// LBA 0.
fn resolve(query: &smartssd::Query, tables: &[(&str, &TableImage)]) -> QueryOp {
    let mut catalog = Catalog::new();
    let mut lba = 0;
    for (name, img) in tables {
        catalog.register(
            *name,
            smartssd_exec::TableRef {
                first_lba: lba,
                num_pages: img.num_pages() as u64,
                schema: img.schema().clone(),
                layout: img.layout(),
            },
        );
        lba += img.num_pages() as u64;
    }
    query.resolve(&catalog).expect("probe query resolves")
}

/// A flash device with `img` written from LBA 0, timing reset.
fn loaded_flash(cfg: FlashConfig, img: &TableImage) -> FlashSsd {
    let mut ssd = FlashSsd::new(cfg);
    for (lba, p) in img.pages().iter().enumerate() {
        ssd.write(lba as u64, p.raw().clone(), SimTime::ZERO)
            .expect("load");
    }
    ssd.reset_timing();
    ssd
}

/// A Smart SSD runtime with `img` loaded from LBA 0, timing reset.
fn loaded_device(img: &TableImage) -> SmartSsd {
    let mut dev = SmartSsd::new(FlashConfig::default(), DeviceConfig::default());
    dev.load_table(img, 0).expect("load");
    dev.reset_timing();
    dev
}

/// One whole session, straight on the device: `OPEN`, `GET` until done
/// (jumping the clock to each readiness hint), `CLOSE`.
fn raw_session(dev: &mut SmartSsd, op: &QueryOp) -> u64 {
    dev.reset_timing();
    let sid = dev.open(op, SimTime::ZERO).expect("open");
    let (mut now, mut batches) = (SimTime::ZERO, 0);
    loop {
        match dev.get(sid, now).expect("get") {
            GetResponse::Running { ready_at } => now = ready_at,
            GetResponse::Batch(b) => batches += u64::from(black_box(b).bytes > 0),
            GetResponse::Done => break,
        }
    }
    dev.close(sid).expect("close");
    batches
}

fn q6_system(cfg: &Config, img: &TableImage, flash: Option<FlashConfig>) -> System {
    let mut b = cfg.builder(SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax));
    if let Some(flash) = flash {
        b = b.flash(flash);
    }
    let mut sys = b.build();
    sys.load_table(queries::LINEITEM, img).expect("load");
    sys.finish_load();
    sys
}

/// Runs every probe. `budget` is the host time the whole set may take; the
/// arrival-stream probes at the end have fixed sizes and take most of it.
pub fn run_all(seed: u64, smoke: bool, budget: Duration) -> Probed {
    let clock = Clock {
        budget: budget.mul_f64(0.004),
    };
    let cfg = Config {
        seed,
        smoke,
        traced: false,
    };
    let inp = Inputs::new(seed, smoke);
    let mut out = Probed::new();
    let zero = SimTime::ZERO;
    let schema = tpch::lineitem_schema();
    let q6_op = resolve(&q6(), &[(queries::LINEITEM, &inp.pax)]);
    let slice_op = resolve(&q6(), &[(queries::LINEITEM, &inp.slice)]);
    let smartssd_query::OpTemplate::ScanAgg { spec: q6_spec, .. } = q6().op else {
        unreachable!("Q6 is a scan-aggregate")
    };
    let pages = inp.pax.num_pages() as u64;
    // Not metrics: sizes the attribution needs to subtract inner layers.
    out.insert("_slice_pages", inp.slice.num_pages() as f64);
    out.insert("_slice_tuples", inp.slice.num_rows() as f64);
    out.insert("_tuples_per_page", inp.pax.num_rows() as f64 / pages as f64);

    // --- workload -------------------------------------------------------
    let n_rows = if smoke { 1_000 } else { 10_000 };
    out.insert(
        "workload.gen_ns_per_row.lineitem",
        clock.hot(n_rows, || {
            tpch::lineitem_rows(1.0, seed)
                .take(n_rows as usize)
                .fold(0, |n, r| n + black_box(r).len())
        }),
    );
    out.insert(
        "workload.gen_ns_per_row.synth",
        clock.hot(n_rows / 4, || {
            synthetic64_s(1.0, 1.0, seed)
                .take(n_rows as usize / 4)
                .fold(0, |n, r| n + black_box(r).len())
        }),
    );

    // --- storage --------------------------------------------------------
    // The builder consumes its rows, so a call also frees them; inside a
    // workload that free belongs to whoever generated the rows (and is in
    // the generator probes above), so it is timed alone and taken off.
    let free_rows_ns = clock.per_op(1, || inp.rows.clone(), drop);
    for (name, layout) in [
        ("storage.build_ns_per_page.nsm", Layout::Nsm),
        ("storage.build_ns_per_page.pax", Layout::Pax),
    ] {
        let build = |rows: Vec<Tuple>| {
            let mut b = TableBuilder::new("t", schema.clone(), layout);
            b.extend(rows);
            b.finish()
        };
        let built = build(inp.rows.clone()).num_pages() as f64;
        let call_ns = clock.per_op(1, || inp.rows.clone(), build);
        out.insert(name, (call_ns - free_rows_ns).max(0.0) / built);
    }
    out.insert(
        "storage.checksum_ns_per_page",
        clock.hot(pages, || {
            inp.pax
                .pages()
                .iter()
                .fold(0u32, |h, p| h ^ page::checksum(p.body()))
        }),
    );
    out.insert(
        "storage.validate_ns_per_page",
        clock.hot(pages, || {
            inp.pax
                .pages()
                .iter()
                .filter(|p| PageBuf::from_bytes(p.raw().clone()).is_ok())
                .count()
        }),
    );
    let mut memo = PageDecodeCache::new();
    for (lba, p) in inp.pax.pages().iter().enumerate() {
        memo.decode(lba as u64, p.raw().clone())
            .expect("valid page");
    }
    out.insert(
        "storage.decode_hit_ns_per_page",
        clock.hot(pages, || {
            inp.pax
                .pages()
                .iter()
                .enumerate()
                .filter(|(lba, p)| memo.decode(*lba as u64, p.raw().clone()).is_ok())
                .count()
        }),
    );
    // `.slice` is the cache-resident case (the 360-row table the arrival
    // streams query); `.nsm`/`.pax` stream a table larger than the cache.
    for (name, img) in [
        ("storage.filter_ns_per_tuple.nsm", &inp.nsm),
        ("storage.filter_ns_per_tuple.pax", &inp.pax),
        ("storage.filter_ns_per_tuple.slice", &inp.slice),
    ] {
        out.insert(
            name,
            clock.hot(img.num_rows(), || {
                let mut kept = 0;
                for p in img.pages() {
                    let r = smartssd_exec::page_reader(p, &schema);
                    let mut sel = SelectionVector::with_all(p.tuple_count() as usize);
                    let mut counts = EvalCounts::default();
                    filter_select(&q6_spec.pred, &r, &mut sel, &mut counts);
                    kept += sel.len();
                }
                kept
            }),
        );
    }

    // --- exec -----------------------------------------------------------
    for (name, img) in [
        ("exec.scan_agg_ns_per_tuple.nsm", &inp.nsm),
        ("exec.scan_agg_ns_per_tuple.pax", &inp.pax),
        ("exec.scan_agg_ns_per_tuple.slice", &inp.slice),
    ] {
        out.insert(
            name,
            clock.hot(img.num_rows(), || {
                let mut states: Vec<AggState> =
                    q6_spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
                let mut w = WorkCounts::default();
                for p in img.pages() {
                    scan_agg_page(p, &schema, &q6_spec, &mut states, &mut w);
                }
                states
            }),
        );
    }
    let smartssd_query::OpTemplate::GroupAgg { spec: q1_spec, .. } = q1().op else {
        unreachable!("Q1 is a grouped aggregate")
    };
    out.insert(
        "exec.group_agg_ns_per_tuple.pax",
        clock.hot(inp.pax.num_rows(), || {
            let mut acc = GroupTable::new();
            let mut w = WorkCounts::default();
            for p in inp.pax.pages() {
                scan_group_agg_page(p, &schema, &q1_spec, &mut acc, &mut w);
            }
            acc
        }),
    );
    let QueryOp::Join {
        probe,
        spec: q14_spec,
    } = resolve(
        &q14(),
        &[(queries::LINEITEM, &inp.pax), (queries::PART, &inp.part)],
    )
    else {
        unreachable!("Q14 is a join")
    };
    out.insert(
        "exec.join_build_ns_per_row",
        clock.hot(inp.part.num_rows(), || {
            JoinHashTable::build(
                inp.part.pages(),
                &q14_spec.build,
                &mut WorkCounts::default(),
            )
        }),
    );
    let ht = JoinHashTable::build(
        inp.part.pages(),
        &q14_spec.build,
        &mut WorkCounts::default(),
    );
    let joined = q14_spec.joined_schema(&probe.schema);
    out.insert(
        "exec.join_probe_ns_per_tuple.pax",
        clock.hot(inp.pax.num_rows(), || {
            let mut sink = JoinSink::new(&q14_spec);
            let mut w = WorkCounts::default();
            for p in inp.pax.pages() {
                probe_page(p, &probe.schema, &q14_spec, &ht, &joined, &mut sink, &mut w);
            }
            sink.matches
        }),
    );
    out.insert(
        "exec.wire_ns_per_op",
        clock.hot(100, || {
            (0..100)
                .filter(|_| decode_op(&encode_op(black_box(&q6_op))).is_ok())
                .count()
        }),
    );
    // Two workers whatever the machine: under the one-CPU pin the kernels
    // never fan out, and this is the cost they would pay per pass if they
    // did.
    let items = [0u8; 64];
    out.insert(
        "exec.fanout_ns_per_call",
        clock.hot(1, || parallel_map(&items, 2, |x| *x)),
    );

    // --- flash ----------------------------------------------------------
    out.insert(
        "flash.new_ns",
        clock.hot(1, || FlashSsd::new(FlashConfig::default())),
    );
    let mut ssd = loaded_flash(FlashConfig::default(), &inp.pax);
    out.insert(
        "flash.read_ns_per_page",
        clock.hot(pages, || {
            ssd.reset_timing();
            (0..pages)
                .filter(|&lba| ssd.read(lba, zero).is_ok())
                .count()
        }),
    );
    out.insert(
        "flash.charge_batch_ns_per_page",
        clock.hot(pages, || {
            ssd.reset_timing();
            let coords: Vec<(u16, u16)> = (0..pages)
                .map(|lba| ssd.peek_page(lba).expect("mapped").1)
                .collect();
            ssd.charge_reads(&coords, zero)
        }),
    );
    out.insert(
        "flash.write_ns_per_page",
        clock.per_op(
            pages,
            || FlashSsd::new(FlashConfig::default()),
            |mut fresh| {
                for (lba, p) in inp.pax.pages().iter().enumerate() {
                    fresh
                        .write(lba as u64, p.raw().clone(), zero)
                        .expect("write");
                }
                fresh
            },
        ),
    );
    let small = update_mix::geometry(pages);
    let raw: Vec<Bytes> = inp.pax.pages().iter().map(|p| p.raw().clone()).collect();
    out.insert(
        "flash.overwrite_ns_per_page",
        clock.per_op(
            (update_mix::CYCLES * (1 + update_mix::ROUNDS)) * pages,
            || loaded_flash(small.clone(), &inp.pax),
            |mut dev| {
                replay_update_mix(&mut dev, &raw);
                dev
            },
        ),
    );
    out.insert(
        "flash.trim_ns_per_page",
        clock.per_op(
            pages,
            || loaded_flash(small.clone(), &inp.pax),
            |mut dev| {
                for lba in 0..pages {
                    dev.trim(lba).expect("trim");
                }
                dev
            },
        ),
    );

    // --- sim ------------------------------------------------------------
    const N: u64 = 10_000;
    out.insert(
        "sim.timeline_occupy_ns",
        clock.hot(N, || {
            let mut t = Timeline::new();
            (0..N).fold(0, |acc, i| {
                acc ^ t.occupy(SimTime::from_nanos(i * 50), 120).end.as_nanos()
            })
        }),
    );
    out.insert(
        "sim.bank_occupy_ns",
        clock.hot(N, || {
            let mut bank = TimelineBank::new(8);
            (0..N).fold(0, |acc, i| {
                acc ^ bank
                    .occupy(SimTime::from_nanos(i * 50), 1_000)
                    .end
                    .as_nanos()
            })
        }),
    );
    out.insert(
        "sim.bank_batch_ns_per_interval",
        clock.hot(N, || {
            let mut bank = TimelineBank::new(8);
            (0..N / 32)
                .map(|i| {
                    bank.occupy_batch(SimTime::from_nanos(i * 1_600), 1_000, 32)
                        .len()
                })
                .sum::<usize>()
        }),
    );
    out.insert(
        "sim.eventq_ns_per_event",
        clock.per_op(
            N,
            || {
                let mut q = EventQueue::new();
                for i in 0..N {
                    q.push(SimTime::from_nanos(i * 7919 % 100_003), i);
                }
                q
            },
            |mut q| {
                // Steady state at depth 10^4: one pop, one push further out.
                for i in 0..N {
                    let (at, id) = q.pop().expect("non-empty");
                    q.push(at + SimTime::from_nanos(100_003 + i % 13), id);
                }
                q
            },
        ),
    );
    for (name, ids) in [
        ("sim.heap_ns_per_grant.t16", 16u32),
        (
            "sim.heap_ns_per_grant.t10000",
            if smoke { 100 } else { 10_000 },
        ),
    ] {
        out.insert(
            name,
            clock.per_op(
                N,
                || {
                    let keys: Vec<u64> = (0..ids as u64).map(|i| i * 7919 % 10_007).collect();
                    let mut heap = KeyedMinHeap::new();
                    for (id, &k) in keys.iter().enumerate() {
                        heap.push(k, id as u32, 0);
                    }
                    (heap, keys)
                },
                |(mut heap, mut keys)| {
                    // A grant pops the smallest tag and re-arms the tenant
                    // at a later one, as the wait set does.
                    for i in 0..N {
                        let id = heap
                            .pop_min(|id, _| Some(keys[id as usize]))
                            .expect("non-empty");
                        keys[id as usize] += 10_007 + i % 17;
                        heap.push(keys[id as usize], id, 0);
                    }
                    heap
                },
            ),
        );
    }
    out.insert(
        "sim.arrivalgen_ns_per_gap",
        clock.hot(N, || {
            let mut gen = ArrivalGen::with_model(MEAN_GAP, seed, ArrivalModel::Exponential);
            (0..N).fold(0, |acc, _| acc ^ gen.next_gap().as_nanos())
        }),
    );
    let n_samples = if smoke { 1_000 } else { 100_000 };
    let sample: Vec<SimTime> = (0..n_samples)
        .map(|i| SimTime::from_nanos(i * 7919 % 1_000_003))
        .collect();
    out.insert(
        "sim.latency_stats_ns_per_sample",
        clock.hot(n_samples, || LatencyStats::from_sample(&sample)),
    );
    type MakeTracer = fn() -> Tracer;
    let sinks: [(&'static str, MakeTracer); 3] = [
        ("sim.trace_ns_per_event.off", Tracer::none),
        ("sim.trace_ns_per_event.counter", || {
            Tracer::new(CounterSink::new())
        }),
        ("sim.trace_ns_per_event.chrome", || {
            Tracer::new(ChromeTraceSink::new())
        }),
    ];
    for (name, make) in sinks {
        out.insert(
            name,
            clock.hot(N, || {
                let tracer = make();
                tracer.set_level(TraceLevel::Full);
                tracer.begin_run();
                for i in 0..N {
                    tracer.span(
                        TraceLevel::Full,
                        1,
                        (i % 8) as u32,
                        "read",
                        "flash-chan",
                        Interval {
                            start: SimTime::from_nanos(i * 100),
                            end: SimTime::from_nanos(i * 100 + 80),
                        },
                        &[("bytes", 8192.0)],
                    );
                }
                tracer.finish_run()
            }),
        );
    }

    // --- device ---------------------------------------------------------
    out.insert(
        "device.new_ns",
        clock.hot(1, || {
            SmartSsd::new(FlashConfig::default(), DeviceConfig::default())
        }),
    );
    out.insert(
        "device.load_ns_per_page",
        clock.per_op(
            pages,
            || SmartSsd::new(FlashConfig::default(), DeviceConfig::default()),
            |mut dev| {
                dev.load_table(&inp.pax, 0).expect("load");
                dev
            },
        ),
    );
    let mut small_dev = loaded_device(&inp.slice);
    raw_session(&mut small_dev, &slice_op);
    out.insert(
        "device.session_ns.small",
        clock.hot(1, || raw_session(&mut small_dev, &slice_op)),
    );
    let mut big_dev = loaded_device(&inp.pax);
    raw_session(&mut big_dev, &q6_op);
    out.insert(
        "device.get_ns_per_page.warm",
        clock.hot(pages, || raw_session(&mut big_dev, &q6_op)),
    );

    // --- host -----------------------------------------------------------
    let mut pool = BufferPool::new(pages as usize);
    for (lba, p) in inp.pax.pages().iter().enumerate() {
        pool.insert(lba as u64, p.clone());
    }
    out.insert(
        "host.pool_ns_per_get.hit",
        clock.hot(pages, || {
            (0..pages).filter(|&lba| pool.get(lba).is_some()).count()
        }),
    );
    // A pool a quarter the table's size, scanned in order, misses every time.
    let mut tight = BufferPool::new((pages as usize / 4).max(1));
    out.insert(
        "host.pool_ns_per_get.miss",
        clock.hot(pages, || {
            let mut missed = 0;
            for (lba, p) in inp.pax.pages().iter().enumerate() {
                if tight.get(lba as u64).is_none() {
                    tight.insert(lba as u64, p.clone());
                    missed += 1;
                }
            }
            missed
        }),
    );
    let mut path = SsdHostPath::new(
        loaded_flash(FlashConfig::default(), &inp.pax),
        InterfaceKind::Sas6,
        pages as usize,
    );
    let host_read = |path: &mut SsdHostPath| {
        path.reset_timing();
        path.pool.clear();
        (0..pages)
            .filter(|&lba| path.read_page(lba, zero).is_ok())
            .count()
    };
    host_read(&mut path);
    out.insert(
        "host.read_ns_per_page",
        clock.hot(pages, || host_read(&mut path)),
    );

    // --- query ----------------------------------------------------------
    let mut host_cpu = CpuModel::new("host-cpu", 4, 2_260_000_000);
    out.insert(
        "query.host_run_ns_per_page.warm",
        clock.hot(pages, || {
            path.reset_timing();
            path.pool.clear();
            host_cpu.reset();
            HostEngine::new(&mut path, &mut host_cpu, CostTable::host())
                .run(&q6_op, &q6().finalize, zero, 1)
                .expect("host run")
        }),
    );
    out.insert(
        "query.plan_ns",
        clock.hot(100, || {
            let (cfg, inputs) = (PlannerConfig::default(), PlannerInputs::default());
            (0..100).fold(0.0, |acc, _| {
                acc + choose_route(black_box(&q6_op), &cfg, &inputs).1.host_secs
            })
        }),
    );
    let driver = SessionDriver::new(SessionPolicy::default());
    out.insert(
        "query.session_ns.direct",
        clock.hot(1, || {
            small_dev.reset_timing();
            let sid = driver.open(&mut small_dev, &slice_op, zero).expect("open");
            driver
                .drain_direct(&mut small_dev, sid, zero)
                .expect("drain")
        }),
    );
    let mut link = Bus::new(
        "host-interface",
        mb_per_sec(InterfaceKind::Sas6.effective_mbps()),
        0,
    );
    out.insert(
        "query.session_ns.linked",
        clock.hot(1, || {
            small_dev.reset_timing();
            link.reset();
            host_cpu.reset();
            driver
                .run_linked(
                    &mut small_dev,
                    &mut link,
                    &mut host_cpu,
                    InterfaceKind::Sas6.command_latency_ns(),
                    &slice_op,
                )
                .expect("linked session")
        }),
    );

    // --- core -----------------------------------------------------------
    out.insert(
        "core.build_ns",
        clock.hot(1, || {
            SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build()
        }),
    );
    out.insert(
        "core.load_ns_per_page",
        clock.per_op(
            pages,
            || SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build(),
            |mut sys| {
                sys.load_table(queries::LINEITEM, &inp.pax).expect("load");
                sys
            },
        ),
    );
    out.insert(
        "core.run_ns_per_page.cold",
        clock.per_op(
            pages,
            || q6_system(&cfg, &inp.pax, None),
            |mut sys| {
                sys.run(&q6(), RunOptions::default()).expect("cold run");
                sys
            },
        ),
    );
    let mut warm = q6_system(&cfg, &inp.pax, None);
    warm.run(&q6(), RunOptions::default()).expect("warming run");
    out.insert(
        "core.run_ns_per_page.warm",
        clock.hot(pages, || {
            warm.run(&q6(), RunOptions::default()).expect("warm run")
        }),
    );
    drop(warm);
    out.insert(
        "core.update_ns_per_page",
        clock.per_op(
            pages,
            || q6_system(&cfg, &inp.pax, Some(small.clone())),
            |mut sys| {
                sys.update_table_rows(queries::LINEITEM, tpch::lineitem_rows(inp.sf, inp.seed + 1))
                    .expect("update");
                sys
            },
        ),
    );
    out.insert(
        "core.checkpoint_ns_per_page",
        clock.per_op(
            pages,
            || {
                let mut sys = q6_system(&cfg, &inp.pax, Some(small.clone()));
                sys.mark_dirty(queries::LINEITEM);
                sys
            },
            |mut sys| {
                sys.checkpoint(queries::LINEITEM).expect("checkpoint");
                sys
            },
        ),
    );
    out.insert(
        "core.breaker_ns_per_record",
        clock.hot(3 * N, || {
            let mut breaker = CircuitBreaker::new(BreakerPolicy::enabled());
            for i in 0..N {
                let now = SimTime::from_micros(i * 50);
                breaker.record_success(now);
                breaker.record_service_time(now, SimTime::from_micros(180 + i % 7));
                if i % 64 == 0 {
                    breaker.record_failure(now);
                } else {
                    breaker.record_success(now);
                }
            }
            breaker.take_transitions()
        }),
    );
    let n_gen = if smoke { 1_000 } else { 20_000 };
    out.insert(
        "core.open_stream_ns_per_arrival",
        clock.hot(n_gen as u64, || {
            smartssd::Workload::open_stream(&q6(), n_gen, MEAN_GAP, seed)
        }),
    );
    let service = serve_tenants::service_time(&cfg, &inp.slice, &mut Spans::off());
    for (name, tenants) in [
        ("core.arrival_stream_ns_per_arrival.t16", 16),
        (
            "core.arrival_stream_ns_per_arrival.t10000",
            if smoke { 100 } else { 10_000 },
        ),
    ] {
        let loads = serve_tenants::loads(tenants, n_gen, service);
        let total: usize = loads.iter().map(|l| l.count()).sum();
        out.insert(
            name,
            clock.hot(total as u64, || {
                let mut stream = ArrivalStream::new(&loads, seed);
                let mut n = 0;
                while let Some(item) = stream.next_arrival() {
                    n += black_box(item).0;
                }
                n
            }),
        );
    }

    // Fleet: one 16-device fleet, healthy, then with `fleet_gray`'s faults.
    let mut fleet = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .breaker(BreakerPolicy::enabled())
        .build_fleet(
            16,
            FleetOptions {
                interface: InterfaceMode::Linked,
                hedge: true,
                ..FleetOptions::default()
            },
        );
    fleet
        .load_partitioned(
            queries::LINEITEM,
            &schema,
            tpch::lineitem_rows(if smoke { 0.002 } else { 0.02 }, seed),
        )
        .expect("load");
    fleet.finish_load();
    fleet.run_agg(&q6()).expect("warming query");
    out.insert(
        "core.fleet_agg_ns_per_shard.healthy",
        clock.hot(16, || fleet.run_agg(&q6()).expect("healthy fleet")),
    );
    fleet.arm_fault_plan(&FaultPlan::new().slowdown(2, 4, zero, SimTime::MAX));
    fleet.device_mut(5).config_mut().fault_rates.crash_rate = u32::MAX;
    for _ in 0..8 {
        fleet.run_agg(&q6()).expect("tripping the breaker");
    }
    out.insert(
        "core.fleet_agg_ns_per_shard.gray",
        clock.hot(16, || fleet.run_agg(&q6()).expect("gray fleet")),
    );
    drop(fleet);

    // Arrival streams at fixed sizes: the fastest of a few whole passes,
    // each on a fresh system, timing the call and the drop of its report.
    let passes = |n: usize| if budget.as_secs_f64() < 2.0 { 1 } else { n };
    let scale = if smoke { 100 } else { 1 };
    let mut stream_ns = Vec::new();
    for (name, arrivals, n_passes) in [
        ("core.stream_ns_per_arrival.10k", 10_000 / scale, passes(3)),
        (
            "core.stream_ns_per_arrival.100k",
            100_000 / scale,
            passes(2),
        ),
        ("core.stream_ns_per_arrival.300k", 300_000 / scale, 1),
    ] {
        let workload = smartssd::Workload::open_stream(&q6(), arrivals, MEAN_GAP, seed);
        let (mut best, mut best_drop) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..n_passes {
            let mut sys = slice_system(&cfg, &inp.slice, None, &mut Spans::off());
            let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);
            let t = Instant::now();
            let report = sys.run_workload(&workload, opts).expect("stream probe");
            let call = t.elapsed();
            let t = Instant::now();
            drop(report);
            let dropped = t.elapsed();
            best = best.min((call + dropped).as_nanos() as f64 / arrivals as f64);
            best_drop = best_drop.min(dropped.as_nanos() as f64 / arrivals as f64);
        }
        out.insert(name, best);
        stream_ns.push(best);
        if name.ends_with("100k") {
            out.insert("core.report_drop_ns_per_arrival", best_drop);
        }
    }
    out.insert("core.stream_scaling_x", stream_ns[2] / stream_ns[0]);

    let serve_arrivals = 50_000 / scale;
    let mut serve_ns = Vec::new();
    for (name, tenants) in [
        ("core.serve_ns_per_arrival.t16", 16),
        ("core.serve_ns_per_arrival.t256", 256),
        ("core.serve_ns_per_arrival.t4096", 4_096 / scale),
        ("core.serve_ns_per_arrival.t10000", 10_000 / scale),
    ] {
        let loads = serve_tenants::loads(tenants, serve_arrivals, service);
        let total: usize = loads.iter().map(|l| l.count()).sum();
        let mut best = f64::INFINITY;
        for _ in 0..passes(2) {
            let mut sys = slice_system(&cfg, &inp.slice, Some(1), &mut Spans::off());
            let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);
            let t = Instant::now();
            drop(sys.run_serving(&loads, seed, opts).expect("serve probe"));
            best = best.min(t.elapsed().as_nanos() as f64 / total as f64);
        }
        out.insert(name, best);
        serve_ns.push(best);
    }
    out.insert("core.tenant_scaling_x", serve_ns[3] / serve_ns[0]);
    out
}

/// `update_mix`'s program/trim sequence on a bare device already holding
/// the table at LBAs `0..P`: per cycle, the new image goes to the next
/// fresh extent, the old extent is trimmed, and each checkpoint reads and
/// rewrites the live extent in place.
fn replay_update_mix(dev: &mut FlashSsd, pages: &[Bytes]) {
    let p = pages.len() as u64;
    for c in 0..update_mix::CYCLES {
        let (old, new) = (c * p, (c + 1) * p);
        for (i, data) in pages.iter().enumerate() {
            dev.write(new + i as u64, data.clone(), SimTime::ZERO)
                .expect("update write");
        }
        for lba in old..old + p {
            dev.trim(lba).expect("trim");
        }
        for _ in 0..update_mix::ROUNDS {
            for lba in new..new + p {
                let (data, _) = dev.read(lba, SimTime::ZERO).expect("checkpoint read");
                dev.write(lba, data, SimTime::ZERO)
                    .expect("checkpoint write");
            }
        }
    }
}

/// Write-path counters of one device over one rep, read from a bare
/// `FlashSsd` that replays the workload's write sequence — `System` does
/// not expose its device's `FlashStats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashLedger {
    pub writes: u64,
    pub gc_moves: u64,
    pub erases: u64,
    pub write_amp: f64,
    /// Highest minus lowest per-block erase count.
    pub wear_spread: u64,
}

/// Replays one device's writes of one rep: the load of `pages` pages onto a
/// fresh device and, for `update_mix`, the update/trim/checkpoint sequence
/// on its small geometry. The flash layer never looks inside a payload, so
/// blank pages stand in for the table.
pub fn flash_ledger(workload: &str, pages: u64) -> FlashLedger {
    let raw = vec![Bytes::from(vec![0u8; smartssd_storage::PAGE_SIZE]); pages as usize];
    let mut dev = FlashSsd::new(if workload == "update_mix" {
        update_mix::geometry(pages)
    } else {
        FlashConfig::default()
    });
    for (lba, data) in raw.iter().enumerate() {
        dev.write(lba as u64, data.clone(), SimTime::ZERO)
            .expect("load");
    }
    if workload == "update_mix" {
        replay_update_mix(&mut dev, &raw);
    }
    let stats = dev.stats();
    let (lo, hi) = dev.wear_spread();
    FlashLedger {
        writes: stats.writes,
        gc_moves: stats.gc_moves,
        erases: stats.erases,
        write_amp: stats.write_amplification(),
        wear_spread: (hi - lo) as u64,
    }
}
