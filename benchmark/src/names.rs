//! The metric lists. `BENCHMARK.json` repeats them; a self-test holds the
//! two to each other.

/// What a number measures: the simulator's cost to its user (host time,
/// memory), or the simulated machine (deterministic for a fixed seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HostTime,
    Memory,
    Simulated,
    /// An exact count made by the program.
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::HostTime => "host-time",
            Kind::Memory => "memory",
            Kind::Simulated => "simulated",
            Kind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric { name, unit, kind }
}

use Kind::{Count, HostTime, Memory, Simulated};

/// End-to-end metrics: printed by a timed run (`--trace 0`), every one on
/// every workload.
pub const END_TO_END: [Metric; 10] = [
    m("setup_s", "s", HostTime),
    m("arrivals_per_s", "1/s", HostTime),
    m("pages_per_s", "1/s", HostTime),
    m("peak_rss_mb", "MB", Memory),
    m("sim_elapsed_s", "s", Simulated),
    m("sim_speedup_x", "x", Simulated),
    m("sim_err_pct", "%", Simulated),
    m("sim_p99_ms", "ms", Simulated),
    m("sim_p90_ms", "ms", Simulated),
    m("sim_goodput_qps", "1/s", Simulated),
];

/// Per-layer metrics: printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    // workload: row generators.
    m("workload.gen_ns_per_row.lineitem", "ns", HostTime),
    m("workload.gen_ns_per_row.synth", "ns", HostTime),
    // storage: page formatting, validation, decode memo, predicate filter.
    m("storage.build_ns_per_page.nsm", "ns", HostTime),
    m("storage.build_ns_per_page.pax", "ns", HostTime),
    m("storage.checksum_ns_per_page", "ns", HostTime),
    m("storage.validate_ns_per_page", "ns", HostTime),
    m("storage.decode_hit_ns_per_page", "ns", HostTime),
    m("storage.filter_ns_per_tuple.nsm", "ns", HostTime),
    m("storage.filter_ns_per_tuple.pax", "ns", HostTime),
    m("storage.filter_ns_per_tuple.slice", "ns", HostTime),
    // exec: operator kernels and the OPEN wire format.
    m("exec.scan_agg_ns_per_tuple.nsm", "ns", HostTime),
    m("exec.scan_agg_ns_per_tuple.pax", "ns", HostTime),
    m("exec.scan_agg_ns_per_tuple.slice", "ns", HostTime),
    m("exec.group_agg_ns_per_tuple.pax", "ns", HostTime),
    m("exec.join_build_ns_per_row", "ns", HostTime),
    m("exec.join_probe_ns_per_tuple.pax", "ns", HostTime),
    m("exec.wire_ns_per_op", "ns", HostTime),
    m("exec.fanout_ns_per_call", "ns", HostTime),
    m("exec.tuples_scanned", "count", Count),
    m("exec.pred_atoms", "count", Count),
    // flash: FTL, NAND store, timing model.
    m("flash.new_ns", "ns", HostTime),
    m("flash.read_ns_per_page", "ns", HostTime),
    m("flash.charge_batch_ns_per_page", "ns", HostTime),
    m("flash.write_ns_per_page", "ns", HostTime),
    m("flash.overwrite_ns_per_page", "ns", HostTime),
    m("flash.trim_ns_per_page", "ns", HostTime),
    m("flash.reads", "count", Count),
    m("flash.writes", "count", Count),
    m("flash.gc_moves", "count", Count),
    m("flash.erases", "count", Count),
    m("flash.write_amp", "x", Count),
    m("flash.wear_spread", "count", Count),
    m("flash.chan_busy_frac", "frac", Simulated),
    m("flash.dram_busy_frac", "frac", Simulated),
    // sim: timelines, event queue, admission heap, arrival generator, tracer.
    m("sim.timeline_occupy_ns", "ns", HostTime),
    m("sim.bank_occupy_ns", "ns", HostTime),
    m("sim.bank_batch_ns_per_interval", "ns", HostTime),
    m("sim.eventq_ns_per_event", "ns", HostTime),
    m("sim.heap_ns_per_grant.t16", "ns", HostTime),
    m("sim.heap_ns_per_grant.t10000", "ns", HostTime),
    m("sim.arrivalgen_ns_per_gap", "ns", HostTime),
    m("sim.latency_stats_ns_per_sample", "ns", HostTime),
    m("sim.trace_ns_per_event.off", "ns", HostTime),
    m("sim.trace_ns_per_event.counter", "ns", HostTime),
    m("sim.trace_ns_per_event.chrome", "ns", HostTime),
    // device: the Smart SSD runtime and its session protocol.
    m("device.new_ns", "ns", HostTime),
    m("device.load_ns_per_page", "ns", HostTime),
    m("device.session_ns.small", "ns", HostTime),
    m("device.get_ns_per_page.warm", "ns", HostTime),
    m("device.sessions", "count", Count),
    m("device.open_sessions_end", "count", Count),
    m("device.shared_hits", "count", Count),
    m("device.cpu_busy_frac", "frac", Simulated),
    // host: buffer pool and the block read path.
    m("host.pool_ns_per_get.hit", "ns", HostTime),
    m("host.pool_ns_per_get.miss", "ns", HostTime),
    m("host.read_ns_per_page", "ns", HostTime),
    m("host.pool_hits", "count", Count),
    m("host.pool_misses", "count", Count),
    m("host.link_busy_frac", "frac", Simulated),
    m("host.cpu_busy_frac", "frac", Simulated),
    // query: host engine, planner, session driver.
    m("query.host_run_ns_per_page.warm", "ns", HostTime),
    m("query.plan_ns", "ns", HostTime),
    m("query.session_ns.direct", "ns", HostTime),
    m("query.session_ns.linked", "ns", HostTime),
    // core: the facade, the scheduler, the fleet.
    m("core.build_ns", "ns", HostTime),
    m("core.load_ns_per_page", "ns", HostTime),
    m("core.run_ns_per_page.cold", "ns", HostTime),
    m("core.run_ns_per_page.warm", "ns", HostTime),
    m("core.open_stream_ns_per_arrival", "ns", HostTime),
    m("core.arrival_stream_ns_per_arrival.t16", "ns", HostTime),
    m("core.arrival_stream_ns_per_arrival.t10000", "ns", HostTime),
    m("core.stream_ns_per_arrival.10k", "ns", HostTime),
    m("core.stream_ns_per_arrival.100k", "ns", HostTime),
    m("core.stream_ns_per_arrival.300k", "ns", HostTime),
    m("core.stream_scaling_x", "x", HostTime),
    m("core.serve_ns_per_arrival.t16", "ns", HostTime),
    m("core.serve_ns_per_arrival.t256", "ns", HostTime),
    m("core.serve_ns_per_arrival.t4096", "ns", HostTime),
    m("core.serve_ns_per_arrival.t10000", "ns", HostTime),
    m("core.tenant_scaling_x", "x", HostTime),
    m("core.report_drop_ns_per_arrival", "ns", HostTime),
    m("core.fleet_agg_ns_per_shard.healthy", "ns", HostTime),
    m("core.fleet_agg_ns_per_shard.gray", "ns", HostTime),
    m("core.breaker_ns_per_record", "ns", HostTime),
    m("core.update_ns_per_page", "ns", HostTime),
    m("core.checkpoint_ns_per_page", "ns", HostTime),
    m("core.completed", "count", Count),
    m("core.canceled", "count", Count),
    m("core.rejected", "count", Count),
    m("core.deadline_missed", "count", Count),
    m("core.failed", "count", Count),
    m("core.hedges", "count", Count),
    m("core.hedge_wins", "count", Count),
    m("core.hedge_denied", "count", Count),
    m("core.fallbacks", "count", Count),
    m("core.host_shard_runs", "count", Count),
    m("core.breaker_transitions", "count", Count),
    m("core.wasted_sim_ns", "ns", Simulated),
    // share: where the fastest rep's host time goes, per workload.
    m("share.workload", "%", HostTime),
    m("share.storage", "%", HostTime),
    m("share.exec", "%", HostTime),
    m("share.flash", "%", HostTime),
    m("share.sim", "%", HostTime),
    m("share.device", "%", HostTime),
    m("share.host", "%", HostTime),
    m("share.query", "%", HostTime),
    m("share.core_residual", "%", HostTime),
    // proc: the process as a whole.
    m("proc.alloc_per_op", "count", Count),
    m("proc.alloc_bytes_per_op", "B", Count),
    m("proc.peak_live_mb", "MB", Memory),
    m("proc.trace_overhead_pct", "%", HostTime),
    m("proc.reps", "count", HostTime),
    m("proc.wall_median_s", "s", HostTime),
    m("proc.rep_iqr_pct", "%", HostTime),
];
