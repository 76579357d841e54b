//! Outside-in attribution of a workload's host time to layers.
//!
//! The harness cannot see inside `System::run`, so a layer's share is an
//! estimate: for each of the layer's probes, its nanoseconds per operation
//! times the exact number of those operations the workload reports, over
//! the fastest rep's wall time. Layers nest (a device session reads flash,
//! decodes pages and runs kernels), so a probe of an outer layer is charged
//! only what is left after the inner layers' probes are subtracted from it,
//! never below zero. `core_residual` is the remainder: the scheduler, the
//! event loop and report glue, which have no public entry point to probe.
//!
//! Probes run hot and alone; inside a workload the same code runs with
//! colder caches, so the shares of cache-sensitive layers are lower bounds
//! and the residual an upper bound.

use crate::probes::Probed;
use crate::workloads::Counts;
use std::fmt::Write as _;

/// Timeline occupancies one flash page read makes: die, channel, DRAM bus.
const OCCUPIES_PER_FLASH_READ: f64 = 3.0;

/// One term of a layer's estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    pub what: &'static str,
    pub ops: f64,
    pub ns_per_op: f64,
}

/// One layer's row of the attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The `share.*` metric this row reports.
    pub metric: &'static str,
    pub parts: Vec<Part>,
    pub est_ns: f64,
    pub share_pct: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Shares {
    pub wall_ns: f64,
    pub rows: Vec<Row>,
}

/// Attributes `wall_ns` (the fastest rep) to layers.
pub fn attribute(c: &Counts, p: &Probed, wall_ns: f64) -> Shares {
    let g = |name: &str| p.get(name).copied().unwrap_or(0.0);
    let pos = |v: f64| v.max(0.0);
    let part = |what, ops: u64, ns_per_op: f64| Part {
        what,
        ops: ops as f64,
        ns_per_op,
    };

    // Costs of inner layers, reused in the subtractions below.
    let occupy = g("sim.timeline_occupy_ns");
    let flash_read = g("flash.read_ns_per_page");
    let decode_hit = g("storage.decode_hit_ns_per_page");
    let (filter_nsm, filter_pax) = (
        g("storage.filter_ns_per_tuple.nsm"),
        g("storage.filter_ns_per_tuple.pax"),
    );
    let (scan_nsm, scan_pax) = (
        g("exec.scan_agg_ns_per_tuple.nsm"),
        g("exec.scan_agg_ns_per_tuple.pax"),
    );
    let (filter_slice, scan_slice) = (
        g("storage.filter_ns_per_tuple.slice"),
        g("exec.scan_agg_ns_per_tuple.slice"),
    );
    let tuples_per_page = g("_tuples_per_page");
    // What a session over the 360-row slice spends in inner layers. Larger
    // tables add per-page runtime work no probe isolates; it stays in the
    // residual.
    let session_small = g("device.session_ns.small");
    let session_inner =
        g("_slice_pages") * (flash_read + decode_hit) + g("_slice_tuples") * scan_slice;
    let host_read = g("host.read_ns_per_page");
    let heap = if c.tenants > 1_000 {
        g("sim.heap_ns_per_grant.t10000")
    } else {
        g("sim.heap_ns_per_grant.t16")
    };

    let layers: [(&'static str, Vec<Part>); 8] = [
        (
            "share.workload",
            vec![part(
                "rows generated",
                c.rows_generated,
                g("workload.gen_ns_per_row.lineitem"),
            )],
        ),
        (
            "share.storage",
            vec![
                part(
                    "pages built, PAX",
                    c.pages_built_pax,
                    g("storage.build_ns_per_page.pax"),
                ),
                part(
                    "pages validated",
                    c.pages_validated,
                    g("storage.validate_ns_per_page"),
                ),
                part("decode-memo hits", c.pages_decode_hit, decode_hit),
                part("tuples filtered, NSM", c.tuples_scan_nsm, filter_nsm),
                part("tuples filtered, PAX", c.tuples_scan_pax, filter_pax),
                part(
                    "tuples filtered, cache-resident",
                    c.tuples_scan_slice,
                    filter_slice,
                ),
            ],
        ),
        (
            "share.exec",
            vec![
                part(
                    "scan-agg tuples, NSM (less filter)",
                    c.tuples_scan_nsm,
                    pos(scan_nsm - filter_nsm),
                ),
                part(
                    "scan-agg tuples, PAX (less filter)",
                    c.tuples_scan_pax,
                    pos(scan_pax - filter_pax),
                ),
                part(
                    "scan-agg tuples, cache-resident (less filter)",
                    c.tuples_scan_slice,
                    pos(scan_slice - filter_slice),
                ),
                part(
                    "group-agg tuples",
                    c.tuples_group,
                    g("exec.group_agg_ns_per_tuple.pax"),
                ),
                part(
                    "join build rows",
                    c.join_build_rows,
                    g("exec.join_build_ns_per_row"),
                ),
                part(
                    "join probe tuples",
                    c.join_probe_tuples,
                    g("exec.join_probe_ns_per_tuple.pax"),
                ),
                part(
                    "operators on the wire",
                    c.wire_ops,
                    g("exec.wire_ns_per_op"),
                ),
            ],
        ),
        (
            "share.flash",
            vec![
                part("devices constructed", c.flash_new, g("flash.new_ns")),
                part(
                    "page reads (less timelines)",
                    c.flash_reads,
                    pos(flash_read - OCCUPIES_PER_FLASH_READ * occupy),
                ),
                part(
                    "fresh-device programs",
                    c.flash_writes_fresh,
                    g("flash.write_ns_per_page"),
                ),
                part(
                    "programs under update/trim/GC",
                    c.flash_overwrites,
                    g("flash.overwrite_ns_per_page"),
                ),
            ],
        ),
        (
            "share.sim",
            vec![
                part(
                    "timeline occupancies (3 per flash read)",
                    3 * c.flash_reads,
                    occupy,
                ),
                part(
                    "CPU-bank charges (1 per page)",
                    c.device_pages + c.host_run_pages,
                    g("sim.bank_occupy_ns"),
                ),
                part("scheduler events", c.events, g("sim.eventq_ns_per_event")),
                part("admission grants", c.grants, heap),
                part(
                    "arrival gaps drawn",
                    c.gaps_drawn,
                    g("sim.arrivalgen_ns_per_gap"),
                ),
                part(
                    "latency samples",
                    c.latency_samples,
                    g("sim.latency_stats_ns_per_sample"),
                ),
            ],
        ),
        (
            "share.device",
            vec![
                part(
                    "runtimes constructed (less flash)",
                    c.device_new,
                    pos(g("device.new_ns") - g("flash.new_ns")),
                ),
                part(
                    "pages loaded (less flash)",
                    c.device_load_pages,
                    pos(g("device.load_ns_per_page") - g("flash.write_ns_per_page")),
                ),
                part(
                    "sessions (less flash, decode, kernel)",
                    c.sessions_direct + c.sessions_linked,
                    pos(session_small - session_inner),
                ),
            ],
        ),
        (
            "share.host",
            vec![part(
                "block-path pages (less flash, decode)",
                c.host_reads,
                pos(host_read - flash_read - decode_hit),
            )],
        ),
        (
            "share.query",
            vec![
                part(
                    "direct sessions (less device)",
                    c.sessions_direct,
                    pos(g("query.session_ns.direct") - session_small),
                ),
                part(
                    "linked sessions (less device)",
                    c.sessions_linked,
                    pos(g("query.session_ns.linked") - session_small),
                ),
                part(
                    "host-engine pages (less read, kernel)",
                    c.host_run_pages,
                    pos(g("query.host_run_ns_per_page.warm")
                        - host_read
                        - tuples_per_page * scan_pax),
                ),
            ],
        ),
    ];

    let mut rows: Vec<Row> = layers
        .into_iter()
        .map(|(metric, parts)| {
            let est_ns: f64 = parts.iter().map(|p| p.ops * p.ns_per_op).sum();
            Row {
                metric,
                parts,
                est_ns,
                share_pct: 100.0 * est_ns / wall_ns,
            }
        })
        .collect();
    let attributed: f64 = rows.iter().map(|r| r.est_ns).sum();
    // Parts of the residual that `core` probes do reach. They are listed
    // under it for information and not taken out of it.
    let stream_gen = if c.tenants > 1_000 {
        g("core.arrival_stream_ns_per_arrival.t10000")
    } else {
        g("core.arrival_stream_ns_per_arrival.t16")
    };
    let of_which = vec![
        part("of which: arrival-stream merge", c.gaps_drawn, stream_gen),
        part(
            "of which: report drop",
            c.latency_samples,
            g("core.report_drop_ns_per_arrival"),
        ),
        part(
            "of which: system build (less device)",
            c.device_new,
            pos(g("core.build_ns") - g("device.new_ns")),
        ),
    ];
    rows.push(Row {
        metric: "share.core_residual",
        parts: of_which,
        est_ns: wall_ns - attributed,
        share_pct: 100.0 * (wall_ns - attributed) / wall_ns,
    });
    Shares { wall_ns, rows }
}

impl Shares {
    /// The table a traced run prints: layer, operations, ns/op, estimated
    /// milliseconds, share.
    pub fn table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "    {:<16} {:<42} {:>12} {:>10} {:>10} {:>8}",
            "layer", "operations", "ops", "ns/op", "est. ms", "share %"
        )
        .expect("write to String");
        for row in &self.rows {
            let layer = row.metric.trim_start_matches("share.");
            writeln!(
                out,
                "    {:<16} {:<42} {:>12} {:>10} {:>10.3} {:>8.2}",
                layer,
                "",
                "",
                "",
                row.est_ns / 1e6,
                row.share_pct
            )
            .expect("write to String");
            for p in row.parts.iter().filter(|p| p.ops > 0.0) {
                writeln!(
                    out,
                    "    {:<16} {:<42} {:>12.0} {:>10.1} {:>10.3} {:>8.2}",
                    "",
                    p.what,
                    p.ops,
                    p.ns_per_op,
                    p.ops * p.ns_per_op / 1e6,
                    100.0 * p.ops * p.ns_per_op / self.wall_ns
                )
                .expect("write to String");
            }
        }
        let total: f64 = self.rows.iter().map(|r| r.share_pct).sum();
        writeln!(
            out,
            "    {:<16} {:<42} {:>12} {:>10} {:>10.3} {:>8.2}",
            "total",
            "",
            "",
            "",
            self.wall_ns / 1e6,
            total
        )
        .expect("write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_residual_sum_to_one_hundred() {
        let mut p = Probed::new();
        p.insert("storage.validate_ns_per_page", 6_000.0);
        p.insert("flash.read_ns_per_page", 400.0);
        p.insert("sim.timeline_occupy_ns", 20.0);
        p.insert("exec.scan_agg_ns_per_tuple.pax", 5.0);
        p.insert("storage.filter_ns_per_tuple.pax", 3.0);
        let c = Counts {
            pages_validated: 100,
            flash_reads: 100,
            tuples_scan_pax: 5_000,
            ..Counts::default()
        };
        let s = attribute(&c, &p, 1_000_000.0);
        let by = |m: &str| s.rows.iter().find(|r| r.metric == m).expect(m).share_pct;
        // storage: 100 x 6000 + 5000 x 3 = 615,000 ns of 1,000,000.
        assert!((by("share.storage") - 61.5).abs() < 1e-9);
        // exec is charged the kernel less the filter: 5000 x 2.
        assert!((by("share.exec") - 1.0).abs() < 1e-9);
        // flash is charged the read less three occupancies; sim gets those.
        assert!((by("share.flash") - 3.4).abs() < 1e-9);
        assert!((by("share.sim") - 0.6).abs() < 1e-9);
        assert!((by("share.core_residual") - 33.5).abs() < 1e-9);
        let total: f64 = s.rows.iter().map(|r| r.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(s.rows.len(), 9);
        assert!(s.table().contains("core_residual"));
    }
}
