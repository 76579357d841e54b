//! An array of Smart SSDs as a micro parallel DBMS.
//!
//! The paper's Discussion (Section 4.3) imagines "the host machine ...
//! simply the coordinator that stages computation across an array of Smart
//! SSDs, making the system look like a parallel DBMS". This example
//! partitions LINEITEM across 1..8 devices, pushes Q6 into every device in
//! parallel, gathers the aggregate partials on the host, and reports the
//! scaling curve.
//!
//! ```text
//! cargo run --release --example smart_array
//! ```

use smartssd::{DeviceKind, Layout, Route, RunOptions, SystemBuilder};
use smartssd_workload::{q6, queries, tpch};

const SF: f64 = 0.02;

fn main() {
    println!("Q6 over LINEITEM (SF {SF}) partitioned across a Smart SSD array");
    println!();
    println!("  devices   elapsed[s]   speedup   revenue");
    let mut base = None;
    let mut reference_sum = None;
    for n in [1usize, 2, 4, 8] {
        let mut arr = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .devices(n)
            .build();
        arr.load_partitioned(
            queries::LINEITEM,
            &tpch::lineitem_schema(),
            tpch::lineitem_rows(SF, 11),
        )
        .expect("load");
        arr.finish_load();
        let forced = RunOptions::routed(Route::Device);
        let r = arr.run(&q6(), forced).expect("array q6").result;
        let secs = r.elapsed.as_secs_f64();
        let base_secs = *base.get_or_insert(secs);
        // Partitioning must never change the answer.
        let sum = r.agg_values[0];
        let reference = *reference_sum.get_or_insert(sum);
        assert_eq!(sum, reference, "partitioned aggregate diverged");
        println!(
            "  {n:>7}   {secs:>9.4}   {:>6.2}x   {:.2}",
            base_secs / secs,
            sum as f64 / 10_000.0
        );
    }
    println!();
    println!("Each device scans only its partition at internal bandwidth; the");
    println!("host merges a handful of aggregate partials. Scaling is close to");
    println!("linear until coordination overheads (shared SAS link, GET polls)");
    println!("show up — the \"parallel DBMS in a chassis\" the paper sketches.");
}
