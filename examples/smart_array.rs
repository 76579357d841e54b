//! An array of Smart SSDs as a micro parallel DBMS.
//!
//! The paper's Discussion (Section 4.3) imagines "the host machine ...
//! simply the coordinator that stages computation across an array of Smart
//! SSDs, making the system look like a parallel DBMS". This example
//! partitions LINEITEM across 1..8 devices and loads PART whole on every
//! device, pushes Q6 and Q14 into every device in parallel (each device
//! joins its LINEITEM share against all of PART), gathers the aggregate
//! partials on the host, and reports the scaling curve.
//!
//! ```text
//! cargo run --release --example smart_array
//! ```

use smartssd::{DeviceKind, Layout, Route, RunOptions, SystemBuilder};
use smartssd_workload::{q14, q6, queries, tpch};

const SF: f64 = 0.02;

fn main() {
    println!("Q6 and Q14 over LINEITEM (SF {SF}) partitioned across a Smart SSD array,");
    println!("PART whole on every device");
    println!();
    println!("  devices   Q6[s]  speedup     revenue    Q14[s]  speedup   promo%");
    let mut base = None;
    let mut reference = None;
    for n in [1usize, 2, 4, 8] {
        let mut arr = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
            .devices(n)
            .build();
        arr.load_partitioned(
            queries::LINEITEM,
            &tpch::lineitem_schema(),
            tpch::lineitem_rows(SF, 11),
        )
        .expect("load lineitem");
        arr.load_table_rows(queries::PART, &tpch::part_schema(), tpch::part_rows(SF, 11))
            .expect("load part");
        arr.finish_load();
        let forced = || RunOptions::routed(Route::Device);
        let q6 = arr.run(&q6(), forced()).expect("array q6").result;
        let q14 = arr.run(&q14(), forced()).expect("array q14").result;
        let secs = (q6.elapsed.as_secs_f64(), q14.elapsed.as_secs_f64());
        let base = *base.get_or_insert(secs);
        // Partitioning must never change an answer.
        let answers = (q6.agg_values.clone(), q14.agg_values.clone());
        assert_eq!(
            &answers,
            reference.get_or_insert(answers.clone()),
            "{n} devices"
        );
        println!(
            "  {n:>7}  {:>6.4}  {:>6.2}x  {:>10.2}    {:>6.4}  {:>6.2}x   {:>6.2}",
            secs.0,
            base.0 / secs.0,
            q6.agg_values[0] as f64 / 10_000.0,
            secs.1,
            base.1 / secs.1,
            q14.scalar.unwrap_or(0.0),
        );
    }
    println!();
    println!("Each device scans only its partition at internal bandwidth; the");
    println!("host merges a handful of aggregate partials. Q6 scales close to");
    println!("linearly until coordination overheads (shared SAS link, GET polls)");
    println!("show up. Q14 scales less: every device builds its hash table on all");
    println!("of PART, a cost the array pays once per device.");
}
