//! Selectivity crossover: where pushdown stops paying off.
//!
//! Sweeps the paper's selection-with-join query (Figure 5) from 0.1% to
//! 100% selectivity and shows the Smart SSD advantage eroding as the result
//! volume approaches the input volume — plus what the pushdown planner
//! decides at each point, and whether it matches the measured winner.
//!
//! ```text
//! cargo run --release --example selectivity_crossover
//! ```

use smartssd::{DeviceKind, Layout, Route, RunOptions, System, SystemBuilder};
use smartssd_workload::{
    join_query, queries, synthetic::synthetic_schema, synthetic64_r, synthetic64_s,
};

const SCALE: f64 = 0.0002; // 80k S rows, 200 R rows

fn build(kind: DeviceKind, layout: Layout) -> System {
    let mut sys = SystemBuilder::new(kind, layout).build();
    sys.load_table_rows(
        queries::SYNTH_R,
        &synthetic_schema(),
        synthetic64_r(SCALE, 3),
    )
    .expect("load R");
    sys.load_table_rows(
        queries::SYNTH_S,
        &synthetic_schema(),
        synthetic64_s(SCALE, SCALE, 3),
    )
    .expect("load S");
    sys.finish_load();
    sys
}

fn main() {
    let mut ssd = build(DeviceKind::Ssd, Layout::Nsm);
    let mut smart = build(DeviceKind::SmartSsd, Layout::Pax);

    println!(
        "selection-with-join: SELECT S.col_1, R.col_2 WHERE R.col_1 = S.col_2 AND S.col_3 < v"
    );
    println!();
    println!("  sel%     SSD[s]   SmartSSD[s]   speedup   planner says   rows out");
    for sel in [0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00] {
        let query = join_query(sel);
        ssd.clear_cache();
        smart.clear_cache();
        let r_ssd = ssd.run(&query, RunOptions::default()).expect("ssd");
        let r_smart = smart.run(&query, RunOptions::default()).expect("smart");
        // Where the planner routes it, from a sample of the input.
        smart.clear_cache();
        let route = smart
            .run(&query, RunOptions::planned())
            .expect("planned")
            .route;
        let speedup = r_ssd.result.elapsed.as_secs_f64() / r_smart.result.elapsed.as_secs_f64();
        let planner_right = match route {
            Route::Device => speedup >= 1.0,
            Route::Host => speedup <= 1.05,
        };
        println!(
            "  {:>5.1}  {:>8.4}   {:>11.4}   {:>6.2}x   {:<8} {}   {:>7}",
            sel * 100.0,
            r_ssd.result.elapsed.as_secs_f64(),
            r_smart.result.elapsed.as_secs_f64(),
            speedup,
            format!("{route:?}"),
            if planner_right {
                "(agrees)"
            } else {
                "(differs)"
            },
            r_smart.result.rows.len(),
        );
        assert_eq!(
            r_ssd.result.rows, r_smart.result.rows,
            "both paths must return identical rows"
        );
    }
    println!();
    println!("The Smart SSD wins while results are small (it reads at ~1,560 MB/s");
    println!("internally vs ~550 MB/s across SAS); at 100% selectivity the output");
    println!("itself must cross the narrow interface and the advantage evaporates —");
    println!("the paper's Figure 5.");
}
