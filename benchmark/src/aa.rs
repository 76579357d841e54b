//! A/A comparison: two sets of runs of the same build, held to the
//! benchmark's own bounds. `aa.sh` makes the runs; this reads their result
//! lines back and prints the table a reviewer checks.

use crate::json::{self, Value};
use crate::names::{Kind, END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `(workload, metric) -> values`, one per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads every `<workload>.<n>.json` result line in `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        let Some((workload, _)) = file.strip_suffix(".json").and_then(|f| f.split_once('.')) else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text.lines().last().unwrap_or("");
        let result =
            json::parse(line).map_err(|at| format!("{}: bad JSON at byte {at}", path.display()))?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!(
                "{}: the run reported a failed check",
                path.display()
            ));
        }
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: metric {name} has no numeric value", path.display()))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(runs)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(benchmark_json)
        .map_err(|at| format!("BENCHMARK.json: bad JSON at byte {at}"))?;
    Ok(doc
        .get("end_to_end")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Compares the runs in `dir_a` and `dir_b`. Returns the table and whether
/// every line passed: simulated and count metrics identical across all
/// runs of both sets (the runs share one seed), host-time and memory
/// metrics with set medians within the metric's bound of each other
/// (per-layer metrics have no bound and are reported only).
pub fn compare(benchmark_json: &str, dir_a: &Path, dir_b: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let kinds: BTreeMap<&str, Kind> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name, m.kind))
        .collect();
    let mut out = String::new();
    let mut all_pass = true;
    writeln!(
        out,
        "{:<14} {:<44} {:<10} {:>3} {:>16} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "kind", "n", "median A", "median B", "gap %", "bound %"
    )
    .expect("write to String");
    for (key, va) in &a {
        let Some(vb) = b.get(key) else {
            return Err(format!("{key:?} is missing from the second set"));
        };
        let (workload, metric) = key;
        let kind = kinds
            .get(metric.as_str())
            .copied()
            .unwrap_or(Kind::HostTime);
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let gap = if ma == mb {
            0.0
        } else {
            (ma - mb).abs() / ma.abs()
        };
        let exact = matches!(kind, Kind::Simulated | Kind::Count);
        let bound = bounds.get(metric).copied();
        let verdict = if exact {
            let first = va[0].to_bits();
            if va.iter().chain(vb).all(|v| v.to_bits() == first) {
                "PASS (identical)"
            } else {
                "FAIL (must repeat exactly)"
            }
        } else {
            match bound {
                Some(bound) if gap <= bound => "PASS",
                Some(_) => "FAIL",
                None => "-",
            }
        };
        all_pass &= !verdict.starts_with("FAIL");
        writeln!(
            out,
            "{workload:<14} {metric:<44} {:<10} {:>3} {ma:>16.6} {mb:>16.6} {:>8.2} {:>8}  {verdict}",
            kind.label(),
            va.len(),
            100.0 * gap,
            bound.map_or("-".to_string(), |b| format!("{:.0}", 100.0 * b)),
        )
        .expect("write to String");
    }
    Ok((out, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_run(dir: &Path, file: &str, arrivals: f64, sim: f64) {
        std::fs::create_dir_all(dir).unwrap();
        let line = format!(
            "noise\n{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"arrivals_per_s\": {{\"value\": {arrivals}, \"unit\": \"1/s\"}}, \"sim_p99_ms\": {{\"value\": {sim}, \"unit\": \"ms\"}}}}}}\n"
        );
        std::fs::write(dir.join(file), line).unwrap();
    }

    #[test]
    fn holds_two_sets_to_the_bounds() {
        let tmp = std::env::temp_dir().join(format!("ssdbench-aa-{}", std::process::id()));
        let (a, b) = (tmp.join("A"), tmp.join("B"));
        let bench = r#"{"end_to_end": [{"name": "arrivals_per_s", "bound": 0.1}, {"name": "sim_p99_ms", "bound": 0.02}]}"#;
        for (i, v) in [100.0, 104.0, 96.0].iter().enumerate() {
            write_run(&a, &format!("stream_open.{i}.json"), *v, 1.5);
            write_run(&b, &format!("stream_open.{i}.json"), v * 1.05, 1.5);
        }
        let (table, pass) = compare(bench, &a, &b).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("PASS (identical)"));

        // A 20 % gap breaks the 10 % bound; a simulated value that moves at
        // all breaks exactness.
        write_run(&b, "stream_open.1.json", 125.0, 1.5);
        write_run(&b, "stream_open.2.json", 126.0, 1.5);
        assert!(!compare(bench, &a, &b).unwrap().1);
        write_run(&b, "stream_open.1.json", 104.0, 1.5);
        write_run(&b, "stream_open.2.json", 96.0, 1.5000001);
        let (table, pass) = compare(bench, &a, &b).unwrap();
        assert!(!pass && table.contains("must repeat exactly"), "{table}");
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
