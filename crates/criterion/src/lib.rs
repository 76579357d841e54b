//! Offline shim for the `criterion` crate.
//!
//! Implements the API surface the workspace's benches use: `Criterion`,
//! benchmark groups with throughput annotations, `BenchmarkId`, and the
//! `criterion_group!`/`criterion_main!` macros. Measurement is plain
//! wall-clock sampling (warm-up, then `sample_size` timed samples of a
//! calibrated iteration count, or with `iter_batched` one timed call per
//! sample after an untimed setup); results are printed as median with
//! min/max spread. No plotting, no statistical regression analysis.
//!
//! CLI: a positional argument filters benchmarks by substring (same as
//! criterion), `--quick` cuts sample counts for smoke runs, and other
//! flags (e.g. cargo's `--bench`) are ignored.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Work-per-iteration annotation used to derive a rate from a sample.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark label of the form `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// How many inputs `iter_batched` prepares per timed batch. The shim times
/// every call on an input of its own, so this is the only size it has.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    PerIteration,
}

/// Runs closures under timing; handed to bench closures as `&mut Bencher`.
pub struct Bencher {
    /// Nanoseconds per iteration for each recorded sample.
    samples: Vec<f64>,
    sample_size: usize,
    quick: bool,
}

impl Bencher {
    fn samples_wanted(&self) -> usize {
        if self.quick {
            self.sample_size.clamp(3, 10)
        } else {
            self.sample_size
        }
    }

    /// Times `routine` on a fresh `setup()` value per call; `setup` and the
    /// drop of the routine's result are not timed. One warm-up call, then
    /// one call per sample (no calibration: a routine that needs a setup
    /// per call is long enough to time alone).
    pub fn iter_batched<I, R, S: FnMut() -> I, F: FnMut(I) -> R>(
        &mut self,
        mut setup: S,
        mut routine: F,
        _size: BatchSize,
    ) {
        self.samples.clear();
        for sample in 0..=self.samples_wanted() {
            let input = setup();
            let t = Instant::now();
            let out = std::hint::black_box(routine(input));
            let ns = t.elapsed().as_nanos() as f64;
            drop(out);
            if sample > 0 {
                self.samples.push(ns);
            }
        }
    }

    /// Times `f`, storing per-iteration nanoseconds across samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and calibration: find an iteration count that runs
        // long enough to be timeable (~2ms per sample, 10ms budget).
        let warmup_budget = if self.quick {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(100)
        };
        let mut iters_per_sample = 1u64;
        let warmup_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(2) || warmup_start.elapsed() >= warmup_budget {
                break;
            }
            iters_per_sample = iters_per_sample.saturating_mul(2);
        }
        self.samples.clear();
        for _ in 0..self.samples_wanted() {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            self.samples
                .push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
    }
}

/// Prevents the optimizer from discarding a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
pub struct Criterion {
    filter: Option<String>,
    quick: bool,
}

impl Criterion {
    /// Builds a driver from the process's command-line arguments.
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => quick = true,
                s if s.starts_with('-') => {} // cargo's --bench etc.
                s => filter = Some(s.to_string()),
            }
        }
        Criterion { filter, quick }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_one(&id.id, None, 20, self.quick, &self.filter, f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: 20,
        }
    }

    pub fn final_summary(&mut self) {}
}

/// A named group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.id);
        run_one(
            &label,
            self.throughput,
            self.sample_size,
            self.criterion.quick,
            &self.criterion.filter,
            f,
        );
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    throughput: Option<Throughput>,
    sample_size: usize,
    quick: bool,
    filter: &Option<String>,
    mut f: F,
) {
    if let Some(pat) = filter {
        if !label.contains(pat.as_str()) {
            return;
        }
    }
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
        quick,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<50} (no samples)");
        return;
    }
    b.samples.sort_by(|a, x| a.partial_cmp(x).unwrap());
    let median = b.samples[b.samples.len() / 2];
    let lo = b.samples[0];
    let hi = b.samples[b.samples.len() - 1];
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("{:>12} elem/s", human(n as f64 / (median * 1e-9))),
        Throughput::Bytes(n) => format!("{:>12}B/s", human(n as f64 / (median * 1e-9))),
    });
    println!(
        "{label:<50} time: [{} {} {}]{}",
        fmt_ns(lo),
        fmt_ns(median),
        fmt_ns(hi),
        rate.map(|r| format!("  thrpt: {r}")).unwrap_or_default()
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn human(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} K", v / 1e3)
    } else {
        format!("{v:.1} ")
    }
}

/// Bundles bench functions into one group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 5,
            quick: true,
        };
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            n
        });
        assert!(!b.samples.is_empty());
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn iter_batched_sets_up_once_per_timed_call() {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 4,
            quick: false,
        };
        let (mut setups, mut calls) = (0u32, 0u32);
        b.iter_batched(|| setups += 1, |()| calls += 1, BatchSize::PerIteration);
        assert_eq!(b.samples.len(), 4);
        assert_eq!(
            (setups, calls),
            (5, 5),
            "one warm-up call, then one per sample"
        );
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).id, "f/3");
        assert_eq!(BenchmarkId::from_parameter("nsm").id, "nsm");
    }
}
