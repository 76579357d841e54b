//! Simulator-throughput benchmarks: the `simspeed/*` group tracks how fast
//! the hot path (arrival cursor, Arc-shared queries, allocation-free report
//! assembly) chews through an open Q6 arrival stream.
//!
//! Simulated figures are deterministic; only wall-clock time varies. The
//! stream sizes are kept small enough for Criterion's iteration counts —
//! the full 10^5/10^6 sweep lives in `repro simspeed` (BENCH_simspeed.json).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smartssd::{InterfaceMode, WorkloadOptions};
use smartssd_bench::{simspeed_system, simspeed_workload};

/// End-to-end workload replay at a few stream sizes: the scheduler +
/// timeline + session-protocol hot path. Each iteration rebuilds the
/// system (replays must start cold to stay deterministic), so the absolute
/// numbers include the small fixed build cost; it is identical across
/// sizes and washes out at the larger ones.
fn bench_run_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("simspeed/run_workload");
    for &n in &[100usize, 1_000, 10_000] {
        let workload = simspeed_workload(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let mut sys = simspeed_system(42);
                let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);
                sys.run_workload(&workload, opts).expect("clean replay")
            });
        });
    }
    group.finish();
}

/// Workload construction alone: arrival generation plus the Arc-shared
/// query stream (one `Query` allocation regardless of `n`).
fn bench_workload_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("simspeed/workload_build");
    for &n in &[1_000usize, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| simspeed_workload(n, 42));
        });
    }
    group.finish();
}

criterion_group!(simspeed, bench_run_workload, bench_workload_build);
criterion_main!(simspeed);
