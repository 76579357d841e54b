//! The benchmark behind every performance claim on this repository.
//!
//! Five workloads, ten end-to-end metrics printed by a timed run, and about
//! a hundred per-layer metrics printed by a separate traced run that times
//! calls into each crate's public functions from outside and attributes a
//! workload's host time to layers. `README.md` in this directory defines
//! every workload and metric; `../BENCHMARK.json` is the contract a driver
//! runs this against.
//!
//! The harness spawns no threads; the library's own kernel fan-out
//! (`smartssd_exec::default_workers`) is part of the program under test.

pub mod aa;
pub mod alloc;
pub mod attrib;
pub mod calib;
pub mod cli;
pub mod json;
pub mod names;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Seconds one run measures when `--seconds` is absent; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: f64 = 10.0;
/// The default seed, and the held-out seed a claim must also hold on.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 7;

/// Entry point of both binaries: parses the command line, runs one
/// workload, prints the metrics and the result line, and returns the
/// process exit code (non-zero when an output check failed).
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match cli::Args::parse(argv.into_iter()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ssdbench: {msg}\n{}", cli::USAGE);
            return 2;
        }
    };
    let outcome = if args.trace {
        run::traced(&args)
    } else {
        run::timed(&args)
    };
    match outcome {
        Ok(result) => {
            println!("{}", result.line());
            result.exit_code()
        }
        Err(msg) => {
            eprintln!("ssdbench: {msg}");
            2
        }
    }
}

/// `ssdbench compare <BENCHMARK.json> <dir A> <dir B>`.
fn compare(argv: &[String]) -> i32 {
    let [bench, a, b] = argv else {
        eprintln!("{}", cli::USAGE);
        return 2;
    };
    let table = std::fs::read_to_string(bench)
        .map_err(|e| format!("{bench}: {e}"))
        .and_then(|text| aa::compare(&text, a.as_ref(), b.as_ref()));
    match table {
        Ok((table, pass)) => {
            print!("{table}");
            println!("{}", if pass { "A/A: PASS" } else { "A/A: FAIL" });
            i32::from(!pass)
        }
        Err(msg) => {
            eprintln!("ssdbench compare: {msg}");
            2
        }
    }
}
