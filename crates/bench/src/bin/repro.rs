//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--smoke] [<subcommand> | all | list]
//! ```
//!
//! `repro list` prints every subcommand with what it does and the
//! `BENCH_<name>.json` it writes into the current directory, if any; `all`
//! (the default) runs the clean reproduction set. The subcommands live in
//! `smartssd_bench::REGISTRY` and nowhere else.
//!
//! Elapsed times are simulated; "projected" columns rescale them to the
//! paper's SF-100 / 120 GB workloads by the page-count ratio (linear at
//! fixed selectivity). EXPERIMENTS.md records paper-vs-measured values.

use smartssd_bench::{find, Experiment, REGISTRY};
use std::process::ExitCode;

/// One line per subcommand: name, `all`/`extra`, BENCH file or `-`, about.
fn list() -> String {
    let line = |e: &Experiment| {
        let scope = if e.in_all { "all" } else { "extra" };
        let bench = if e.bench { e.bench_file() } else { "-".into() };
        format!("{}\t{scope}\t{bench}\t{}\n", e.name, e.about)
    };
    REGISTRY.iter().map(line).collect()
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("repro: {problem}");
    eprintln!("usage: repro [--quick] [--smoke] [<subcommand> | all | list]; subcommands:");
    eprint!("{}", list());
    ExitCode::from(2)
}

/// Runs `e`, prints its report, and writes its BENCH and artifact files
/// into the current directory.
fn emit(e: &Experiment, quick: bool, smoke: bool) -> Result<(), Box<dyn std::error::Error>> {
    let report = (e.run)(&e.ctx(quick, smoke))?;
    print!("{}", report.text(false));
    if e.bench {
        std::fs::write(e.bench_file(), report.json(e.name, false))?;
    }
    for (file, contents) in &report.files {
        std::fs::write(file, contents)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let (mut quick, mut smoke, mut what) = (false, false, None);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => return usage(&format!("unknown flag {flag}")),
            _ if what.is_some() => return usage(&format!("unexpected argument {arg}")),
            _ => what = Some(arg),
        }
    }
    let selected: Vec<&Experiment> = match what.as_deref().unwrap_or("all") {
        "list" => {
            print!("{}", list());
            return ExitCode::SUCCESS;
        }
        "all" => REGISTRY.iter().filter(|e| e.in_all).collect(),
        name => match find(name) {
            Some(e) => vec![e],
            None => return usage(&format!("unknown subcommand {name}")),
        },
    };
    for e in selected {
        if let Err(err) = emit(e, quick, smoke) {
            eprintln!("repro {}: {err}", e.name);
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
