//! Command line: the driver's four flags, plus `--smoke` for the self-tests.

use crate::workloads::NAMES;

pub const USAGE: &str = "\
usage: ssdbench [run|trace] --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
       ssdbench compare <BENCHMARK.json> <dir A> <dir B>
  --workload  figs_cold | stream_open | serve_tenants | fleet_gray | update_mix
  --seed      feeds every row generator and arrival stream (default 42; held-out seed 7)
  --seconds   how long the run measures (default 10)
  --trace     0: timed run, end-to-end metrics; 1: traced run, per-layer metrics
              (`trace` as the first word is `--trace 1`)
  --smoke     self-test scale: 10^3 arrivals, SF 0.002
  --out       where a traced run writes trace_<workload>.json (default benchmark/out)
  compare     A/A table over two directories of result lines (see aa.sh)";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: std::path::PathBuf,
}

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: String::new(),
            seed: crate::DEFAULT_SEED,
            seconds: crate::RUN_SECONDS,
            trace: false,
            smoke: false,
            out_dir: "benchmark/out".into(),
        };
        let mut args = args.peekable();
        match args.peek().map(String::as_str) {
            Some("run") => drop(args.next()),
            Some("trace") => {
                out.trace = true;
                args.next();
            }
            _ => {}
        }
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => out.workload = value("a workload name")?,
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    out.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    out.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--smoke" => out.smoke = true,
                "--out" => out.out_dir = value("a directory")?.into(),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !NAMES.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {NAMES:?}, got {:?}",
                out.workload
            ));
        }
        if !(out.seconds.is_finite() && out.seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {}", out.seconds));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_the_drivers_flags() {
        let a = parse(&[
            "--workload",
            "fleet_gray",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fleet_gray".into(),
                seed: 7,
                seconds: 3.0,
                trace: true,
                smoke: false,
                out_dir: "benchmark/out".into(),
            }
        );
        let b = parse(&["trace", "--workload", "figs_cold", "--smoke"]).unwrap();
        assert!(b.trace && b.smoke && b.seed == crate::DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload", "figs_cold", "--trace", "2"],
            &["--workload", "figs_cold", "--seconds", "0"],
            &["--workload", "figs_cold", "--seed"],
            &["--workload", "figs_cold", "--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
