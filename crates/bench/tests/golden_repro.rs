//! Golden tests: every `repro` subcommand must stay bit-identical.
//!
//! The reproduction binary runs with the default no-op tracer, so the entire
//! observability layer must not shift a single simulated nanosecond. The
//! golden files are the seed outputs; regenerate one only for an intentional
//! model change (a failing test leaves the new rendering next to the golden
//! as `<golden>.actual`) and say so in the commit message.

use smartssd_bench::find;
use std::process::Command;

/// Points at the first diverging line, then fails.
fn assert_same(got: &str, want: &str, what: &str) {
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{what}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{what}: line count differs"
        );
        panic!("{what}: output differs from golden (whitespace-only change?)");
    }
}

#[test]
fn repro_quick_all_is_bit_identical_to_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "all"])
        .output()
        .expect("run repro binary");
    assert!(
        out.status.success(),
        "repro exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    assert_same(
        &got,
        include_str!("golden_repro_quick_all.txt"),
        "repro --quick all",
    );
}

/// FNV-1a, to pin the megabyte-sized trace files without committing them.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every subcommand that writes a BENCH file: those outside `all`, plus
/// `concurrency` (an `all` entry whose BENCH file `all` does not pin):
/// `--quick` stdout, then the BENCH file, then a digest of every extra
/// artifact — rendered in-process from the same registry entry and renderer
/// the binary uses, with the columns, notes and header fields marked
/// wall-clock masked out. Each golden was captured from the pre-registry
/// `repro` binary's output.
#[test]
fn every_subcommand_outside_all_is_bit_identical_to_golden() {
    // (name, --smoke)
    for (name, smoke) in [
        ("concurrency", false),
        ("trace", false),
        ("serving", false),
        ("simspeed", true),
        ("servescale", true),
        ("chaos", false),
    ] {
        let e = find(name).expect("registered subcommand");
        let report = (e.run)(&e.ctx(true, smoke)).expect("experiment runs clean");
        let mut got = report.text(true);
        got += &format!("--- {} ---\n{}", e.bench_file(), report.json(name, true));
        for (file, contents) in &report.files {
            let digest = fnv1a64(contents.as_bytes());
            got += &format!(
                "--- {file}: {} bytes, fnv1a64 {digest:016x} ---\n",
                contents.len()
            );
        }
        let golden = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&golden).unwrap_or_default();
        if got != want {
            std::fs::write(format!("{golden}.actual"), &got).expect("write .actual");
        }
        assert_same(&got, &want, &format!("repro {name} --quick"));
    }
}

/// An unknown subcommand or flag is an error, not a silent no-op: exit
/// code 2 and the registry's names on stderr, nothing run.
#[test]
fn unknown_subcommand_or_flag_exits_2_and_lists_the_names() {
    for args in [&["bogus-name"][..], &["--quik", "fig1"], &["fig1", "fig3"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for name in ["fig1", "servescale", "chaos"] {
            assert!(stderr.contains(name), "{args:?}: stderr lists {name}");
        }
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro binary");
    assert!(out.status.success());
    let listed = String::from_utf8_lossy(&out.stdout);
    assert_eq!(listed.lines().count(), smartssd_bench::REGISTRY.len());
    assert!(listed.contains("chaos\textra\tBENCH_chaos.json\t"));
    assert!(listed.contains("fig1\tall\t-\t"));
}
