//! The bench binaries' command-line contract: six flags, and any other
//! word — a `--flag` they do not know, a presence flag given a value, a
//! positional argument — exits 2 with one usage line and no output
//! instead of quietly running the default. The retired switches — `--fuse`,
//! `--coalesce`, `--columnar` — must not print a normal-looking CSV;
//! the reference execution paths they selected are test-only
//! (`RunOptions { coalesce: false, .. }`, `RunOptions { columnar: false, .. }`).

use std::process::{Command, Output};

/// Runs `fig6_p2p`. Cargo hands the home crate the built binary's path;
/// mounted in the root package (`tests/workspace_suites.rs`) there is
/// none, so the binary is built into the same target directory first.
fn fig6_p2p(args: &[&str]) -> Output {
    let mut cmd = match option_env!("CARGO_BIN_EXE_fig6_p2p") {
        Some(exe) => Command::new(exe),
        None => {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
            let mut cmd = Command::new(cargo);
            cmd.args(["run", "-q", "-p", "scsq-bench", "--bin", "fig6_p2p", "--"]);
            cmd
        }
    };
    cmd.args(args).output().expect("fig6_p2p spawns")
}

/// Asserts a usage error and returns its one stderr line.
fn usage_error(args: &[&str]) -> String {
    let out = fig6_p2p(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: no figure on a usage error"
    );
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(usage.lines().count(), 1, "{usage}");
    usage
}

#[test]
fn unknown_flags_exit_2_and_known_switches_run() {
    for retired in [
        &["--fuse", "off"][..],
        &["--coalesce", "off"],
        &["--columnar", "off"],
        &["--smoke"],
        &["--out", "x"],
    ] {
        let usage = usage_error(&[&["--quick", "--csv"][..], retired].concat());
        let flag = retired[0];
        assert!(usage.contains(&format!("unknown flag {flag}")), "{usage}");
    }

    let metrics = std::env::temp_dir().join(format!("cli_flags_{}.json", std::process::id()));
    let path = metrics.to_str().expect("utf-8 temp path");
    let run = fig6_p2p(&["--quick", "--jobs", "2", "--metrics", path, "--profile"]);
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let json = std::fs::read_to_string(&metrics).expect("--metrics writes its file");
    let _ = std::fs::remove_file(&metrics);
    assert!(json.contains("\"queries\":"), "{json}");
}

#[test]
fn presence_flags_with_values_and_positional_words_exit_2() {
    // `--csv=yes` must not print the table, `--quick=1` must not run at
    // paper scale, and a stray word must not be skipped.
    for stray in [
        &["--csv=yes"][..],
        &["--quick=1"],
        &["--profile=on"],
        &["extra"],
    ] {
        let usage = usage_error(&[&["--quick"][..], stray].concat());
        assert!(usage.contains(stray[0]), "{usage}");
        assert!(
            usage.contains("flags: --quick --csv --jobs N --metrics PATH --profile --trace PATH"),
            "{usage}"
        );
    }
}

#[test]
fn usage_lists_exactly_the_surviving_flags() {
    let usage = usage_error(&["--bogus"]);
    let mut listed: Vec<&str> = usage
        .split_whitespace()
        .filter(|w| w.starts_with("--") && *w != "--bogus;")
        .collect();
    listed.sort_unstable();
    assert_eq!(
        listed,
        [
            "--csv",
            "--jobs",
            "--metrics",
            "--profile",
            "--quick",
            "--trace"
        ],
        "{usage}"
    );
}

#[test]
fn metrics_file_is_byte_identical_across_worker_counts() {
    // The hub's sums and maxima are order-independent, so the
    // `--metrics` file of a sweep is the same bytes on any `--jobs`.
    for jobs in ["1", "2"] {
        let metrics = std::env::temp_dir().join(format!(
            "cli_flags_metrics_{}_{jobs}.json",
            std::process::id()
        ));
        let path = metrics.to_str().expect("utf-8 temp path");
        let run = fig6_p2p(&["--quick", "--jobs", jobs, "--metrics", path]);
        assert_eq!(run.status.code(), Some(0), "{run:?}");
        let json = std::fs::read_to_string(&metrics).expect("--metrics writes its file");
        let _ = std::fs::remove_file(&metrics);
        assert_eq!(
            json,
            include_str!("golden/fig6_quick_metrics.json"),
            "--jobs {jobs}"
        );
    }
}
