//! The bench binaries reject a `--flag` they do not know (exit code 2,
//! one usage line) instead of quietly running the default: a retired
//! switch such as `--fuse off` must not print a normal-looking CSV.

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

#[test]
fn unknown_flags_exit_2_and_known_switches_run() {
    let retired = fig6_p2p(&["--quick", "--csv", "--fuse", "off"]);
    assert_eq!(retired.status.code(), Some(2), "{retired:?}");
    assert!(retired.stdout.is_empty(), "no figure on a usage error");
    let usage = String::from_utf8_lossy(&retired.stderr);
    assert!(usage.contains("unknown flag --fuse"), "{usage}");
    assert_eq!(usage.lines().count(), 1, "{usage}");

    let scalar = fig6_p2p(&["--quick", "--csv", "--columnar", "off"]);
    assert_eq!(scalar.status.code(), Some(0), "{scalar:?}");
    assert!(String::from_utf8_lossy(&scalar.stdout).starts_with("series,"));
}
