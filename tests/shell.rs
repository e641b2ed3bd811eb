//! End-to-end test of the `scsql` shell binary in script mode.

use std::io::Write;
use std::process::{Command, Stdio};

fn scsql() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scsql"))
}

#[test]
fn runs_a_script_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("scsq_shell_test.scsql");
    std::fs::write(
        &path,
        "-- comment line\n\
         create function g(integer k) -> stream as gen_array(10000, k);\n\
         select extract(b) from sp a, sp b\n\
         where b=sp(streamof(count(extract(a))), 'bg', 0)\n\
         and a=sp(g(6),'bg',1);\n",
    )
    .expect("write script");
    let out = scsql().arg(&path).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("-- function defined"), "{stdout}");
    assert!(stdout.contains('6'), "{stdout}");
    assert!(stdout.contains("-- 1 value in"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pipes_statements_through_stdin() {
    let mut child = scsql()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            b".stats on\n\
              select extract(b) from sp a, sp b\n\
              where b=sp(count(take(extract(a), 2)), 'bg', 0)\n\
              and a=sp(gen_array(1000,5),'bg',1);\n\
              .quit\n",
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains('2'), "{stdout}");
    assert!(
        stdout.contains("rp@"),
        "stats must print rp monitors: {stdout}"
    );
}

#[test]
fn reports_errors_without_dying() {
    let mut child = scsql()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"select broken;\nmerge({});\n.quit\n")
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stderr.contains("error:"), "{stderr}");
    // The shell kept going: the second (valid, empty) query answered.
    assert!(stdout.contains("-- 0 values in"), "{stdout}");
}

#[test]
fn explain_meta_command_describes_the_setup() {
    let mut child = scsql()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            b".explain select extract(b) from sp a, sp b \
              where b=sp(count(extract(a)), 'bg', 0) \
              and a=sp(gen_array(1000,1),'bg',1);\n.quit\n",
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 stream processes"), "{stdout}");
    assert!(stdout.contains("=mpi=>"), "{stdout}");
}

#[test]
fn malformed_option_metas_print_their_usage_and_change_nothing() {
    let q = "select extract(b) from sp a, sp b \
             where b=sp(streamof(count(extract(a))), 'bg', 0) \
             and a=sp(gen_array(100000,5),'bg',1);\n";
    let run = |script: &str| {
        let mut child = scsql()
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        let stdin = child.stdin.as_mut().expect("stdin");
        stdin.write_all(script.as_bytes()).expect("write stdin");
        let out = child.wait_with_output().expect("wait");
        assert!(out.status.success());
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
        (text(out.stdout), text(out.stderr))
    };
    let (defaults, _) = run(q);
    for (meta, usage) in [
        (".buffer 0", "usage: .buffer <bytes>"),
        (".buffer x", "usage: .buffer <bytes>"),
        (".double maybe", "usage: .double on|off"),
        (".policy foo", "usage: .policy naive|aware"),
    ] {
        let (stdout, stderr) = run(&format!("{meta}\n{q}"));
        assert_eq!(stderr, format!("{usage}\n"), "{meta}");
        assert_eq!(stdout, defaults, "after {meta}");
    }
}
