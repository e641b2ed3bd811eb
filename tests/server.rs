//! End-to-end tests of the `scsqd` daemon over a real socket.
//!
//! Each test spawns the `scsqd` binary, reads its `LISTEN <addr>` line
//! to learn the OS-assigned port, and drives it through the wire
//! protocol with [`scsq::wire::Client`] — the same path `scsqc` uses.
//! The backend is the deterministic simulation, so the suite can assert
//! byte-identity between served transcripts and the local `scsql`
//! shell, and exact compilation counts across concurrent sessions.

use scsq::wire::{Client, FrameKind};
use scsq_bench::serve::run_script;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `scsqd` child process bound to a loopback port.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_scsqd"))
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn scsqd");
        let stdout = child.stdout.as_mut().expect("scsqd stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTEN line");
        let addr = line
            .strip_prefix("LISTEN ")
            .unwrap_or_else(|| panic!("expected `LISTEN <addr>`, got {line:?}"))
            .trim()
            .to_string();
        Daemon { child, addr }
    }

    fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to scsqd")
    }

    /// Asks the daemon to shut down and waits for a clean exit.
    fn stop(mut self) {
        let mut c = self.connect();
        let frames = c.statement(".shutdown").expect("shutdown");
        assert_eq!(frames.last().unwrap().payload, "-- shutting down");
        let status = self.child.wait().expect("wait for scsqd");
        assert!(status.success(), "scsqd exited with {status}");
    }

    /// The daemon's `.server` stats JSON, via a throwaway session.
    fn server_stats(&self) -> String {
        let mut c = self.connect();
        let frames = c.statement(".server").expect(".server");
        assert_eq!(frames[0].kind, FrameKind::Info);
        let _ = c.bye();
        frames[0].payload.clone()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn json_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let rest = &json[json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}")) + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

const PREPARED: &str = "select extract(b) from sp a, sp b \
                        where b=sp(streamof(count(extract(a))), 'bg', 0) \
                        and a=sp(gen_array(300000,10),'bg',1);";

#[test]
fn served_transcript_is_byte_identical_to_the_shell() {
    let script = "create function g(integer k) -> stream as gen_array(50000, k);\n\
                  select extract(b) from sp a, sp b\n\
                  where b=sp(streamof(count(extract(a))), 'bg', 0)\n\
                  and a=sp(g(7),'bg',1);\n\
                  prepare q as select extract(b) from sp a, sp b\n\
                  where b=sp(streamof(count(extract(a))), 'bg', 0)\n\
                  and a=sp(gen_array(300000,10),'bg',1);\n\
                  run q;\n\
                  run q;\n\
                  show catalog;\n\
                  run missing;\n";

    // One-shot: the scsql shell in script mode.
    let path = std::env::temp_dir().join(format!("scsq-server-test-{}.scsql", std::process::id()));
    std::fs::write(&path, script).expect("write script");
    let shell = Command::new(env!("CARGO_BIN_EXE_scsql"))
        .arg(&path)
        .output()
        .expect("run scsql");
    let _ = std::fs::remove_file(&path);
    assert!(shell.status.success());

    // Served: the same script through a live scsqd over TCP.
    let daemon = Daemon::start();
    let mut client = daemon.connect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    run_script(&mut client, script, &mut out, &mut err).expect("serve script");
    drop(client);

    assert_eq!(
        String::from_utf8_lossy(&out),
        String::from_utf8_lossy(&shell.stdout),
        "served stdout differs from the shell's"
    );
    assert_eq!(
        String::from_utf8_lossy(&err),
        String::from_utf8_lossy(&shell.stderr),
        "served stderr differs from the shell's"
    );
    // The transcript exercised every statement shape.
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("-- function defined"));
    assert!(text.contains("-- prepared q"));
    assert!(text.contains("prepared q: select extract(b)"));
    assert!(text.contains("function g: create function g("));
    assert!(text.contains("-- 2 catalog entries"));
    assert!(String::from_utf8_lossy(&err).contains("unknown prepared query"));
    daemon.stop();
}

#[test]
fn concurrent_sessions_share_one_compilation() {
    let daemon = Daemon::start();
    // Two clients prepare the same query text at the same time; the
    // hub's interning cache must compile it exactly once.
    let rows: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let addr = &daemon.addr;
                s.spawn(move || {
                    let mut c = Client::connect_tcp(addr).expect("connect");
                    let frames = c
                        .statement(&format!("prepare q{i} as {PREPARED}"))
                        .expect("prepare");
                    assert_eq!(frames.last().unwrap().payload, format!("-- prepared q{i}"));
                    let frames = c.statement(&format!("run q{i};")).expect("run");
                    assert_eq!(frames[0].kind, FrameKind::Row);
                    let row = frames[0].payload.clone();
                    c.bye().expect("bye");
                    row
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(rows[0], rows[1], "shared plan, identical results");
    assert_eq!(rows[0], "10");

    let stats = daemon.server_stats();
    assert_eq!(
        json_field(&stats, "compilations"),
        1,
        "two prepares, one compilation: {stats}"
    );
    assert_eq!(json_field(&stats, "plan_cache_hits"), 1, "{stats}");
    assert_eq!(json_field(&stats, "plan_cache_len"), 1, "{stats}");
    assert_eq!(json_field(&stats, "plan_cache_cap"), 128, "{stats}");
    assert_eq!(json_field(&stats, "plan_cache_evictions"), 0, "{stats}");
    daemon.stop();
}

#[test]
fn server_stats_doc_lists_exactly_the_emitted_keys() {
    // Doc-drift guard: the `.server` row of docs/server.md names every
    // key of the stats JSON, and nothing else.
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/server.md"))
        .expect("docs/server.md exists");
    let row = doc
        .lines()
        .find(|l| l.starts_with("| `.server` |"))
        .expect("docs/server.md has a `.server` row");
    let cell = row.split('|').nth(2).expect("the effect column");
    let documented: Vec<&str> = cell.split('`').skip(1).step_by(2).collect();
    let daemon = Daemon::start();
    let stats = daemon.server_stats();
    let emitted: Vec<&str> = stats.split('"').skip(1).step_by(2).collect();
    assert_eq!(documented, emitted, "{row}\n{stats}");
    daemon.stop();
}

#[test]
fn loopback_tcp_statements_do_not_stall() {
    // Nagle's algorithm meeting the peer's delayed ACK cost ~88 ms per
    // statement (~18 s here) while frames left in three writes and no
    // end set TCP_NODELAY; one write per reply takes ~10 ms in all. The
    // 2 s limit sits 100x from either, so it gates the stall, not the
    // host.
    let daemon = Daemon::start();
    let mut c = daemon.connect();
    c.set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
        .expect("set timeouts");
    for i in 0..8 {
        c.statement(&format!("prepare q{i} as {PREPARED}"))
            .expect("prepare");
    }
    let t0 = Instant::now();
    for _ in 0..200 {
        let frames = c.statement("show catalog;").expect("show catalog");
        assert_eq!(frames.len(), 9, "8 rows and the OK");
    }
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(2),
        "200 statements took {wall:?}"
    );
    daemon.stop();
}

#[test]
fn client_timeouts_bound_a_read_that_never_comes() {
    let daemon = Daemon::start();
    let mut c = daemon.connect();
    c.set_timeouts(Some(Duration::from_millis(50)), None)
        .expect("set timeouts");
    // Nothing was sent, so the daemon has nothing to say.
    let err = c.recv().expect_err("the read must time out");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );
    // The connection is still good without the bound.
    c.set_timeouts(None, None).expect("clear timeouts");
    let frames = c.statement("show catalog;").expect("show catalog");
    assert_eq!(frames.last().unwrap().kind, FrameKind::Ok);
    daemon.stop();
}

#[test]
fn dropped_connection_releases_its_session_only() {
    let daemon = Daemon::start();
    let mut a = daemon.connect();
    let mut b = daemon.connect();
    a.statement(&format!("prepare mine as {PREPARED}")).unwrap();
    b.statement(&format!("prepare q as {PREPARED}")).unwrap();

    // Kill A's connection without a BYE; the server must reap the
    // session without touching B's catalog or the shared cache.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = daemon.server_stats();
        // The probe session itself is already closed when `.server`
        // replies were captured from inside it, so expect B + probe.
        if json_field(&stats, "sessions_open") <= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "session A never reaped: {stats}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // B is unaffected and still resolves its own name…
    let frames = b.statement("run q;").unwrap();
    assert_eq!(frames[0].payload, "10");
    // …while A's name was private to A and is gone with it.
    let frames = b.statement("run mine;").unwrap();
    assert_eq!(frames[0].kind, FrameKind::Err);
    assert!(frames[0].payload.contains("unknown prepared query"));
    let stats = daemon.server_stats();
    assert_eq!(json_field(&stats, "compilations"), 1, "{stats}");
    b.bye().unwrap();
    daemon.stop();
}

#[test]
fn metrics_and_profile_frames_carry_observability_payloads() {
    let daemon = Daemon::start();
    let mut c = daemon.connect();
    c.statement(".metrics on").unwrap();
    c.statement(".profile on").unwrap();
    let frames = c.statement(PREPARED).unwrap();
    let kinds: Vec<FrameKind> = frames.iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        [
            FrameKind::Row,
            FrameKind::Metrics,
            FrameKind::Profile,
            FrameKind::Ok
        ],
        "{frames:?}"
    );
    assert_eq!(frames[0].payload, "10");
    let metrics = &frames[1].payload;
    assert!(metrics.contains("\"channels\""), "{metrics}");
    assert!(metrics.contains("\"bytes\""), "{metrics}");
    let profile = &frames[2].payload;
    assert!(profile.contains("stage"), "{profile}");
    assert!(profile.contains("coalescer: "), "{profile}");
    assert!(frames[3].payload.starts_with("-- 1 value in "));

    // Observability off again: plain frames, identical result bytes.
    c.statement(".metrics off").unwrap();
    c.statement(".profile off").unwrap();
    let plain = c.statement(PREPARED).unwrap();
    assert_eq!(plain.len(), 2);
    assert_eq!(plain[0].payload, frames[0].payload);
    assert_eq!(
        plain[1].payload, frames[3].payload,
        "profiling never changes results"
    );
    c.bye().unwrap();
    daemon.stop();
}

#[test]
fn runtime_option_metas_apply_per_session() {
    let daemon = Daemon::start();
    let mut fast = daemon.connect();
    let mut slow = daemon.connect();
    // Same prepared plan, different runtime buffering per session.
    slow.statement(".buffer 100000").unwrap();
    slow.statement(".double off").unwrap();
    fast.statement(".buffer 100000").unwrap();
    fast.statement(".double on").unwrap();
    let q = "select extract(b) from sp a, sp b \
             where b=sp(streamof(count(extract(a))), 'bg', 0) \
             and a=sp(gen_array(1000000,5),'bg',1);";
    let f = fast.statement(q).unwrap();
    let s = slow.statement(q).unwrap();
    assert_eq!(f[0].payload, s[0].payload, "same values either way");
    assert_ne!(
        f.last().unwrap().payload,
        s.last().unwrap().payload,
        "double buffering changes the reported query time"
    );
    let stats = daemon.server_stats();
    assert_eq!(
        json_field(&stats, "compilations"),
        1,
        "runtime knobs don't fork the plan cache: {stats}"
    );
    fast.bye().unwrap();
    slow.bye().unwrap();
    daemon.stop();
}

/// A malformed session option and the usage text it must answer.
const BAD_OPTIONS: [(&str, &str); 4] = [
    (".buffer 0", "usage: .buffer <bytes>"),
    (".buffer x", "usage: .buffer <bytes>"),
    (".double maybe", "usage: .double on|off"),
    (".policy foo", "usage: .policy naive|aware"),
];

#[test]
fn malformed_option_metas_answer_their_usage_and_change_nothing() {
    let daemon = Daemon::start();
    let q = "select extract(b) from sp a, sp b \
             where b=sp(streamof(count(extract(a))), 'bg', 0) \
             and a=sp(gen_array(100000,5),'bg',1);";
    let mut fresh = daemon.connect();
    let defaults = fresh.statement(q).unwrap();
    fresh.bye().unwrap();
    let mut c = daemon.connect();
    for (meta, usage) in BAD_OPTIONS {
        let frames = c.statement(meta).unwrap();
        assert_eq!(frames.len(), 1, "{meta}: {frames:?}");
        assert_eq!(frames[0].kind, FrameKind::Err, "{meta}");
        assert_eq!(frames[0].payload, usage, "{meta}");
        assert_eq!(c.statement(q).unwrap(), defaults, "after {meta}");
    }
    c.bye().unwrap();
    daemon.stop();
}

#[test]
fn unix_socket_end_to_end() {
    #[cfg(unix)]
    {
        let sock = std::env::temp_dir().join(format!("scsqd-e2e-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let mut child = Command::new(env!("CARGO_BIN_EXE_scsqd"))
            .args(["--unix", sock.to_str().unwrap()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn scsqd --unix");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.starts_with("LISTEN "), "{line}");

        let mut c = Client::connect_unix(&sock).expect("connect unix");
        assert!(c.banner().starts_with("scsqd "));
        let frames = c.statement("merge({});").unwrap();
        assert!(frames
            .last()
            .unwrap()
            .payload
            .starts_with("-- 0 values in "));
        c.statement(".shutdown").unwrap();
        let status = child.wait().unwrap();
        assert!(status.success());
        assert!(!sock.exists(), "socket file cleaned up");
    }
}

#[test]
fn write_then_read_frames_through_a_live_daemon() {
    // Drive the protocol by hand (no Client helper) to pin the framing:
    // HELLO first, statement replies terminated by OK, BYE closes.
    let daemon = Daemon::start();
    let stream = std::net::TcpStream::connect(&daemon.addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let hello = scsq::wire::read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(hello.kind, FrameKind::Hello);
    assert!(hello.payload.starts_with("scsqd "));

    let q = "select extract(b) from sp a, sp b \
             where b=sp(streamof(count(extract(a))), 'bg', 0) \
             and a=sp(gen_array(10000,4),'bg',1);";
    scsq::wire::write_frame(&mut writer, FrameKind::Stmt, q).unwrap();
    writer.flush().unwrap();
    let row = scsq::wire::read_frame(&mut reader).unwrap().unwrap();
    assert_eq!((row.kind, row.payload.as_str()), (FrameKind::Row, "4"));
    let ok = scsq::wire::read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(ok.kind, FrameKind::Ok);

    scsq::wire::write_frame(&mut writer, FrameKind::Bye, "").unwrap();
    assert!(
        scsq::wire::read_frame(&mut reader).unwrap().is_none(),
        "server closes after BYE"
    );
    daemon.stop();
}
