//! `scsqd` — the serving front door: a long-lived SCSQL server.
//!
//! §2.1: "Users interact with SCSQ on a Linux front-end cluster" — SCSQ
//! is a *service*, not a one-shot binary. [`ScsqdServer`] is that
//! service shape: it listens on a TCP or Unix-domain socket, gives each
//! connection its own [`Session`] (private named-plan catalog, private
//! runtime options), and shares one [`SessionHub`] across all of them —
//! so two clients preparing the same query text share a single
//! compilation, which `tests/server.rs` pins via the hub's
//! `compilations` counter.
//!
//! The backend stays the deterministic simulation, so a query served
//! over the socket produces byte-identical output to the same query run
//! one-shot through the `scsql` shell — the verify script diffs the two
//! transcripts.
//!
//! Protocol framing lives in [`crate::wire`]; the full reference is
//! `docs/server.md`.

use crate::wire::{encode_frame, read_frame, Frame, FrameKind};
use scsq_cluster::HardwareSpec;
use scsq_engine::session::{Session, SessionHub, SessionReply};
use scsq_engine::RunOptions;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// Where a server listens — also how the shutdown poke reconnects to
/// unblock the accept loop.
#[derive(Debug, Clone)]
enum Endpoint {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Connects and immediately drops the connection, waking a blocked
    /// `accept`.
    fn poke(&self) {
        match self {
            Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
            #[cfg(unix)]
            Endpoint::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// A long-lived SCSQL server on the deterministic simulation backend.
///
/// Bind, then [`ScsqdServer::serve`]; each accepted connection runs on
/// its own thread with its own session over the shared hub. The accept
/// loop exits when any session issues `.shutdown`.
pub struct ScsqdServer {
    listener: Listener,
    endpoint: Endpoint,
    hub: Arc<SessionHub>,
    spec: HardwareSpec,
    shutdown: Arc<AtomicBool>,
}

impl ScsqdServer {
    /// Binds a TCP listener (use port 0 for an OS-assigned port, then
    /// read back [`ScsqdServer::local_addr`]). Sessions run on the
    /// paper's LOFAR hardware.
    ///
    /// # Errors
    ///
    /// Bind errors.
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<ScsqdServer> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Ok(ScsqdServer::new(Listener::Tcp(listener), endpoint))
    }

    /// Binds a Unix-domain socket at `path` (removed again when the
    /// server shuts down cleanly).
    ///
    /// # Errors
    ///
    /// Bind errors (including an existing socket file).
    #[cfg(unix)]
    pub fn bind_unix(path: impl AsRef<Path>) -> io::Result<ScsqdServer> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        let endpoint = Endpoint::Unix(path.clone());
        Ok(ScsqdServer::new(Listener::Unix(listener, path), endpoint))
    }

    fn new(listener: Listener, endpoint: Endpoint) -> ScsqdServer {
        ScsqdServer {
            listener,
            endpoint,
            hub: Arc::new(SessionHub::new()),
            spec: HardwareSpec::lofar(),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The bound address, printable: `host:port` for TCP, the socket
    /// path for Unix. `scsqd` prints this as its `LISTEN` line.
    pub fn local_addr(&self) -> String {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr.to_string(),
            #[cfg(unix)]
            Endpoint::Unix(path) => path.display().to_string(),
        }
    }

    /// The hub shared by every session of this server.
    pub fn hub(&self) -> &Arc<SessionHub> {
        &self.hub
    }

    /// Accepts and serves connections until a session issues
    /// `.shutdown`. Each connection gets a thread; in-flight sessions
    /// finish their current statement, the accept loop stops taking new
    /// ones.
    ///
    /// # Errors
    ///
    /// Accept errors (per-connection I/O errors only end that session).
    pub fn serve(self) -> io::Result<()> {
        loop {
            let conn: (Box<dyn Read + Send>, Box<dyn Write + Send>) = match &self.listener {
                Listener::Tcp(l) => {
                    let (stream, _) = l.accept()?;
                    // A reply is one write; without this Nagle holds it
                    // for the client's delayed ACK (docs/server.md).
                    stream.set_nodelay(true)?;
                    let read = stream.try_clone()?;
                    (Box::new(read), Box::new(stream))
                }
                #[cfg(unix)]
                Listener::Unix(l, _) => {
                    let (stream, _) = l.accept()?;
                    let read = stream.try_clone()?;
                    (Box::new(read), Box::new(stream))
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let hub = Arc::clone(&self.hub);
            let spec = self.spec.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let endpoint = self.endpoint.clone();
            thread::spawn(move || {
                let session = hub.session(spec, RunOptions::default());
                let mut conn = Connection {
                    reader: BufReader::new(conn.0),
                    writer: conn.1,
                    out: Vec::new(),
                    session,
                    metrics_on: false,
                    shutdown,
                    endpoint,
                };
                let _ = conn.run();
            });
        }
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

struct Connection {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    /// The frames of the reply in progress, written once at its
    /// terminator.
    out: Vec<u8>,
    session: Session,
    metrics_on: bool,
    shutdown: Arc<AtomicBool>,
    endpoint: Endpoint,
}

/// Past this many buffered bytes a reply is written out before its
/// terminator, so a large result is not held in memory twice (64 KiB is
/// one loopback segment; no statement of the served mix comes near it).
const EARLY_FLUSH_LEN: usize = 64 * 1024;

impl Connection {
    /// Appends one frame to the reply in progress; the reply goes out
    /// as a single write when `kind` ends it (`OK`/`ERR`, or the
    /// one-frame `HELLO` greeting).
    fn send(&mut self, kind: FrameKind, payload: &str) -> io::Result<()> {
        encode_frame(&mut self.out, kind, payload);
        if kind.ends_statement() || kind == FrameKind::Hello || self.out.len() > EARLY_FLUSH_LEN {
            let written = self.writer.write_all(&self.out);
            self.out.clear();
            written?;
            self.writer.flush()?;
        }
        Ok(())
    }

    fn run(&mut self) -> io::Result<()> {
        self.send(
            FrameKind::Hello,
            &format!("scsqd {}", env!("CARGO_PKG_VERSION")),
        )?;
        while let Some(frame) = read_frame(&mut self.reader)? {
            match frame {
                Frame {
                    kind: FrameKind::Bye,
                    ..
                } => break,
                Frame {
                    kind: FrameKind::Stmt,
                    payload,
                } => {
                    let text = payload.trim();
                    if let Some(rest) = text.strip_prefix('.') {
                        if !self.meta(rest)? {
                            break;
                        }
                    } else {
                        self.statements(text)?;
                    }
                }
                Frame { kind, .. } => {
                    self.send(
                        FrameKind::Err,
                        &format!("unexpected {} frame from client", kind.tag()),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Executes the SCSQL in `text`, one reply stream (rows, optional
    /// metrics/profile, then `OK`/`ERR`) per statement.
    fn statements(&mut self, text: &str) -> io::Result<()> {
        let statements = match scsq_ql::parse_program(text) {
            Ok(s) => s,
            Err(e) => return self.send(FrameKind::Err, &e.to_string()),
        };
        if statements.is_empty() {
            return self.send(FrameKind::Err, "program contained no statement");
        }
        for stmt in &statements {
            match self.session.execute_statement(stmt) {
                Ok(reply) => {
                    for row in reply.rows() {
                        self.send(FrameKind::Row, &row)?;
                    }
                    if let SessionReply::Result { result } = &reply {
                        if self.metrics_on {
                            self.send(FrameKind::Metrics, &result.metrics_json())?;
                        }
                        if let Some(profile) = &result.stats().profile {
                            self.send(FrameKind::Profile, &profile.render())?;
                        }
                    }
                    self.send(FrameKind::Ok, &reply.summary())?;
                }
                Err(e) => self.send(FrameKind::Err, &e.to_string())?,
            }
        }
        Ok(())
    }

    /// Handles a meta-command (already stripped of its leading `.`).
    /// Returns `false` when the connection should close (`.shutdown`).
    fn meta(&mut self, cmd: &str) -> io::Result<bool> {
        if let Some(reply) = self.session.set_option(cmd) {
            match reply {
                Ok(ack) => self.send(FrameKind::Ok, &ack)?,
                Err(usage) => self.send(FrameKind::Err, usage)?,
            }
            return Ok(true);
        }
        let mut parts = cmd.split_whitespace();
        match parts.next().unwrap_or_default() {
            "metrics" => match parts.next() {
                Some(on @ ("on" | "off")) => {
                    self.metrics_on = on == "on";
                    self.send(FrameKind::Ok, &format!("-- metrics {on}"))?;
                }
                _ => self.send(FrameKind::Err, "usage: .metrics on|off")?,
            },
            "profile" => match parts.next() {
                Some(on @ ("on" | "off")) => {
                    self.session.options_mut().profile = on == "on";
                    self.send(FrameKind::Ok, &format!("-- profile {on}"))?;
                }
                _ => self.send(FrameKind::Err, "usage: .profile on|off")?,
            },
            "explain" => {
                let query = cmd.strip_prefix("explain").unwrap_or_default().trim();
                match self.session.explain(query) {
                    Ok(text) => {
                        self.send(FrameKind::Info, &text)?;
                        self.send(FrameKind::Ok, "-- explained")?;
                    }
                    Err(e) => self.send(FrameKind::Err, &e.to_string())?,
                }
            }
            "server" => {
                let hub = self.session.hub();
                let json = format!(
                    "{{\n  \"sessions_open\": {},\n  \"sessions_opened\": {},\n  \
                     \"statements\": {},\n  \"compilations\": {},\n  \
                     \"plan_cache_hits\": {},\n  \"plan_cache_len\": {},\n  \
                     \"plan_cache_cap\": {},\n  \"plan_cache_evictions\": {}\n}}\n",
                    hub.sessions_open(),
                    hub.sessions_opened(),
                    hub.statements(),
                    hub.compilations(),
                    hub.plan_cache_hits(),
                    hub.plan_cache_len(),
                    hub.plan_cache_cap(),
                    hub.plan_cache_evictions(),
                );
                self.send(FrameKind::Info, &json)?;
                self.send(FrameKind::Ok, "-- server")?;
            }
            "shutdown" => {
                self.send(FrameKind::Ok, "-- shutting down")?;
                self.shutdown.store(true, Ordering::SeqCst);
                self.endpoint.poke();
                return Ok(false);
            }
            other => self.send(
                FrameKind::Err,
                &format!("unknown meta-command `.{other}` (see docs/server.md)"),
            )?,
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{write_frame, Client, CountingWriter};

    fn start() -> (String, thread::JoinHandle<io::Result<()>>) {
        let server = ScsqdServer::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.serve());
        (addr, handle)
    }

    const Q: &str = "select extract(b) from sp a, sp b
                     where b=sp(streamof(count(extract(a))), 'bg', 0)
                     and a=sp(gen_array(10000,4),'bg',1);";

    #[test]
    fn serves_queries_and_shuts_down() {
        let (addr, handle) = start();
        let mut c = Client::connect_tcp(&addr).expect("connect");
        assert!(c.banner().starts_with("scsqd "), "{}", c.banner());
        let frames = c.statement(Q).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, FrameKind::Row);
        assert_eq!(frames[0].payload, "4");
        assert_eq!(frames[1].kind, FrameKind::Ok);
        assert!(frames[1].payload.starts_with("-- 1 value in "));
        let frames = c.statement(".shutdown").unwrap();
        assert_eq!(frames[0].payload, "-- shutting down");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn sessions_share_compilations_and_errors_stay_per_session() {
        let (addr, handle) = start();
        let mut a = Client::connect_tcp(&addr).unwrap();
        let mut b = Client::connect_tcp(&addr).unwrap();
        let fa = a.statement(&format!("prepare q as {Q}")).unwrap();
        assert_eq!(fa.last().unwrap().payload, "-- prepared q");
        let fb = b.statement(&format!("prepare q as {Q}")).unwrap();
        assert_eq!(fb.last().unwrap().payload, "-- prepared q");
        let info = a.statement(".server").unwrap();
        assert_eq!(info[0].kind, FrameKind::Info);
        assert!(
            info[0].payload.contains("\"compilations\": 1"),
            "{}",
            info[0].payload
        );
        assert!(info[0].payload.contains("\"plan_cache_hits\": 1"));
        // A bad statement errors without killing the session.
        let err = b.statement("run nope;").unwrap();
        assert_eq!(err[0].kind, FrameKind::Err);
        assert!(err[0].payload.contains("unknown prepared query"));
        let ok = b.statement("run q;").unwrap();
        assert_eq!(ok[0].payload, "4");
        b.statement(".shutdown").unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A connection that reads the frames in `input` and writes into
    /// `writer`, with no socket under it.
    fn connection(input: Vec<u8>, writer: &CountingWriter) -> Connection {
        let hub = Arc::new(SessionHub::new());
        Connection {
            reader: BufReader::new(Box::new(io::Cursor::new(input))),
            writer: Box::new(writer.clone()),
            out: Vec::new(),
            session: hub.session(HardwareSpec::lofar(), RunOptions::default()),
            metrics_on: false,
            shutdown: Arc::new(AtomicBool::new(false)),
            endpoint: Endpoint::Tcp(([127, 0, 0, 1], 0).into()),
        }
    }

    #[test]
    fn a_reply_is_one_write_however_many_frames_it_has() {
        // Eight prepares, then `show catalog;` (8 ROW frames + OK).
        let mut input = Vec::new();
        for i in 0..8 {
            write_frame(&mut input, FrameKind::Stmt, &format!("prepare q{i} as {Q}")).unwrap();
        }
        write_frame(&mut input, FrameKind::Stmt, "show catalog;").unwrap();
        write_frame(&mut input, FrameKind::Bye, "").unwrap();
        let writer = CountingWriter::default();
        let mut conn = connection(input, &writer);
        conn.run().unwrap();
        let writes = writer.writes.lock().unwrap();
        assert_eq!(writes.len(), 10, "HELLO, 8 x prepared, the catalog");
        let mut catalog = io::Cursor::new(&writes[9]);
        let mut kinds = Vec::new();
        while let Some(frame) = read_frame(&mut catalog).unwrap() {
            kinds.push(frame.kind);
        }
        assert_eq!(kinds.len(), 9);
        assert!(kinds[..8].iter().all(|k| *k == FrameKind::Row));
        assert_eq!(kinds[8], FrameKind::Ok);
    }

    #[test]
    fn a_large_reply_is_flushed_before_its_terminator() {
        let writer = CountingWriter::default();
        let mut conn = connection(Vec::new(), &writer);
        let row = "r".repeat(1000);
        for _ in 0..200 {
            conn.send(FrameKind::Row, &row).unwrap();
        }
        conn.send(FrameKind::Ok, "-- done").unwrap();
        let writes = writer.writes.lock().unwrap();
        assert_eq!(writes.len(), 4, "three early flushes and the terminator");
        assert!(writes.iter().all(|w| w.len() <= EARLY_FLUSH_LEN + 1100));
        let bytes: Vec<u8> = writes.concat();
        let mut stream = io::Cursor::new(&bytes);
        let mut frames = 0;
        while let Some(frame) = read_frame(&mut stream).unwrap() {
            frames += 1;
            assert_eq!(frame.kind.ends_statement(), frames == 201);
        }
        assert_eq!(frames, 201, "flush boundaries fall between frames");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("scsqd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scsqd.sock");
        let server = ScsqdServer::bind_unix(&path).expect("bind unix");
        let addr = server.local_addr();
        assert_eq!(addr, path.display().to_string());
        let handle = thread::spawn(move || server.serve());
        let mut c = Client::connect_unix(&path).unwrap();
        let frames = c.statement("merge({});").unwrap();
        assert!(frames
            .last()
            .unwrap()
            .payload
            .starts_with("-- 0 values in "));
        c.statement(".shutdown").unwrap();
        handle.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file removed on clean shutdown");
        let _ = std::fs::remove_dir(&dir);
    }
}
