//! The `scsqd` wire protocol: length-prefixed, newline-framed frames.
//!
//! One frame on the wire is
//!
//! ```text
//! TYPE LEN\n
//! <LEN payload bytes>\n
//! ```
//!
//! — a human-readable header (frame type tag, one space, payload byte
//! count in decimal), the payload verbatim, and a closing newline. The
//! length prefix makes payloads with embedded newlines (multi-line
//! metrics JSON, profile tables) unambiguous, while the newline framing
//! keeps transcripts readable with `nc`/`socat`.
//!
//! Frame types:
//!
//! | tag       | direction        | payload                               |
//! |-----------|------------------|---------------------------------------|
//! | `HELLO`   | server → client  | server banner (`scsqd <version>`)     |
//! | `STMT`    | client → server  | SCSQL text or a `.meta` command       |
//! | `BYE`     | client → server  | empty; close the session              |
//! | `ROW`     | server → client  | one result value / catalog row        |
//! | `OK`      | server → client  | statement done; the `-- …` summary    |
//! | `ERR`     | server → client  | error text (shell prints `error: …`)  |
//! | `INFO`    | server → client  | out-of-band text (`.server`, explain) |
//! | `METRICS` | server → client  | per-query [`metrics_json`] JSON       |
//! | `PROFILE` | server → client  | explain-analyze profile rendering     |
//!
//! Every statement's reply stream terminates with exactly one `OK` or
//! `ERR`, so a client can pipeline statements and still attribute
//! frames. See `docs/server.md` for the full protocol reference.
//!
//! [`metrics_json`]: scsq_engine::QueryResult::metrics_json

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::time::Duration;

/// Upper bound on a single frame payload (16 MiB): a malformed header
/// cannot make a reader allocate unbounded memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The frame types of the `scsqd` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Server banner, sent once on connect.
    Hello,
    /// A statement (SCSQL text or `.meta` command) from the client.
    Stmt,
    /// Client is done; the server closes the session.
    Bye,
    /// One output row (result value or catalog entry).
    Row,
    /// Statement completed; payload is the `-- …` summary line.
    Ok,
    /// Statement failed; payload is the error text.
    Err,
    /// Out-of-band server text (`.server` stats, `.explain` output).
    Info,
    /// Per-query metrics JSON (when the session turned `.metrics on`).
    Metrics,
    /// Explain-analyze profile (when the session turned `.profile on`).
    Profile,
}

impl FrameKind {
    /// The tag written on the wire.
    pub fn tag(self) -> &'static str {
        match self {
            FrameKind::Hello => "HELLO",
            FrameKind::Stmt => "STMT",
            FrameKind::Bye => "BYE",
            FrameKind::Row => "ROW",
            FrameKind::Ok => "OK",
            FrameKind::Err => "ERR",
            FrameKind::Info => "INFO",
            FrameKind::Metrics => "METRICS",
            FrameKind::Profile => "PROFILE",
        }
    }

    /// Parses a wire tag (exact match, case-sensitive).
    pub fn from_tag(tag: &str) -> Option<FrameKind> {
        Some(match tag {
            "HELLO" => FrameKind::Hello,
            "STMT" => FrameKind::Stmt,
            "BYE" => FrameKind::Bye,
            "ROW" => FrameKind::Row,
            "OK" => FrameKind::Ok,
            "ERR" => FrameKind::Err,
            "INFO" => FrameKind::Info,
            "METRICS" => FrameKind::Metrics,
            "PROFILE" => FrameKind::Profile,
            _ => return None,
        })
    }

    /// Whether this frame terminates a statement's reply stream.
    pub fn ends_statement(self) -> bool {
        matches!(self, FrameKind::Ok | FrameKind::Err)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// The payload text (UTF-8; may be empty or multi-line).
    pub payload: String,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Longest possible frame header: the longest tag, a space, a `usize`
/// in decimal and the newline (`METRICS 18446744073709551615\n`).
const MAX_HEADER_LEN: usize = 7 + 1 + 20 + 1;

/// Frames up to this size are assembled on the stack by
/// [`write_frame`]; it covers every `STMT`, `ROW` and `OK` of the
/// served statement mix, so the per-frame path never allocates.
const STACK_FRAME_LEN: usize = 256;

/// `TYPE LEN\n` for a payload of `len` bytes, as (bytes, used).
fn encode_header(kind: FrameKind, len: usize) -> ([u8; MAX_HEADER_LEN], usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = len;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &digits[at..];
    let tag = kind.tag().as_bytes();
    let mut header = [0u8; MAX_HEADER_LEN];
    header[..tag.len()].copy_from_slice(tag);
    header[tag.len()] = b' ';
    let used = tag.len() + 1 + digits.len();
    header[tag.len() + 1..used].copy_from_slice(digits);
    header[used] = b'\n';
    (header, used + 1)
}

/// Appends one encoded frame to `out` — the daemon collects a whole
/// reply this way and writes it once.
pub fn encode_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &str) {
    let (header, used) = encode_header(kind, payload.len());
    out.reserve(used + payload.len() + 1);
    out.extend_from_slice(&header[..used]);
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
}

/// Writes one frame with a single `write_all` and flushes.
///
/// One write per frame is part of the contract, not a nicety: on a TCP
/// socket every write may leave as its own segment, and a frame split
/// into header / payload / newline stalls on Nagle's algorithm meeting
/// the peer's delayed ACK (see `docs/server.md`, "Latency and framing").
///
/// # Errors
///
/// I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &str) -> io::Result<()> {
    let (header, used) = encode_header(kind, payload.len());
    let total = used + payload.len() + 1;
    if total <= STACK_FRAME_LEN {
        let mut frame = [0u8; STACK_FRAME_LEN];
        frame[..used].copy_from_slice(&header[..used]);
        frame[used..total - 1].copy_from_slice(payload.as_bytes());
        frame[total - 1] = b'\n';
        w.write_all(&frame[..total])?;
    } else {
        let mut frame = Vec::new();
        encode_frame(&mut frame, kind, payload);
        w.write_all(&frame)?;
    }
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean end-of-stream (EOF before a
/// header byte).
///
/// # Errors
///
/// I/O errors, malformed headers, oversized or non-UTF-8 payloads, EOF
/// mid-frame.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end_matches(['\r', '\n']);
    let (tag, len) = header
        .split_once(' ')
        .ok_or_else(|| bad(format!("malformed frame header `{header}`")))?;
    let kind =
        FrameKind::from_tag(tag).ok_or_else(|| bad(format!("unknown frame type `{tag}`")))?;
    let len: usize = len
        .parse()
        .map_err(|_| bad(format!("bad frame length `{len}`")))?;
    if len > MAX_FRAME_LEN {
        return Err(bad(format!("frame of {len} bytes exceeds {MAX_FRAME_LEN}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)?;
    if nl[0] != b'\n' {
        return Err(bad("frame payload not newline-terminated"));
    }
    let payload = String::from_utf8(payload).map_err(|_| bad("frame payload is not UTF-8"))?;
    Ok(Some(Frame { kind, payload }))
}

/// The concrete socket under a [`Client`], kept so the client can set
/// socket options (timeouts) after connecting.
#[derive(Debug)]
enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Socket::Unix(s) => s.flush(),
        }
    }
}

/// A client connection to a running `scsqd`, over TCP or (on Unix) a
/// Unix-domain socket.
#[derive(Debug)]
pub struct Client {
    /// Reads are buffered; writes go to the socket underneath
    /// (`get_mut`), one per frame.
    stream: BufReader<Socket>,
    /// The server's `HELLO` banner.
    banner: String,
}

impl Client {
    /// Connects over TCP (`host:port`) with `TCP_NODELAY` set and
    /// consumes the `HELLO` frame.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors (a peer that does not greet with
    /// `HELLO` is rejected).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::handshake(Socket::Tcp(stream))
    }

    /// Connects over a Unix-domain socket and consumes the `HELLO`
    /// frame.
    ///
    /// # Errors
    ///
    /// See [`Client::connect_tcp`].
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        Client::handshake(Socket::Unix(UnixStream::connect(path)?))
    }

    fn handshake(socket: Socket) -> io::Result<Client> {
        let mut client = Client {
            stream: BufReader::new(socket),
            banner: String::new(),
        };
        match client.recv()? {
            Some(Frame {
                kind: FrameKind::Hello,
                payload,
            }) => client.banner = payload,
            other => return Err(bad(format!("expected HELLO, got {other:?}"))),
        }
        Ok(client)
    }

    /// Bounds how long any single read or write on this connection may
    /// block (`None` = forever, the default). A timed-out call returns
    /// an error of kind `WouldBlock` or `TimedOut`.
    ///
    /// # Errors
    ///
    /// I/O errors; a zero `Duration` is rejected by the OS layer.
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        match self.stream.get_ref() {
            Socket::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            Socket::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }

    /// The server's greeting (e.g. `scsqd 0.7.0`).
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn send(&mut self, kind: FrameKind, payload: &str) -> io::Result<()> {
        write_frame(self.stream.get_mut(), kind, payload)
    }

    /// Receives one frame; `Ok(None)` when the server closed the
    /// connection.
    ///
    /// # Errors
    ///
    /// I/O or framing errors.
    pub fn recv(&mut self) -> io::Result<Option<Frame>> {
        read_frame(&mut self.stream)
    }

    /// Sends one statement and collects its reply frames, up to and
    /// including the terminating `OK`/`ERR`. Intended for payloads
    /// holding a single statement (the shell's `;`-split discipline);
    /// a multi-statement payload gets one terminator per statement, so
    /// call [`Client::recv`] directly for those.
    ///
    /// # Errors
    ///
    /// I/O errors, or an unexpected-EOF error if the server closes the
    /// connection before terminating the statement.
    pub fn statement(&mut self, text: &str) -> io::Result<Vec<Frame>> {
        self.send(FrameKind::Stmt, text)?;
        let mut frames = Vec::new();
        loop {
            let frame = self.recv()?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-statement")
            })?;
            let done = frame.kind.ends_statement();
            frames.push(frame);
            if done {
                return Ok(frames);
            }
        }
    }

    /// Sends `BYE`, telling the server to close the session.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn bye(&mut self) -> io::Result<()> {
        self.send(FrameKind::Bye, "")
    }
}

/// A writer that records every `write` call it receives — how the
/// tests pin "one frame, one write" and "one reply, one write".
#[cfg(test)]
#[derive(Debug, Default, Clone)]
pub(crate) struct CountingWriter {
    /// The bytes of each `write` call, in order.
    pub(crate) writes: std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn a_frame_is_one_write_of_the_documented_bytes() {
        let big = "x".repeat(1 << 20);
        for (kind, payload, header) in [
            (FrameKind::Bye, "", "BYE 0\n"),
            (FrameKind::Row, "0123456789", "ROW 10\n"),
            (FrameKind::Metrics, big.as_str(), "METRICS 1048576\n"),
        ] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, kind, payload).unwrap();
            let writes = w.writes.lock().unwrap();
            assert_eq!(writes.len(), 1, "{header:?}: one write per frame");
            let golden = format!("{header}{payload}\n");
            assert!(
                writes[0] == golden.as_bytes(),
                "{header:?}: TYPE LEN\\n<payload>\\n"
            );
            // The daemon's reply buffer is filled by the same encoder.
            let mut encoded = Vec::new();
            encode_frame(&mut encoded, kind, payload);
            assert!(
                encoded == writes[0],
                "{header:?}: encode_frame == write_frame"
            );
        }
    }

    #[test]
    fn frames_at_the_stack_buffer_boundary_stay_intact() {
        // Header `ROW 2xx\n` is 8 bytes; the closing newline is one.
        for len in STACK_FRAME_LEN - 12..STACK_FRAME_LEN + 4 {
            let payload = "y".repeat(len);
            let mut w = CountingWriter::default();
            write_frame(&mut w, FrameKind::Row, &payload).unwrap();
            let writes = w.writes.lock().unwrap();
            assert_eq!(writes.len(), 1, "len {len}");
            let frame = read_frame(&mut Cursor::new(&writes[0])).unwrap().unwrap();
            assert_eq!(frame.payload, payload, "len {len}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Stmt, "merge({});").unwrap();
        write_frame(&mut buf, FrameKind::Ok, "-- 0 values in 1ms\nwith newline").unwrap();
        write_frame(&mut buf, FrameKind::Bye, "").unwrap();
        let mut r = Cursor::new(buf);
        let a = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(a.kind, FrameKind::Stmt);
        assert_eq!(a.payload, "merge({});");
        let b = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(b.kind, FrameKind::Ok);
        assert_eq!(b.payload, "-- 0 values in 1ms\nwith newline");
        let c = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(c.kind, FrameKind::Bye);
        assert_eq!(c.payload, "");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn tags_round_trip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Stmt,
            FrameKind::Bye,
            FrameKind::Row,
            FrameKind::Ok,
            FrameKind::Err,
            FrameKind::Info,
            FrameKind::Metrics,
            FrameKind::Profile,
        ] {
            assert_eq!(FrameKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(FrameKind::from_tag("NOPE"), None);
        assert_eq!(FrameKind::from_tag("ok"), None, "tags are case-sensitive");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let mut r = Cursor::new(b"NOPE 3\nabc\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "unknown tag");
        let mut r = Cursor::new(b"ROW x\nabc\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "non-numeric length");
        let mut r = Cursor::new(b"ROW\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "missing length");
        let mut r = Cursor::new(b"ROW 10\nabc\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "EOF mid-payload");
        let mut r = Cursor::new(b"ROW 3\nabcX".to_vec());
        assert!(
            read_frame(&mut r).is_err(),
            "payload not newline-terminated"
        );
        let mut r = Cursor::new(format!("ROW {}\n", MAX_FRAME_LEN + 1).into_bytes());
        assert!(read_frame(&mut r).is_err(), "oversized frame refused");
    }

    #[test]
    fn ends_statement_flags_terminators() {
        assert!(FrameKind::Ok.ends_statement());
        assert!(FrameKind::Err.ends_statement());
        assert!(!FrameKind::Row.ends_statement());
        assert!(!FrameKind::Metrics.ends_statement());
    }
}
