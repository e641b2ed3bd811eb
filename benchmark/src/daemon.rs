//! Spawning, talking to and reaping the `scsqd` binary under test.
//!
//! Hygiene rules: the port is OS-assigned, the generator waits for the
//! daemon's `LISTEN` line (bounded), every client read and write
//! carries a timeout, and [`Daemon`]'s `Drop` kills and reaps the
//! process and removes its Unix socket — on every exit path, panics
//! included — so a wedged daemon yields failed operations and a
//! finished run, never a hung one.

use scsq_core::wire::{read_frame, write_frame, Frame, FrameKind};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// How long a client waits for any single read or write.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the generator waits for the daemon's `LISTEN` line.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `scsqd` child process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// `host:port`, or the socket path for a Unix daemon.
    addr: String,
    unix: Option<PathBuf>,
    /// Kept open so the daemon never writes into a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Spawns `scsqd --listen 127.0.0.1:0` and waits for its address.
    ///
    /// # Errors
    ///
    /// Spawn errors, or no `LISTEN` line within the timeout.
    pub fn spawn_tcp(scsqd: &Path) -> io::Result<Daemon> {
        Daemon::spawn(scsqd, &["--listen", "127.0.0.1:0"], None)
    }

    /// Spawns `scsqd --unix <path>`.
    ///
    /// # Errors
    ///
    /// See [`Daemon::spawn_tcp`].
    pub fn spawn_unix(scsqd: &Path, path: &Path) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(path);
        let arg = path.to_str().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "socket path is not UTF-8")
        })?;
        Daemon::spawn(scsqd, &["--unix", arg], Some(path.to_path_buf()))
    }

    fn spawn(scsqd: &Path, args: &[&str], unix: Option<PathBuf>) -> io::Result<Daemon> {
        let mut child = Command::new(scsqd)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The reader thread ends as soon as it has one line (or EOF);
        // if the daemon never prints, killing it below closes the pipe
        // and ends the thread.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            let _ = tx.send((read, line, stdout));
        });
        let announced = rx.recv_timeout(LISTEN_TIMEOUT);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            unix,
            stdout: None,
        };
        let (read, line, stdout) = match announced {
            Ok(got) => got,
            Err(_) => {
                // Dropping the daemon kills it, which closes the pipe
                // and ends the reader thread.
                drop(daemon);
                let _ = reader.join();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "scsqd printed no LISTEN line",
                ));
            }
        };
        let _ = reader.join();
        match (read, line.trim().strip_prefix("LISTEN ")) {
            (Ok(n), Some(addr)) if n > 0 => {
                daemon.addr = addr.to_string();
                daemon.stdout = Some(stdout);
                Ok(daemon)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("scsqd announced `{}` instead of LISTEN", line.trim()),
            )),
        }
    }

    /// Peak resident set of the daemon so far, kB (0 if unreadable).
    pub fn peak_rss_kb(&self) -> u64 {
        crate::peak_rss_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Opens a session on this daemon.
    ///
    /// # Errors
    ///
    /// Connection or handshake errors.
    pub fn connect(&self) -> io::Result<Conn> {
        match &self.unix {
            Some(path) => Conn::unix(path),
            None => Conn::tcp(&self.addr),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdout.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(path) = &self.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One client session: the wire protocol's own `write_frame` /
/// `read_frame` over a socket with read and write timeouts. (The
/// crate's `wire::Client` hides its socket, so it cannot carry a
/// timeout; the framing calls are the same ones it makes.)
pub struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Conn {
    fn tcp(addr: &str) -> io::Result<Conn> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let read = stream.try_clone()?;
        Conn::handshake(Box::new(read), Box::new(stream))
    }

    fn unix(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let read = stream.try_clone()?;
        Conn::handshake(Box::new(read), Box::new(stream))
    }

    fn handshake(read: Box<dyn Read + Send>, write: Box<dyn Write + Send>) -> io::Result<Conn> {
        let mut conn = Conn {
            reader: BufReader::new(read),
            writer: write,
        };
        match read_frame(&mut conn.reader)? {
            Some(Frame {
                kind: FrameKind::Hello,
                ..
            }) => Ok(conn),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected HELLO, got {other:?}"),
            )),
        }
    }

    /// Sends one `STMT` frame.
    ///
    /// # Errors
    ///
    /// I/O errors and timeouts.
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        write_frame(&mut self.writer, FrameKind::Stmt, text)
    }

    /// Collects reply frames up to and including the `OK` / `ERR`.
    ///
    /// # Errors
    ///
    /// I/O errors, timeouts, or the daemon closing mid-statement.
    pub fn recv_reply(&mut self) -> io::Result<Vec<Frame>> {
        let mut frames = Vec::new();
        loop {
            let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed mid-statement")
            })?;
            let done = frame.kind.ends_statement();
            frames.push(frame);
            if done {
                return Ok(frames);
            }
        }
    }

    /// One closed-loop round trip.
    ///
    /// # Errors
    ///
    /// See [`Conn::send`] and [`Conn::recv_reply`].
    pub fn statement(&mut self, text: &str) -> io::Result<Vec<Frame>> {
        self.send(text)?;
        self.recv_reply()
    }
}
