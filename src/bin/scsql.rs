//! `scsql` — an interactive SCSQL shell on the simulated LOFAR
//! environment.
//!
//! §2.1: "Users interact with SCSQ on a Linux front-end cluster." This
//! binary is that interaction surface: type SCSQL statements terminated
//! by `;`, get result values and the measured streaming performance.
//!
//! ```text
//! $ cargo run --bin scsql
//! scsql> select extract(b) from sp a, sp b
//!     -> where b=sp(streamof(count(extract(a))), 'bg', 0)
//!     -> and a=sp(gen_array(3000000,100),'bg',1);
//! 100
//! -- 1 value in 1.842s
//! ```
//!
//! Meta-commands (not SCSQL): `.help`, `.stats on|off`, `.buffer <bytes>`,
//! `.double on|off`, `.policy naive|aware`, `.quit`. A file argument runs
//! a script instead of the prompt: `scsql queries.scsql`.
//!
//! The shell is a [`scsq::Session`] over a private hub, so the session
//! statements (`prepare name as …`, `run name`, `show catalog`) work
//! here exactly as they do against a served `scsqd` — same rows, same
//! summary lines, byte for byte.

use scsq::{Session, SessionReply};
use std::io::{BufRead, IsTerminal, Write};

struct Shell {
    session: Session,
    show_stats: bool,
    interactive: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shell = Shell {
        session: Session::lofar(),
        show_stats: false,
        interactive: std::io::stdin().is_terminal() && args.is_empty(),
    };

    if let Some(path) = args.first() {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("scsql: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let mut buffer = String::new();
        for line in text.lines() {
            shell.feed_line(line, &mut buffer);
        }
        return;
    }

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    shell.banner();
    shell.prompt(&buffer);
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if !shell.feed_line(&line, &mut buffer) {
            return;
        }
        shell.prompt(&buffer);
    }
}

impl Shell {
    fn banner(&self) {
        if self.interactive {
            println!("SCSQ — stream queries on a simulated LOFAR environment");
            println!("type `.help` for meta-commands; end SCSQL statements with `;`");
        }
    }

    fn prompt(&self, buffer: &str) {
        if self.interactive {
            let p = if buffer.trim().is_empty() {
                "scsql> "
            } else {
                "    -> "
            };
            print!("{p}");
            let _ = std::io::stdout().flush();
        }
    }

    /// Processes one input line; returns false on `.quit`.
    fn feed_line(&mut self, line: &str, buffer: &mut String) -> bool {
        let trimmed = line.trim();
        if buffer.trim().is_empty() && trimmed.starts_with('.') {
            if let Some(query) = trimmed.strip_prefix(".explain ") {
                match self.session.explain(query) {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
                return true;
            }
            return self.meta(trimmed);
        }
        buffer.push_str(line);
        buffer.push('\n');
        while let Some(pos) = buffer.find(';') {
            let stmt: String = buffer[..=pos].to_string();
            buffer.replace_range(..=pos, "");
            let text = stmt.trim();
            if !text.is_empty() {
                self.execute(text);
            }
        }
        true
    }

    fn execute(&mut self, text: &str) {
        // Statements are split at `;`, so each chunk is one statement.
        // The session routes it: `create function` to the catalog,
        // `prepare`/`run`/`show catalog` to the session catalog,
        // queries to the engine. Rows and summaries come from
        // `SessionReply`, the same renderings `scsqd` frames on the
        // wire — the transcripts diff clean.
        match self.session.execute(text) {
            Ok(reply) => {
                for row in reply.rows() {
                    println!("{row}");
                }
                println!("{}", reply.summary());
                if self.show_stats {
                    if let SessionReply::Result { result } = &reply {
                        for ch in &result.stats().channels {
                            println!(
                                "--   {} -> {} [{}] {} bytes",
                                ch.src, ch.dst, ch.carrier, ch.bytes
                            );
                        }
                        for rp in &result.stats().rp_reports {
                            println!(
                                "--   rp@{} in={} out={}{}",
                                rp.node,
                                rp.elements_in,
                                rp.elements_out,
                                if rp.is_client { " (client)" } else { "" }
                            );
                        }
                    }
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }

    fn meta(&mut self, cmd: &str) -> bool {
        let option = cmd
            .strip_prefix('.')
            .and_then(|c| self.session.set_option(c));
        if let Some(reply) = option {
            if let Err(usage) = reply {
                eprintln!("{usage}");
            }
            return true;
        }
        let mut parts = cmd.split_whitespace();
        match parts.next().unwrap_or_default() {
            ".quit" | ".exit" => return false,
            ".help" => {
                println!(".help                this help");
                println!(".explain <query;>    show the query's set-up without running it");
                println!(".stats on|off        per-channel / per-RP statistics");
                println!(
                    ".buffer <bytes>      MPI stream buffer size (now {})",
                    self.session.options().mpi_buffer
                );
                println!(
                    ".double on|off       MPI double buffering (now {})",
                    self.session.options().mpi_double
                );
                println!(".policy naive|aware  node selection policy");
                println!(".quit                leave");
            }
            ".stats" => match parts.next() {
                Some("on") => self.show_stats = true,
                Some("off") => self.show_stats = false,
                _ => eprintln!("usage: .stats on|off"),
            },
            other => eprintln!("unknown meta-command `{other}` (try .help)"),
        }
        true
    }
}
