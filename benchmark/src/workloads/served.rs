//! `served_mix`: a closed loop of SCSQL statements against a spawned
//! `scsqd` over loopback TCP.
//!
//! Two connections from this one generator process; each sends its next
//! statement only after the previous reply is complete (a shell user
//! waits for each reply). After set-up — spawn, `LISTEN`, connect,
//! `HELLO`, the same 8 named plans prepared on each connection — every
//! block of 100 statements per connection is a seeded shuffle of a
//! fixed deck: 80 `run <name>;`, 10 ad-hoc `select`s from a pool of 64
//! texts (plan-cache hits after first sight), 5 never-seen texts (each
//! forces a compile and grows the never-evicting plan cache), 4
//! `show catalog;` and 1 malformed statement (an `ERR` frame is the
//! correct reply). The deck fixes the mix exactly, so two seeds differ
//! in order, not in composition.
//!
//! *Why:* engine time per statement is tiny here, so wire framing,
//! sockets, `SessionHub` locking and compile-on-miss dominate — layers
//! no other workload reaches. Numbers are reported as found; the
//! generator does not work around the daemon (no `TCP_NODELAY`, the
//! same three-writes-per-frame `write_frame` the shipped client uses).

use super::{Config, Outcome, TRACE_REFERENCE_S};
use crate::daemon::{Conn, Daemon};
use crate::gen::{self, Rng};
use crate::json;
use crate::stats;
use crate::trace::{self, Tracer};
use scsq_core::wire::{write_frame, Frame, FrameKind};
use scsq_core::{Session, SessionReply};
use std::collections::HashMap;
use std::time::Instant;

/// Connections (= generator threads).
const CONNECTIONS: usize = 2;

/// Set-up cycles (each spawns and reaps a daemon) in an untraced run.
const SETUP_CYCLES: usize = 5;

/// Statements per connection before timing starts.
const WARMUP_STATEMENTS: usize = 10;

/// Statements per connection in the traced window.
const TRACED_STATEMENTS: usize = 50;

/// Array size and count of the served queries: the small unit a shell
/// user pokes the system with.
const BYTES: u64 = 300_000;
const ARRAYS: u64 = 10;

/// Size of the ad-hoc text pool.
const POOL: u64 = 64;

/// The 8 named plans every connection prepares, with their answers.
pub fn named_plans() -> Vec<(&'static str, String, i64)> {
    let a = ARRAYS as i64;
    vec![
        ("p2p", gen::p2p_query(BYTES, ARRAYS), a),
        ("p2p_long", gen::p2p_query(BYTES, 2 * ARRAYS), 2 * a),
        ("merge_seq", gen::merge_query(BYTES, ARRAYS, 2), 2 * a),
        ("merge_bal", gen::merge_query(BYTES, ARRAYS, 4), 2 * a),
        ("inbound_q1", gen::inbound_query(1, BYTES, ARRAYS, 2), 2 * a),
        ("inbound_q3", gen::inbound_query(3, BYTES, ARRAYS, 2), 2 * a),
        ("inbound_q5", gen::inbound_query(5, BYTES, ARRAYS, 4), 4 * a),
        ("inbound_q6", gen::inbound_query(6, BYTES, ARRAYS, 4), 4 * a),
    ]
}

/// What the generator expects back, before the oracle is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// One `ROW` with this integer, then `OK`.
    Count(i64),
    /// Any rows, then `OK`.
    Ok,
    /// A single `ERR`.
    Err,
}

/// One connection's seeded statement source.
struct Deck {
    rng: Rng,
    cards: Vec<u8>,
    next: usize,
    conn: u64,
    fresh: u64,
    names: Vec<(&'static str, i64)>,
}

impl Deck {
    fn new(seed: u64, conn: usize) -> Deck {
        Deck {
            rng: Rng::new(seed ^ (0x5e7e_d000 + conn as u64)),
            cards: Vec::new(),
            next: 0,
            conn: conn as u64,
            fresh: 0,
            names: named_plans().into_iter().map(|(n, _, e)| (n, e)).collect(),
        }
    }

    /// The next statement and the shape of its correct reply.
    fn draw(&mut self) -> (String, Expect) {
        if self.next == self.cards.len() {
            // 0..80 run (ten per name), 80..90 ad hoc, 90..95 fresh,
            // 95..99 show catalog, 99 malformed.
            self.cards = (0..100).collect();
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        let card = self.cards[self.next];
        self.next += 1;
        match card {
            0..=79 => {
                let (name, expect) = self.names[card as usize % self.names.len()];
                (format!("run {name};"), Expect::Count(expect))
            }
            80..=89 => {
                let i = self.rng.below(POOL);
                (
                    gen::p2p_query(BYTES + 8 * i, ARRAYS),
                    Expect::Count(ARRAYS as i64),
                )
            }
            90..=94 => {
                // Never seen by this daemon: unique per connection and
                // draw, and disjoint from the ad-hoc pool's sizes.
                self.fresh += 1;
                let bytes = 200_000 + 8 * (self.conn * 1_000_000 + self.fresh);
                (gen::p2p_query(bytes, ARRAYS), Expect::Count(ARRAYS as i64))
            }
            95..=98 => ("show catalog;".to_string(), Expect::Ok),
            _ => ("select from where;".to_string(), Expect::Err),
        }
    }
}

/// Cheap in-loop check: the reply has the shape the generator expects.
fn shape_ok(frames: &[Frame], expect: Expect) -> bool {
    let Some((last, rows)) = frames.split_last() else {
        return false;
    };
    match expect {
        Expect::Err => rows.is_empty() && last.kind == FrameKind::Err,
        Expect::Ok => last.kind == FrameKind::Ok && rows.iter().all(|f| f.kind == FrameKind::Row),
        Expect::Count(n) => {
            last.kind == FrameKind::Ok
                && rows.len() == 1
                && rows[0].kind == FrameKind::Row
                && rows[0].payload == n.to_string()
        }
    }
}

/// The in-process oracle: what a `Session` on the daemon's hardware
/// and options prints for a statement, as the frames the daemon's
/// statement path would send.
pub struct Oracle {
    session: Session,
}

impl Oracle {
    /// A session with the 8 named plans prepared, like every connection.
    pub fn new() -> Oracle {
        let mut session = Session::lofar();
        for (name, text, _) in named_plans() {
            session
                .execute(&format!("prepare {name} as {text}"))
                .expect("named plan prepares in process");
        }
        Oracle { session }
    }

    /// The daemon's engine step: parse the payload and execute each
    /// statement; a parse error is the payload's single outcome.
    fn execute(&mut self, text: &str) -> Vec<Result<SessionReply, String>> {
        match scsq_ql::parse_program(text) {
            Ok(statements) => statements
                .iter()
                .map(|stmt| {
                    self.session
                        .execute_statement(stmt)
                        .map_err(|e| e.to_string())
                })
                .collect(),
            Err(e) => vec![Err(e.to_string())],
        }
    }

    /// The daemon's render step: rows and summary (or the error) of
    /// each outcome, as frame kind and payload.
    fn render(outcomes: &[Result<SessionReply, String>]) -> Vec<(FrameKind, String)> {
        let mut frames = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(reply) => {
                    frames.extend(reply.rows().into_iter().map(|r| (FrameKind::Row, r)));
                    frames.push((FrameKind::Ok, reply.summary()));
                }
                Err(e) => frames.push((FrameKind::Err, e.clone())),
            }
        }
        frames
    }

    /// The reply frames for one `STMT` payload.
    pub fn reply(&mut self, text: &str) -> Vec<(FrameKind, String)> {
        Oracle::render(&self.execute(text))
    }
}

/// One connection's state in the generator.
struct Client {
    conn: Conn,
    deck: Deck,
    tracer: Tracer,
    /// First reply seen per distinct text; repeats must equal it, and
    /// the oracle checks each distinct text once after the window.
    seen: HashMap<String, Vec<Frame>>,
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// A timeout or disconnect ends this connection's loop.
    dead: bool,
}

impl Client {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }

    /// One closed-loop statement: send, wait for the whole reply,
    /// verify. Returns the round-trip latency in ms.
    fn step(&mut self, id: u64) -> Option<f64> {
        let (text, expect) = self.deck.draw();
        self.attempted += 1;
        let root = self.tracer.begin("statement", id);
        let t0 = Instant::now();
        let s = self.tracer.begin("send", id);
        let sent = self.conn.send(&text);
        self.tracer.end(s);
        let s = self.tracer.begin("recv", id);
        let reply = sent.and_then(|()| self.conn.recv_reply());
        self.tracer.end(s);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let s = self.tracer.begin("verify", id);
        let latency = match reply {
            Ok(frames) => {
                if !shape_ok(&frames, expect) {
                    self.fail(format!("`{text}`: wrong reply {frames:?}"));
                } else if let Some(first) = self.seen.get(&text) {
                    if *first != frames {
                        self.fail(format!("`{text}`: reply changed between runs"));
                    }
                } else {
                    self.seen.insert(text, frames);
                }
                Some(ms)
            }
            Err(e) => {
                self.fail(format!("`{text}`: {e}"));
                self.dead = true;
                None
            }
        };
        self.tracer.end(s);
        self.tracer.end(root);
        latency
    }

    /// Statements until `stop` says so; latencies are kept when `keep`.
    fn run_until(&mut self, keep: bool, mut stop: impl FnMut(usize) -> bool) {
        let mut done = 0;
        while !self.dead && !stop(done) {
            let id = self.attempted;
            if let (Some(ms), true) = (self.step(id), keep) {
                self.lat_ms.push(ms);
            }
            done += 1;
        }
    }
}

/// Everything set-up builds: the daemon and its prepared connections.
struct Served {
    daemon: Daemon,
    clients: Vec<Client>,
}

/// Spawn → `LISTEN` → connect → `HELLO` → prepares → first `run`.
fn setup(cfg: &Config, tracer: &mut Tracer, out: &mut Outcome) -> Result<Served, String> {
    let s = tracer.begin("spawn_listen", 0);
    let daemon = Daemon::spawn_tcp(&cfg.scsqd).map_err(|e| format!("spawn scsqd: {e}"));
    tracer.end(s);
    let daemon = daemon?;
    let mut clients = Vec::new();
    for c in 0..CONNECTIONS {
        let s = tracer.begin("connect", c as u64);
        let conn = daemon.connect().map_err(|e| format!("connect: {e}"));
        tracer.end(s);
        let mut conn = conn?;
        for (name, text, _) in named_plans() {
            out.attempted += 1;
            let s = tracer.begin("prepare", c as u64);
            let reply = conn.statement(&format!("prepare {name} as {text}"));
            tracer.end(s);
            match reply {
                Ok(frames) if frames.last().map(|f| f.kind) == Some(FrameKind::Ok) => {}
                other => return Err(format!("prepare {name}: {other:?}")),
            }
        }
        clients.push(Client {
            conn,
            deck: Deck::new(cfg.seed, c),
            tracer: Tracer::off(),
            seen: HashMap::new(),
            lat_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            dead: false,
        });
    }
    // Time to first result: the first `run` on the first connection.
    let s = tracer.begin("first_run", 0);
    out.attempted += 1;
    let first = clients[0].conn.statement("run p2p;");
    tracer.end(s);
    match first {
        Ok(frames) if shape_ok(&frames, Expect::Count(ARRAYS as i64)) => {}
        other => return Err(format!("first run: {other:?}")),
    }
    Ok(Served { daemon, clients })
}

/// Runs `f` on every live connection in its own thread and waits.
fn on_each(clients: &mut [Client], f: impl Fn(&mut Client) + Sync) {
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            let f = &f;
            s.spawn(move || f(c));
        }
    });
}

/// Reads the daemon's `.server` counters through a session.
fn server_counters(conn: &mut Conn) -> Option<json::Json> {
    let frames = conn.statement(".server").ok()?;
    let info = frames.iter().find(|f| f.kind == FrameKind::Info)?;
    json::parse(&info.payload).ok()
}

/// Per-statement medians of an in-process replica of the daemon's
/// statement path — parse → `Session::execute_statement` → rows /
/// summary → `write_frame` into a `Vec` — over one seeded deck block.
/// Returns (engine µs, render µs, frame µs).
fn replica_medians(seed: u64) -> (f64, f64, f64) {
    let mut oracle = Oracle::new();
    let mut deck = Deck::new(seed, 0);
    let (mut engine, mut render, mut frame) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..100 {
        let (text, _) = deck.draw();
        let t0 = Instant::now();
        let outcomes = oracle.execute(&text);
        let t1 = Instant::now();
        let rendered = Oracle::render(&outcomes);
        let t2 = Instant::now();
        buf.clear();
        for (kind, payload) in &rendered {
            write_frame(&mut buf, *kind, payload).expect("write to a Vec");
        }
        let t3 = Instant::now();
        engine.push((t1 - t0).as_secs_f64() * 1e6);
        render.push((t2 - t1).as_secs_f64() * 1e6);
        frame.push((t3 - t2).as_secs_f64() * 1e6);
    }
    (
        stats::median(&engine),
        stats::median(&render),
        stats::median(&frame),
    )
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome {
        work_unit: "statements",
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(cfg.trace, epoch);

    // `--smoke` keeps the structure and drops the repetitions.
    let cycles = if cfg.trace || cfg.smoke {
        1
    } else {
        SETUP_CYCLES
    };
    let (warmup, traced_statements) = if cfg.smoke {
        (2, 5)
    } else {
        (WARMUP_STATEMENTS, TRACED_STATEMENTS)
    };
    let mut served = None;
    for cycle in 0..cycles {
        // Reap the previous cycle's daemon before spawning the next.
        drop(served.take());
        let root = tracer.begin("setup", cycle as u64);
        let t0 = Instant::now();
        let built = setup(cfg, &mut tracer, &mut out);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        tracer.end(root);
        match built {
            Ok(s) => served = Some(s),
            Err(e) => {
                // No daemon, no workload: one failed operation and a
                // finished run.
                out.attempted += 1;
                out.fail(|| e);
                return out;
            }
        }
    }
    let Served {
        daemon,
        mut clients,
    } = served.expect("at least one set-up cycle");

    on_each(&mut clients, |c| c.run_until(false, |done| done >= warmup));

    let budget = if cfg.trace {
        cfg.seconds.min(TRACE_REFERENCE_S)
    } else {
        cfg.seconds
    };
    let window = Instant::now();
    on_each(&mut clients, |c| {
        c.run_until(true, |_| window.elapsed().as_secs_f64() >= budget)
    });
    out.timed_s = window.elapsed().as_secs_f64();
    out.host_slowdown = 1.0;
    for c in &mut clients {
        out.work += c.lat_ms.len() as f64;
        out.op_ms.append(&mut c.lat_ms);
    }
    out.ops_timed = out.op_ms.len() as u64;

    if cfg.trace {
        let untraced_p50 = stats::median(&out.op_ms);
        on_each(&mut clients, |c| {
            c.tracer = Tracer::new(true, epoch);
            let root = c.tracer.begin("connection", c.deck.conn);
            c.run_until(true, |done| done >= traced_statements);
            c.tracer.end(root);
        });
        let mut traced = Vec::new();
        for c in &mut clients {
            traced.append(&mut c.lat_ms);
            tracer.absorb(std::mem::replace(&mut c.tracer, Tracer::off()));
        }
        if !traced.is_empty() && untraced_p50 > 0.0 {
            out.trace_overhead_share = stats::median(&traced) / untraced_p50 - 1.0;
        }
        out.trace_closure_error_share = trace::closure_error_share(tracer.spans());

        let (engine, render, frame) = replica_medians(cfg.seed);
        let rtt_us = untraced_p50 * 1e3;
        for (name, v) in [
            ("served.trace.engine_us", engine),
            ("served.trace.render_us", render),
            ("served.trace.frame_us", frame),
            (
                "served.trace.socket_residual_us",
                rtt_us - engine - render - frame,
            ),
        ] {
            out.layer.insert(name.to_string(), v);
        }
        if let Some(counters) = server_counters(&mut clients[0].conn) {
            let get = |k: &str| counters.get(k).and_then(json::Json::as_f64).unwrap_or(0.0);
            let (compiled, hits) = (get("compilations"), get("plan_cache_hits"));
            out.layer.insert("core.compilations".into(), compiled);
            out.layer.insert("core.plan_cache_hits".into(), hits);
            out.layer
                .insert("core.plan_cache_len".into(), get("plan_cache_len"));
            if compiled + hits > 0.0 {
                out.layer
                    .insert("core.plan_cache_hit_ratio".into(), hits / (compiled + hits));
            }
        }
        crate::write_trace(cfg, "served_mix", tracer.spans());
    }

    // Deep check, outside the timed window: every distinct statement's
    // reply equals what an in-process session prints for it.
    let mut oracle = Oracle::new();
    // The simulated behaviour of the fixed part of the mix: what the
    // named plans and `show catalog;` print.
    let mut digest = super::Digest::default();
    for (name, _, _) in named_plans() {
        for (_, payload) in oracle.reply(&format!("run {name};")) {
            payload.bytes().for_each(|b| digest.word(u64::from(b)));
        }
    }
    out.digest = digest.value();
    for c in &mut clients {
        let mut texts: Vec<&String> = c.seen.keys().collect();
        texts.sort();
        let mut wrong = Vec::new();
        for text in texts {
            let want = oracle.reply(text);
            let got: Vec<(FrameKind, String)> = c.seen[text]
                .iter()
                .map(|f| (f.kind, f.payload.clone()))
                .collect();
            if got != want {
                wrong.push(format!("`{text}`: daemon {got:?}, in-process {want:?}"));
            }
        }
        for w in wrong {
            c.fail(w);
        }
        out.attempted += c.attempted;
        out.failed += c.failed;
        for e in c.errors.drain(..) {
            if out.errors.len() < 8 {
                out.errors.push(e);
            }
        }
    }
    out.peak_rss_kb = daemon.peak_rss_kb();
    drop(clients);
    drop(daemon);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_a_deck_has_the_fixed_mix() {
        let mut deck = Deck::new(7, 1);
        let pool: Vec<String> = (0..POOL)
            .map(|i| gen::p2p_query(BYTES + 8 * i, ARRAYS))
            .collect();
        for _ in 0..3 {
            let (mut run, mut select, mut show, mut bad) = (0, 0, 0, 0);
            let mut fresh = std::collections::HashSet::new();
            for _ in 0..100 {
                let (text, expect) = deck.draw();
                if text.starts_with("run ") {
                    run += 1;
                } else if text == "show catalog;" {
                    show += 1;
                } else if expect == Expect::Err {
                    bad += 1;
                } else {
                    select += 1;
                    if !pool.contains(&text) {
                        assert!(fresh.insert(text), "never-seen texts never repeat");
                    }
                }
            }
            assert_eq!((run, select, show, bad), (80, 15, 4, 1));
            assert_eq!(fresh.len(), 5);
        }
    }

    #[test]
    fn decks_are_seeded() {
        let draw = |seed| {
            let mut d = Deck::new(seed, 0);
            (0..50).map(|_| d.draw().0).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn oracle_matches_the_closed_forms_and_errs_on_garbage() {
        let mut oracle = Oracle::new();
        for (name, _, expect) in named_plans() {
            let reply = oracle.reply(&format!("run {name};"));
            assert_eq!(reply[0], (FrameKind::Row, expect.to_string()), "{name}");
            assert_eq!(reply[1].0, FrameKind::Ok);
        }
        let reply = oracle.reply("select from where;");
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0].0, FrameKind::Err);
        let catalog = oracle.reply("show catalog;");
        assert_eq!(catalog.len(), 9, "8 prepared plans and the OK");
    }

    #[test]
    fn shape_check_accepts_only_the_expected_reply() {
        let f = |kind, payload: &str| Frame {
            kind,
            payload: payload.to_string(),
        };
        let ok = [
            f(FrameKind::Row, "10"),
            f(FrameKind::Ok, "-- 1 value in 1ms"),
        ];
        assert!(shape_ok(&ok, Expect::Count(10)));
        assert!(!shape_ok(&ok, Expect::Count(11)));
        assert!(!shape_ok(&ok, Expect::Err));
        assert!(shape_ok(&[f(FrameKind::Err, "boom")], Expect::Err));
        assert!(!shape_ok(&[], Expect::Ok));
    }
}
