//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! scsq-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! scsq-benchmark suite [--seed N] [--runs R] [--seconds S] [--smoke] [--out FILE]
//! scsq-benchmark compare A.json B.json [--spreads FILE]
//! ```
//!
//! `run` measures one workload and prints every metric as
//! `name value unit`, then one JSON object as the last line of stdout.
//! `suite` runs every workload in child processes (so peak memory is
//! per workload), untraced `R` times and traced once, and writes
//! `results.json`. `compare` sets two such files side by side.

mod calib;
mod compare;
mod daemon;
mod gen;
mod json;
mod layers;
mod names;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use workloads::{Config, Outcome};

/// `VmHWM` (peak resident set, kB) from a `/proc/<pid>/status` file;
/// 0 when unreadable.
pub fn peak_rss_kb(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Writes `trace_<workload>.json` into the output directory.
pub fn write_trace(cfg: &Config, workload: &str, spans: &[trace::Span]) {
    let path = cfg.out_dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(workload, spans).to_pretty()));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

pub fn usage() -> ! {
    eprintln!(
        "usage: scsq-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]\n\
         \x20      scsq-benchmark suite [--seed N] [--runs R] [--seconds S] [--smoke] [--out FILE]\n\
         \x20      scsq-benchmark compare A.json B.json [--spreads FILE]\n\
         workloads: {}",
        names::WORKLOAD_WHY.map(|(name, _)| name).join(" ")
    );
    std::process::exit(2);
}

/// Flags of the form `--name value` plus bare switches and positionals.
pub struct Args {
    pub flags: BTreeMap<String, String>,
    switches: Vec<String>,
    pub positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Args {
        let mut out = Args {
            flags: BTreeMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else {
                    match args.next() {
                        Some(v) => {
                            out.flags.insert(name.to_string(), v);
                        }
                        None => usage(),
                    }
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flags.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| usage()),
            None => default,
        }
    }
}

/// The `scsqd` under test: built next to this binary by `run.sh`.
fn scsqd_path() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark has a path");
    exe.with_file_name("scsqd")
}

fn dispatch(workload: &str, cfg: &Config) -> Outcome {
    match workload {
        "paper_sweep" => workloads::drive::<workloads::grid::Grid<false>>(cfg, workload),
        "jittered_grid" => workloads::drive::<workloads::grid::Grid<true>>(cfg, workload),
        "element_pipeline" => workloads::drive::<workloads::element::Pipelines>(cfg, workload),
        "served_mix" => workloads::served::run(cfg),
        _ => usage(),
    }
}

/// The five end-to-end metrics of one run.
fn end_to_end(out: &Outcome) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), stats::median(&out.setup_s));
    m.insert("op_p50_ms".into(), stats::quantile(&out.op_ms, 0.50));
    m.insert("op_p95_ms".into(), stats::quantile(&out.op_ms, 0.95));
    m.insert("work_per_s".into(), out.work / out.timed_s);
    m.insert("peak_rss_mb".into(), out.peak_rss_kb as f64 / 1024.0);
    m
}

/// Estimated attribution of the operation wall: count × unit cost per
/// layer, as shares of the reference wall. What happens inside
/// `PreparedQuery::run` is not observable from outside, so this is an
/// estimate with its unexplained remainder stated.
fn attribute(m: &mut BTreeMap<String, f64>, out: &Outcome, workload: &str) {
    let v = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut shares = [0.0; 6];
    if workload == "served_mix" {
        let rtt = stats::median(&out.op_ms) * 1e3;
        if rtt > 0.0 {
            shares[4] = (v(m, "served.trace.engine_us") + v(m, "served.trace.render_us")) / rtt;
            shares[5] = v(m, "served.trace.frame_us") / rtt;
        }
    } else if !out.pass_s.is_empty() {
        let wall_ns = stats::median(&out.pass_s) * 1e9;
        // Only dispatched work costs host time: the coalescer advances
        // the counters of skipped periods analytically.
        let live = 1.0 - v(m, "sim.coalesce_skip_ratio");
        let dispatched = v(m, "engine.events") * live;
        let buffers = v(m, "transport.buffers_sent") * live;
        shares[0] = dispatched * v(m, "sim.step_ns_per_event") / wall_ns;
        shares[1] = buffers * v(m, "net.torus_transmit_1k_ns") / wall_ns;
        shares[2] = (buffers * (v(m, "cluster.marshal_ns") + v(m, "cluster.demarshal_ns"))
            + v(m, "engine.jitter_draws") * v(m, "cluster.compute_bulk_ns_per_elem"))
            / wall_ns;
        shares[3] = buffers * v(m, "transport.cycle_ns_per_buffer") / wall_ns;
    }
    for (name, share) in ["sim", "net", "cluster", "transport", "engine", "core"]
        .iter()
        .zip(shares)
    {
        m.insert(format!("attrib.{name}_share"), share);
    }
    m.insert(
        "attrib.unexplained_share".into(),
        1.0 - shares.iter().sum::<f64>(),
    );
}

/// Every per-layer metric of one traced run.
fn per_layer(out: &mut Outcome, cfg: &Config, workload: &str) -> BTreeMap<String, f64> {
    // Every name is present in every traced run; 0 = not on this
    // workload's path.
    let mut m: BTreeMap<String, f64> = names::PER_LAYER
        .iter()
        .map(|(name, _, _)| (name.to_string(), 0.0))
        .collect();
    m.extend(layers::measure(cfg, &mut out.errors));
    m.extend(std::mem::take(&mut out.layer));
    let buffers = m["transport.buffers_sent"];
    if buffers > 0.0 {
        m.insert(
            "engine.columnar_absorb_ratio".into(),
            m["engine.columnar_batches"] / buffers,
        );
    }
    // 48 bits survive the trip through a JSON number exactly.
    m.insert(
        "simtime.digest".into(),
        (out.digest & 0xffff_ffff_ffff) as f64,
    );
    m.insert("trace.overhead_share".into(), out.trace_overhead_share);
    m.insert(
        "trace.closure_error_share".into(),
        out.trace_closure_error_share,
    );
    if !out.pass_s.is_empty() {
        let s = stats::Summary::of(&out.pass_s);
        m.insert("pass.wall_s_median".into(), s.median);
        m.insert("pass.wall_s_q1".into(), s.q1);
        m.insert("pass.wall_s_q3".into(), s.q3);
        m.insert("pass.wall_s_mad".into(), s.mad);
        m.insert("pass.count".into(), s.n as f64);
    }
    m.insert("op.count".into(), out.ops_timed as f64);
    m.insert(
        "op.tail_percentile".into(),
        stats::highest_supported_percentile(out.ops_timed as usize).unwrap_or(0.0) / 100.0,
    );
    m.insert("setup.first_cycle_s".into(), out.setup_s[0]);
    attribute(&mut m, out, workload);
    if out.trace_closure_error_share > 0.10 {
        out.fail(|| "trace: self times do not close to within 10% of a root's wall".into());
    }
    m
}

fn run(args: &Args) -> ! {
    let workload: String = args.get("workload", String::new());
    let cfg = Config {
        seed: args.get("seed", 11),
        seconds: args.get("seconds", names::RUN_SECONDS as f64),
        smoke: args.has("smoke"),
        trace: args.get::<u8>("trace", 0) != 0,
        out_dir: PathBuf::from(args.get("out-dir", "benchmark/out".to_string())),
        scsqd: scsqd_path(),
    };
    let mut out = dispatch(&workload, &cfg);
    // A workload that could not measure anything reports one failed
    // operation and placeholder timings rather than dividing by zero.
    if out.op_ms.is_empty() {
        out.op_ms.push(0.0);
        out.timed_s = out.timed_s.max(f64::MIN_POSITIVE);
    }
    let metrics = if cfg.trace {
        per_layer(&mut out, &cfg, &workload)
    } else {
        end_to_end(&out)
    };
    // Name and unit, in the order names.rs lists them.
    let ordered: Vec<(&str, &str)> = if cfg.trace {
        names::PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        names::END_TO_END
            .iter()
            .map(|(n, u, _, _)| (*n, *u))
            .collect()
    };
    assert_eq!(ordered.len(), metrics.len(), "names.rs lists every metric");

    println!(
        "# {workload}  seed {}  {} s  trace {}  {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.smoke { "smoke" } else { "full" }
    );
    println!(
        "# work = {}; {} operations timed; {} set-up cycle(s)",
        out.work_unit,
        out.ops_timed,
        out.setup_s.len()
    );
    if !out.pass_s.is_empty() {
        let s = stats::Summary::of(&out.pass_s);
        println!(
            "# {} passes at nominal host speed: wall median {:.4} s, quartiles [{:.4}, {:.4}], \
             MAD {:.4}; host slowdown factor {:.3}",
            s.n, s.median, s.q1, s.q3, s.mad, out.host_slowdown
        );
    }
    let mut json_metrics = Json::obj();
    for (name, unit) in ordered {
        let value = metrics[name];
        println!("{name} {value} {unit}");
        json_metrics.set(
            name,
            Json::obj()
                .with("value", Json::Num(value))
                .with("unit", Json::Str(unit.to_string())),
        );
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("failed_share {share} ratio");
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    let line = Json::obj()
        .with(
            "correct",
            Json::Bool(out.failed == 0 && out.errors.is_empty()),
        )
        .with("attempted", Json::Int(out.attempted.max(1) as i64))
        .with("failed", Json::Int(out.failed as i64))
        .with("metrics", json_metrics);
    println!("{}", line.to_line());
    std::process::exit(0);
}

/// `BENCHMARK.json` as `names.rs` defines it (`scsq-benchmark
/// manifest`); the `names` tests fail when the committed file differs.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj()
        .with("command", strs(&["bash", "benchmark/run.sh"]))
        .with("paths", strs(&["benchmark"]))
        .with("run_seconds", Json::Int(names::RUN_SECONDS))
        .with(
            "workloads",
            Json::Arr(
                names::WORKLOAD_WHY
                    .iter()
                    .map(|(name, why)| {
                        Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("why", Json::Str(why.to_string()))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                names::END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("unit", Json::Str(unit.to_string()))
                            .with("better", Json::Str(better.as_str().to_string()))
                            .with("bound", Json::Num(*bound))
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                names::PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("unit", Json::Str(unit.to_string()))
                            .with("better", Json::Str(better.as_str().to_string()))
                    })
                    .collect(),
            ),
        )
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let args = Args::parse(argv, &["smoke"]);
    match mode.as_str() {
        "run" => run(&args),
        "suite" => suite::main(&args),
        "compare" => compare::main(&args),
        "manifest" => print!("{}", manifest().to_pretty()),
        _ => usage(),
    }
}
