//! `suite`: every workload, each run in a child process of this same
//! binary (so peak memory and lazily built state are per run), `R`
//! untraced runs with seeds `N..N+R` and one traced run, aggregated
//! into `results.json`.

use crate::json::{self, Json};
use crate::names;
use crate::stats;
use crate::Args;
use std::process::Command;

/// One child run: the parsed last line of its stdout.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // The child's stderr (failure reasons) passes straight through.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs the suite and writes the results file; exits 1 when any
/// operation failed.
pub fn main(args: &Args) -> ! {
    let seed: u64 = args.get("seed", 11);
    let runs: u64 = args.get("runs", 1).max(1);
    let smoke = args.has("smoke");
    let seconds: f64 = args.get(
        "seconds",
        if smoke {
            1.0
        } else {
            names::RUN_SECONDS as f64
        },
    );
    let out_path: String = args.get("out", "benchmark/out/results.json".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);

    let mut any_failed = false;
    let mut workloads = Json::obj();
    for (workload, why) in names::WORKLOAD_WHY {
        // A child that could not report counts as one failed operation.
        let mut children = Vec::new();
        for i in 0..runs {
            println!("## {workload}: untraced run {} of {runs}", i + 1);
            children.push(child(workload, seed + i, seconds, false, smoke));
        }
        println!("## {workload}: traced run");
        children.push(child(workload, seed, seconds, true, smoke));
        let (mut attempted, mut failed) = (0.0, 0.0);
        for c in &children {
            match c {
                Ok(r) => {
                    attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                    failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    any_failed |= r.get("correct") != Some(&Json::Bool(true));
                }
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    attempted += 1.0;
                    failed += 1.0;
                    any_failed = true;
                }
            }
        }
        let traced = children.pop().expect("the traced run was pushed last");
        let untraced: Vec<Json> = children.into_iter().flatten().collect();
        let mut e2e = Json::obj();
        for (name, unit, better, bound) in names::END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|r| metric_value(r, name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = stats::Summary::of(&values);
            e2e.set(
                name,
                Json::obj()
                    .with("unit", Json::Str(unit.to_string()))
                    .with("better", Json::Str(better.as_str().to_string()))
                    .with("bound", Json::Num(bound))
                    .with("n", Json::Int(s.n as i64))
                    .with("median", Json::Num(s.median))
                    .with("q1", Json::Num(s.q1))
                    .with("q3", Json::Num(s.q3))
                    .with("mad", Json::Num(s.mad))
                    .with("spread_share", Json::Num(stats::spread_share(&values)))
                    .with(
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
            );
        }
        let mut layers = Json::obj();
        for (name, unit, better) in names::PER_LAYER {
            if let Some(v) = traced.as_ref().ok().and_then(|r| metric_value(r, name)) {
                layers.set(
                    name,
                    Json::obj()
                        .with("value", Json::Num(v))
                        .with("unit", Json::Str(unit.to_string()))
                        .with("better", Json::Str(better.as_str().to_string())),
                );
            }
        }
        workloads.set(
            workload,
            Json::obj()
                .with("why", Json::Str(why.to_string()))
                .with("attempted", Json::Num(attempted))
                .with("failed", Json::Num(failed))
                .with(
                    "failed_share",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        1.0
                    }),
                )
                .with("end_to_end", e2e)
                .with("per_layer", layers),
        );
    }
    let results = Json::obj()
        .with("schema", Json::Int(1))
        .with("seed", Json::Int(seed as i64))
        .with("runs", Json::Int(runs as i64))
        .with("seconds", Json::Num(seconds))
        .with("smoke", Json::Bool(smoke))
        .with("host_nproc", Json::Int(nproc as i64))
        .with("workloads", workloads);
    let path = std::path::Path::new(&out_path);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, results.to_pretty()));
    match written {
        Ok(()) => println!("## wrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            any_failed = true;
        }
    }
    std::process::exit(i32::from(any_failed));
}
