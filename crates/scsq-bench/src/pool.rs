//! A deterministic scoped-thread worker pool for sweep jobs.
//!
//! Figure sweeps are embarrassingly parallel — every `(sweep point,
//! repetition)` simulation is independent — but their *results* must be
//! assembled in a fixed order so a parallel run is bit-identical to a
//! sequential one. [`run_indexed`] does exactly that: jobs carry their
//! index, workers claim indices from a shared atomic counter, and the
//! result vector is rebuilt in index order regardless of which worker
//! finished when. Determinism therefore does not depend on thread
//! scheduling at all; only the wall-clock does.
//!
//! Jobs are `FnOnce() -> T + Send` *without* a `'static` bound — the
//! pool runs under [`std::thread::scope`], so closures may borrow the
//! sweep's shared inputs (the base hardware spec, prepared query plans)
//! directly from the caller's stack.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Every flag a bench binary understands, and whether it takes a value
/// (`--flag V` / `--flag=V`).
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--csv", false),
    ("--profile", false),
    ("--jobs", true),
    ("--metrics", true),
    ("--trace", true),
];

/// The one argument walk behind every `parse_*`: `None` when `name` is
/// absent, else its value (`None` for a presence flag, or a value flag
/// at the end of the line). A `--flag` outside [`FLAGS`] aborts with a
/// usage message and exit code 2 — a misspelt or retired switch must
/// not quietly run the default.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<Option<&'a str>> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        let Some(&(_, takes_value)) = FLAGS.iter().find(|(f, _)| *f == flag) else {
            if flag.starts_with("--") {
                eprintln!(
                    "unknown flag {flag}; flags: --quick --csv --jobs N --metrics PATH \
                     --profile --trace PATH"
                );
                std::process::exit(2);
            }
            continue;
        };
        let value = match inline {
            None if takes_value => it.next().map(String::as_str),
            inline => inline,
        };
        if flag == name && found.is_none() {
            found = Some(value);
        }
    }
    found
}

/// Parses a `--jobs N` / `--jobs=N` command-line flag, defaulting to
/// [`default_jobs`] when absent. `N` must be a positive integer;
/// anything else aborts with a usage message, matching the bench
/// binaries' handling of bad input.
pub fn parse_jobs(args: &[String]) -> usize {
    let Some(value) = flag_value(args, "--jobs") else {
        return default_jobs();
    };
    match value.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => {
            eprintln!("--jobs expects a positive integer (e.g. --jobs 4)");
            std::process::exit(2);
        }
    }
}

/// Parses a `--name PATH` / `--name=PATH` flag; an empty or missing
/// path aborts with a usage message.
fn parse_path(args: &[String], name: &str) -> Option<String> {
    match flag_value(args, name)? {
        Some(path) if !path.is_empty() => Some(path.to_string()),
        _ => {
            eprintln!("{name} expects an output path (e.g. {name} out.json)");
            std::process::exit(2);
        }
    }
}

/// Parses a `--metrics PATH` / `--metrics=PATH` command-line flag:
/// where to write the aggregated [`scsq_core::metrics`] hub snapshot
/// after the run (`None` when absent — the hub then stays disabled and
/// costs one atomic load per query). An empty path aborts with a usage
/// message.
pub fn parse_metrics(args: &[String]) -> Option<String> {
    parse_path(args, "--metrics")
}

/// Parses the `--profile` presence flag: when given, the binary runs
/// one representative execution of its workload under the
/// explain-analyze profiler and prints the per-stage table
/// ([`crate::profile_representative`]). Off by default — the sweeps
/// themselves are never profiled, so the figures stay unperturbed.
pub fn parse_profile(args: &[String]) -> bool {
    flag_value(args, "--profile").is_some()
}

/// Parses a `--trace PATH` / `--trace=PATH` command-line flag: where to
/// write the representative run's flight-recorder spans in Chrome
/// trace-event format (`None` when absent — the span gate then stays
/// off and costs one relaxed atomic load per site). An empty path
/// aborts with a usage message.
pub fn parse_trace(args: &[String]) -> Option<String> {
    parse_path(args, "--trace")
}

/// Runs every job and returns their results in job order.
///
/// With `workers <= 1` (or fewer than two jobs) the jobs run inline on
/// the calling thread, in order — the sequential reference path. With
/// more workers, `min(workers, jobs)` scoped threads drain the job list;
/// the returned vector is indexed identically either way.
///
/// # Panics
///
/// If a job panics, the panic is propagated to the caller (after the
/// scope joins the remaining workers).
pub fn run_indexed<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    // Each job sits in its own slot; a worker takes the job at the index
    // it claimed and deposits the result in the matching result slot.
    let job_slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = job_slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let result = job();
                *result_slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    result_slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("job {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger completion so later jobs often finish first.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i * i
                }
            })
            .collect();
        let out = run_indexed(jobs, 8);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let make = || (0..40).map(|i| move || i * 3 + 1).collect::<Vec<_>>();
        assert_eq!(run_indexed(make(), 1), run_indexed(make(), 4));
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let base = vec![10, 20, 30];
        let jobs: Vec<_> = (0..base.len())
            .map(|i| {
                let base = &base;
                move || base[i] + 1
            })
            .collect();
        assert_eq!(run_indexed(jobs, 2), vec![11, 21, 31]);
    }

    #[test]
    fn zero_workers_degrades_to_sequential() {
        let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_indexed(jobs, 0), vec![0, 1, 2]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = Vec::new();
        assert!(run_indexed(jobs, 4).is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_indexed(jobs, 16), vec![0, 1]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn parse_jobs_reads_both_flag_forms() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs(&to_args(&["--quick", "--jobs", "4"])), 4);
        assert_eq!(parse_jobs(&to_args(&["--jobs=7", "--csv"])), 7);
        assert_eq!(parse_jobs(&to_args(&["--quick"])), default_jobs());
    }

    #[test]
    fn parse_profile_and_trace_read_their_flags() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_profile(&to_args(&["--quick", "--profile"])));
        assert!(!parse_profile(&to_args(&["--quick"])));
        assert_eq!(
            parse_trace(&to_args(&["--trace", "out.json"])).as_deref(),
            Some("out.json")
        );
        assert_eq!(
            parse_trace(&to_args(&["--trace=t.json", "--csv"])).as_deref(),
            Some("t.json")
        );
        assert_eq!(parse_trace(&to_args(&["--quick"])), None);
    }
}
