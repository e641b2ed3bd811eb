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
}
