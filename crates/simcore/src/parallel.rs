//! A dependency-free deterministic job pool.
//!
//! Experiments, claim checks and fleet shards are embarrassingly
//! parallel: every job is a self-contained computation with its own
//! seed, and nothing about a job's *result* depends on when or where it
//! ran. [`run_jobs_on`] exploits that: jobs are claimed from a shared
//! cursor by a fixed set of scoped worker threads, and results land in
//! a slot per job index — so the returned `Vec` is always in submission
//! order, byte-identical to running the jobs sequentially, no matter
//! how the scheduler interleaves the workers. Wall-clock drops from the
//! sum of job times to roughly the longest chain a single worker picks
//! up.
//!
//! Jobs may carry a label ([`run_labeled_jobs_on`]); a panicking job
//! then surfaces as `job '<label>' panicked: <payload>` on the calling
//! thread instead of an anonymous worker-thread abort, which is the
//! difference between "experiment R-6 failed" and a bare backtrace.

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count [`run_jobs`] uses: one per available core.
pub fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Runs `jobs` across [`default_threads`] workers; results come back in
/// submission order. See [`run_jobs_on`].
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_jobs_on(default_threads(), jobs)
}

/// Runs `jobs` on up to `threads` scoped worker threads and returns the
/// results in submission order (index `i` of the output is job `i`'s
/// result, regardless of which worker ran it or when it finished).
///
/// With one thread — or one job — this degenerates to a plain sequential
/// loop on the calling thread, so a single-core runner pays no
/// synchronization cost.
///
/// # Panics
///
/// If a job panics, the panic is re-raised on the calling thread as
/// `job '#<index>' panicked: <payload>`.
pub fn run_jobs_on<T, F>(threads: NonZeroUsize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let labeled = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| (format!("#{i}"), job))
        .collect();
    run_labeled_jobs_on(threads, labeled)
}

/// Like [`run_jobs_on`], but each job carries a label that identifies it
/// in the pool's panic message should it panic.
///
/// # Panics
///
/// If a job panics, the panic is re-raised on the calling thread as
/// `job '<label>' panicked: <payload>` once every worker has stopped.
/// When several jobs panic, the one with the lowest submission index is
/// reported.
pub fn run_labeled_jobs_on<T, F>(threads: NonZeroUsize, jobs: Vec<(String, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = jobs.len();
    let workers = threads.get().min(total);
    if workers <= 1 {
        return jobs
            .into_iter()
            .map(|(label, job)| run_one(&label, job))
            .collect();
    }

    // One take-once cell per job, one write-once slot per result. The
    // cursor hands out job indexes; a worker runs its claimed job
    // *outside* any lock, then deposits the result at the same index. A
    // panicking job deposits its label + payload instead, and the first
    // (by submission order) failure is re-raised after the scope joins.
    let queue: Vec<Mutex<Option<(String, F)>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let slots: Vec<Mutex<Option<JobResult<T>>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let job = queue
                    .get(i)
                    .and_then(|cell| cell.lock().ok())
                    .and_then(|mut guard| guard.take());
                let Some((label, job)) = job else { continue };
                let result = match std::panic::catch_unwind(AssertUnwindSafe(job)) {
                    Ok(value) => JobResult::Done(value),
                    Err(payload) => JobResult::Panicked(label, payload_message(payload.as_ref())),
                };
                if let Some(slot) = slots.get(i) {
                    if let Ok(mut guard) = slot.lock() {
                        *guard = Some(result);
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Ok(Some(JobResult::Done(result))) => result,
            Ok(Some(JobResult::Panicked(label, message))) => {
                panic!("job '{label}' panicked: {message}")
            }
            // Unreachable: every index below `total` is claimed exactly
            // once and deposits exactly one result.
            _ => unreachable!("job result missing"),
        })
        .collect()
}

enum JobResult<T> {
    Done(T),
    Panicked(String, String),
}

fn run_one<T, F>(label: &str, job: F) -> T
where
    F: FnOnce() -> T,
{
    match std::panic::catch_unwind(AssertUnwindSafe(job)) {
        Ok(value) => value,
        Err(payload) => {
            let message = payload_message(payload.as_ref());
            panic!("job '{label}' panicked: {message}")
        }
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("positive")
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..50u64).map(|i| move || i * i).collect();
        let results = run_jobs_on(threads(4), jobs);
        let expected: Vec<u64> = (0..50).map(|i| i * i).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn parallel_matches_sequential() {
        let make = || {
            (0..32u64)
                .map(|i| move || i.wrapping_mul(2654435761))
                .collect::<Vec<_>>()
        };
        let sequential = run_jobs_on(threads(1), make());
        let parallel = run_jobs_on(threads(8), make());
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3u64).map(|i| move || i + 1).collect();
        assert_eq!(run_jobs_on(threads(16), jobs), vec![1, 2, 3]);
    }

    #[test]
    fn empty_job_list_returns_empty() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = Vec::new();
        assert!(run_jobs_on(threads(4), jobs).is_empty());
    }

    #[test]
    fn boxed_jobs_heterogeneous_closures() {
        // The harness submits boxed closures of differing captures.
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "alpha".to_owned()),
            Box::new(|| format!("beta-{}", 2)),
        ];
        assert_eq!(
            run_jobs(jobs),
            vec!["alpha".to_owned(), "beta-2".to_owned()]
        );
    }

    #[test]
    fn panicking_job_reports_its_label() {
        let jobs: Vec<(String, Box<dyn FnOnce() -> u64 + Send>)> = vec![
            ("fine".to_owned(), Box::new(|| 1)),
            (
                "shard-3".to_owned(),
                Box::new(|| panic!("divergent checksum")),
            ),
            ("also-fine".to_owned(), Box::new(|| 3)),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_labeled_jobs_on(threads(4), jobs);
        }))
        .expect_err("pool should propagate the job panic");
        let message = payload_message(err.as_ref());
        assert!(
            message.contains("shard-3") && message.contains("divergent checksum"),
            "panic message should carry the job label: {message}"
        );
    }

    #[test]
    fn panicking_job_reports_its_label_sequentially() {
        // The single-thread fast path must label panics the same way.
        let jobs: Vec<(String, Box<dyn FnOnce() -> u64 + Send>)> =
            vec![("lonely".to_owned(), Box::new(|| panic!("boom")))];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_labeled_jobs_on(threads(1), jobs);
        }))
        .expect_err("sequential path should propagate the job panic");
        let message = payload_message(err.as_ref());
        assert!(
            message.contains("lonely") && message.contains("boom"),
            "panic message should carry the job label: {message}"
        );
    }

    #[test]
    fn unlabeled_panics_fall_back_to_job_index() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            vec![Box::new(|| 0), Box::new(|| panic!("oops"))];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_on(threads(2), jobs);
        }))
        .expect_err("pool should propagate the job panic");
        let message = payload_message(err.as_ref());
        assert!(
            message.contains("#1") && message.contains("oops"),
            "panic message should carry the job index: {message}"
        );
    }
}
