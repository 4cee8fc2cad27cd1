//! The deterministic fan-out behind every campaign pool and the grid
//! replay: `n` indexed tasks over scoped worker threads, with one contract
//! for every caller.
//!
//! - **Claim order.** Workers claim indices in increasing order from one
//!   shared counter, and [`run`] returns the outputs in index order.
//! - **Errors.** After a task fails, no worker claims a new index; tasks
//!   already claimed finish. The lowest failing index's error is returned.
//!   Every index below a failing one was claimed before it and runs to
//!   completion, so that error is the one a serial run reports, at every
//!   worker count.
//! - **Threads.** One worker runs inline on the caller's thread. Two or
//!   more run on scoped threads while the caller waits: an exiting thread
//!   hands its stack pages back to the OS, but the caller's stack would
//!   keep a task's high-water mark through whatever it runs next (the
//!   export after a campaign). Spawned workers merge their telemetry
//!   ([`qufi_obs::flush`]) before the scope joins them, so a snapshot
//!   taken after [`run`] sees every worker. A panicking task propagates
//!   its payload to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a thread budget: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Runs `task(0)` … `task(n - 1)` on up to `workers` threads (at least
/// one, at most `n`) and returns their outputs in index order.
///
/// # Errors
///
/// The error of the lowest failing index (see the module contract).
pub fn run<R: Send, E: Send>(
    n: usize,
    workers: usize,
    task: impl Fn(usize) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                return (done, None);
            }
            match task(i) {
                Ok(r) => done.push((i, r)),
                Err(e) => {
                    // Every later claim reads `n` or more and stops.
                    next.store(n, Ordering::SeqCst);
                    return (done, Some((i, e)));
                }
            }
        }
    };
    let workers = workers.clamp(1, n.max(1));
    let parts = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let part = work();
                        qufi_obs::flush();
                        part
                    })
                })
                .collect();
            spawned
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect::<Vec<_>>()
        })
    };
    let (mut done, mut failed) = (Vec::with_capacity(n), Vec::new());
    for (part, failure) in parts {
        done.extend(part);
        failed.extend(failure);
    }
    if let Some((_, e)) = failed.into_iter().min_by_key(|&(i, _)| i) {
        return Err(e);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn outputs_come_back_in_index_order() {
        for workers in [1, 2, 4, 8] {
            for n in [0, 1, 3, 200] {
                let Ok(out) = run(n, workers, |i| Ok::<_, Infallible>(i * i));
                let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expected, "n = {n}, workers = {workers}");
            }
        }
    }

    #[test]
    fn a_slow_low_index_failure_beats_a_fast_high_index_one() {
        for workers in [1, 2, 4] {
            let err = run(8, workers, |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                if i <= 1 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, 0, "workers = {workers}");
        }
    }

    #[test]
    fn one_worker_runs_inline_and_stops_at_the_failure() {
        let caller = std::thread::current().id();
        let ran = Mutex::new(Vec::new());
        let err = run(6, 1, |i| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "task {i} left the caller"
            );
            ran.lock().expect("no task panicked").push(i);
            if i == 2 {
                Err("task 2")
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "task 2");
        assert_eq!(ran.into_inner().expect("no task panicked"), [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "task 3 panicked")]
    fn a_panicking_task_propagates() {
        let _ = run(8, 4, |i| {
            assert_ne!(i, 3, "task 3 panicked");
            Ok::<_, Infallible>(i)
        });
    }
}
