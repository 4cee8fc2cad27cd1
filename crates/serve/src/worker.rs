//! Worker threads: claim a job, run the handler under a panic guard and
//! an optional wall-clock watchdog, record the outcome, retry with
//! deterministic backoff, and — if the worker thread itself dies — get
//! restarted by the supervisor on its own capped backoff schedule.

use crate::state::{Finish, Shared};
use crate::HandlerOutcome;
use qufi_core::retry::Backoff;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Base of the per-job retry schedule.
const RETRY_BASE: Duration = Duration::from_millis(50);
/// Cap of the per-job retry schedule.
const RETRY_CAP: Duration = Duration::from_secs(2);
/// Worker restarts before the supervisor gives the slot up.
const MAX_WORKER_RESTARTS: u32 = 5;

/// The message of a `panic!` payload (a literal or a formatted string), if
/// it carries one — for turning a caught panic into a failure record.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

/// Sleeps `total` in small slices, bailing early when the daemon drains
/// — a backed-off retry must not delay shutdown.
fn interruptible_sleep(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shared.draining() {
        thread::sleep(Duration::from_millis(10).min(total));
    }
}

fn run_one(shared: &Shared, id: &str, manifest: &str, cancel: &Arc<AtomicBool>) -> Finish {
    // The watchdog flips the job's cancel flag at the deadline; `done`
    // retires the watchdog when the handler beats it.
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = shared.cfg.job_timeout.map(|timeout| {
        let shared_id = id.to_string();
        let done = Arc::clone(&done);
        let deadline = Instant::now() + timeout;
        // The shared state outlives this bounded helper via the scope
        // below; scope guarantees join-before-return.
        (shared_id, done, deadline)
    });

    let dir = shared.store.job_dir(id);
    let span = qufi_obs::span("serve.job.run_ns");
    let outcome = thread::scope(|scope| {
        if let Some((watched_id, done, deadline)) = watchdog {
            scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    if Instant::now() >= deadline {
                        shared.flag_timeout(&watched_id);
                        return;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
            });
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            shared.handler.run(manifest, &dir, cancel)
        }));
        done.store(true, Ordering::SeqCst);
        result
    });
    span.finish();

    match outcome {
        Ok(Ok(HandlerOutcome::Complete)) => Finish::Done,
        Ok(Ok(HandlerOutcome::Stopped)) => Finish::Stopped,
        Ok(Err(message)) => Finish::Failed(message),
        Err(payload) => {
            let message =
                panic_message(&*payload).unwrap_or_else(|| "handler panicked".to_string());
            Finish::Failed(format!("panic: {message}"))
        }
    }
}

/// One worker: loop claiming jobs until drain. Job failures retry on a
/// deterministic backoff keyed by (job, strike) — two daemons replaying
/// the same failure history produce the same schedule.
fn worker_loop(shared: &Shared) {
    while let Some((record, cancel)) = shared.next_job() {
        let finish = run_one(shared, &record.id, &record.manifest, &cancel);
        if let Some(strikes) = shared.finish_job(&record.id, finish) {
            // Replay the schedule up to this strike: attempt N sleeps
            // the N-th delay of the job's deterministic schedule.
            let mut backoff =
                Backoff::new(RETRY_BASE, RETRY_CAP, shared.cfg.max_strikes, &record.id);
            let mut delay = RETRY_BASE;
            for _ in 0..strikes {
                if let Some(d) = backoff.next_delay() {
                    delay = d;
                }
            }
            interruptible_sleep(shared, delay);
            shared.readmit(&record.id);
        }
        qufi_obs::flush();
    }
    qufi_obs::flush();
}

/// Supervises one worker slot: respawns the thread if it dies (it
/// shouldn't — handler panics are caught inside — but the daemon must
/// outlive its own bugs), on a capped deterministic backoff. Returns
/// when the worker exits cleanly (drain) or the restart budget is
/// spent.
pub(crate) fn supervise_slot(shared: &Arc<Shared>, slot: usize) {
    let mut backoff = Backoff::new(
        RETRY_BASE,
        RETRY_CAP,
        MAX_WORKER_RESTARTS,
        &format!("worker-{slot}"),
    );
    loop {
        let worker_shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name(format!("qufi-serve-worker-{slot}"))
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn worker thread");
        match handle.join() {
            Ok(()) => return,
            Err(_) => {
                qufi_obs::add("serve.worker.restarts", 1);
                match backoff.next_delay() {
                    Some(delay) => {
                        qufi_obs::log::warn(&format!(
                            "serve: worker {slot} died; restarting in {delay:?}"
                        ));
                        interruptible_sleep(shared, delay);
                        if shared.draining() {
                            return;
                        }
                    }
                    None => {
                        qufi_obs::log::error(&format!(
                            "serve: worker {slot} exceeded its restart budget; slot retired"
                        ));
                        return;
                    }
                }
            }
        }
    }
}
