//! # qufi-serve — the crash-safe multi-tenant campaign daemon
//!
//! A line-delimited JSON-over-TCP service that accepts campaign
//! manifests, runs them through a pluggable [`JobHandler`], and survives
//! every failure mode the batch CLI already survives — plus the ones a
//! long-lived daemon adds:
//!
//! * **Durable queue.** Every accepted job is persisted (atomic
//!   write-then-rename) before the client sees `ok`. A daemon killed
//!   mid-run recovers its queue on restart and resumes exactly where the
//!   checkpoints left off — the handler's artifacts are byte-identical
//!   to an uninterrupted run (see the batch runner's determinism
//!   contract).
//! * **Idempotent submission.** Jobs are content-addressed by a
//!   [`SeedHasher`](qufi_core::engine::SeedHasher) hash of the canonical
//!   manifest; resubmitting a queued/running/finished campaign returns
//!   the existing job instead of forking a duplicate.
//! * **Backpressure, not buffering.** The admission queue and the
//!   connection count are bounded; past the bound, clients get a
//!   structured `overloaded` rejection immediately. Memory use does not
//!   scale with abuse.
//! * **Deadlines everywhere.** Sockets carry read/write timeouts (a
//!   slow-loris client times out; a torn frame is dropped without
//!   wedging a thread), requests have a byte cap, and jobs have an
//!   optional wall-clock timeout that cancels cooperatively — leaving a
//!   resumable checkpoint, not a corpse.
//! * **Supervision.** Handler panics are caught; a job that fails
//!   [`Config::max_strikes`] times is quarantined as *poisoned* rather
//!   than crash-looping the daemon. Worker threads that die are
//!   restarted on a deterministic capped backoff
//!   ([`qufi_core::retry::Backoff`]).
//! * **Graceful drain.** Shutdown stops admissions, finishes (or, in
//!   `now` mode, checkpoints) in-flight jobs, persists the rest of the
//!   queue, and exits cleanly.
//!
//! The daemon is generic over the work it runs: [`JobHandler`]
//! abstracts "canonicalize a manifest" and "run a campaign under a
//! directory with a cancel flag", so the crate's own tests drive the
//! full protocol/queue/supervision surface with a millisecond-scale
//! stub while the `qufi` CLI plugs in the real checkpointed campaign
//! runner. See `protocol` for the wire format.

pub mod client;
pub mod protocol;
mod server;
mod state;
pub mod store;
mod worker;

pub use server::Server;
pub use store::{JobRecord, JobState};
pub use worker::panic_message;

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Daemon tuning. Every bound is explicit — the failure behavior at
/// each limit is a structured error, never an unbounded buffer.
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address (`127.0.0.1:7077`; port 0 binds an ephemeral port,
    /// published in `<dir>/serve.addr`).
    pub addr: String,
    /// Service state directory: job records, campaign directories, the
    /// bound-address file and `metrics.json` live here.
    pub dir: PathBuf,
    /// Worker threads executing jobs (minimum 1).
    pub workers: usize,
    /// Admission-queue bound; submissions past it are shed with
    /// `overloaded`.
    pub queue_cap: usize,
    /// Concurrent-connection bound; connections past it are answered
    /// with `overloaded` and closed.
    pub conn_cap: usize,
    /// Request line byte cap; longer frames get `too_large`.
    pub max_request: usize,
    /// Socket read/write deadline — the slow-loris bound.
    pub io_timeout: Duration,
    /// Per-job wall-clock timeout (`None` = unbounded). A timed-out job
    /// is canceled cooperatively and marked failed; its checkpoints
    /// remain resumable.
    pub job_timeout: Option<Duration>,
    /// Failures (errors or panics) before a job is quarantined as
    /// poisoned.
    pub max_strikes: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:7077".to_string(),
            dir: PathBuf::from("qufi-serve"),
            workers: 2,
            queue_cap: 64,
            conn_cap: 32,
            max_request: 256 * 1024,
            io_timeout: Duration::from_secs(10),
            job_timeout: None,
            max_strikes: 3,
        }
    }
}

/// How a handler's run ended (errors are the `Err` channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerOutcome {
    /// The campaign ran to completion; artifacts are exported.
    Complete,
    /// The cancel flag stopped the run early; checkpoints are resumable.
    Stopped,
}

/// The work the daemon schedules. Implementations must be cheap to
/// share across threads; `run` is called from worker threads and must
/// honor `cancel` promptly (the runner's cooperative-cancellation flag).
pub trait JobHandler: Send + Sync + 'static {
    /// Validates `manifest` and returns `(canonical_text, display_name)`.
    /// The canonical text is the daemon's content-address input: two
    /// manifests that canonicalize identically are the same job.
    ///
    /// # Errors
    ///
    /// A human-readable validation message (surfaced to the client as
    /// an `invalid_manifest` rejection).
    fn canonicalize(&self, manifest: &str) -> Result<(String, String), String>;

    /// Runs (or resumes) the campaign for `manifest` under `dir`,
    /// stopping early when `cancel` flips true.
    ///
    /// # Errors
    ///
    /// A human-readable failure message; the daemon counts it as a
    /// strike toward quarantine.
    fn run(
        &self,
        manifest: &str,
        dir: &Path,
        cancel: &Arc<AtomicBool>,
    ) -> Result<HandlerOutcome, String>;
}

/// Content address of a canonical manifest: FNV-1a (the workspace's
/// [`SeedHasher`](qufi_core::engine::SeedHasher)) over its bytes,
/// rendered as a filesystem-safe id. FNV is not collision-resistant,
/// so the daemon never trusts the id alone: a submission whose id hits
/// an existing job with *different* canonical text is rejected as a
/// collision rather than deduped onto another tenant's job.
#[must_use]
pub fn job_id(canonical_manifest: &str) -> String {
    let h = qufi_core::engine::SeedHasher::new()
        .mix_bytes(canonical_manifest.as_bytes())
        .finish();
    format!("j{h:016x}")
}
