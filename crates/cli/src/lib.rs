//! Campaign orchestration for the QuFI stack: run manifests,
//! checkpointed parallel execution, and artifact export — the library
//! behind the `qufi` binary.
//!
//! The pipeline is deliberately file-shaped so every stage can be
//! re-entered offline:
//!
//! 1. [`manifest`] parses a TOML run manifest into a validated
//!    [`Manifest`].
//! 2. [`job`] expands it into the (workload × backend × noise-scale)
//!    job matrix.
//! 3. [`runner`] schedules every injection point of every job across a
//!    thread pool, checkpointing each completed point via
//!    [`checkpoint`]. Interrupt at any moment; re-running is a resume.
//! 4. [`export`] turns the checkpoint files into JSON/CSV artifacts.
//!    Because artifacts always derive from checkpoints, an
//!    interrupted-and-resumed campaign exports byte-identical results
//!    to an uninterrupted one.
//!
//! # Example
//!
//! ```
//! use qufi_cli::{run_to_completion, Manifest, RunOptions, RunStatus};
//!
//! let manifest = Manifest::from_toml(
//!     "[campaign]\n\
//!      name = \"doc\"\n\
//!      executor = \"ideal\"\n\
//!      workloads = [\"ghz-2\"]\n\
//!      [grid]\n\
//!      thetas = [0.0, 3.141592653589793]\n\
//!      phis = [0.0]\n",
//! ).unwrap();
//! let out = std::env::temp_dir().join("qufi-doc-example");
//! let _ = std::fs::remove_dir_all(&out);
//! let outcome = run_to_completion(&manifest, &out, &RunOptions {
//!     quiet: true,
//!     ..RunOptions::default()
//! }).unwrap();
//! assert_eq!(outcome.summary.status, RunStatus::Complete);
//! assert!(out.join("results/summary.json").is_file());
//! std::fs::remove_dir_all(&out).unwrap();
//! ```

pub mod chaos;
pub mod checkpoint;
pub mod error;
pub mod export;
pub mod job;
pub mod lease;
pub mod manifest;
pub mod obs_artifacts;
pub mod runner;
pub mod serve_cmd;
pub mod shard;
pub mod stats;
pub mod toml;

pub use error::{CliError, ManifestErrorKind, ManifestIssue};
pub use export::{export_artifacts, ExportReport};
pub use job::{job_matrix, JobSpec};
pub use manifest::{ExecutorKind, GridSpec, Manifest};
pub use runner::{dry_run_plan, run_campaign, JobOutcome, RunOptions, RunStatus, RunSummary};
pub use serve_cmd::{serve, CampaignHandler, ServeOptions};
pub use shard::{merge_campaign, plan_campaign, work_campaign, MergeReport, WorkOptions};
pub use stats::{render_runs, render_stats};

use std::fs;
use std::path::{Path, PathBuf};

/// Writes a file durably-by-construction through
/// [`qufi_serve::store::atomic_write`]: the contents land in
/// `<path>.tmp` (synced under `QUFI_FSYNC`), which is renamed over the
/// target, so readers (and crash survivors) only ever observe the old
/// bytes or the new bytes — never a torn mixture. Every file the CLI
/// publishes (manifests, checkpoint metadata, telemetry, shard plans)
/// goes through here, except the export's artifacts, which take the same
/// recipe in its two halves ([`qufi_serve::store::stage`], then
/// [`qufi_serve::store::publish`]) so that they publish together.
///
/// # Errors
///
/// Filesystem failures (reported with `context`).
pub fn atomic_write(path: &Path, contents: &[u8], context: &str) -> Result<(), CliError> {
    qufi_serve::store::atomic_write(path, contents).map_err(|e| CliError::io(context, path, e))
}

/// The manifest copy stored inside every campaign directory.
pub const STORED_MANIFEST: &str = "manifest.toml";

/// A scheduling pass plus the artifact export that followed it.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// What the scheduler did.
    pub summary: RunSummary,
    /// What the exporter wrote.
    pub export: ExportReport,
}

/// Persists the canonical manifest into `out_dir` (first run) or checks
/// it against the stored copy (re-run/resume), so one campaign
/// directory always corresponds to one experiment.
///
/// # Errors
///
/// Filesystem failures, or a stored manifest that differs.
pub fn store_or_check_manifest(manifest: &Manifest, out_dir: &Path) -> Result<(), CliError> {
    fs::create_dir_all(out_dir)
        .map_err(|e| CliError::io("creating campaign directory", out_dir, e))?;
    let path = out_dir.join(STORED_MANIFEST);
    let canonical = manifest.to_toml();
    match fs::read_to_string(&path) {
        Ok(stored) if stored == canonical => Ok(()),
        Ok(_) => Err(CliError::manifest(format!(
            "{} already holds a different campaign (see {}); \
             use a fresh --out directory or `qufi resume`",
            out_dir.display(),
            path.display(),
        ))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            atomic_write(&path, canonical.as_bytes(), "storing manifest")
        }
        Err(e) => Err(CliError::io("reading stored manifest", &path, e)),
    }
}

/// Loads the manifest a campaign directory was created from.
///
/// # Errors
///
/// A missing or invalid stored manifest.
pub fn load_stored_manifest(out_dir: &Path) -> Result<Manifest, CliError> {
    let path = out_dir.join(STORED_MANIFEST);
    let text = fs::read_to_string(&path).map_err(|e| {
        CliError::io(
            "reading stored manifest (is this a campaign directory?)",
            &path,
            e,
        )
    })?;
    Manifest::from_toml(&text)
}

/// One full `qufi run`: persist the manifest, schedule, and export.
/// Under a point budget the run may come back [`RunStatus::Interrupted`]
/// with partial artifacts; a later call (or `qufi resume`) finishes it.
///
/// With [`RunOptions::metrics`] the telemetry recorder is reset and
/// enabled around the run, and `metrics.json`/`costs.csv` (plus
/// `trace.jsonl` under [`RunOptions::trace`]) land in `out_dir` — next
/// to the stored manifest, never inside `results/`, whose bytes are
/// identical with telemetry on or off.
///
/// # Errors
///
/// Everything [`run_campaign`] and [`export_artifacts`] can raise.
pub fn run_to_completion(
    manifest: &Manifest,
    out_dir: &Path,
    opts: &RunOptions,
) -> Result<CampaignOutcome, CliError> {
    store_or_check_manifest(manifest, out_dir)?;
    let telemetry = opts.metrics || opts.trace;
    if telemetry {
        qufi_obs::reset();
        qufi_obs::enable();
        if opts.trace {
            qufi_obs::enable_trace();
        }
    }
    let outcome = (|| {
        let total_span = qufi_obs::span("campaign.total_ns");
        let summary = run_campaign(manifest, out_dir, opts)?;
        let export = export_artifacts(manifest, out_dir)?;
        total_span.finish();
        Ok(CampaignOutcome { summary, export })
    })();
    if telemetry {
        qufi_obs::disable();
        if outcome.is_ok() {
            obs_artifacts::write_artifacts(out_dir, opts.trace)?;
        }
    }
    outcome
}

/// `qufi resume`: continue the campaign stored in `out_dir`.
///
/// # Errors
///
/// Everything [`run_to_completion`] can raise, plus a missing stored
/// manifest.
pub fn resume(out_dir: &Path, opts: &RunOptions) -> Result<CampaignOutcome, CliError> {
    let manifest = load_stored_manifest(out_dir)?;
    run_to_completion(&manifest, out_dir, opts)
}

/// Default output directory for a campaign: `qufi-runs/<name>` under
/// the working directory.
pub fn default_out_dir(manifest: &Manifest) -> PathBuf {
    PathBuf::from("qufi-runs").join(&manifest.name)
}
