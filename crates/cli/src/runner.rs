//! The campaign scheduler: fans the (workload × backend × scale ×
//! injection-point) task matrix across a worker pool, checkpointing each
//! completed point so an interrupted campaign resumes without
//! recomputation.
//!
//! Determinism contract: every task's result depends only on the
//! manifest (executors are either stateless or seeded per point, see
//! [`crate::job`]), so any interleaving of workers — and any
//! interrupt/resume split — produces the same record values. Artifacts
//! are generated from the checkpoint files afterwards
//! ([`crate::export`]), which makes an interrupted-and-resumed campaign
//! byte-identical to an uninterrupted one. The pending points run as the
//! tasks of [`qufi_core::par::run`], in manifest order: a `--budget N`
//! pass runs exactly the first N of them, and a failing pass reports the
//! error of its first failing point, at every thread count.

use crate::checkpoint::{CheckpointStore, JobMeta};
use crate::error::CliError;
use crate::job::{job_matrix, JobRuntime, RuntimeCache};
use crate::manifest::Manifest;
use parking_lot::Mutex;
use qufi_core::fault::{FaultGrid, InjectionPoint};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Invocation-level knobs that do not belong in the manifest.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Overrides the manifest's thread budget.
    pub threads: Option<usize>,
    /// Run only the first N pending injection points, in manifest order,
    /// then stop gracefully with the checkpoint intact — time-boxed runs
    /// and interruption tests.
    pub point_budget: Option<usize>,
    /// Suppress progress reporting on stderr. (Progress also respects the
    /// process-wide [`qufi_obs::log`] verbosity; this is a hard off.)
    pub quiet: bool,
    /// Record telemetry (counters, phase histograms, per-point costs) for
    /// this run and write `metrics.json`/`costs.csv` next to the
    /// checkpoints. Telemetry observes wall time only — artifacts under
    /// `results/` are byte-identical either way.
    pub metrics: bool,
    /// Additionally write a `trace.jsonl` span log (implies `metrics`).
    pub trace: bool,
    /// Cooperative cancellation: when the flag flips true, workers stop
    /// claiming tasks and the pass returns [`RunStatus::Interrupted`]
    /// with every completed point checkpointed — the same resumable
    /// state a budget expiry leaves. The campaign service uses this for
    /// client cancels, per-job timeouts, and drain-on-shutdown.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Shared prepare cache: when set, job runtimes are built through it
    /// (single-flight, bounded), so concurrent campaigns naming the same
    /// (workload × backend × scale × executor-config) cell pay transpile
    /// + golden + baseline once.
    pub runtime_cache: Option<Arc<RuntimeCache>>,
}

impl RunOptions {
    fn cancel_requested(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
    }
}

/// Whether the campaign ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every job's every point is checkpointed.
    Complete,
    /// The point budget expired first; resume to continue.
    Interrupted,
}

/// Per-job completion accounting.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's metadata.
    pub meta: JobMeta,
    /// Fully-checkpointed injection points.
    pub points_done: usize,
}

impl JobOutcome {
    /// `true` when every point is checkpointed.
    pub fn is_complete(&self) -> bool {
        self.points_done >= self.meta.points_total
    }
}

/// What a scheduling pass did.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Completion status.
    pub status: RunStatus,
    /// Per-job accounting, in manifest order.
    pub jobs: Vec<JobOutcome>,
    /// Points executed by this invocation.
    pub points_run: usize,
    /// Points already satisfied by checkpoints.
    pub points_resumed: usize,
    /// Wall-clock time of the scheduling pass.
    pub elapsed: Duration,
}

struct PreparedJob {
    runtime: Arc<JobRuntime>,
    meta: JobMeta,
    pending: Vec<InjectionPoint>,
    append_lock: Mutex<()>,
    done: AtomicUsize,
}

/// Runs (or resumes — the two are the same operation over the
/// checkpoint store) the manifest's campaign under `out_dir`.
///
/// # Errors
///
/// Manifest/validation failures, checkpoint corruption, filesystem
/// failures, and the first circuit-execution error.
pub fn run_campaign(
    manifest: &Manifest,
    out_dir: &Path,
    opts: &RunOptions,
) -> Result<RunSummary, CliError> {
    let started = Instant::now();
    let grid = manifest.grid.to_grid()?;
    let store = CheckpointStore::open(out_dir)?;

    // Prepare every job: build runtimes, reconcile checkpoints, and
    // collect the pending point list.
    let prepare_span = qufi_obs::span("campaign.prepare_ns");
    let specs = job_matrix(manifest);
    let mut jobs = Vec::with_capacity(specs.len());
    let mut points_resumed = 0usize;
    for (idx, spec) in specs.iter().enumerate() {
        let job_span = qufi_obs::span("job.prepare_ns");
        let runtime = match &opts.runtime_cache {
            Some(cache) => crate::job::prepare_cached(cache, manifest, spec)?,
            None => Arc::new(JobRuntime::prepare(manifest, spec)?),
        };
        job_span.finish();
        let meta = match store.load_meta(&spec.id())? {
            Some(stored) => {
                reconcile(&stored, &JobMeta::from_runtime(&runtime))?;
                stored
            }
            None => {
                let meta = JobMeta::from_runtime(&runtime);
                store.save_meta(&meta)?;
                meta
            }
        };
        let records = store.load_records(&spec.id())?;
        let done_points = complete_points(&records, &grid);
        let pending: Vec<InjectionPoint> = runtime
            .points
            .iter()
            .copied()
            .filter(|p| !done_points.contains(p))
            .collect();
        points_resumed += runtime.points.len() - pending.len();
        if !opts.quiet {
            qufi_obs::log::info(&format!(
                "[prepare {}/{}] {}: {} points ({} checkpointed, {} to run)",
                idx + 1,
                specs.len(),
                spec.id(),
                runtime.points.len(),
                runtime.points.len() - pending.len(),
                pending.len(),
            ));
        }
        jobs.push(PreparedJob {
            runtime,
            meta,
            pending,
            append_lock: Mutex::new(()),
            done: AtomicUsize::new(done_points.len()),
        });
    }
    prepare_span.finish();
    qufi_obs::add("campaign.points_resumed", points_resumed as u64);

    // Pending (job, point) tasks in manifest order; a budget keeps the
    // first N of them.
    let pending: Vec<(usize, InjectionPoint)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(job_idx, job)| job.pending.iter().map(move |&point| (job_idx, point)))
        .collect();
    let budget = opts.point_budget.unwrap_or(usize::MAX);
    let tasks = &pending[..pending.len().min(budget)];
    // Two-level split of the thread budget: point workers claim (job,
    // point) tasks; each point fans its fault grid across the leftover
    // per-worker threads. Results are byte-identical for every split (and
    // every budget), so this is purely a scheduling choice.
    let (n_threads, grid_threads) =
        qufi_core::campaign::split_thread_budget(resolve_threads(manifest, opts), tasks.len());
    if !opts.quiet && !tasks.is_empty() {
        qufi_obs::log::info(&format!(
            "[threads] {n_threads} point worker(s) × {grid_threads} grid thread(s) \
             for {} pending point(s)",
            tasks.len()
        ));
    }

    let execute_span = qufi_obs::span("campaign.execute_ns");
    let ran = qufi_core::par::run(tasks.len(), n_threads, |i| {
        // A canceled pass skips its remaining tasks.
        if opts.cancel_requested() {
            return Ok(false);
        }
        let (job_idx, point) = tasks[i];
        let job = &jobs[job_idx];
        let _job_label = qufi_obs::job_scope(&job.meta.id);
        let shard = job.runtime.run_point_split(point, &grid, grid_threads)?;
        {
            let _guard = job.append_lock.lock();
            store.append_records(&job.meta.id, &shard)?;
        }
        // Chaos site: abort *after* a durable append — the crash-recovery
        // tests' mid-campaign kill.
        crate::chaos::kill_point("runner.append");
        let done = job.done.fetch_add(1, Ordering::SeqCst) + 1;
        if !opts.quiet {
            report_progress(&job.meta, done);
        }
        Ok::<_, CliError>(true)
    })?;
    execute_span.finish();

    let points_run = ran.into_iter().filter(|&ran| ran).count();
    let status = if points_run < pending.len() {
        RunStatus::Interrupted
    } else {
        RunStatus::Complete
    };
    qufi_obs::add("campaign.points_run", points_run as u64);
    let jobs: Vec<JobOutcome> = jobs
        .into_iter()
        .map(|j| JobOutcome {
            meta: j.meta,
            points_done: j.done.into_inner(),
        })
        .collect();
    if !opts.quiet {
        let done_jobs = jobs.iter().filter(|j| j.is_complete()).count();
        qufi_obs::log::info(&format!(
            "{}: {done_jobs}/{} jobs complete, {points_run} points run, \
             {points_resumed} resumed from checkpoint ({:.1}s)",
            match status {
                RunStatus::Complete => "campaign complete",
                RunStatus::Interrupted => "campaign interrupted (budget)",
            },
            jobs.len(),
            started.elapsed().as_secs_f64(),
        ));
    }
    Ok(RunSummary {
        status,
        jobs,
        points_run,
        points_resumed,
        elapsed: started.elapsed(),
    })
}

/// The `qufi run --dry-run` report: the resolved job × point × config task
/// matrix, the two-level thread split, and total task counts — computed
/// without executing a single circuit (workloads are *built* to count
/// their injection points, never simulated).
///
/// # Errors
///
/// Grid resolution failures and unknown workload/backend names.
pub fn dry_run_plan(manifest: &Manifest, opts: &RunOptions) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let grid = manifest.grid.to_grid()?;
    let specs = job_matrix(manifest);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dry run: campaign {:?} ({} executor), {} θ × {} φ = {} configurations per point",
        manifest.name,
        manifest.executor.keyword(),
        grid.thetas.len(),
        grid.phis.len(),
        grid.len()
    );
    let id_width = specs.iter().map(|s| s.id().len()).max().unwrap_or(0);
    let mut total_points = 0usize;
    let mut total_tasks = 0usize;
    for spec in &specs {
        if spec.backend != crate::job::LOGICAL_BACKEND {
            qufi_noise::BackendCalibration::named(&spec.backend)
                .ok_or_else(|| CliError::manifest(format!("unknown backend {:?}", spec.backend)))?;
        }
        let workload = qufi_algos::build_workload(&spec.workload)
            .map_err(|e| CliError::manifest(e.to_string()))?;
        let points = qufi_core::fault::enumerate_injection_points(&workload.circuit).len();
        let tasks = points * grid.len();
        total_points += points;
        total_tasks += tasks;
        let _ = writeln!(
            out,
            "  job {:<id_width$}  {points:>4} points × {:>4} configs = {tasks:>7} injections",
            spec.id(),
            grid.len(),
        );
    }
    let threads = resolve_threads(manifest, opts);
    let (workers, grid_threads) = qufi_core::campaign::split_thread_budget(threads, total_points);
    let _ = writeln!(
        out,
        "  total: {} jobs, {total_points} injection points, {total_tasks} injections",
        specs.len()
    );
    let _ = writeln!(
        out,
        "  threads: {threads} budget → {workers} point worker(s) × {grid_threads} grid thread(s)"
    );
    let _ = writeln!(out, "  nothing executed (dry run)");
    Ok(out)
}

fn resolve_threads(manifest: &Manifest, opts: &RunOptions) -> usize {
    qufi_core::par::resolve_threads(opts.threads.unwrap_or(manifest.threads))
}

/// Points whose full grid is present in the checkpointed records.
/// Completeness means every *distinct* (θ, φ) cell is covered — raw
/// record counts would be fooled by the duplicates that repeated
/// interrupt/re-run cycles legitimately leave behind. Partially-swept
/// points count as missing and are re-run; duplicates merge away at
/// export time.
pub(crate) fn complete_points(
    records: &[qufi_core::InjectionRecord],
    grid: &FaultGrid,
) -> std::collections::HashSet<InjectionPoint> {
    let mut cells: std::collections::HashMap<
        InjectionPoint,
        std::collections::HashSet<(u64, u64)>,
    > = std::collections::HashMap::new();
    for r in records {
        cells
            .entry(r.point)
            .or_default()
            .insert((r.theta.to_bits(), r.phi.to_bits()));
    }
    cells
        .into_iter()
        .filter(|(_, covered)| covered.len() >= grid.len())
        .map(|(p, _)| p)
        .collect()
}

/// A stored meta must describe the same experiment the manifest
/// produces now, or the checkpoint belongs to a different campaign.
fn reconcile(stored: &JobMeta, fresh: &JobMeta) -> Result<(), CliError> {
    let mismatch = |what: &str| {
        Err(CliError::checkpoint(format!(
            "job {}: checkpointed {what} disagrees with the manifest; \
             this output directory belongs to a different campaign",
            stored.id
        )))
    };
    if stored.golden != fresh.golden {
        return mismatch("golden outputs");
    }
    if stored.points_total != fresh.points_total {
        return mismatch("injection-point count");
    }
    // Executors are deterministic, so the baseline must reproduce
    // bit-for-bit; any drift means a different executor configuration.
    if stored.baseline_qvf.to_bits() != fresh.baseline_qvf.to_bits() {
        return mismatch("baseline QVF");
    }
    Ok(())
}

fn report_progress(meta: &JobMeta, done: usize) {
    let total = meta.points_total;
    let stride = (total / 10).max(1);
    if done == total || done.is_multiple_of(stride) {
        qufi_obs::log::info(&format!("  [{}] {done}/{total} points", meta.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::PathBuf;

    fn manifest(threads: usize) -> Manifest {
        Manifest::from_toml(&format!(
            "[campaign]\nname = \"t\"\nthreads = {threads}\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n"
        ))
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qufi-runner-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn complete_run_then_noop_resume() {
        let dir = temp_dir("noop");
        let m = manifest(2);
        let opts = RunOptions {
            quiet: true,
            ..RunOptions::default()
        };
        let first = run_campaign(&m, &dir, &opts).unwrap();
        assert_eq!(first.status, RunStatus::Complete);
        assert!(first.points_run > 0);
        assert_eq!(first.points_resumed, 0);
        assert!(first.jobs.iter().all(JobOutcome::is_complete));

        let second = run_campaign(&m, &dir, &opts).unwrap();
        assert_eq!(second.status, RunStatus::Complete);
        assert_eq!(second.points_run, 0, "resume must not recompute");
        assert_eq!(second.points_resumed, first.points_run);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn budget_interrupts_then_resume_finishes() {
        for threads in [1, 2, 4] {
            let dir = temp_dir(&format!("budget-{threads}"));
            let m = manifest(threads);
            let quiet = RunOptions {
                quiet: true,
                ..RunOptions::default()
            };
            let first = run_campaign(
                &m,
                &dir,
                &RunOptions {
                    point_budget: Some(2),
                    ..quiet.clone()
                },
            )
            .unwrap();
            assert_eq!(first.status, RunStatus::Interrupted);
            assert_eq!(first.points_run, 2);
            // The budget keeps the first two pending points in manifest
            // order, whichever workers ran them.
            let spec = &job_matrix(&m)[0];
            let runtime = JobRuntime::prepare(&m, spec).unwrap();
            let checkpointed: BTreeSet<InjectionPoint> = CheckpointStore::open(&dir)
                .unwrap()
                .load_records(&spec.id())
                .unwrap()
                .iter()
                .map(|r| r.point)
                .collect();
            let first_two: BTreeSet<InjectionPoint> = runtime.points[..2].iter().copied().collect();
            assert_eq!(checkpointed, first_two, "threads = {threads}");

            let second = run_campaign(&m, &dir, &quiet).unwrap();
            assert_eq!(second.status, RunStatus::Complete);
            assert_eq!(second.points_resumed, 2);
            assert!(second.jobs.iter().all(JobOutcome::is_complete));
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn cancel_interrupts_and_leaves_a_resumable_checkpoint() {
        let dir = temp_dir("cancel");
        let m = manifest(1);
        let cancel = Arc::new(AtomicBool::new(true)); // pre-canceled
        let first = run_campaign(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                cancel: Some(Arc::clone(&cancel)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(first.status, RunStatus::Interrupted);
        assert_eq!(first.points_run, 0, "canceled before any claim");
        // Clearing the flag resumes to completion from the checkpoint.
        cancel.store(false, Ordering::SeqCst);
        let second = run_campaign(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                cancel: Some(cancel),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(second.status, RunStatus::Complete);
        assert!(second.jobs.iter().all(JobOutcome::is_complete));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn shared_runtime_cache_prepares_each_cell_once() {
        let dir_a = temp_dir("cache-a");
        let dir_b = temp_dir("cache-b");
        let m = manifest(1);
        let cache = Arc::new(RuntimeCache::new(8));
        let opts = RunOptions {
            quiet: true,
            runtime_cache: Some(Arc::clone(&cache)),
            ..RunOptions::default()
        };
        run_campaign(&m, &dir_a, &opts).unwrap();
        run_campaign(&m, &dir_b, &opts).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one prepare for two campaigns");
        assert_eq!(stats.hits, 1);
        let _ = fs::remove_dir_all(dir_a);
        let _ = fs::remove_dir_all(dir_b);
    }

    #[test]
    fn dry_run_reports_the_task_matrix_and_thread_split() {
        let m = Manifest::from_toml(
            "[campaign]\nname = \"plan\"\nthreads = 8\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 1.0]\nphis = [0.0]\n",
        )
        .unwrap();
        let plan = dry_run_plan(&m, &RunOptions::default()).unwrap();
        assert!(plan.starts_with("dry run: campaign \"plan\""), "{plan}");
        assert!(plan.contains("bv-3@lima"), "{plan}");
        assert!(plan.contains("2 θ × 1 φ = 2 configurations"), "{plan}");
        assert!(plan.contains("nothing executed"), "{plan}");
        assert!(plan.contains("point worker(s)"), "{plan}");
        // The --threads override wins over the manifest budget.
        let overridden = dry_run_plan(
            &m,
            &RunOptions {
                threads: Some(3),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(overridden.contains("threads: 3 budget"), "{overridden}");
    }

    #[test]
    fn dry_run_rejects_unknown_names() {
        let m = Manifest::from_toml(
            "[campaign]\nexecutor = \"noisy\"\nworkloads = [\"bv-3\"]\n\
             backends = [\"lima\"]\n",
        )
        .unwrap();
        let mut bad = m.clone();
        bad.backends = vec!["nonexistent".into()];
        let err = dry_run_plan(&bad, &RunOptions::default()).unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
    }

    #[test]
    fn foreign_checkpoints_are_rejected() {
        let dir = temp_dir("foreign");
        let quiet = RunOptions {
            quiet: true,
            ..RunOptions::default()
        };
        run_campaign(&manifest(1), &dir, &quiet).unwrap();
        // Same job ids, different executor scenario → different baseline.
        let other = Manifest::from_toml(
            "[campaign]\nname = \"t\"\nexecutor = \"ideal\"\nworkloads = [\"bv-3\"]\n\
             backends = [\"lima\"]\n[grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n",
        )
        .unwrap();
        let err = run_campaign(&other, &dir, &quiet).unwrap_err().to_string();
        assert!(err.contains("different campaign"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }
}
