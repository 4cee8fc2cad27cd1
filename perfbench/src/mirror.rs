//! A traced mirror of `qufi run`: the same manifest goes through the
//! same public calls in the program's order and at its thread count —
//! `run_to_completion` → `run_campaign` → `export_artifacts` — each call
//! under its own span. `JobRuntime::run_point_split` hides the engine's
//! prepare and replay; the program times those two calls itself in its
//! `point.prepare_ns` and `point.replay_ns` histograms, which `run.py`
//! reads from the recorder snapshot. The mirror writes the same
//! checkpoints and `results/` tree as the program; `run.py` verifies them
//! like the program's own.

use crate::tracer::Tracer;
use qufi_cli::checkpoint::{CheckpointStore, JobMeta};
use qufi_cli::job::{job_matrix, JobRuntime, RuntimeCache, RuntimeKey};
use qufi_cli::{export_artifacts, store_or_check_manifest, CliError, ExecutorKind, Manifest};
use qufi_core::campaign::split_thread_budget;
use qufi_core::fault::{FaultGrid, InjectionPoint};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Work counts of one mirrored campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub jobs: u64,
    pub points: u64,
    pub cells: u64,
    /// Cells × shots of trajectory sweeps (0 for density sweeps).
    pub shot_cells: u64,
}

impl Totals {
    pub fn add(&mut self, other: Totals) {
        self.jobs += other.jobs;
        self.points += other.points;
        self.cells += other.cells;
        self.shot_cells += other.shot_cells;
    }
}

/// One campaign to mirror: its manifest, output directory and campaign
/// id for the spans.
pub struct Campaign<'a> {
    pub manifest: &'a Manifest,
    pub dir: &'a Path,
    pub id: u64,
}

struct Job {
    runtime: Arc<JobRuntime>,
    meta: JobMeta,
    append_lock: Mutex<()>,
}

/// Mirrors one `qufi run` of `c` at `threads` threads; with `cache`, job
/// runtimes come through the shared prepare cache as in `qufi serve`.
pub fn mirror_campaign(
    tracer: &Tracer,
    c: &Campaign,
    threads: usize,
    cache: Option<&RuntimeCache>,
) -> Result<Totals, CliError> {
    store_or_check_manifest(c.manifest, c.dir)?;
    let grid = c.manifest.grid.to_grid()?;
    let store = CheckpointStore::open(c.dir)?;
    let specs = job_matrix(c.manifest);
    let mut jobs = Vec::with_capacity(specs.len());
    for spec in &specs {
        let runtime = match cache {
            Some(cache) => {
                let _lookup = tracer.span("core.prepare_cache", c.id);
                cache.get_or_try_build(&RuntimeKey::new(c.manifest, spec), || {
                    let _prepare = tracer.span("cli.job.prepare", c.id);
                    JobRuntime::prepare(c.manifest, spec)
                })?
            }
            None => {
                let _prepare = tracer.span("cli.job.prepare", c.id);
                Arc::new(JobRuntime::prepare(c.manifest, spec)?)
            }
        };
        let meta = JobMeta::from_runtime(&runtime);
        store.save_meta(&meta)?;
        jobs.push(Job {
            runtime,
            meta,
            append_lock: Mutex::new(()),
        });
    }

    let tasks: Vec<(usize, InjectionPoint)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| job.runtime.points.iter().map(move |&p| (j, p)))
        .collect();
    let (workers, grid_threads) = split_thread_budget(threads, tasks.len());
    let next = AtomicUsize::new(0);
    let first_error: Mutex<Option<CliError>> = Mutex::new(None);
    {
        let pool = tracer.span("cli.runner", c.id);
        let pool_id = pool.id();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (jobs, tasks, grid, store) = (&jobs, &tasks, &grid, &store);
                let (next, first_error) = (&next, &first_error);
                scope.spawn(move || {
                    let _worker = tracer.child_of("cli.runner.worker", c.id, pool_id);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= tasks.len() || first_error.lock().expect("lock").is_some() {
                            break;
                        }
                        let (j, point) = tasks[i];
                        if let Err(e) =
                            run_task(tracer, c.id, &jobs[j], store, point, grid, grid_threads)
                        {
                            first_error.lock().expect("lock").get_or_insert(e);
                            break;
                        }
                    }
                    // As in the program's runner: merge this worker's
                    // telemetry before the scope joins it.
                    qufi_obs::flush();
                });
            }
        });
    }
    if let Some(e) = first_error.into_inner().expect("lock") {
        return Err(e);
    }
    {
        let _export = tracer.span("cli.export", c.id);
        export_artifacts(c.manifest, c.dir)?;
    }
    let shots = match c.manifest.executor {
        ExecutorKind::Trajectory => c.manifest.shots,
        _ => 0,
    };
    let cells = (tasks.len() * grid.len()) as u64;
    Ok(Totals {
        jobs: jobs.len() as u64,
        points: tasks.len() as u64,
        cells,
        shot_cells: cells * shots,
    })
}

fn run_task(
    tracer: &Tracer,
    campaign: u64,
    job: &Job,
    store: &CheckpointStore,
    point: InjectionPoint,
    grid: &FaultGrid,
    grid_threads: usize,
) -> Result<(), CliError> {
    let _job_label = qufi_obs::job_scope(&job.meta.id);
    let records = {
        let _run = tracer.span("cli.job.run_point", campaign);
        job.runtime.run_point_split(point, grid, grid_threads)
    }
    .map_err(CliError::Exec)?;
    let _append = tracer.span("cli.checkpoint.append", campaign);
    let _guard = job.append_lock.lock().expect("append lock poisoned");
    store.append_records(&job.meta.id, &records)
}
