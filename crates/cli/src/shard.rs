//! Sharded campaign execution: `qufi shard plan / work / merge`.
//!
//! A campaign directory becomes a coordination surface that any number
//! of worker processes (possibly on different machines sharing a
//! filesystem) can attach to:
//!
//! ```text
//! <out>/
//!   manifest.toml        the experiment (store_or_check semantics)
//!   shard-plan.json      the partitioned job × point matrix
//!   units/               <unit>.lease / .done / .fails / .tomb.* markers
//!   shards/              <unit>.<worker>.csv raw per-unit record files
//!   poisoned/            <unit>.txt quarantine diagnostics
//!   checkpoints/         canonical per-job state (written by plan + merge)
//!   results/             exported artifacts (written by merge)
//! ```
//!
//! **plan** resolves the manifest's job × point matrix into work units,
//! allocates them across N shards cost-aware (measured `costs.csv` when
//! available, grid cells otherwise — [`qufi_core::shard`]), writes every
//! job's checkpoint metadata, and publishes `shard-plan.json`.
//!
//! **work** claims units under crash-safe leases ([`crate::lease`]):
//! each worker walks its own shard first, then steals unfinished units
//! from other shards (stale leases are taken over after the timeout).
//! A claimed unit executes exactly like the single-node scheduler's
//! point task and lands in its own `shards/<unit>.<worker>.csv` — one
//! writer per file, so concurrent workers never interleave bytes, and a
//! crash can only tear the file's tail. Transient failures retry on a
//! deterministic capped-exponential [`Backoff`]; units that keep
//! failing are parked in `poisoned/` with a diagnostic record instead
//! of wedging the campaign.
//!
//! **merge** folds the per-unit files into the canonical checkpoint
//! layout and exports `results/`. Unit execution is deterministic and
//! [`CampaignResult::merge_records`] deduplicates by (point, θ, φ), so
//! the merged artifacts are byte-identical to a single-node run no
//! matter how many workers ran, how work was stolen, or how many times
//! a unit was redundantly executed — leases are an efficiency
//! mechanism, never a correctness dependency. The `shard_invariance`
//! test suite enforces exactly this.

use crate::chaos;
use crate::checkpoint::{CheckpointStore, JobMeta};
use crate::error::CliError;
use crate::export::{export_artifacts, ExportReport};
use crate::job::{job_matrix, JobRuntime};
use crate::lease::{self, Backoff, Claim, Lease, LeaseConfig};
use crate::manifest::Manifest;
use crate::obs_artifacts;
use qufi_core::fault::{FaultGrid, InjectionPoint};
use qufi_core::report::records_to_csv;
use qufi_core::serialize::records_from_csv;
use qufi_core::shard::{ShardPlan, WorkUnit};
use qufi_core::{CampaignResult, InjectionRecord};
use qufi_obs::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The plan document at the campaign root.
pub const PLAN_FILE: &str = "shard-plan.json";
/// Lease/done/failure markers live here.
pub const UNITS_DIR: &str = "units";
/// Per-unit, per-worker record files live here.
pub const SHARDS_DIR: &str = "shards";
/// Quarantined units' diagnostics live here.
pub const POISONED_DIR: &str = "poisoned";
/// A unit that fails this many times (across all workers) is poisoned.
pub const MAX_UNIT_FAILURES: u64 = 3;
/// Retry budget for one transient claim/write failure burst.
const RETRY_ATTEMPTS: u32 = 5;
const RETRY_BASE: Duration = Duration::from_millis(5);
const RETRY_CAP: Duration = Duration::from_millis(200);
/// How often a worker whose outstanding units are all held elsewhere
/// looks for their done and poison markers between full rescans.
const MARKER_SLICE: Duration = Duration::from_millis(5);

/// What `shard plan` produced.
#[derive(Debug)]
pub struct PlanReport {
    /// The published plan.
    pub plan: ShardPlan,
    /// `"measured"` when `costs.csv` drove the allocation, `"cells"`
    /// when every unit fell back to its grid-cell weight.
    pub cost_source: &'static str,
    /// Human-facing allocation summary.
    pub summary: String,
}

/// What one `shard work` invocation did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkReport {
    /// Units this worker executed to completion.
    pub units_done: usize,
    /// Of those, units claimed by stealing a stale lease.
    pub units_stolen: usize,
    /// Units this worker poisoned after repeated failures.
    pub units_poisoned: usize,
}

/// What `shard merge` produced.
#[derive(Debug)]
pub struct MergeReport {
    /// Units folded into checkpoints.
    pub units_merged: usize,
    /// The export that followed.
    pub export: ExportReport,
}

/// Worker-invocation knobs.
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// This worker's unique name (lease identity and file suffix).
    /// Running two workers with the same name defeats the one-writer-
    /// per-file guarantee; give every process its own name.
    pub worker: String,
    /// Preferred shard; `None` derives one from the worker name. The
    /// worker still steals from other shards once its own is drained.
    pub shard: Option<usize>,
    /// Lease staleness threshold for takeover.
    pub lease_timeout: Duration,
    /// Grid threads per unit sweep (records are identical for any value).
    pub grid_threads: usize,
    /// Suppress progress logging.
    pub quiet: bool,
}

impl Default for WorkOptions {
    fn default() -> Self {
        WorkOptions {
            worker: "w0".to_string(),
            shard: None,
            lease_timeout: Duration::from_secs(5),
            grid_threads: 1,
            quiet: false,
        }
    }
}

// ---------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------

/// Resolves the manifest into a shard plan under `out_dir`: enumerates
/// the job × point matrix (writing each job's checkpoint metadata so
/// merge/export/resume can run later), allocates units across `shards`
/// cost-aware, and publishes `shard-plan.json` atomically.
///
/// `costs_path` overrides the cost profile location (default:
/// `<out>/costs.csv` when present, e.g. from a prior profiling run).
///
/// # Errors
///
/// Manifest/grid failures, job preparation failures, a campaign
/// directory belonging to a different experiment, and I/O failures.
pub fn plan_campaign(
    manifest: &Manifest,
    out_dir: &Path,
    shards: usize,
    costs_path: Option<&Path>,
) -> Result<PlanReport, CliError> {
    crate::store_or_check_manifest(manifest, out_dir)?;
    let grid = manifest.grid.to_grid()?;
    let store = CheckpointStore::open(out_dir)?;

    let mut matrix: Vec<(String, InjectionPoint)> = Vec::new();
    for spec in job_matrix(manifest) {
        let runtime = JobRuntime::prepare(manifest, &spec)?;
        let fresh = JobMeta::from_runtime(&runtime);
        match store.load_meta(&spec.id())? {
            Some(stored) if stored == fresh => {}
            Some(_) => {
                return Err(CliError::checkpoint(format!(
                    "job {}: existing checkpoint metadata disagrees with the \
                     manifest; this directory belongs to a different campaign",
                    spec.id()
                )))
            }
            None => store.save_meta(&fresh)?,
        }
        matrix.extend(runtime.points.iter().map(|&p| (spec.id(), p)));
    }

    let costs = match costs_path {
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError::io("reading cost profile", path, e))?;
            Some(qufi_obs::parse_costs_csv(&text).map_err(CliError::shard)?)
        }
        None => obs_artifacts::load_costs(out_dir)?,
    };
    let cost_map: HashMap<(String, usize, usize), u64> = costs
        .iter()
        .flatten()
        .map(|c| {
            (
                (c.job.clone(), c.op_index, c.qubit),
                (c.prepare_ns + c.replay_ns).max(1),
            )
        })
        .collect();
    let cost_source = if cost_map.is_empty() {
        "cells"
    } else {
        "measured"
    };

    let plan = ShardPlan::build(
        manifest.name.clone(),
        &matrix,
        grid.len(),
        shards,
        |job, p| {
            cost_map
                .get(&(job.to_string(), p.op_index, p.qubit))
                .copied()
        },
    );

    for sub in [UNITS_DIR, SHARDS_DIR, POISONED_DIR] {
        let dir = out_dir.join(sub);
        fs::create_dir_all(&dir).map_err(|e| CliError::io("creating shard directory", &dir, e))?;
    }
    crate::atomic_write(
        &out_dir.join(PLAN_FILE),
        plan_to_json(&plan).as_bytes(),
        "writing shard plan",
    )?;
    qufi_obs::add("shard.plans", 1);

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "shard plan: {} units across {} shard(s), {cost_source} costs, \
         imbalance {:.3}",
        plan.units.len(),
        plan.shards,
        plan.imbalance(),
    );
    for (shard, load) in plan.shard_loads().iter().enumerate() {
        let _ = writeln!(
            summary,
            "  shard {shard}: {} unit(s), load {load}",
            plan.shard_units(shard).len(),
        );
    }
    Ok(PlanReport {
        plan,
        cost_source,
        summary,
    })
}

/// Renders a plan as the `shard-plan.json` document.
pub fn plan_to_json(plan: &ShardPlan) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"campaign\": {},", json::quote(&plan.campaign));
    let _ = writeln!(out, "  \"shards\": {},", plan.shards);
    let _ = writeln!(out, "  \"cells_per_unit\": {},", plan.cells_per_unit);
    out.push_str("  \"units\": [");
    for (i, u) in plan.units.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"id\":{},\"job\":{},\"op_index\":{},\"qubit\":{},\
             \"cost\":{},\"shard\":{}}}",
            json::quote(&u.id),
            json::quote(&u.job),
            u.point.op_index,
            u.point.qubit,
            u.cost,
            u.shard
        );
    }
    out.push_str(if plan.units.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Parses a `shard-plan.json` document.
///
/// # Errors
///
/// Malformed JSON or an unexpected document shape.
pub fn plan_from_json(text: &str) -> Result<ShardPlan, CliError> {
    let doc = json::parse(text).map_err(|e| CliError::shard(e.to_string()))?;
    if doc.get("version").and_then(json::Value::as_u64) != Some(1) {
        return Err(CliError::shard("unsupported shard-plan version"));
    }
    let field = |name: &str| {
        doc.get(name)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| CliError::shard(format!("plan missing {name:?}")))
    };
    let campaign = doc
        .get("campaign")
        .and_then(json::Value::as_str)
        .ok_or_else(|| CliError::shard("plan missing \"campaign\""))?
        .to_string();
    let shards = field("shards")? as usize;
    let cells_per_unit = field("cells_per_unit")? as usize;
    let units = doc
        .get("units")
        .and_then(json::Value::as_arr)
        .ok_or_else(|| CliError::shard("plan missing \"units\""))?
        .iter()
        .map(|u| {
            let num = |name: &str| {
                u.get(name)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| CliError::shard(format!("plan unit missing {name:?}")))
            };
            let s = |name: &str| {
                u.get(name)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| CliError::shard(format!("plan unit missing {name:?}")))
            };
            Ok(WorkUnit {
                id: s("id")?,
                job: s("job")?,
                point: InjectionPoint {
                    op_index: num("op_index")? as usize,
                    qubit: num("qubit")? as usize,
                },
                cost: num("cost")?,
                shard: num("shard")? as usize,
            })
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    if units.iter().any(|u| u.shard >= shards.max(1)) {
        return Err(CliError::shard(
            "plan assigns a unit to an out-of-range shard",
        ));
    }
    Ok(ShardPlan {
        campaign,
        shards: shards.max(1),
        cells_per_unit,
        units,
    })
}

/// Loads the plan a campaign directory was sharded under.
///
/// # Errors
///
/// A missing or malformed plan file.
pub fn load_plan(out_dir: &Path) -> Result<ShardPlan, CliError> {
    let path = out_dir.join(PLAN_FILE);
    let text = fs::read_to_string(&path)
        .map_err(|e| CliError::io("reading shard plan (run `qufi shard plan` first)", &path, e))?;
    plan_from_json(&text)
}

// ---------------------------------------------------------------------
// work
// ---------------------------------------------------------------------

fn done_path(out_dir: &Path, unit: &str) -> PathBuf {
    out_dir.join(UNITS_DIR).join(format!("{unit}.done"))
}

fn fails_path(out_dir: &Path, unit: &str) -> PathBuf {
    out_dir.join(UNITS_DIR).join(format!("{unit}.fails"))
}

fn poison_path(out_dir: &Path, unit: &str) -> PathBuf {
    out_dir.join(POISONED_DIR).join(format!("{unit}.txt"))
}

/// Whether `unit` has a done or poison marker: no worker runs it again.
fn finished(out_dir: &Path, unit: &str) -> bool {
    done_path(out_dir, unit).exists() || poison_path(out_dir, unit).exists()
}

fn unit_file(out_dir: &Path, unit: &str, worker: &str) -> PathBuf {
    out_dir
        .join(SHARDS_DIR)
        .join(format!("{unit}.{worker}.csv"))
}

/// Runs one worker against a planned campaign directory until every
/// unit is done or poisoned. Safe to run concurrently with any number
/// of other workers (unique names!) and safe to SIGKILL at any moment:
/// a later worker (or invocation) takes over via lease expiry and
/// re-executes whatever was not durably finished.
///
/// # Errors
///
/// Missing plan/manifest, a directory belonging to a different
/// campaign, and non-transient I/O failures. Unit execution failures
/// are *not* errors — they retry and eventually poison the unit.
pub fn work_campaign(out_dir: &Path, opts: &WorkOptions) -> Result<WorkReport, CliError> {
    let manifest = crate::load_stored_manifest(out_dir)?;
    let plan = load_plan(out_dir)?;
    let grid = manifest.grid.to_grid()?;
    let store = CheckpointStore::open(out_dir)?;
    let units_dir = out_dir.join(UNITS_DIR);
    let cfg = LeaseConfig {
        worker: opts.worker.clone(),
        timeout: opts.lease_timeout,
    };
    let home_shard = opts.shard.unwrap_or_else(|| {
        if plan.shards == 0 {
            0
        } else {
            (qufi_core::engine::SeedHasher::new()
                .mix_bytes(opts.worker.as_bytes())
                .finish()
                % plan.shards as u64) as usize
        }
    });

    // Own shard first (plan order), then everyone else's — work stealing
    // kicks in only once the home shard is drained or blocked.
    let mut order: Vec<&WorkUnit> = plan
        .units
        .iter()
        .filter(|u| u.shard == home_shard)
        .collect();
    order.extend(plan.units.iter().filter(|u| u.shard != home_shard));

    let mut runtimes: HashMap<String, JobRuntime> = HashMap::new();
    let mut report = WorkReport::default();
    let poll = (opts.lease_timeout / 4).min(Duration::from_millis(200));
    loop {
        let mut outstanding = 0usize;
        let mut progressed = false;
        // Outstanding units this pass did not finish: held by other
        // workers, or failed here and released for a retry.
        let mut unfinished: Vec<&WorkUnit> = Vec::new();
        for unit in &order {
            if finished(out_dir, &unit.id) {
                continue;
            }
            outstanding += 1;
            let lease = match claim_with_retry(&units_dir, &unit.id, &cfg)? {
                Claim::Acquired(lease) => lease,
                Claim::Miss(_) => {
                    unfinished.push(unit);
                    continue;
                }
            };
            let stolen = lease.took_over;
            let runtime = match runtimes.entry(unit.job.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    // The plan measured golden outputs and the baseline
                    // into the job's metadata; workers never re-run them.
                    let meta = store.load_meta(&unit.job)?.ok_or_else(|| {
                        CliError::shard(format!(
                            "unit {} references job {} with no checkpoint metadata; \
                             re-run `qufi shard plan`",
                            unit.id, unit.job
                        ))
                    })?;
                    e.insert(JobRuntime::from_meta(&manifest, &meta)?)
                }
            };
            match execute_unit(out_dir, runtime, &grid, unit, &lease, &cfg, opts) {
                Ok(()) => {
                    report.units_done += 1;
                    report.units_stolen += usize::from(stolen);
                    progressed = true;
                    if !opts.quiet {
                        qufi_obs::log::info(&format!(
                            "[{}] unit {} ({} op {} q{}) done{}",
                            opts.worker,
                            unit.id,
                            unit.job,
                            unit.point.op_index,
                            unit.point.qubit,
                            if stolen { " (stolen)" } else { "" },
                        ));
                    }
                }
                Err(e) => {
                    // A failed unit is a campaign-health event, not a
                    // worker-fatal one: count the strike, quarantine on
                    // the limit, and move on to other units.
                    let fails = record_failure(out_dir, unit, &e)?;
                    qufi_obs::add("shard.unit_failures", 1);
                    qufi_obs::log::warn(&format!(
                        "[{}] unit {} failed (attempt {fails}/{MAX_UNIT_FAILURES}): {e}",
                        opts.worker, unit.id
                    ));
                    if fails >= MAX_UNIT_FAILURES {
                        poison_unit(out_dir, unit, fails, &e)?;
                        report.units_poisoned += 1;
                        qufi_obs::add("shard.units_poisoned", 1);
                    }
                    release_if_mine(lease);
                    unfinished.push(unit);
                    continue;
                }
            }
            release_if_mine(lease);
        }
        if outstanding == 0 {
            break;
        }
        if !progressed {
            // Everything left is held by (or poisoned-pending from)
            // other workers; wait for their heartbeats to go stale or
            // their done markers to appear.
            wait_for_markers(out_dir, &unfinished, poll);
        }
    }
    qufi_obs::flush();
    Ok(report)
}

/// Sleeps for `poll`, the claim and takeover rescan cadence, but returns
/// as soon as every unit in `unfinished` has a done or poison marker: the
/// rescan that follows then finds nothing left, and the worker exits
/// right after the last unit finishes instead of up to `poll` later.
fn wait_for_markers(out_dir: &Path, unfinished: &[&WorkUnit], poll: Duration) {
    let deadline = Instant::now() + poll;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(MARKER_SLICE));
        if unfinished.iter().all(|u| finished(out_dir, &u.id)) {
            return;
        }
    }
}

/// `try_claim` with transient failures retried on the deterministic
/// backoff schedule.
fn claim_with_retry(units_dir: &Path, unit: &str, cfg: &LeaseConfig) -> Result<Claim, CliError> {
    let mut backoff = Backoff::new(
        RETRY_BASE,
        RETRY_CAP,
        RETRY_ATTEMPTS,
        &format!("{}/{unit}/claim", cfg.worker),
    );
    loop {
        match lease::try_claim(units_dir, unit, cfg) {
            Ok(claim) => return Ok(claim),
            Err(e) if e.is_transient() => match backoff.next_delay() {
                Some(delay) => {
                    qufi_obs::add("shard.claim_retries", 1);
                    std::thread::sleep(delay);
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

/// Runs one unit under a heartbeating lease and publishes its record
/// file plus the done marker.
fn execute_unit(
    out_dir: &Path,
    runtime: &JobRuntime,
    grid: &FaultGrid,
    unit: &WorkUnit,
    lease: &Lease,
    cfg: &LeaseConfig,
    opts: &WorkOptions,
) -> Result<(), CliError> {
    with_heartbeat(lease, cfg, || {
        run_and_publish(out_dir, runtime, grid, unit, opts)
    })
}

/// Runs `body` while a heartbeat thread keeps `lease` fresh, and stops the
/// heartbeat on every exit path. A panicking body becomes an error — a
/// unit failure under the poison rule — instead of unwinding into the
/// scope, which would join a heartbeat that never stops and hang the
/// worker with its lease forever fresh.
fn with_heartbeat(
    lease: &Lease,
    cfg: &LeaseConfig,
    body: impl FnOnce() -> Result<(), CliError>,
) -> Result<(), CliError> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let heartbeat = scope.spawn(|| heartbeat_loop(lease, cfg, &stop));
        let result = panic::catch_unwind(AssertUnwindSafe(body));
        stop.store(true, Ordering::SeqCst);
        heartbeat.thread().unpark();
        result.unwrap_or_else(|payload| {
            let message =
                qufi_serve::panic_message(&*payload).unwrap_or_else(|| "unit panicked".to_string());
            Err(CliError::shard(format!("panic: {message}")))
        })
    })
}

/// Refreshes the lease on the heartbeat cadence until told to stop. The
/// thread parks between beats and the stopper unparks it, so a stop ends
/// the loop at once rather than at the next poll of the flag. Refresh
/// failures are logged and retried next beat — a missed beat only
/// matters if it persists past the takeover timeout, at which point the
/// dedup merge makes double execution harmless anyway.
fn heartbeat_loop(lease: &Lease, cfg: &LeaseConfig, stop: &AtomicBool) {
    let beat = cfg.heartbeat_interval();
    loop {
        let next = Instant::now() + beat;
        loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let left = next.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            // Parking may end early (an unpark or spuriously); the loop
            // re-checks the flag and the deadline.
            std::thread::park_timeout(left);
        }
        if let Err(e) = lease.refresh() {
            qufi_obs::add("lease.refresh_failures", 1);
            qufi_obs::log::warn(&format!("lease heartbeat failed: {e}"));
        }
    }
}

fn run_and_publish(
    out_dir: &Path,
    runtime: &JobRuntime,
    grid: &FaultGrid,
    unit: &WorkUnit,
    opts: &WorkOptions,
) -> Result<(), CliError> {
    let _job = qufi_obs::job_scope(&unit.job);
    let records = runtime
        .run_point_split(unit.point, grid, opts.grid_threads.max(1))
        .map_err(CliError::Exec)?;
    let csv = records_to_csv(&records);
    let path = unit_file(out_dir, &unit.id, &opts.worker);
    let mut backoff = Backoff::new(
        RETRY_BASE,
        RETRY_CAP,
        RETRY_ATTEMPTS,
        &format!("{}/{}/write", opts.worker, unit.id),
    );
    loop {
        match write_unit_file(&path, &csv) {
            Ok(()) => break,
            Err(e) if e.is_transient() => match backoff.next_delay() {
                Some(delay) => {
                    qufi_obs::add("shard.write_retries", 1);
                    std::thread::sleep(delay);
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
    // Between the record file and the done marker: a crash here leaves a
    // complete file without a marker, so the unit simply re-runs — the
    // duplicate records dedup away at merge.
    chaos::kill_point("unit.post_write");
    let done = done_path(out_dir, &unit.id);
    fs::write(&done, format!("{}\n", opts.worker))
        .map_err(|e| CliError::io("writing done marker", &done, e))?;
    qufi_obs::add("shard.units_done", 1);
    Ok(())
}

/// Writes one unit's record file. The write is a single `fs::write`
/// (truncate + write), so a re-executing worker replaces its own torn
/// leftovers; distinct workers never share a path.
fn write_unit_file(path: &Path, csv: &str) -> Result<(), CliError> {
    chaos::kill_point("unit.pre_write");
    if chaos::fail_point("unit.write") {
        return Err(CliError::io(
            "writing unit records",
            path,
            chaos::synthetic_io_error("unit.write"),
        ));
    }
    if chaos::kill_armed("unit.mid_write") {
        // Stage the torn-tail scenario the salvage path must survive:
        // persist a prefix that cuts the final record short, then die.
        let cut = csv.len() - csv.len().min(7);
        let _ = fs::write(path, &csv.as_bytes()[..cut]);
        chaos::kill_point("unit.mid_write"); // aborts
    }
    fs::write(path, csv).map_err(|e| CliError::io("writing unit records", path, e))
}

/// Records one failure strike for a unit; returns the new strike count.
/// The counter is a file so strikes accumulate across workers and
/// process restarts.
fn record_failure(out_dir: &Path, unit: &WorkUnit, err: &CliError) -> Result<u64, CliError> {
    let path = fails_path(out_dir, &unit.id);
    let prior: u64 = fs::read_to_string(&path)
        .ok()
        .and_then(|t| t.lines().next().and_then(|l| l.trim().parse().ok()))
        .unwrap_or(0);
    let fails = prior + 1;
    fs::write(&path, format!("{fails}\nlast_error: {err}\n"))
        .map_err(|e| CliError::io("recording unit failure", &path, e))?;
    Ok(fails)
}

/// Quarantines a unit: writes the diagnostic record that `shard merge`
/// will point operators at.
fn poison_unit(
    out_dir: &Path,
    unit: &WorkUnit,
    fails: u64,
    err: &CliError,
) -> Result<(), CliError> {
    let path = poison_path(out_dir, &unit.id);
    let diag = format!(
        "unit = {}\njob = {}\nop_index = {}\nqubit = {}\nfailures = {fails}\n\
         last_error = {err}\n\nThis unit exhausted its failure budget and was \
         quarantined. Fix the cause, delete this file and the unit's .fails \
         marker under units/, then re-run `qufi shard work`.\n",
        unit.id, unit.job, unit.point.op_index, unit.point.qubit,
    );
    crate::atomic_write(&path, diag.as_bytes(), "writing poison diagnostic")
}

/// Releases a lease only when it is still ours — if it went stale and
/// was stolen mid-execution, the path now belongs to the thief and must
/// be left alone.
fn release_if_mine(lease: Lease) {
    if lease.still_mine() {
        lease.release();
    }
}

// ---------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------

/// Folds a fully-worked campaign's per-unit record files into the
/// canonical checkpoint layout and exports `results/` — byte-identical
/// to a single-node run of the same manifest.
///
/// # Errors
///
/// Poisoned or unfinished units (listed), missing/corrupt unit files,
/// grid-coverage gaps, and I/O failures.
pub fn merge_campaign(out_dir: &Path) -> Result<MergeReport, CliError> {
    let manifest = crate::load_stored_manifest(out_dir)?;
    let plan = load_plan(out_dir)?;
    let grid = manifest.grid.to_grid()?;
    let store = CheckpointStore::open(out_dir)?;

    let poisoned: Vec<&str> = plan
        .units
        .iter()
        .filter(|u| poison_path(out_dir, &u.id).exists())
        .map(|u| u.id.as_str())
        .collect();
    if !poisoned.is_empty() {
        return Err(CliError::shard(format!(
            "{} unit(s) are quarantined ({}); see {} for diagnostics",
            poisoned.len(),
            poisoned.join(", "),
            out_dir.join(POISONED_DIR).display(),
        )));
    }
    let unfinished: Vec<&str> = plan
        .units
        .iter()
        .filter(|u| !done_path(out_dir, &u.id).exists())
        .map(|u| u.id.as_str())
        .collect();
    if !unfinished.is_empty() {
        return Err(CliError::shard(format!(
            "{} unit(s) not finished yet ({}{}); run `qufi shard work` to completion first",
            unfinished.len(),
            unfinished
                .iter()
                .take(8)
                .copied()
                .collect::<Vec<_>>()
                .join(", "),
            if unfinished.len() > 8 { ", …" } else { "" },
        )));
    }

    let mut per_job: HashMap<&str, Vec<InjectionRecord>> = HashMap::new();
    for unit in &plan.units {
        let records = load_unit_records(out_dir, unit)?;
        let covered: std::collections::HashSet<(u64, u64)> = records
            .iter()
            .filter(|r| r.point == unit.point)
            .map(|r| (r.theta.to_bits(), r.phi.to_bits()))
            .collect();
        if covered.len() < grid.len() {
            return Err(CliError::shard(format!(
                "unit {} covers {}/{} grid cells; its record files are \
                 incomplete — delete its done marker to re-run it",
                unit.id,
                covered.len(),
                grid.len()
            )));
        }
        per_job.entry(&unit.job).or_default().extend(records);
    }

    // Everything validated; publish. A crash from here on is repaired by
    // re-running merge (checkpoint writes are atomic per file, and the
    // export re-derives from checkpoints).
    chaos::kill_point("merge.pre_publish");
    for spec in job_matrix(&manifest) {
        let id = spec.id();
        let meta = store.load_meta(&id)?.ok_or_else(|| {
            CliError::shard(format!(
                "job {id} has no checkpoint metadata; re-run `qufi shard plan`"
            ))
        })?;
        let mut result = CampaignResult::from_parts(
            meta.circuit.clone(),
            meta.golden.clone(),
            meta.baseline_qvf,
            grid.clone(),
            Vec::new(),
        );
        result.merge_records(per_job.remove(id.as_str()).unwrap_or_default());
        store.replace_records(&id, &result.records)?;
        qufi_obs::add("shard.jobs_merged", 1);
    }
    qufi_obs::add("shard.units_merged", plan.units.len() as u64);

    let export = export_artifacts(&manifest, out_dir)?;
    Ok(MergeReport {
        units_merged: plan.units.len(),
        export,
    })
}

/// Loads every record any worker produced for a unit, salvaging torn
/// tails the same way the checkpoint loader does: a final line without
/// its `\n` terminator is dropped before parsing — a merely-parseable
/// truncation must not be mistaken for a record. Duplicate complete
/// records across workers are bit-identical and dedup at merge.
fn load_unit_records(out_dir: &Path, unit: &WorkUnit) -> Result<Vec<InjectionRecord>, CliError> {
    let dir = out_dir.join(SHARDS_DIR);
    let entries =
        fs::read_dir(&dir).map_err(|e| CliError::io("listing shard record files", &dir, e))?;
    let prefix = format!("{}.", unit.id);
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".csv"))
        })
        .collect();
    paths.sort(); // deterministic read order (not that order matters post-merge)
    let mut records = Vec::new();
    for path in &paths {
        let mut text =
            fs::read_to_string(path).map_err(|e| CliError::io("reading unit records", path, e))?;
        if !text.is_empty() && !text.ends_with('\n') {
            let keep = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
            text.truncate(keep);
            qufi_obs::add("shard.salvaged_lines", 1);
        }
        if text.is_empty() {
            continue;
        }
        records.extend(records_from_csv(&text).map_err(|e| {
            CliError::checkpoint(format!(
                "{e} (in {}; delete the file and the unit's \
                 done marker to re-run it)",
                path.display()
            ))
        })?);
    }
    if records.is_empty() {
        return Err(CliError::shard(format!(
            "unit {} is marked done but has no record file under {}",
            unit.id,
            dir.display()
        )));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunOptions};
    use std::collections::BTreeMap;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qufi-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_manifest() -> Manifest {
        Manifest::from_toml(
            "[campaign]\nname = \"s\"\nseed = 3\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n",
        )
        .unwrap()
    }

    fn results_tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
        fn walk(dir: &Path, root: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
            for entry in fs::read_dir(dir).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, root, out);
                } else {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap()
                        .to_string_lossy()
                        .into_owned();
                    out.insert(rel, fs::read(&path).unwrap());
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(root, root, &mut out);
        out
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = ShardPlan::build(
            "c",
            &[
                (
                    "a@x".to_string(),
                    InjectionPoint {
                        op_index: 0,
                        qubit: 1,
                    },
                ),
                (
                    "a@x".to_string(),
                    InjectionPoint {
                        op_index: 3,
                        qubit: 0,
                    },
                ),
            ],
            6,
            2,
            |_, p| (p.op_index == 3).then_some(500),
        );
        let back = plan_from_json(&plan_to_json(&plan)).unwrap();
        assert_eq!(back, plan);
        // An empty plan round-trips too.
        let empty = ShardPlan::build("c", &[], 1, 1, |_, _| None);
        assert_eq!(plan_from_json(&plan_to_json(&empty)).unwrap(), empty);
    }

    #[test]
    fn plan_work_merge_matches_single_node_bytes() {
        let m = small_manifest();
        let single = temp_dir("single");
        run_campaign(
            &m,
            &single,
            &RunOptions {
                quiet: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        export_artifacts(&m, &single).unwrap();

        let sharded = temp_dir("sharded");
        let report = plan_campaign(&m, &sharded, 2, None).unwrap();
        assert_eq!(report.cost_source, "cells");
        assert!(!report.plan.units.is_empty());
        for worker in ["alpha", "beta"] {
            let wr = work_campaign(
                &sharded,
                &WorkOptions {
                    worker: worker.to_string(),
                    quiet: true,
                    ..WorkOptions::default()
                },
            )
            .unwrap();
            assert_eq!(wr.units_poisoned, 0);
        }
        let merged = merge_campaign(&sharded).unwrap();
        assert_eq!(merged.units_merged, report.plan.units.len());
        assert_eq!(
            results_tree(&single.join("results")),
            results_tree(&sharded.join("results")),
            "sharded results must be byte-identical to single-node"
        );
        let _ = fs::remove_dir_all(single);
        let _ = fs::remove_dir_all(sharded);
    }

    #[test]
    fn merge_refuses_unfinished_and_poisoned_units() {
        let m = small_manifest();
        let dir = temp_dir("refuse");
        let report = plan_campaign(&m, &dir, 1, None).unwrap();
        let err = merge_campaign(&dir).unwrap_err().to_string();
        assert!(err.contains("not finished"), "{err}");

        // Poison one unit: merge must name it even once everything else runs.
        let unit = report.plan.units[0].clone();
        poison_unit(&dir, &unit, 3, &CliError::shard("synthetic")).unwrap();
        work_campaign(
            &dir,
            &WorkOptions {
                worker: "w".into(),
                quiet: true,
                ..WorkOptions::default()
            },
        )
        .unwrap();
        let err = merge_campaign(&dir).unwrap_err().to_string();
        assert!(
            err.contains("quarantined") && err.contains(&unit.id),
            "{err}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn measured_costs_feed_the_planner() {
        let m = small_manifest();
        let dir = temp_dir("costs");
        // First: a profiled single-node run produces costs.csv in the
        // same directory; replanning there picks the measurements up.
        crate::run_to_completion(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                metrics: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report = plan_campaign(&m, &dir, 2, None).unwrap();
        assert_eq!(report.cost_source, "measured");
        assert!(report.plan.units.iter().all(|u| u.cost >= 1));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn waiting_worker_wakes_on_markers_and_keeps_the_rescan_cadence() {
        let dir = temp_dir("markers");
        fs::create_dir_all(dir.join(UNITS_DIR)).unwrap();
        fs::create_dir_all(dir.join(POISONED_DIR)).unwrap();
        let unit = |id: &str| WorkUnit {
            id: id.into(),
            job: "j".into(),
            point: InjectionPoint {
                op_index: 0,
                qubit: 0,
            },
            cost: 1,
            shard: 0,
        };
        let (done, poisoned, held) = (unit("u0"), unit("u1"), unit("u2"));
        fs::write(done_path(&dir, "u0"), "w\n").unwrap();
        fs::write(poison_path(&dir, "u1"), "failed\n").unwrap();

        let start = Instant::now();
        wait_for_markers(&dir, &[&done, &poisoned], Duration::from_secs(30));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "finished units must end the wait early"
        );

        let poll = Duration::from_millis(50);
        let start = Instant::now();
        wait_for_markers(&dir, &[&done, &held], poll);
        assert!(
            start.elapsed() >= poll,
            "a unit without a marker keeps the full rescan cadence"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn panicking_unit_stops_its_heartbeat_and_fails() {
        let dir = temp_dir("panic");
        let units = dir.join(UNITS_DIR);
        fs::create_dir_all(&units).unwrap();
        let cfg = LeaseConfig {
            worker: "w".into(),
            timeout: Duration::from_millis(40),
        };
        let Claim::Acquired(lease) = lease::try_claim(&units, "u", &cfg).unwrap() else {
            panic!("fresh unit must be claimable");
        };
        // A heartbeat left running would keep the scope from returning:
        // wait with a timeout so that failure mode fails the test instead
        // of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = with_heartbeat(&lease, &cfg, || panic!("synthetic unit panic"));
            let _ = tx.send(result.map_err(|e| e.to_string()));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a panicking unit hung its worker");
        let err = result.expect_err("a panicking unit must fail");
        assert!(err.contains("synthetic unit panic"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_unit_tail_is_salvaged_not_fabricated() {
        let m = small_manifest();
        let dir = temp_dir("torn");
        plan_campaign(&m, &dir, 1, None).unwrap();
        work_campaign(
            &dir,
            &WorkOptions {
                worker: "a".into(),
                quiet: true,
                ..WorkOptions::default()
            },
        )
        .unwrap();
        // Tear the tail of one unit file: the salvage must drop exactly
        // the torn record, and the campaign still merges because another
        // worker's (complete) file covers the unit. Simulate by copying
        // the complete file to a second worker name, then tearing the
        // first.
        let plan = load_plan(&dir).unwrap();
        let u = &plan.units[0];
        let a = unit_file(&dir, &u.id, "a");
        let b = unit_file(&dir, &u.id, "b");
        fs::copy(&a, &b).unwrap();
        let text = fs::read_to_string(&a).unwrap();
        fs::write(&a, &text[..text.len() - 9]).unwrap();
        let merged = merge_campaign(&dir).unwrap();
        assert_eq!(merged.units_merged, plan.units.len());
        let _ = fs::remove_dir_all(dir);
    }
}
