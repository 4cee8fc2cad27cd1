//! `qufi` — campaign orchestration for the QuFI fault injector.
//!
//! ```text
//! qufi run <manifest.toml> [--out DIR] [--threads N] [--budget N] [--quiet|--verbose]
//!                          [--no-metrics] [--trace] [--dry-run]
//! qufi resume <campaign-dir> [--threads N] [--budget N] [--quiet|--verbose]
//!                            [--no-metrics] [--trace]
//! qufi export <campaign-dir>
//! qufi stats <campaign-dir> [--top N]
//! qufi list {workloads|backends|grids|runs [DIR]}
//! qufi shard plan <manifest.toml> [--out DIR] [--shards N] [--costs FILE]
//! qufi shard work <campaign-dir> --worker NAME [--shard K]
//!                 [--lease-timeout-ms N] [--threads N]
//! qufi shard merge <campaign-dir>
//! qufi serve [--addr HOST:PORT] [--out DIR] [--workers N] [--queue N]
//!            [--job-timeout-ms N] [--threads N]
//! ```
//!
//! Exit codes: `0` success / campaign complete, `2` budget expired
//! (resume to continue), `1` any error.

use qufi_cli::{
    default_out_dir, dry_run_plan, export_artifacts, load_stored_manifest, merge_campaign,
    plan_campaign, render_runs, render_stats, resume, run_to_completion, serve, work_campaign,
    CliError, GridSpec, Manifest, RunOptions, RunStatus, ServeOptions, WorkOptions,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
qufi — QuFI campaign orchestration

USAGE:
    qufi run <manifest.toml> [--out DIR] [--threads N] [--budget N] [--quiet|--verbose]
                             [--no-metrics] [--trace] [--dry-run]
    qufi resume <campaign-dir> [--threads N] [--budget N] [--quiet|--verbose]
                               [--no-metrics] [--trace]
    qufi export <campaign-dir>
    qufi stats <campaign-dir> [--top N]
    qufi list {workloads|backends|grids|runs [DIR]}
    qufi shard plan <manifest.toml> [--out DIR] [--shards N] [--costs FILE]
    qufi shard work <campaign-dir> --worker NAME [--shard K]
                    [--lease-timeout-ms N] [--threads N]
    qufi shard merge <campaign-dir>
    qufi serve [--addr HOST:PORT] [--out DIR] [--workers N] [--queue N]
               [--job-timeout-ms N] [--threads N]

COMMANDS:
    run      Execute a campaign manifest; checkpoints land in the output
             directory, artifacts in <out>/results, telemetry in
             <out>/metrics.json and <out>/costs.csv.
    resume   Continue an interrupted campaign from its checkpoints.
    export   Regenerate <dir>/results from checkpoints, without running.
    stats    Render the phase breakdown, counters, and slowest points
             from a run's telemetry artifacts.
    list     Show the registered workloads, backends, grid presets — or
             per-job progress of the runs under DIR (default: qufi-runs).
    shard    Crash-safe multi-worker campaigns: `plan` partitions the
             job × point matrix into cost-weighted work units, any number
             of `work` processes execute them under expiring leases
             (SIGKILL-safe; stale units are taken over), and `merge`
             folds the per-unit files into checkpoints + results that
             are byte-identical to a single-node run.
    serve    Run the campaign daemon: line-delimited JSON over TCP
             (submit/status/cancel/list/health/shutdown), a durable
             bounded queue with idempotent content-addressed submission,
             per-job timeouts, 3-strike poison quarantine, and graceful
             drain. Kill it any time; the next start resumes the queue
             and its checkpoints. See README \"Service & failure model\".

OPTIONS:
    A command refuses any flag its usage line does not list; --quiet and
    --verbose apply to every command.

    --out DIR      Output directory (default: qufi-runs/<campaign name>)
    --threads N    Override the manifest's worker-thread count
    --budget N     Run only the first N pending points, in manifest order
                   (graceful; resume later)
    --quiet        Errors only on stderr
    --verbose      Progress on stderr even when it is not a terminal
    --no-metrics   Skip telemetry recording and its artifacts
    --trace        Also write a trace.jsonl span log (implies metrics)
    --top N        (stats only) Slowest points to show (default: 10)
    --dry-run      (run only) Print the resolved job × point × config task
                   matrix and thread split without executing anything
    --shards N     (shard plan) Number of shards to partition into (default: 2)
    --costs FILE   (shard plan) Cost profile to allocate by (default:
                   <out>/costs.csv when present, else grid-cell weights)
    --worker NAME  (shard work) Unique name for this worker process
    --shard K      (shard work) Home shard (default: derived from NAME)
    --lease-timeout-ms N
                   (shard work) Stale-lease takeover threshold (default: 5000)
    --addr HOST:PORT
                   (serve) Listen address (default: 127.0.0.1:7077; port 0
                   binds an ephemeral port, published in <out>/serve.addr)
    --workers N    (serve) Campaign worker threads (default: 2)
    --queue N      (serve) Admission-queue bound; submissions past it are
                   shed with a structured `overloaded` error (default: 64)
    --job-timeout-ms N
                   (serve) Per-job wall-clock timeout; a timed-out job is
                   canceled cooperatively, checkpoints kept (default: none)

Set QUFI_FSYNC=1 (or true) to fsync every checkpoint append and every
atomic file write (exports, metadata, manifests, plans, serve job
records): durability against power loss, not just process death.

Telemetry never changes campaign results: everything under results/ is
byte-identical with metrics on or off, at any thread count.
";

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(status) => status,
        Err(e) => {
            qufi_obs::log::error(&e.to_string());
            if matches!(e, CliError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<ExitCode, CliError> {
    let mut args = args.into_iter();
    let command = args.next().unwrap_or_else(|| "help".to_string());
    match command.as_str() {
        "run" => cmd_run(args.collect()),
        "resume" => cmd_resume(args.collect()),
        "export" => cmd_export(args.collect()),
        "stats" => cmd_stats(args.collect()),
        "list" => cmd_list(args.collect()),
        "shard" => cmd_shard(args.collect()),
        "serve" => cmd_serve(args.collect()),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

struct CommonFlags {
    positional: Vec<String>,
    /// Every `--flag` given except the global `--quiet`/`--verbose`, for
    /// [`CommonFlags::only`].
    given: Vec<String>,
    out: Option<PathBuf>,
    opts: RunOptions,
    dry_run: bool,
    verbose: bool,
    no_metrics: bool,
    top: Option<usize>,
    shards: Option<usize>,
    costs: Option<PathBuf>,
    worker: Option<String>,
    shard: Option<usize>,
    lease_timeout_ms: Option<u64>,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    job_timeout_ms: Option<u64>,
}

fn parse_flags(args: Vec<String>) -> Result<CommonFlags, CliError> {
    let mut flags = CommonFlags {
        positional: Vec::new(),
        given: Vec::new(),
        out: None,
        opts: RunOptions::default(),
        dry_run: false,
        verbose: false,
        no_metrics: false,
        top: None,
        shards: None,
        costs: None,
        worker: None,
        shard: None,
        lease_timeout_ms: None,
        addr: None,
        workers: None,
        queue: None,
        job_timeout_ms: None,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with("--") && !matches!(arg.as_str(), "--quiet" | "--verbose") {
            flags.given.push(arg.clone());
        }
        match arg.as_str() {
            "--dry-run" => flags.dry_run = true,
            "--out" => flags.out = Some(PathBuf::from(take_value(&mut iter, "--out")?)),
            "--threads" => {
                flags.opts.threads = Some(parse_number(&take_value(&mut iter, "--threads")?)?)
            }
            "--budget" => {
                flags.opts.point_budget = Some(parse_number(&take_value(&mut iter, "--budget")?)?)
            }
            "--quiet" | "-q" => flags.opts.quiet = true,
            "--verbose" | "-v" => flags.verbose = true,
            "--no-metrics" => flags.no_metrics = true,
            "--trace" => flags.opts.trace = true,
            "--top" => flags.top = Some(parse_number(&take_value(&mut iter, "--top")?)?),
            "--shards" => flags.shards = Some(parse_number(&take_value(&mut iter, "--shards")?)?),
            "--costs" => flags.costs = Some(PathBuf::from(take_value(&mut iter, "--costs")?)),
            "--worker" => flags.worker = Some(take_value(&mut iter, "--worker")?),
            "--shard" => flags.shard = Some(parse_number(&take_value(&mut iter, "--shard")?)?),
            "--lease-timeout-ms" => {
                flags.lease_timeout_ms =
                    Some(parse_number(&take_value(&mut iter, "--lease-timeout-ms")?)? as u64)
            }
            "--addr" => flags.addr = Some(take_value(&mut iter, "--addr")?),
            "--workers" => {
                flags.workers = Some(parse_number(&take_value(&mut iter, "--workers")?)?)
            }
            "--queue" => flags.queue = Some(parse_number(&take_value(&mut iter, "--queue")?)?),
            "--job-timeout-ms" => {
                flags.job_timeout_ms =
                    Some(parse_number(&take_value(&mut iter, "--job-timeout-ms")?)? as u64)
            }
            a if a.starts_with("--") => return Err(CliError::usage(format!("unknown flag {a:?}"))),
            _ => flags.positional.push(arg),
        }
    }
    if flags.opts.quiet && flags.verbose {
        return Err(CliError::usage(
            "--quiet and --verbose are mutually exclusive",
        ));
    }
    // Telemetry is on by default for run/resume; --no-metrics opts out
    // (a --trace next to it still wins, since a trace needs the recorder).
    flags.opts.metrics = !flags.no_metrics;
    // The log sink is process-wide: every command's warnings (e.g. a
    // torn-checkpoint salvage during list/export) obey the same flags.
    qufi_obs::log::set_verbosity(if flags.opts.quiet {
        qufi_obs::log::Verbosity::Quiet
    } else if flags.verbose {
        qufi_obs::log::Verbosity::Verbose
    } else {
        qufi_obs::log::Verbosity::Normal
    });
    Ok(flags)
}

impl CommonFlags {
    /// Rejects every flag outside `allowed`, the space-separated flags
    /// `command`'s usage line lists: a command never ignores a flag it was
    /// given. `--quiet`/`--verbose` are global (they set the log level).
    fn only(&self, command: &str, allowed: &str) -> Result<(), CliError> {
        let listed = |flag: &str| allowed.split_whitespace().any(|a| a == flag);
        match self.given.iter().find(|f| !listed(f)) {
            Some(flag) => Err(CliError::usage(format!(
                "{flag} does not apply to `qufi {command}`"
            ))),
            None => Ok(()),
        }
    }
}

fn take_value(iter: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    iter.next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

fn parse_number(text: &str) -> Result<usize, CliError> {
    text.parse()
        .map_err(|_| CliError::usage(format!("{text:?} is not a number")))
}

fn finish(outcome: qufi_cli::CampaignOutcome, out_dir: &Path, opts: &RunOptions) -> ExitCode {
    if !opts.quiet {
        println!(
            "artifacts: {} files under {}",
            outcome.export.files.len(),
            out_dir.join("results").display()
        );
        if opts.metrics || opts.trace {
            println!(
                "telemetry: {} (inspect with `qufi stats {}`)",
                out_dir.join("metrics.json").display(),
                out_dir.display()
            );
        }
    }
    match outcome.summary.status {
        RunStatus::Complete => ExitCode::SUCCESS,
        RunStatus::Interrupted => {
            qufi_obs::log::warn(&format!(
                "budget expired after {} points; continue with: qufi resume {}",
                outcome.summary.points_run,
                out_dir.display()
            ));
            ExitCode::from(2)
        }
    }
}

fn cmd_run(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    flags.only(
        "run",
        "--out --threads --budget --no-metrics --trace --dry-run",
    )?;
    let [manifest_path] = &flags.positional[..] else {
        return Err(CliError::usage("run takes exactly one manifest path"));
    };
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| CliError::io("reading manifest", manifest_path, e))?;
    let manifest = Manifest::from_toml(&text)?;
    if flags.dry_run {
        print!("{}", dry_run_plan(&manifest, &flags.opts)?);
        return Ok(ExitCode::SUCCESS);
    }
    let out_dir = flags.out.unwrap_or_else(|| default_out_dir(&manifest));
    let outcome = run_to_completion(&manifest, &out_dir, &flags.opts)?;
    if !flags.opts.quiet {
        print!("{}", outcome.export.summary_table);
    }
    Ok(finish(outcome, &out_dir, &flags.opts))
}

fn cmd_resume(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    flags.only("resume", "--threads --budget --no-metrics --trace")?;
    let [dir] = &flags.positional[..] else {
        return Err(CliError::usage(
            "resume takes exactly one campaign directory",
        ));
    };
    let out_dir = PathBuf::from(dir);
    let outcome = resume(&out_dir, &flags.opts)?;
    if !flags.opts.quiet {
        print!("{}", outcome.export.summary_table);
    }
    Ok(finish(outcome, &out_dir, &flags.opts))
}

fn cmd_export(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    flags.only("export", "")?;
    let [dir] = &flags.positional[..] else {
        return Err(CliError::usage(
            "export takes exactly one campaign directory",
        ));
    };
    let out_dir = PathBuf::from(dir);
    let manifest = load_stored_manifest(&out_dir)?;
    let report = export_artifacts(&manifest, &out_dir)?;
    println!(
        "exported {} files ({} complete jobs, {} partial) under {}",
        report.files.len(),
        report.jobs_complete,
        report.jobs_partial,
        out_dir.join("results").display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    flags.only("stats", "--top")?;
    let [dir] = &flags.positional[..] else {
        return Err(CliError::usage(
            "stats takes exactly one campaign directory",
        ));
    };
    print!("{}", render_stats(Path::new(dir), flags.top.unwrap_or(10))?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    flags.only("list", "")?;
    let (what, rest) = match &flags.positional[..] {
        [what] => (what, None),
        [what, dir] if what == "runs" => (what, Some(PathBuf::from(dir))),
        _ => {
            return Err(CliError::usage(
                "list takes one of: workloads, backends, grids, runs [DIR]",
            ))
        }
    };
    match what.as_str() {
        "runs" => {
            let dir = rest.unwrap_or_else(|| PathBuf::from("qufi-runs"));
            print!("{}", render_runs(&dir)?);
        }
        "workloads" => {
            println!("workload families (instantiate as <family>-<qubits>):");
            for info in qufi_algos::registry::families() {
                println!(
                    "  {:<8} {}..={} qubits  {}",
                    info.family, info.min_qubits, info.max_qubits, info.summary
                );
            }
        }
        "backends" => {
            println!("backend calibrations:");
            for &name in qufi_noise::BackendCalibration::builtin_names() {
                let cal = qufi_noise::BackendCalibration::named(name).expect("builtin");
                println!(
                    "  {:<12} {} qubits, {} coupled pairs ({})",
                    name,
                    cal.num_qubits(),
                    cal.coupling().len(),
                    cal.name
                );
            }
        }
        "grids" => {
            println!("grid presets:");
            for &preset in GridSpec::PRESETS {
                let grid = GridSpec::Preset(preset.to_string()).to_grid()?;
                println!(
                    "  {:<15} {} θ × {} φ = {} configurations per injection point",
                    preset,
                    grid.thetas.len(),
                    grid.phis.len(),
                    grid.len()
                );
            }
        }
        other => {
            return Err(CliError::usage(format!(
                "cannot list {other:?}; try workloads, backends, grids, or runs"
            )))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_shard(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    let [sub, target] = &flags.positional[..] else {
        return Err(CliError::usage(
            "shard takes a subcommand and a path: \
             shard {plan <manifest.toml> | work <campaign-dir> | merge <campaign-dir>}",
        ));
    };
    match sub.as_str() {
        "plan" => {
            flags.only("shard plan", "--out --shards --costs")?;
            let text = std::fs::read_to_string(target)
                .map_err(|e| CliError::io("reading manifest", target, e))?;
            let manifest = Manifest::from_toml(&text)?;
            let out_dir = flags.out.unwrap_or_else(|| default_out_dir(&manifest));
            let report = plan_campaign(
                &manifest,
                &out_dir,
                flags.shards.unwrap_or(2),
                flags.costs.as_deref(),
            )?;
            print!("{}", report.summary);
            println!(
                "plan written to {}; start workers with: \
                 qufi shard work {} --worker <name>",
                out_dir.join("shard-plan.json").display(),
                out_dir.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "work" => {
            flags.only(
                "shard work",
                "--worker --shard --lease-timeout-ms --threads",
            )?;
            let worker = flags.worker.clone().ok_or_else(|| {
                CliError::usage("shard work needs --worker NAME (unique per process)")
            })?;
            if worker.is_empty()
                || !worker
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
            {
                return Err(CliError::usage(
                    "--worker must be non-empty and [A-Za-z0-9_-] only (it becomes a file suffix)",
                ));
            }
            let opts = WorkOptions {
                worker,
                shard: flags.shard,
                lease_timeout: Duration::from_millis(flags.lease_timeout_ms.unwrap_or(5000)),
                grid_threads: flags.opts.threads.unwrap_or(1),
                quiet: flags.opts.quiet,
            };
            let report = work_campaign(Path::new(target), &opts)?;
            println!(
                "worker {}: {} unit(s) done ({} stolen), {} poisoned",
                opts.worker, report.units_done, report.units_stolen, report.units_poisoned
            );
            Ok(if report.units_poisoned == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
        "merge" => {
            flags.only("shard merge", "")?;
            let report = merge_campaign(Path::new(target))?;
            if !flags.opts.quiet {
                print!("{}", report.export.summary_table);
            }
            println!(
                "merged {} unit(s); {} artifact file(s) under {}",
                report.units_merged,
                report.export.files.len(),
                Path::new(target).join("results").display()
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::usage(format!(
            "unknown shard subcommand {other:?}; try plan, work, or merge"
        ))),
    }
}

fn cmd_serve(args: Vec<String>) -> Result<ExitCode, CliError> {
    let flags = parse_flags(args)?;
    flags.only(
        "serve",
        "--addr --out --workers --queue --job-timeout-ms --threads",
    )?;
    if !flags.positional.is_empty() {
        return Err(CliError::usage("serve takes no positional arguments"));
    }
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        addr: flags.addr.unwrap_or(defaults.addr),
        dir: flags.out.unwrap_or(defaults.dir),
        workers: flags.workers.unwrap_or(defaults.workers),
        queue_cap: flags.queue.unwrap_or(defaults.queue_cap),
        job_timeout_ms: flags.job_timeout_ms,
        threads: flags.opts.threads,
    };
    serve(&opts)?;
    // A drained daemon is a success: admissions stopped, in-flight work
    // finished or checkpointed, queue persisted.
    Ok(ExitCode::SUCCESS)
}
