//! `qufi-perfbench`: the in-process half of the campaign benchmark.
//! `perfbench/run.py` generates the inputs, runs the `qufi` binary for
//! the end-to-end numbers, and calls the subcommands below for the traced
//! run, the serve-mix client and output verification. Each subcommand
//! prints one JSON object on stdout, but `exec` (`launch.rs`), which
//! starts every program process and writes its report to a file.
//!
//! ```text
//! qufi-perfbench mirror --list FILE --threads N --job-workers J [--cache] --spans FILE
//! qufi-perfbench shard --manifest FILE --dir DIR --shards N --spans FILE
//! qufi-perfbench drive --addr HOST:PORT --jobs FILE --tenants T [--spans FILE]
//! qufi-perfbench expect --list FILE --threads N [--sample K --sample-seed S]
//! qufi-perfbench sim
//! qufi-perfbench exec REPORT PROGRAM [ARGS...]
//! ```
//!
//! A list FILE holds one `<manifest path>\t<directory>` pair per line; a
//! jobs FILE one `<tenant>\t<name>\t<manifest path>` triple per line.

mod launch;
mod mirror;
mod serve_drive;
mod sim_probe;
mod tracer;

use mirror::{mirror_campaign, Campaign, Totals};
use qufi_cli::job::{job_matrix, JobRuntime, RuntimeCache};
use qufi_cli::{merge_campaign, plan_campaign, work_campaign, Manifest, WorkOptions};
use qufi_core::campaign::CampaignResult;
use qufi_core::engine::SeedHasher;
use qufi_core::fault::InjectionPoint;
use qufi_core::report::records_to_csv;
use qufi_core::serialize::records_from_csv;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tracer::Tracer;

type Result<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(("exec", rest)) = args.split_first().map(|(c, r)| (c.as_str(), r)) {
        return launch::run(rest);
    }
    match dispatch(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qufi-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let opts = Opts(rest);
    match cmd.as_str() {
        "mirror" => cmd_mirror(&opts),
        "shard" => cmd_shard(&opts),
        "drive" => cmd_drive(&opts),
        "expect" => cmd_expect(&opts),
        "sim" => Ok(format!(
            "{{\"probes\":{}}}",
            sim_probe::probes_json(&sim_probe::run())
        )),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

struct Opts<'a>(&'a [String]);

impl Opts<'_> {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn req(&self, flag: &str) -> Result<&str> {
        self.get(flag).ok_or_else(|| format!("missing {flag}"))
    }

    fn num(&self, flag: &str) -> Result<usize> {
        self.req(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn read(path: &Path) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn load_manifest(path: &Path) -> Result<Manifest> {
    Manifest::from_toml(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a list file into (manifest, directory) pairs.
fn load_list(path: &Path) -> Result<Vec<(Manifest, PathBuf)>> {
    read(path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (m, d) = line
                .split_once('\t')
                .ok_or_else(|| format!("bad list line {line:?}"))?;
            Ok((load_manifest(Path::new(m))?, PathBuf::from(d)))
        })
        .collect()
}

fn write_spans(tracer: &Tracer, opts: &Opts) -> Result<()> {
    match opts.get("--spans") {
        Some(path) => tracer
            .write_jsonl(Path::new(path))
            .map_err(|e| format!("writing spans to {path}: {e}")),
        None => Ok(()),
    }
}

fn totals_json(t: &Totals) -> String {
    format!(
        "{{\"jobs\":{},\"points\":{},\"cells\":{},\"shot_cells\":{}}}",
        t.jobs, t.points, t.cells, t.shot_cells
    )
}

/// The traced mirror of `qufi run` (one campaign) or of the daemon's
/// worker pool (`--job-workers J --cache`: J workers take campaigns in
/// list order, sharing one prepare cache as `qufi serve` does).
fn cmd_mirror(opts: &Opts) -> Result<String> {
    let campaigns = load_list(Path::new(opts.req("--list")?))?;
    let threads = opts.num("--threads")?;
    let job_workers = opts.num("--job-workers")?.max(1);
    // Telemetry is on by default in `qufi run` and always on in `qufi
    // serve`; its counters are read back below.
    qufi_obs::reset();
    qufi_obs::enable();
    let cache = opts.has("--cache").then(|| RuntimeCache::new(16));
    let tracer = Tracer::new();
    let next = AtomicUsize::new(0);
    let totals = Mutex::new(Totals::default());
    let started = Instant::now();
    let result = {
        let root = tracer.span("run", 0);
        let root_id = root.id();
        let work = |worker_span: Option<&'static str>| -> Result<()> {
            let _w = worker_span.map(|name| tracer.child_of(name, 0, root_id));
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some((manifest, dir)) = campaigns.get(i) else {
                    qufi_obs::flush();
                    return Ok(());
                };
                let c = Campaign {
                    manifest,
                    dir,
                    id: i as u64 + 1,
                };
                let t = mirror_campaign(&tracer, &c, threads, cache.as_ref())
                    .map_err(|e| format!("{}: {e}", manifest.name))?;
                totals.lock().expect("totals lock").add(t);
            }
        };
        if job_workers == 1 {
            work(None)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..job_workers)
                    .map(|_| scope.spawn(|| work(Some("serve.worker"))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mirror worker panicked"))
                    .collect::<Result<Vec<()>>>()
                    .map(|_| ())
            })
        }
    };
    let wall_ns = started.elapsed().as_nanos();
    let snapshot = qufi_obs::snapshot();
    qufi_obs::disable();
    result?;
    write_spans(&tracer, opts)?;
    let mut counters = String::from("{");
    for (i, (name, n)) in snapshot.counters.iter().enumerate() {
        let _ = write!(counters, "{}\"{name}\":{n}", if i == 0 { "" } else { "," });
    }
    counters.push('}');
    let mut hists = String::from("{");
    for (i, (name, h)) in snapshot.hists.iter().enumerate() {
        let _ = write!(
            hists,
            "{}\"{name}\":{{\"count\":{},\"sum\":{}}}",
            if i == 0 { "" } else { "," },
            h.count,
            h.sum
        );
    }
    hists.push('}');
    let cache_json = cache.map_or("null".to_string(), |c| {
        let s = c.stats();
        format!("{{\"hits\":{},\"misses\":{}}}", s.hits, s.misses)
    });
    Ok(format!(
        "{{\"wall_ns\":{wall_ns},\"totals\":{},\"counters\":{counters},\"hists\":{hists},\
         \"cache\":{cache_json}}}",
        totals_json(&totals.into_inner().expect("totals lock"))
    ))
}

/// The traced `shard plan` → concurrent `shard work` → `shard merge`
/// sequence, each call in-process under its own span.
fn cmd_shard(opts: &Opts) -> Result<String> {
    let manifest = load_manifest(Path::new(opts.req("--manifest")?))?;
    let dir = PathBuf::from(opts.req("--dir")?);
    let shards = opts.num("--shards")?;
    let tracer = Tracer::new();
    let started = Instant::now();
    let reports = {
        let root = tracer.span("run", 1);
        let root_id = root.id();
        {
            let _plan = tracer.span("cli.shard.plan", 1);
            plan_campaign(&manifest, &dir, shards, None).map_err(|e| e.to_string())?;
        }
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|k| {
                    let (tracer, dir) = (&tracer, &dir);
                    scope.spawn(move || {
                        let span = tracer.child_of("cli.shard.work", 1, root_id);
                        let t = Instant::now();
                        let report = work_campaign(
                            dir,
                            &WorkOptions {
                                worker: format!("w{k}"),
                                shard: Some(k),
                                quiet: true,
                                ..WorkOptions::default()
                            },
                        );
                        drop(span);
                        report.map(|r| (r, t.elapsed().as_nanos()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect::<std::result::Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
        {
            let _merge = tracer.span("cli.shard.merge", 1);
            merge_campaign(&dir).map_err(|e| e.to_string())?;
        }
        reports
    };
    let wall_ns = started.elapsed().as_nanos();
    write_spans(&tracer, opts)?;
    let workers: Vec<String> = reports
        .iter()
        .map(|(r, busy)| {
            format!(
                "{{\"units_done\":{},\"units_stolen\":{},\"units_poisoned\":{},\"busy_ns\":{busy}}}",
                r.units_done, r.units_stolen, r.units_poisoned
            )
        })
        .collect();
    Ok(format!(
        "{{\"wall_ns\":{wall_ns},\"workers\":[{}]}}",
        workers.join(",")
    ))
}

/// The serve-mix closed loop against a running daemon.
fn cmd_drive(opts: &Opts) -> Result<String> {
    let jobs = read(Path::new(opts.req("--jobs")?))?;
    let subs = jobs
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut parts = line.splitn(3, '\t');
            let (Some(t), Some(name), Some(path)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("bad jobs line {line:?}"));
            };
            Ok(serve_drive::Submission {
                tenant: t.parse().map_err(|_| format!("bad tenant in {line:?}"))?,
                name: name.to_string(),
                manifest: read(Path::new(path))?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let tracer = if opts.has("--spans") {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let outcomes = serve_drive::drive(&tracer, opts.req("--addr")?, &subs, opts.num("--tenants")?)?;
    write_spans(&tracer, opts)?;
    Ok(format!(
        "{{\"jobs\":{}}}",
        serve_drive::outcomes_json(&outcomes)
    ))
}

/// Recomputes records through `JobRuntime::prepare` + `run_point` and
/// writes each job's expected `records.csv` (all points, or a seeded
/// sample of `--sample` points) as `<directory>/<job id>.records.csv`.
fn cmd_expect(opts: &Opts) -> Result<String> {
    let campaigns = load_list(Path::new(opts.req("--list")?))?;
    let threads = opts.num("--threads")?.max(1);
    let sample = opts.get("--sample").map(str::parse::<usize>).transpose();
    let sample = sample.map_err(|_| "--sample needs a number")?;
    let sample_seed = opts.get("--sample-seed").map_or(Ok(0), str::parse::<u64>);
    let sample_seed = sample_seed.map_err(|_| "--sample-seed needs a number")?;

    let mut runtimes = Vec::new();
    for (manifest, dir) in &campaigns {
        for spec in job_matrix(manifest) {
            let rt = JobRuntime::prepare(manifest, &spec).map_err(|e| e.to_string())?;
            let points = match sample {
                Some(k) => sample_points(&rt.points, k, sample_seed),
                None => rt.points.clone(),
            };
            runtimes.push((manifest, dir, rt, points));
        }
    }
    let tasks: Vec<(usize, InjectionPoint)> = runtimes
        .iter()
        .enumerate()
        .flat_map(|(r, (_, _, _, points))| points.iter().map(move |&p| (r, p)))
        .collect();
    let next = AtomicUsize::new(0);
    let records: Vec<Mutex<Vec<qufi_core::InjectionRecord>>> =
        runtimes.iter().map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| -> Result<()> {
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(r, point)) = tasks.get(i) else {
                            return Ok(());
                        };
                        let (manifest, _, rt, _) = &runtimes[r];
                        let grid = manifest.grid.to_grid().map_err(|e| e.to_string())?;
                        let recs = rt.run_point(point, &grid).map_err(|e| e.to_string())?;
                        records[r].lock().expect("records lock").extend(recs);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("expect worker panicked"))
            .collect::<Result<Vec<()>>>()
    })?;
    for ((manifest, dir, rt, _), recs) in runtimes.iter().zip(records) {
        let grid = manifest.grid.to_grid().map_err(|e| e.to_string())?;
        // The program exports from its checkpoints, which hold each QVF
        // at the precision `records_to_csv` prints; a severity near a
        // class boundary follows the printed value, so round-trip too.
        let checkpointed = records_to_csv(&recs.into_inner().expect("records lock"));
        let recs = records_from_csv(&checkpointed).map_err(|e| e.to_string())?;
        let result = CampaignResult::from_parts(
            rt.circuit.name.clone(),
            rt.golden.clone(),
            rt.baseline_qvf,
            grid,
            recs,
        );
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.records.csv", rt.spec.id()));
        std::fs::write(&path, records_to_csv(&result.records))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(format!(
        "{{\"jobs\":{},\"points\":{}}}",
        runtimes.len(),
        tasks.len()
    ))
}

/// `k` points drawn without replacement, ordered by a seeded hash of
/// their identity so the same seed always picks the same points.
fn sample_points(points: &[InjectionPoint], k: usize, seed: u64) -> Vec<InjectionPoint> {
    let mut keyed: Vec<(u64, InjectionPoint)> = points
        .iter()
        .map(|&p| {
            let h = SeedHasher::new()
                .mix_u64(seed)
                .mix_u64(p.op_index as u64)
                .mix_u64(p.qubit as u64)
                .finish();
            (h, p)
        })
        .collect();
    keyed.sort_by_key(|&(h, _)| h);
    keyed.into_iter().take(k).map(|(_, p)| p).collect()
}
