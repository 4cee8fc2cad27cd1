//! Artifact export: turns checkpointed campaign state into the
//! machine-readable results tree.
//!
//! ```text
//! <out>/results/
//!   summary.json            campaign-level rollup
//!   summary.csv             one row per job
//!   <job_id>/
//!     records.csv           canonical (sorted, deduplicated) records
//!     records.json          full campaign document (qufi_core::serialize)
//!     heatmap.csv|.json     mean-QVF (φ, θ) lattice (paper Fig. 5)
//!     qubit_ranking.csv|.json  per-qubit vulnerability (paper Fig. 6/§I)
//! ```
//!
//! Everything derives from the checkpoint files, never from in-memory
//! campaign state — so an interrupted-and-resumed campaign exports
//! byte-identical artifacts to an uninterrupted one, and `qufi export`
//! can regenerate results offline at any time.
//!
//! The export takes one job at a time. It loads and canonicalizes the
//! job's checkpoint, renders the job's six artifacts, each through one
//! fixed-size buffer, keeps the job's summary numbers and drops its
//! records before the next job loads; so its memory is bounded by the
//! largest job, not by the campaign. Each artifact is staged as
//! `<path>.tmp` (synced under `QUFI_FSYNC`) and only once the summary,
//! the last one, has rendered are they all renamed into place: an export
//! that fails (a job never run, a corrupt checkpoint) leaves `results/`
//! as it was.

use crate::checkpoint::{CheckpointStore, JobMeta};
use crate::error::CliError;
use crate::job::job_matrix;
use crate::manifest::Manifest;
use qufi_core::mapping::{qubit_reliability, QubitReliability};
use qufi_core::report::{write_records_csv, Heatmap};
use qufi_core::serialize::{json, write_campaign_json, write_heatmap_json};
use qufi_core::CampaignResult;
use qufi_obs::json::quote;
use qufi_serve::store;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Seek as _, Write};
use std::path::{Path, PathBuf};

/// Bytes an artifact renders into before they are written to its file.
const RENDER_BUFFER: usize = 64 << 10;

/// What an export pass produced.
#[derive(Debug, Clone)]
pub struct ExportReport {
    /// Files written, in write order.
    pub files: Vec<PathBuf>,
    /// Jobs with full record coverage.
    pub jobs_complete: usize,
    /// Jobs exported from partial checkpoints (flagged in the summary).
    pub jobs_partial: usize,
    /// The human-facing completion table, rendered from the same loaded
    /// state (so callers need not re-read the checkpoints to print it).
    pub summary_table: String,
}

/// What the summary artifacts need of a job once its records are gone.
struct JobSummary {
    meta: JobMeta,
    points_done: usize,
    records: usize,
    mean_qvf: f64,
    stddev_qvf: f64,
    severity: (usize, usize, usize),
    improved_fraction: f64,
}

impl JobSummary {
    fn new(meta: JobMeta, result: &CampaignResult) -> Self {
        JobSummary {
            points_done: result.len() / result.grid.len().max(1),
            records: result.len(),
            mean_qvf: result.mean_qvf(),
            stddev_qvf: result.stddev_qvf(),
            severity: result.severity_counts(),
            improved_fraction: result.improved_fraction(),
            meta,
        }
    }

    fn is_complete(&self) -> bool {
        self.points_done >= self.meta.points_total
    }
}

/// Exports the full results tree for `manifest`'s campaign from the
/// checkpoints under `out_dir`.
///
/// # Errors
///
/// Missing/corrupt checkpoints and filesystem failures; either way
/// `results/` is left as it was.
pub fn export_artifacts(manifest: &Manifest, out_dir: &Path) -> Result<ExportReport, CliError> {
    let _export_span = qufi_obs::span("export.write_ns");
    let store = CheckpointStore::open(out_dir)?;
    let grid = manifest.grid.to_grid()?;
    // Every job's metadata before the first write: a campaign that has
    // not run yet exports nothing.
    let metas = job_matrix(manifest)
        .iter()
        .map(|spec| {
            let id = spec.id();
            store.load_meta(&id)?.ok_or_else(|| {
                CliError::checkpoint(format!(
                    "job {id} has no checkpoint ({} is missing); run the campaign first",
                    store.meta_path(&id).display()
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let results_dir = out_dir.join("results");
    let mut staging = Staging::default();
    staging.create_dir(&results_dir)?;
    let mut jobs = Vec::with_capacity(metas.len());
    for meta in metas {
        let load_span = qufi_obs::span("export.load_ns");
        // Canonicalize through merge_records: deduplicate replayed
        // shards and restore (point, φ, θ) order.
        let mut result = CampaignResult::from_parts(
            meta.circuit.clone(),
            meta.golden.clone(),
            meta.baseline_qvf,
            grid.clone(),
            Vec::new(),
        );
        result.merge_records(store.load_records(&meta.id)?);
        load_span.finish();

        let _render_span = qufi_obs::span("export.render_ns");
        let dir = results_dir.join(&meta.id);
        staging.create_dir(&dir)?;
        staging.stage(dir.join("records.csv"), &|out| {
            write_records_csv(out, &result.records)
        })?;
        staging.stage(dir.join("records.json"), &|out| {
            write_campaign_json(out, &result)
        })?;
        let heatmap = Heatmap::from_campaign(&result);
        staging.stage(dir.join("heatmap.csv"), &|out| heatmap.write_csv(out))?;
        staging.stage(dir.join("heatmap.json"), &|out| {
            write_heatmap_json(out, &heatmap)
        })?;
        let ranking = qubit_reliability(&result);
        staging.stage(dir.join("qubit_ranking.csv"), &|out| {
            ranking_csv(out, &ranking)
        })?;
        staging.stage(dir.join("qubit_ranking.json"), &|out| {
            ranking_json(out, &ranking)
        })?;
        jobs.push(JobSummary::new(meta, &result));
    }
    staging.stage(results_dir.join("summary.csv"), &|out| {
        summary_csv(out, manifest, &jobs)
    })?;
    staging.stage(results_dir.join("summary.json"), &|out| {
        summary_json(out, manifest, grid.len(), &jobs)
    })?;
    let files = staging.publish()?;

    let jobs_complete = jobs.iter().filter(|j| j.is_complete()).count();
    Ok(ExportReport {
        files,
        jobs_complete,
        jobs_partial: jobs.len() - jobs_complete,
        summary_table: render_summary_table(&jobs),
    })
}

/// The artifacts an export has staged and the directories it created.
/// Dropped before [`Staging::publish`] (an error, a panic), it removes
/// both, so a failed export leaves `results/` as it found it.
#[derive(Default)]
struct Staging {
    files: Vec<PathBuf>,
    dirs: Vec<PathBuf>,
}

impl Staging {
    fn create_dir(&mut self, dir: &Path) -> Result<(), CliError> {
        match fs::create_dir(dir) {
            Ok(()) => {
                self.dirs.push(dir.to_path_buf());
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
            Err(e) => Err(CliError::io("creating results directory", dir, e)),
        }
    }

    /// Renders one artifact into its staging file.
    fn stage(
        &mut self,
        path: PathBuf,
        render: &dyn Fn(&mut BufWriter<&mut fs::File>) -> io::Result<()>,
    ) -> Result<(), CliError> {
        crate::chaos::kill_point("export.write");
        self.files.push(path);
        let path = self.files.last().expect("just staged");
        let bytes = store::stage(path, |file| {
            let mut out = BufWriter::with_capacity(RENDER_BUFFER, file);
            render(&mut out)?;
            out.flush()?;
            out.get_mut().stream_position()
        })
        .map_err(|e| CliError::io("writing artifact", path, e))?;
        qufi_obs::add("export.files", 1);
        qufi_obs::add("export.bytes", bytes);
        Ok(())
    }

    /// Renames every staged artifact into place, in staging order. A
    /// crash part-way leaves each file old or new, never torn, and a
    /// re-export repairs the tree, since everything derives from
    /// checkpoints.
    fn publish(mut self) -> Result<Vec<PathBuf>, CliError> {
        for path in &self.files {
            store::publish(path).map_err(|e| CliError::io("publishing artifact", path, e))?;
        }
        self.dirs.clear();
        Ok(std::mem::take(&mut self.files))
    }
}

impl Drop for Staging {
    fn drop(&mut self) {
        for path in &self.files {
            let _ = fs::remove_file(store::staging_path(path));
        }
        for dir in self.dirs.iter().rev() {
            let _ = fs::remove_dir(dir);
        }
    }
}

fn ranking_csv(out: &mut impl Write, ranking: &[QubitReliability]) -> io::Result<()> {
    out.write_all(b"qubit,mean_qvf,sdc_fraction,samples\n")?;
    for r in ranking {
        writeln!(
            out,
            "{},{:.6},{:.6},{}",
            r.qubit, r.mean_qvf, r.sdc_fraction, r.samples
        )?;
    }
    Ok(())
}

fn ranking_json(out: &mut impl Write, ranking: &[QubitReliability]) -> io::Result<()> {
    out.write_all(b"[")?;
    for (i, r) in ranking.iter().enumerate() {
        write!(
            out,
            "{}{{\"qubit\":{},\"mean_qvf\":{},\"sdc_fraction\":{},\"samples\":{}}}",
            if i > 0 { "," } else { "" },
            r.qubit,
            json::num(r.mean_qvf),
            json::num(r.sdc_fraction),
            r.samples
        )?;
    }
    out.write_all(b"]")
}

fn summary_csv(out: &mut impl Write, manifest: &Manifest, jobs: &[JobSummary]) -> io::Result<()> {
    out.write_all(
        b"job,workload,backend,scale,executor,points_done,points_total,records,\
          baseline_qvf,mean_qvf,stddev_qvf,masked,dubious,sdc,improved_fraction,complete\n",
    )?;
    for job in jobs {
        let (masked, dubious, sdc) = job.severity;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{masked},{dubious},{sdc},{:.6},{}",
            job.meta.id,
            job.meta.workload,
            job.meta.backend,
            job.meta.scale,
            manifest.executor.keyword(),
            job.points_done,
            job.meta.points_total,
            job.records,
            job.meta.baseline_qvf,
            job.mean_qvf,
            job.stddev_qvf,
            job.improved_fraction,
            job.is_complete(),
        )?;
    }
    Ok(())
}

fn summary_json(
    out: &mut impl Write,
    manifest: &Manifest,
    grid_size: usize,
    jobs: &[JobSummary],
) -> io::Result<()> {
    write!(
        out,
        "{{\"campaign\":{},\"executor\":{},\"seed\":{},\"grid_size\":{grid_size},\"jobs\":[",
        quote(&manifest.name),
        quote(manifest.executor.keyword()),
        manifest.seed,
    )?;
    for (i, job) in jobs.iter().enumerate() {
        let (masked, dubious, sdc) = job.severity;
        write!(
            out,
            "{}{{\"job\":{},\"workload\":{},\"backend\":{},\"scale\":{},\
             \"points_done\":{},\"points_total\":{},\"records\":{},\
             \"baseline_qvf\":{},\"mean_qvf\":{},\"stddev_qvf\":{},\
             \"severity\":{{\"masked\":{masked},\"dubious\":{dubious},\"sdc\":{sdc}}},\
             \"improved_fraction\":{},\"complete\":{}}}",
            if i > 0 { "," } else { "" },
            quote(&job.meta.id),
            quote(&job.meta.workload),
            quote(&job.meta.backend),
            json::num(job.meta.scale),
            job.points_done,
            job.meta.points_total,
            job.records,
            json::num(job.meta.baseline_qvf),
            json::num(job.mean_qvf),
            json::num(job.stddev_qvf),
            json::num(job.improved_fraction),
            job.is_complete(),
        )?;
    }
    out.write_all(b"]}")
}

/// Renders the human-facing completion table printed after `qufi run`.
fn render_summary_table(jobs: &[JobSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "job", "records", "baseline", "mean_qvf", "masked", "dubious", "sdc"
    );
    for job in jobs {
        let (masked, dubious, sdc) = job.severity;
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>9.4} {:>9.4} {:>8} {:>8} {:>8}{}",
            job.meta.id,
            job.records,
            job.meta.baseline_qvf,
            job.mean_qvf,
            masked,
            dubious,
            sdc,
            if job.is_complete() { "" } else { "  (partial)" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunOptions};
    use std::collections::BTreeMap;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qufi-export-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_manifest() -> Manifest {
        Manifest::from_toml(
            "[campaign]\nname = \"t\"\nthreads = 2\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n",
        )
        .unwrap()
    }

    #[test]
    fn full_results_tree_is_written() {
        let dir = temp_dir("tree");
        let m = small_manifest();
        run_campaign(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report = export_artifacts(&m, &dir).unwrap();
        assert_eq!(report.jobs_complete, 1);
        assert_eq!(report.jobs_partial, 0);
        for name in [
            "results/bv-3@lima/records.csv",
            "results/bv-3@lima/records.json",
            "results/bv-3@lima/heatmap.csv",
            "results/bv-3@lima/heatmap.json",
            "results/bv-3@lima/qubit_ranking.csv",
            "results/bv-3@lima/qubit_ranking.json",
            "results/summary.csv",
            "results/summary.json",
        ] {
            assert!(dir.join(name).is_file(), "missing {name}");
        }
        let summary = fs::read_to_string(dir.join("results/summary.json")).unwrap();
        assert!(summary.contains("\"complete\":true"));
        assert!(summary.contains("\"campaign\":\"t\""));
        assert!(report.summary_table.contains("bv-3@lima"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn export_without_checkpoints_is_an_error() {
        let dir = temp_dir("empty");
        let err = export_artifacts(&small_manifest(), &dir).unwrap_err();
        assert!(err.to_string().contains("no checkpoint"));
        let _ = fs::remove_dir_all(dir);
    }

    /// Every file under `root`, keyed by relative path.
    fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
            for entry in fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(root, &path, out);
                } else {
                    let rel = path.strip_prefix(root).unwrap().to_path_buf();
                    out.insert(rel, fs::read(&path).unwrap());
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(root, root, &mut out);
        out
    }

    fn run_quietly(m: &Manifest, dir: &Path) {
        let quiet = RunOptions {
            quiet: true,
            ..RunOptions::default()
        };
        run_campaign(m, dir, &quiet).unwrap();
    }

    #[test]
    fn failed_exports_leave_results_untouched() {
        let dir = temp_dir("all-or-nothing");
        let m = Manifest::from_toml(
            "[campaign]\nname = \"t\"\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\", \"ghz-2\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n",
        )
        .unwrap();
        run_quietly(&m, &dir);
        let records = dir.join("checkpoints/ghz-2@lima.records.csv");
        let clean = fs::read_to_string(&records).unwrap();
        let mut lines: Vec<&str> = clean.lines().collect();
        lines[2] = "1,x,0.0,0.0,0.5,masked";
        let corrupt = lines.join("\n") + "\n";

        // Before any export: the first job renders, the second fails, and
        // not even the results directory stays behind.
        fs::write(&records, &corrupt).unwrap();
        let err = export_artifacts(&m, &dir).unwrap_err().to_string();
        assert!(err.contains(&records.display().to_string()), "{err}");
        assert!(
            !dir.join("results").exists(),
            "a failed export left results/"
        );

        fs::write(&records, &clean).unwrap();
        export_artifacts(&m, &dir).unwrap();
        let before = tree(&dir.join("results"));
        assert_eq!(before.len(), 14);
        // Give the first job a record less, so that a failed export which
        // published its new artifacts would change them.
        let first = dir.join("checkpoints/bv-3@lima.records.csv");
        let text = fs::read_to_string(&first).unwrap();
        let (header, rows) = text.split_once('\n').unwrap();
        fs::write(
            &first,
            format!("{header}\n{}", rows.split_once('\n').unwrap().1),
        )
        .unwrap();

        // A corrupt line in the last job's records.
        fs::write(&records, &corrupt).unwrap();
        let err = export_artifacts(&m, &dir).unwrap_err().to_string();
        assert!(err.contains(&records.display().to_string()), "{err}");
        assert_eq!(
            tree(&dir.join("results")),
            before,
            "no artifact or .tmp may change"
        );

        // The last job's metadata gone.
        fs::write(&records, &clean).unwrap();
        let meta = dir.join("checkpoints/ghz-2@lima.meta.toml");
        fs::remove_file(&meta).unwrap();
        let err = export_artifacts(&m, &dir).unwrap_err().to_string();
        assert!(err.contains(&meta.display().to_string()), "{err}");
        assert_eq!(
            tree(&dir.join("results")),
            before,
            "no artifact or .tmp may change"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn scrambled_checkpoints_export_canonical_bytes_keeping_first_occurrences() {
        let dir = temp_dir("canonical");
        let m = Manifest::from_toml(
            "[campaign]\nname = \"t\"\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 1.5707963267948966, 3.141592653589793]\n\
             phis = [0.0, 3.141592653589793]\n",
        )
        .unwrap();
        run_quietly(&m, &dir);
        export_artifacts(&m, &dir).unwrap();
        let canonical = tree(&dir.join("results"));

        let path = dir.join("checkpoints/bv-3@lima.records.csv");
        let text = fs::read_to_string(&path).unwrap();
        let (header, rows) = text.split_once('\n').unwrap();
        let rows: Vec<&str> = rows.lines().collect();
        // A fixed shuffle: index i goes to (7i mod n), n coprime to 7.
        let n = rows.len();
        assert!(n > 12 && !n.is_multiple_of(7), "{n} rows");
        let mut shuffled = vec![""; n];
        for (i, row) in rows.iter().enumerate() {
            shuffled[(7 * i) % n] = row;
        }
        // Replays of complete rows, and a row whose first occurrence
        // carries another QVF.
        let key = rows[3].rsplitn(3, ',').nth(2).unwrap();
        let altered = format!("{key},0.999999,sdc");
        let scrambled = format!(
            "{header}\n{altered}\n{}\n{}\n{}\n",
            shuffled.join("\n"),
            rows[..5].join("\n"),
            key.to_string() + ",0.000001,masked",
        );
        fs::write(&path, scrambled).unwrap();
        export_artifacts(&m, &dir).unwrap();
        let exported = tree(&dir.join("results"));
        let csv = Path::new("bv-3@lima/records.csv");
        assert_eq!(
            String::from_utf8(exported[csv].clone()).unwrap(),
            String::from_utf8(canonical[csv].clone())
                .unwrap()
                .replace(rows[3], &altered),
            "the first occurrence of a record wins"
        );

        // Without the altered row, every artifact is the canonical one.
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("{altered}\n"), "");
        fs::write(&path, text).unwrap();
        export_artifacts(&m, &dir).unwrap();
        assert_eq!(tree(&dir.join("results")), canonical);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn partial_campaigns_export_with_flag() {
        let dir = temp_dir("partial");
        let m = small_manifest();
        run_campaign(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                point_budget: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report = export_artifacts(&m, &dir).unwrap();
        assert_eq!(report.jobs_partial, 1);
        let summary = fs::read_to_string(dir.join("results/summary.json")).unwrap();
        assert!(summary.contains("\"complete\":false"));
        let _ = fs::remove_dir_all(dir);
    }
}
