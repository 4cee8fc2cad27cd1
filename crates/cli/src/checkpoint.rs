//! On-disk campaign state: per-job metadata (TOML) plus an append-only
//! record log (the CSV format of `qufi_core::report::records_to_csv`).
//!
//! Durability model: metadata is written once when a job is first
//! prepared, through [`crate::atomic_write`]; records are appended
//! shard-by-shard as injection points complete. A crash can only tear
//! the final CSV line, which the lenient loader drops — the affected
//! point is simply re-run on resume (executions are deterministic per
//! point, so replays merge cleanly). Under `QUFI_FSYNC`
//! ([`qufi_serve::store::fsync_enabled`]) every append and every atomic
//! write also syncs.

use crate::error::CliError;
use crate::job::{JobRuntime, JobSpec};
use crate::toml;
use qufi_core::fault::FaultGrid;
use qufi_core::report::records_to_csv;
use qufi_core::serialize::{records_from_csv, CsvError, RecordsCsvParser};
use qufi_core::{CampaignResult, InjectionRecord};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufRead, BufReader, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// Everything about a job that is not a per-injection record — enough
/// to rebuild the job's `CampaignResult` without re-executing anything.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Job identifier ([`JobSpec::id`]).
    pub id: String,
    /// Workload registry name.
    pub workload: String,
    /// Backend name.
    pub backend: String,
    /// Noise scale.
    pub scale: f64,
    /// Circuit name (the workload's, kept for reports).
    pub circuit: String,
    /// Golden outcome indices.
    pub golden: Vec<usize>,
    /// Fault-free QVF under the job's executor.
    pub baseline_qvf: f64,
    /// Number of injection points the circuit exposes.
    pub points_total: usize,
}

impl JobMeta {
    /// Captures a prepared runtime's metadata.
    pub fn from_runtime(rt: &JobRuntime) -> Self {
        JobMeta {
            id: rt.spec.id(),
            workload: rt.spec.workload.clone(),
            backend: rt.spec.backend.clone(),
            scale: rt.spec.scale,
            circuit: rt.circuit.name.clone(),
            golden: rt.golden.clone(),
            baseline_qvf: rt.baseline_qvf,
            points_total: rt.points.len(),
        }
    }

    /// The job spec this metadata belongs to.
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            workload: self.workload.clone(),
            backend: self.backend.clone(),
            scale: self.scale,
        }
    }

    /// Renders as TOML (floats in round-trip form).
    pub fn to_toml(&self) -> String {
        let mut out = String::from("[job]\n");
        let _ = writeln!(out, "id = {}", toml::quote(&self.id));
        let _ = writeln!(out, "workload = {}", toml::quote(&self.workload));
        let _ = writeln!(out, "backend = {}", toml::quote(&self.backend));
        let _ = writeln!(out, "scale = {}", toml::float(self.scale));
        let _ = writeln!(out, "circuit = {}", toml::quote(&self.circuit));
        let golden: Vec<String> = self.golden.iter().map(|g| g.to_string()).collect();
        let _ = writeln!(out, "golden = [{}]", golden.join(", "));
        let _ = writeln!(out, "baseline_qvf = {}", toml::float(self.baseline_qvf));
        let _ = writeln!(out, "points_total = {}", self.points_total);
        out
    }

    /// Parses metadata TOML.
    ///
    /// # Errors
    ///
    /// Malformed TOML or missing/ill-typed fields.
    pub fn from_toml(text: &str) -> Result<Self, CliError> {
        let doc = toml::parse(text).map_err(|e| CliError::checkpoint(e.to_string()))?;
        let job = doc
            .get("job")
            .ok_or_else(|| CliError::checkpoint("metadata missing [job] section"))?;
        let get = |key: &str| {
            job.get(key)
                .ok_or_else(|| CliError::checkpoint(format!("metadata missing {key:?}")))
        };
        let get_str = |key: &str| -> Result<String, CliError> {
            get(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| CliError::checkpoint(format!("metadata {key:?} must be a string")))
        };
        let golden = get("golden")?
            .as_array()
            .ok_or_else(|| CliError::checkpoint("metadata golden must be an array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|g| g as usize)
                    .ok_or_else(|| CliError::checkpoint("metadata golden must hold integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JobMeta {
            id: get_str("id")?,
            workload: get_str("workload")?,
            backend: get_str("backend")?,
            scale: get("scale")?
                .as_f64()
                .ok_or_else(|| CliError::checkpoint("metadata scale must be a number"))?,
            circuit: get_str("circuit")?,
            golden,
            baseline_qvf: get("baseline_qvf")?
                .as_f64()
                .ok_or_else(|| CliError::checkpoint("metadata baseline_qvf must be a number"))?,
            points_total: get("points_total")?
                .as_u64()
                .ok_or_else(|| CliError::checkpoint("metadata points_total must be an integer"))?
                as usize,
        })
    }
}

/// The checkpoint directory of one campaign.
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Bytes read from a record log at a time.
const READ_BUFFER: usize = 64 << 10;

/// Counts `reader`'s line terminators and returns its last byte (`None`
/// when it is empty).
fn scan_lines(reader: &mut impl BufRead) -> io::Result<(usize, Option<u8>)> {
    let (mut lines, mut last) = (0, None);
    loop {
        let chunk = reader.fill_buf()?;
        let Some(&end) = chunk.last() else {
            return Ok((lines, last));
        };
        lines += chunk.iter().filter(|&&b| b == b'\n').count();
        last = Some(end);
        let read = chunk.len();
        reader.consume(read);
    }
}

fn corrupt(path: &Path, e: CsvError) -> CliError {
    CliError::checkpoint(format!(
        "{e} (in {}; delete the file to re-run the job)",
        path.display()
    ))
}

impl CheckpointStore {
    /// Opens (creating if needed) `<out_dir>/checkpoints`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(out_dir: &Path) -> Result<Self, CliError> {
        let dir = out_dir.join("checkpoints");
        fs::create_dir_all(&dir)
            .map_err(|e| CliError::io("creating checkpoint directory", &dir, e))?;
        Ok(CheckpointStore { dir })
    }

    pub(crate) fn meta_path(&self, job_id: &str) -> PathBuf {
        self.dir.join(format!("{job_id}.meta.toml"))
    }

    fn records_path(&self, job_id: &str) -> PathBuf {
        self.dir.join(format!("{job_id}.records.csv"))
    }

    /// Loads a job's metadata; `None` when the job has never started.
    ///
    /// # Errors
    ///
    /// Unreadable or corrupt metadata (corrupt metadata is fatal — the
    /// baseline cannot be trusted, so the operator must clear the job's
    /// checkpoint files).
    pub fn load_meta(&self, job_id: &str) -> Result<Option<JobMeta>, CliError> {
        let path = self.meta_path(job_id);
        match fs::read_to_string(&path) {
            Ok(text) => JobMeta::from_toml(&text).map(Some).map_err(|e| {
                CliError::checkpoint(format!(
                    "{e} (in {}; delete the job's checkpoint files to recompute)",
                    path.display()
                ))
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CliError::io("reading job metadata", &path, e)),
        }
    }

    /// Writes a job's metadata (atomically via a temp file + rename).
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn save_meta(&self, meta: &JobMeta) -> Result<(), CliError> {
        crate::atomic_write(
            &self.meta_path(&meta.id),
            meta.to_toml().as_bytes(),
            "writing job metadata",
        )
    }

    /// Loads a job's checkpointed records, dropping a torn final line if
    /// the previous run crashed mid-append.
    ///
    /// Every complete row ends with `\n` and carries all six fields, so a
    /// mid-append crash leaves exactly one detectable artifact: a final
    /// line that is missing its terminator. That line is dropped *before*
    /// parsing — merely parseable prefixes (e.g. a qvf torn from
    /// `0.421735` to `0.42`, which the column-tolerant parser would
    /// accept) must not be trusted as records. Anything unparsable after
    /// that pruning is real corruption and fatal.
    ///
    /// A clean file streams: one pass counts its lines, a second parses
    /// them one at a time into a `Vec` of that size, so no copy of the
    /// file's text is held.
    ///
    /// # Errors
    ///
    /// Unreadable files or corruption.
    pub fn load_records(&self, job_id: &str) -> Result<Vec<InjectionRecord>, CliError> {
        let path = self.records_path(job_id);
        let read_err = |e| CliError::io("reading job records", &path, e);
        let file = match fs::File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(read_err(e)),
        };
        let mut reader = BufReader::with_capacity(READ_BUFFER, file);
        let (lines, last_byte) = scan_lines(&mut reader).map_err(read_err)?;
        if last_byte.is_some_and(|b| b != b'\n') {
            return self.salvage_torn_tail(job_id, &path);
        }
        reader.rewind().map_err(read_err)?;
        let mut parser = RecordsCsvParser::default();
        let mut records = Vec::with_capacity(lines.saturating_sub(1));
        let mut line = String::new();
        while reader.read_line(&mut line).map_err(read_err)? > 0 {
            let text = line.strip_suffix('\n').unwrap_or(&line);
            let text = text.strip_suffix('\r').unwrap_or(text);
            records.extend(parser.parse_line(text).map_err(|e| corrupt(&path, e))?);
            line.clear();
        }
        Ok(records)
    }

    /// Rebuilds `meta`'s job over `grid` from its checkpointed records,
    /// canonicalized through [`CampaignResult::merge_records`]: replayed
    /// shards deduplicated, (point, φ, θ) order restored. Every artifact
    /// of the job renders from this result.
    ///
    /// # Errors
    ///
    /// What [`CheckpointStore::load_records`] raises.
    pub fn load_result(
        &self,
        meta: &JobMeta,
        grid: &FaultGrid,
    ) -> Result<CampaignResult, CliError> {
        let mut result = CampaignResult::from_parts(
            meta.circuit.clone(),
            meta.golden.clone(),
            meta.baseline_qvf,
            grid.clone(),
            Vec::new(),
        );
        result.merge_records(self.load_records(&meta.id)?);
        Ok(result)
    }

    /// The torn-tail path of [`CheckpointStore::load_records`]: drops the
    /// file's unterminated last line, heals the file and parses the rest.
    fn salvage_torn_tail(
        &self,
        job_id: &str,
        path: &Path,
    ) -> Result<Vec<InjectionRecord>, CliError> {
        let mut text =
            fs::read_to_string(path).map_err(|e| CliError::io("reading job records", path, e))?;
        let keep = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let torn_bytes = text.len() - keep;
        text.truncate(keep);
        // A healed checkpoint must not look identical to a clean one:
        // count the salvage and say so (the interrupted point re-runs,
        // so the campaign result is unaffected).
        qufi_obs::add("checkpoint.salvaged_lines", 1);
        qufi_obs::log::warn(&format!(
            "job {job_id}: salvaged a torn checkpoint line ({torn_bytes} bytes \
             dropped from {}); the interrupted point will re-run",
            path.display()
        ));
        // Heal the file so later appends land after a complete line
        // (and so the header-or-not decision in append_records stays
        // a simple is-the-file-empty check). Loads and appends never
        // run concurrently: loads happen in the prepare and export
        // phases, appends only while the worker pool is live.
        crate::atomic_write(path, text.as_bytes(), "healing job records")?;
        records_from_csv(&text).map_err(|e| corrupt(path, e))
    }

    /// Appends one shard of records (creating the file, with header, on
    /// first use). The shard is written in a single `write_all` so only
    /// a hard crash can tear a line.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn append_records(&self, job_id: &str, shard: &[InjectionRecord]) -> Result<(), CliError> {
        if shard.is_empty() {
            return Ok(());
        }
        let path = self.records_path(job_id);
        let csv = records_to_csv(shard);
        let (header, rows) = csv.split_once('\n').expect("csv has a header line");
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CliError::io("opening job records", &path, e))?;
        let payload = if file
            .metadata()
            .map_err(|e| CliError::io("inspecting job records", &path, e))?
            .len()
            == 0
        {
            format!("{header}\n{rows}")
        } else {
            rows.to_string()
        };
        file.write_all(payload.as_bytes())
            .map_err(|e| CliError::io("appending job records", &path, e))?;
        file.flush()
            .map_err(|e| CliError::io("flushing job records", &path, e))?;
        if qufi_serve::store::fsync_enabled() {
            file.sync_all()
                .map_err(|e| CliError::io("syncing job records", &path, e))?;
            qufi_obs::add("checkpoint.fsyncs", 1);
        }
        qufi_obs::add("checkpoint.appends", 1);
        qufi_obs::add("checkpoint.bytes", payload.len() as u64);
        Ok(())
    }

    /// Replaces a job's record log with `records` wholesale, atomically
    /// (temp file + rename). The shard merge uses this to fold per-unit
    /// files into the canonical single-node checkpoint layout; unlike
    /// [`CheckpointStore::append_records`] the result never mixes old
    /// and new generations.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn replace_records(
        &self,
        job_id: &str,
        records: &[InjectionRecord],
    ) -> Result<(), CliError> {
        let path = self.records_path(job_id);
        let csv = records_to_csv(records);
        crate::atomic_write(&path, csv.as_bytes(), "replacing job records")?;
        qufi_obs::add("checkpoint.replaces", 1);
        qufi_obs::add("checkpoint.bytes", csv.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_core::fault::InjectionPoint;

    fn record(op: usize, qubit: usize, theta: f64, qvf: f64) -> InjectionRecord {
        InjectionRecord {
            point: InjectionPoint {
                op_index: op,
                qubit,
            },
            theta,
            phi: 0.0,
            qvf,
        }
    }

    fn temp_store(tag: &str) -> (PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!(
            "qufi-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn meta_round_trips_exactly() {
        let meta = JobMeta {
            id: "bv-4@jakarta".into(),
            workload: "bv-4".into(),
            backend: "jakarta".into(),
            scale: 1.0,
            circuit: "bv-4".into(),
            golden: vec![5],
            baseline_qvf: 0.123456789012345,
            points_total: 24,
        };
        let back = JobMeta::from_toml(&meta.to_toml()).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.baseline_qvf.to_bits(), meta.baseline_qvf.to_bits());
    }

    #[test]
    fn append_load_cycle_preserves_shards() {
        let (dir, store) = temp_store("cycle");
        store
            .append_records("j", &[record(0, 0, 0.0, 0.1)])
            .unwrap();
        store
            .append_records("j", &[record(1, 0, 0.5, 0.9), record(1, 1, 0.5, 0.2)])
            .unwrap();
        let all = store.load_records("j").unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(
            all[2].point,
            InjectionPoint {
                op_index: 1,
                qubit: 1
            }
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let (dir, store) = temp_store("torn");
        store
            .append_records("j", &[record(0, 0, 0.0, 0.1), record(0, 1, 0.0, 0.2)])
            .unwrap();
        let path = dir.join("checkpoints/j.records.csv");
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 20); // tear the last row inside the qvf field
        fs::write(&path, text).unwrap();
        let salvaged = store.load_records("j").unwrap();
        assert_eq!(salvaged.len(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn parseable_torn_line_is_still_dropped() {
        // A tear inside the qvf digits can leave a prefix the
        // column-tolerant CSV parser would happily accept (severity is
        // ignored); the missing terminator must disqualify it anyway.
        let (dir, store) = temp_store("parseable-tear");
        store
            .append_records("j", &[record(0, 0, 0.0, 0.1), record(0, 1, 0.0, 0.421735)])
            .unwrap();
        let path = dir.join("checkpoints/j.records.csv");
        let text = fs::read_to_string(&path).unwrap();
        let torn = text.replace("0.421735,masked\n", "0.42");
        assert_ne!(torn, text);
        fs::write(&path, torn).unwrap();
        let salvaged = store.load_records("j").unwrap();
        assert_eq!(salvaged.len(), 1, "truncated qvf must not survive");
        // The file was healed in place: appending again keeps it parseable.
        store
            .append_records("j", &[record(0, 1, 0.0, 0.2)])
            .unwrap();
        assert_eq!(store.load_records("j").unwrap().len(), 2);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_header_resets_to_fresh_file() {
        let (dir, store) = temp_store("torn-header");
        let path = dir.join("checkpoints/j.records.csv");
        fs::write(&path, "op_index,qu").unwrap(); // crash mid-header
        assert!(store.load_records("j").unwrap().is_empty());
        store
            .append_records("j", &[record(0, 0, 0.0, 0.1)])
            .unwrap();
        assert_eq!(store.load_records("j").unwrap().len(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corruption_in_the_middle_is_fatal() {
        let (dir, store) = temp_store("corrupt");
        store
            .append_records("j", &[record(0, 0, 0.0, 0.1), record(0, 1, 0.0, 0.2)])
            .unwrap();
        let path = dir.join("checkpoints/j.records.csv");
        // Corrupt the *first* data row — only a torn final line may be
        // salvaged, so damage before it must be fatal.
        let text = fs::read_to_string(&path).unwrap().replace("0,0,", "x,y,");
        fs::write(&path, text).unwrap();
        assert!(store.load_records("j").is_err());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_files_mean_fresh_job() {
        let (dir, store) = temp_store("fresh");
        assert_eq!(store.load_meta("nope").unwrap(), None);
        assert!(store.load_records("nope").unwrap().is_empty());
        let _ = fs::remove_dir_all(dir);
    }
}
