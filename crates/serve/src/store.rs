//! Durable job records: one JSON file per job under `<dir>/jobs/`,
//! written atomically by [`atomic_write`]. The record is the daemon's
//! recovery unit: a restarted daemon rebuilds its whole queue from these
//! files, in submission order, and the campaign directory next to each
//! record carries the checkpoints that make the resumed run
//! byte-identical.
//!
//! This module also owns the durability policy of `qufi run` and
//! `qufi serve` alike: one write-then-rename ([`atomic_write`], or its
//! two halves [`stage`] and [`publish`] for a writer that publishes a
//! set of files together) and one reading of the `QUFI_FSYNC` switch
//! ([`fsync_enabled`]). The CLI depends on this crate, so its checkpoint
//! and artifact writes use them too.

use qufi_obs::json::{self, Value};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Lifecycle of a job. `Queued` and `Running` are the live states a
/// restart re-admits; the rest are terminal (though `Canceled` and
/// `Failed` re-enqueue on explicit resubmission — only `Poisoned` stays
/// quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Ran to completion; artifacts exported.
    Done,
    /// Canceled by a client; checkpoints resumable.
    Canceled,
    /// Failed terminally (e.g. wall-clock timeout); checkpoints kept.
    Failed,
    /// Quarantined after repeated failures; never auto-retried.
    Poisoned,
}

impl JobState {
    /// Wire/storage keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Canceled => "canceled",
            JobState::Failed => "failed",
            JobState::Poisoned => "poisoned",
        }
    }

    /// Inverse of [`JobState::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "canceled" => JobState::Canceled,
            "failed" => JobState::Failed,
            "poisoned" => JobState::Poisoned,
            _ => return None,
        })
    }
}

/// One job's durable state. Everything the daemon needs to resume or
/// explain the job lives here; the campaign's own checkpoints live in
/// the job directory next to the record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Content address of the canonical manifest ([`crate::job_id`]).
    pub id: String,
    /// Human display name (from the manifest).
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// The canonical manifest text (what the handler runs).
    pub manifest: String,
    /// Failure strikes accumulated toward quarantine.
    pub fails: u32,
    /// Last failure message, if any.
    pub error: Option<String>,
    /// Admission order — recovery re-enqueues ascending.
    pub seq: u64,
}

impl JobRecord {
    fn to_json(&self) -> String {
        let error = match &self.error {
            Some(e) => json::quote(e),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"name\":{},\"state\":{},\"manifest\":{},\"fails\":{},\"error\":{},\"seq\":{}}}\n",
            json::quote(&self.id),
            json::quote(&self.name),
            json::quote(self.state.as_str()),
            json::quote(&self.manifest),
            self.fails,
            error,
            self.seq,
        )
    }

    fn from_json(v: &Value) -> Option<JobRecord> {
        Some(JobRecord {
            id: v.get("id")?.as_str()?.to_string(),
            name: v.get("name")?.as_str()?.to_string(),
            state: JobState::parse(v.get("state")?.as_str()?)?,
            manifest: v.get("manifest")?.as_str()?.to_string(),
            fails: v.get("fails")?.as_u64()? as u32,
            error: match v.get("error") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            },
            seq: v.get("seq")?.as_u64()?,
        })
    }
}

/// The record directory. All writes are atomic; a crash between any two
/// syscalls leaves either the old record or the new one, never a torn
/// file.
#[derive(Debug)]
pub struct Store {
    jobs_dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store under the service directory.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(service_dir: &Path) -> io::Result<Store> {
        let jobs_dir = service_dir.join("jobs");
        fs::create_dir_all(&jobs_dir)?;
        Ok(Store { jobs_dir })
    }

    /// The campaign directory for a job (the handler's working dir).
    #[must_use]
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.jobs_dir.join(id)
    }

    /// Persists one record atomically.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn save(&self, record: &JobRecord) -> io::Result<()> {
        let path = self.jobs_dir.join(format!("{}.json", record.id));
        atomic_write(&path, record.to_json().as_bytes())
    }

    /// Loads every parseable record, sorted by admission order. Files
    /// that fail to parse are skipped (counted by the caller via the
    /// returned skip count) — a half-corrupted store must not brick the
    /// daemon.
    ///
    /// # Errors
    ///
    /// Directory enumeration failures.
    pub fn load_all(&self) -> io::Result<(Vec<JobRecord>, usize)> {
        let mut records = Vec::new();
        let mut skipped = 0usize;
        for entry in fs::read_dir(&self.jobs_dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let parsed = fs::read_to_string(&path)
                .ok()
                .and_then(|text| json::parse(text.trim()).ok())
                .and_then(|v| JobRecord::from_json(&v));
            match parsed {
                Some(r) => records.push(r),
                None => skipped += 1,
            }
        }
        records.sort_by_key(|r| r.seq);
        Ok((records, skipped))
    }
}

/// Whether writes should also `fsync` — the durability switch for
/// operators whose failure model includes power loss, not just process
/// death. Off by default (a torn tail or a stray temp file is already
/// survivable); `QUFI_FSYNC=1` or `QUFI_FSYNC=true` (any case) turns it
/// on. Read once per process.
pub fn fsync_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| fsync_requested(std::env::var("QUFI_FSYNC").ok().as_deref()))
}

/// The `QUFI_FSYNC` rule, as a function of the variable's value.
fn fsync_requested(value: Option<&str>) -> bool {
    value.is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Writes `contents` to `<path>.tmp`, syncs it when [`fsync_enabled`],
/// then renames it over `path`, so readers and crash survivors see the
/// old bytes or the new ones, never a torn mixture: [`stage`], then
/// [`publish`].
///
/// # Errors
///
/// Filesystem failures.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    stage(path, |file| file.write_all(contents))?;
    publish(path)
}

/// `<path>.tmp`, where [`stage`] writes `path`'s next contents. The
/// suffix keeps the full name, so `records.csv` and `records.json` never
/// share a temp file.
pub fn staging_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes `path`'s next contents to [`staging_path`] through `fill`, and
/// syncs them when [`fsync_enabled`]; `path` itself is untouched until
/// [`publish`]. Returns what `fill` returns.
///
/// # Errors
///
/// Filesystem failures and `fill`'s own.
pub fn stage<T>(path: &Path, fill: impl FnOnce(&mut fs::File) -> io::Result<T>) -> io::Result<T> {
    let mut file = fs::File::create(staging_path(path))?;
    let out = fill(&mut file)?;
    if fsync_enabled() {
        file.sync_all()?;
    }
    Ok(out)
}

/// Renames `path`'s [`stage`]d contents over it.
///
/// # Errors
///
/// Filesystem failures, e.g. nothing staged.
pub fn publish(path: &Path) -> io::Result<()> {
    fs::rename(staging_path(path), path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qufi-serve-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(id: &str, seq: u64, state: JobState) -> JobRecord {
        JobRecord {
            id: id.to_string(),
            name: "demo".to_string(),
            state,
            manifest: "[campaign]\nname = \"demo\"\n".to_string(),
            fails: 1,
            error: Some("boom \"quoted\"\nline2".to_string()),
            seq,
        }
    }

    #[test]
    fn fsync_switch_accepts_one_or_true() {
        for on in ["1", "true", "TRUE", "True"] {
            assert!(fsync_requested(Some(on)), "{on}");
        }
        for off in ["0", "false", "yes", "", " 1", "true "] {
            assert!(!fsync_requested(Some(off)), "{off:?}");
        }
        assert!(!fsync_requested(None));
    }

    #[test]
    fn atomic_write_keeps_the_full_name_in_its_temp_file() {
        // `records.csv` and `records.json` must not share a temp file, and
        // neither may clobber a `records.tmp` that happens to exist.
        let dir = temp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("records.tmp"), b"bystander").unwrap();
        atomic_write(&dir.join("records.csv"), b"old").unwrap();
        atomic_write(&dir.join("records.csv"), b"new").unwrap();
        assert_eq!(fs::read(dir.join("records.csv")).unwrap(), b"new");
        assert_eq!(fs::read(dir.join("records.tmp")).unwrap(), b"bystander");
        assert!(!dir.join("records.csv.tmp").exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn records_round_trip_in_seq_order() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        store.save(&record("b", 2, JobState::Running)).unwrap();
        store.save(&record("a", 1, JobState::Done)).unwrap();
        let (loaded, skipped) = store.load_all().unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], record("a", 1, JobState::Done));
        assert_eq!(loaded[1], record("b", 2, JobState::Running));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_records_are_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        store.save(&record("ok", 1, JobState::Queued)).unwrap();
        fs::write(dir.join("jobs").join("bad.json"), b"{torn").unwrap();
        let (loaded, skipped) = store.load_all().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(skipped, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn states_round_trip_keywords() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Canceled,
            JobState::Failed,
            JobState::Poisoned,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("zombie"), None);
    }
}
