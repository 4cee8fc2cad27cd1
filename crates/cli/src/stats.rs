//! Renderers over telemetry artifacts: the `qufi stats <run-dir>` phase
//! breakdown and the per-job progress listing behind `qufi list runs`.
//!
//! Everything here reads files a finished (or interrupted) run left
//! behind — `metrics.json`, `costs.csv`, `trace.jsonl`, checkpoints —
//! and never executes a circuit, so both commands are instant even for
//! campaigns that took hours.

use crate::checkpoint::CheckpointStore;
use crate::error::CliError;
use crate::obs_artifacts::{load_costs, load_metrics, load_trace};
use crate::{job_matrix, load_stored_manifest, STORED_MANIFEST};
use qufi_obs::{CostRecord, Snapshot};
use std::fmt::Write as _;
use std::path::Path;

/// Nanoseconds as a human-readable duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The top-level campaign phases, in execution order. Their spans are
/// siblings under `campaign.total_ns`, so their sums partition the run.
const TOP_PHASES: [(&str, &str); 3] = [
    ("campaign.prepare_ns", "prepare (jobs + checkpoints)"),
    ("campaign.execute_ns", "replay (worker pool)"),
    ("export.write_ns", "export (results/)"),
];

/// Renders the `qufi stats` report for one run directory.
///
/// # Errors
///
/// A directory without a `metrics.json`, or malformed artifacts.
pub fn render_stats(run_dir: &Path, top_k: usize) -> Result<String, CliError> {
    let snap = load_metrics(run_dir)?.ok_or_else(|| {
        CliError::manifest(format!(
            "{} has no metrics.json; re-run the campaign without --no-metrics",
            run_dir.display()
        ))
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry for {} (latest invocation)",
        run_dir.display()
    );

    render_phase_breakdown(&mut out, &snap);
    render_point_phases(&mut out, &snap);
    render_counters(&mut out, &snap);
    if let Some(costs) = load_costs(run_dir)? {
        render_slowest_points(&mut out, costs, top_k);
    }
    if let Some(events) = load_trace(run_dir)? {
        match qufi_obs::trace::validate_nesting(&events) {
            Ok(()) => {
                let _ = writeln!(out, "\ntrace: {} spans, nesting OK", events.len());
            }
            Err(e) => {
                let _ = writeln!(out, "\ntrace: {} spans, NESTING BROKEN: {e}", events.len());
            }
        }
    }
    Ok(out)
}

fn render_phase_breakdown(out: &mut String, snap: &Snapshot) {
    let total = snap.hists.get("campaign.total_ns").map(|h| h.sum);
    let _ = writeln!(out, "\nphase breakdown (wall-clock):");
    if let Some(total) = total {
        let _ = writeln!(
            out,
            "  {:<32} {:>12}  {:>6}",
            "campaign total",
            fmt_ns(total),
            "100.0%"
        );
    }
    for (name, label) in TOP_PHASES {
        let Some(h) = snap.hists.get(name) else {
            continue;
        };
        match total {
            Some(total) if total > 0 => {
                let pct = 100.0 * h.sum as f64 / total as f64;
                let _ = writeln!(out, "    {:<30} {:>12}  {pct:>5.1}%", label, fmt_ns(h.sum));
            }
            _ => {
                let _ = writeln!(out, "    {:<30} {:>12}", label, fmt_ns(h.sum));
            }
        }
    }
}

fn render_point_phases(out: &mut String, snap: &Snapshot) {
    // Everything that isn't a top-level phase is a per-point / per-plan
    // histogram: show the distribution shape, not just the sum.
    let detail: Vec<_> = snap
        .hists
        .iter()
        .filter(|(name, _)| {
            name.as_str() != "campaign.total_ns" && !TOP_PHASES.iter().any(|(top, _)| top == name)
        })
        .collect();
    if detail.is_empty() {
        return;
    }
    let _ = writeln!(out, "\nspan histograms:");
    let _ = writeln!(
        out,
        "  {:<26} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "span", "count", "total", "mean", "min", "max"
    );
    for (name, h) in detail {
        let _ = writeln!(
            out,
            "  {:<26} {:>7} {:>12} {:>12} {:>12} {:>12}",
            name,
            h.count,
            fmt_ns(h.sum),
            fmt_ns(h.mean() as u64),
            fmt_ns(if h.count == 0 { 0 } else { h.min }),
            fmt_ns(h.max)
        );
    }
}

fn render_counters(out: &mut String, snap: &Snapshot) {
    if snap.counters.is_empty() {
        return;
    }
    let _ = writeln!(out, "\ncounters:");
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "  {name:<30} {value:>12}");
    }
    if let (Some(&cells), Some(&blocks)) = (
        snap.counters.get("replay.batch.cells"),
        snap.counters.get("replay.batch.blocks"),
    ) {
        if blocks > 0 {
            let _ = writeln!(
                out,
                "  note: batched replay occupancy {:.1} cells/block over {blocks} block(s)",
                cells as f64 / blocks as f64
            );
        }
    }
    if let (Some(&groups), Some(&skipped)) = (
        snap.counters.get("replay.batch.groups"),
        snap.counters.get("replay.batch.groups_skipped"),
    ) {
        if groups > 0 {
            let _ = writeln!(
                out,
                "  note: batched density replay skipped {:.1}% of {groups} amplitude group(s): \
                 no readout observes them",
                100.0 * skipped as f64 / groups as f64
            );
        }
    }
    if let Some(&salvaged) = snap.counters.get("checkpoint.salvaged_lines") {
        if salvaged > 0 {
            let _ = writeln!(
                out,
                "  note: {salvaged} torn checkpoint line(s) were salvaged during this run"
            );
        }
    }
}

fn render_slowest_points(out: &mut String, mut costs: Vec<CostRecord>, top_k: usize) {
    if costs.is_empty() {
        return;
    }
    let shown = top_k.min(costs.len());
    let _ = writeln!(
        out,
        "\ntop {shown} slowest points (of {}, by prepare + replay):",
        costs.len()
    );
    costs.sort_by_key(|c| std::cmp::Reverse(c.prepare_ns.saturating_add(c.replay_ns)));
    for c in costs.iter().take(shown) {
        let total = c.prepare_ns.saturating_add(c.replay_ns);
        let _ = writeln!(
            out,
            "  {:<16} op {:>3} qubit {:>2}  {:>12}  (prepare {}, replay {}, {} cells)",
            if c.job.is_empty() {
                "(unlabeled)"
            } else {
                &c.job
            },
            c.op_index,
            c.qubit,
            fmt_ns(total),
            fmt_ns(c.prepare_ns),
            fmt_ns(c.replay_ns),
            c.cells
        );
    }
}

/// Renders per-job progress for every campaign directory under `dir`
/// (the `qufi list runs [DIR]` report). A directory counts as a run when
/// it holds a stored `manifest.toml`; `dir` itself may be a single run.
///
/// # Errors
///
/// An unreadable `dir`. Individual broken runs render as one error line
/// each instead of failing the listing.
pub fn render_runs(dir: &Path) -> Result<String, CliError> {
    // A `qufi serve` state directory renders as a job-queue report:
    // every submitted job with its queue state, plus per-job checkpoint
    // progress for the campaigns that have started.
    if let Some(report) = render_serve_dir(dir)? {
        return Ok(report);
    }
    let mut run_dirs = Vec::new();
    if dir.join(STORED_MANIFEST).is_file() {
        run_dirs.push(dir.to_path_buf());
    } else {
        let entries =
            std::fs::read_dir(dir).map_err(|e| CliError::io("listing run directories", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| CliError::io("listing run directories", dir, e))?;
            let path = entry.path();
            if path.join(STORED_MANIFEST).is_file() {
                run_dirs.push(path);
            }
        }
        run_dirs.sort();
    }
    if run_dirs.is_empty() {
        return Ok(format!(
            "no campaign directories under {} (a run holds a {STORED_MANIFEST})\n",
            dir.display()
        ));
    }
    let mut out = String::new();
    for run_dir in run_dirs {
        match render_one_run(&run_dir) {
            Ok(report) => out.push_str(&report),
            Err(e) => {
                let _ = writeln!(out, "{}: {e}", run_dir.display());
            }
        }
    }
    Ok(out)
}

/// Renders a `qufi serve` state directory: one line per submitted job
/// with its queue state (queued/running/done/canceled/failed/poisoned),
/// checkpoint progress of its campaign directory, and the last error
/// for jobs accumulating strikes. Returns `None` when `dir` is not a
/// service directory (no `jobs/` record store).
fn render_serve_dir(dir: &Path) -> Result<Option<String>, CliError> {
    if !dir.join("jobs").is_dir() {
        return Ok(None);
    }
    let store = qufi_serve::store::Store::open(dir)
        .map_err(|e| CliError::io("opening service job store", dir, e))?;
    let (records, skipped) = store
        .load_all()
        .map_err(|e| CliError::io("listing service jobs", dir, e))?;
    if records.is_empty() && skipped == 0 && !dir.join("serve.addr").is_file() {
        // A stray `jobs/` subdirectory with no records and no published
        // address is not a service directory; fall through to the
        // ordinary campaign listing.
        return Ok(None);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service directory {} ({} job(s))",
        dir.display(),
        records.len()
    );
    let name_width = records.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for r in &records {
        let progress = match campaign_points(&store.job_dir(&r.id)) {
            Some((done, total)) => format!("{done:>4}/{total:<4} points"),
            None => format!("{:>4}/{:<4} points", "-", "-"),
        };
        let mut notes = String::new();
        if r.fails > 0 {
            let _ = write!(notes, "  {} strike(s)", r.fails);
        }
        if let Some(err) = &r.error {
            let first_line = err.lines().next().unwrap_or("");
            let _ = write!(notes, "  last error: {first_line}");
        }
        let _ = writeln!(
            out,
            "  [{:<8}] {}  {:<name_width$}  {progress}{notes}",
            r.state.as_str(),
            r.id,
            r.name
        );
    }
    if skipped > 0 {
        let _ = writeln!(out, "  note: {skipped} unreadable job record(s) skipped");
    }
    Ok(Some(out))
}

/// Checkpoint progress of one service job's campaign directory:
/// `(complete, total)` points summed over its job matrix. `None` when
/// the campaign has not started yet (no stored manifest) or its
/// artifacts are unreadable — the listing shows `-/-` rather than
/// failing the whole report.
fn campaign_points(run_dir: &Path) -> Option<(usize, usize)> {
    if !run_dir.join(STORED_MANIFEST).is_file() {
        return None;
    }
    let manifest = load_stored_manifest(run_dir).ok()?;
    let grid = manifest.grid.to_grid().ok()?;
    let store = CheckpointStore::open(run_dir).ok()?;
    let mut done = 0usize;
    let mut total = 0usize;
    for spec in job_matrix(&manifest) {
        let id = spec.id();
        if let Ok(Some(meta)) = store.load_meta(&id) {
            total += meta.points_total;
            if let Ok(records) = store.load_records(&id) {
                done += crate::runner::complete_points(&records, &grid).len();
            }
        }
    }
    Some((done, total))
}

fn render_one_run(run_dir: &Path) -> Result<String, CliError> {
    let manifest = load_stored_manifest(run_dir)?;
    let grid = manifest.grid.to_grid()?;
    let store = CheckpointStore::open(run_dir)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({}, {} executor)",
        run_dir.display(),
        manifest.name,
        manifest.executor.keyword()
    );
    let specs = job_matrix(&manifest);
    let id_width = specs.iter().map(|s| s.id().len()).max().unwrap_or(0);
    let mut all_done = true;
    for spec in &specs {
        let id = spec.id();
        let (done, total) = match store.load_meta(&id)? {
            Some(meta) => {
                let records = store.load_records(&id)?;
                (
                    crate::runner::complete_points(&records, &grid).len(),
                    meta.points_total,
                )
            }
            None => (0, 0),
        };
        let state = if total == 0 {
            "not started"
        } else if done >= total {
            "complete"
        } else {
            all_done = false;
            "in progress"
        };
        let _ = writeln!(
            out,
            "  {id:<id_width$}  {done:>4}/{total:<4} points  {state}"
        );
    }
    if let Some(snap) = load_metrics(run_dir)? {
        let mut notes = Vec::new();
        if let Some(h) = snap.hists.get("campaign.total_ns") {
            notes.push(format!("last invocation {}", fmt_ns(h.sum)));
        }
        if let Some(&n) = snap.counters.get("campaign.points_run") {
            notes.push(format!("{n} points run"));
        }
        if let Some(&s) = snap.counters.get("checkpoint.salvaged_lines") {
            if s > 0 {
                notes.push(format!("{s} salvaged checkpoint line(s)"));
            }
        }
        if !notes.is_empty() {
            let _ = writeln!(out, "  metrics: {}", notes.join(", "));
        }
    } else if !all_done {
        let _ = writeln!(
            out,
            "  (no metrics.json; resume with `qufi resume` to finish)"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(0), "0 ns");
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21 s");
    }

    #[test]
    fn counters_note_the_skipped_group_share() {
        let mut snap = Snapshot {
            counters: Default::default(),
            hists: Default::default(),
            costs: Vec::new(),
        };
        snap.counters.insert("replay.batch.groups".into(), 800);
        snap.counters
            .insert("replay.batch.groups_skipped".into(), 200);
        let mut out = String::new();
        render_counters(&mut out, &snap);
        assert!(
            out.contains("skipped 25.0% of 800 amplitude group(s)"),
            "{out}"
        );
    }

    #[test]
    fn missing_metrics_is_a_clear_error() {
        let dir = std::env::temp_dir().join(format!("qufi-stats-none-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let err = render_stats(&dir, 5).unwrap_err().to_string();
        assert!(err.contains("no metrics.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_dir_lists_job_states_and_progress() {
        use qufi_serve::store::Store;
        use qufi_serve::{JobRecord, JobState};

        let dir = std::env::temp_dir().join(format!("qufi-list-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::open(&dir).unwrap();

        // One finished job with a real campaign directory behind it...
        let toml = "[campaign]\n\
                    name = \"svc\"\n\
                    executor = \"ideal\"\n\
                    workloads = [\"ghz-2\"]\n\
                    [grid]\n\
                    thetas = [0.0]\n\
                    phis = [0.0]\n";
        let manifest = crate::Manifest::from_toml(toml).unwrap();
        let canonical = manifest.to_toml();
        let id = qufi_serve::job_id(&canonical);
        crate::run_to_completion(
            &manifest,
            &store.job_dir(&id),
            &crate::RunOptions {
                quiet: true,
                ..crate::RunOptions::default()
            },
        )
        .unwrap();
        store
            .save(&JobRecord {
                id,
                name: "svc".to_string(),
                state: JobState::Done,
                manifest: canonical,
                fails: 0,
                error: None,
                seq: 1,
            })
            .unwrap();
        // ...and one still queued, with no campaign directory yet.
        store
            .save(&JobRecord {
                id: "jdeadbeefdeadbeef".to_string(),
                name: "pending".to_string(),
                state: JobState::Queued,
                manifest: String::new(),
                fails: 2,
                error: Some("transient\nsecond line".to_string()),
                seq: 2,
            })
            .unwrap();

        let report = render_runs(&dir).unwrap();
        assert!(report.contains("service directory"), "{report}");
        assert!(report.contains("[done    ]"), "{report}");
        assert!(report.contains("[queued  ]"), "{report}");
        // The finished job shows real checkpoint progress; the queued
        // one shows a placeholder, its strikes, and only the first
        // error line.
        let done_line = report.lines().find(|l| l.contains("svc")).unwrap();
        assert!(!done_line.contains("-/-"), "{report}");
        let queued_line = report.lines().find(|l| l.contains("pending")).unwrap();
        assert!(queued_line.contains("-/-"), "{report}");
        assert!(queued_line.contains("2 strike(s)"), "{report}");
        assert!(queued_line.contains("last error: transient"), "{report}");
        assert!(!queued_line.contains("second line"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_listing_says_so() {
        let dir = std::env::temp_dir().join(format!("qufi-list-none-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let report = render_runs(&dir).unwrap();
        assert!(report.contains("no campaign directories"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
