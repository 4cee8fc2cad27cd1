//! Shared experiment drivers for the QuFI reproduction.
//!
//! Every figure of the paper's evaluation (§V) has a `fig*` binary
//! (paper-scale grids, CSV output under `results/`; `--coarse` for 45°
//! smoke grids). The single-fault figures run their study as a `qufi run`
//! campaign ([`run_manifest`]) into `results/figures/<figure>/`, a campaign
//! directory that `qufi stats`, `qufi export` and `qufi resume` read like
//! any other, and render their CSVs from that run's checkpointed records.
//! Fig. 4 and the double-fault Figs. 8–10 use the library drivers in
//! [`experiments`], which the Criterion benches time too; [`experiments`]
//! also defines the Fig. 7 and Fig. 11 studies.
//!
//! | Paper artifact | Campaign or driver | Binary |
//! |----------------|--------------------|--------|
//! | Fig. 4 worked example | [`experiments::fig4_worked_example`] | `fig4` |
//! | Fig. 5 QVF heatmaps (BV/DJ/QFT, 4q) | `manifests/paper.toml` | `fig5` |
//! | Fig. 6 per-qubit heatmaps (QFT-4) | `paper.toml`, `qft-4` only | `fig6` |
//! | Fig. 7 scaling histograms (4→7q) | [`experiments::fig7_manifest`] | `fig7` |
//! | Fig. 8 single vs double heatmaps | [`experiments::fig8_double`] | `fig8` |
//! | Fig. 9 ΔQVF map | [`experiments::fig9_delta`] | `fig8` |
//! | Fig. 10 QVF distributions | [`experiments::fig10_distributions`] | `fig8` |
//! | Fig. 11 hardware vs simulation | [`experiments::fig11_manifest`] | `fig11` |

pub mod experiments;

use qufi_cli::checkpoint::{CheckpointStore, JobMeta};
use qufi_cli::{run_to_completion, CliError, Manifest, RunOptions};
use qufi_core::CampaignResult;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where experiment binaries drop their CSV artifacts.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV artifact and reports the path on stdout. A figure whose
/// artifact cannot be written has failed: the error goes to stderr and the
/// binary exits with status 1.
pub fn write_artifact(name: &str, contents: &str) {
    let path = results_dir().join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => {
            eprintln!("  failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The paper's §V-B study, `manifests/paper.toml`, as this build read it.
pub fn paper_manifest() -> Manifest {
    Manifest::from_toml(include_str!("../../../manifests/paper.toml"))
        .expect("manifests/paper.toml is a valid manifest")
}

/// Runs `manifest` as a `qufi run` campaign (quiet, telemetry on) into
/// `dir`, removing any earlier run there first, and returns each job's
/// metadata and result in manifest order. Each result is rebuilt from the
/// run's checkpoints, as the run's own artifacts under `dir/results/` are.
///
/// # Errors
///
/// A `dir` that cannot be removed, and everything
/// [`qufi_cli::run_to_completion`] can raise.
pub fn run_manifest(
    manifest: &Manifest,
    dir: &Path,
) -> Result<Vec<(JobMeta, CampaignResult)>, CliError> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            return Err(CliError::io("removing an earlier run", dir, e))
        }
        _ => {}
    }
    let opts = RunOptions {
        quiet: true,
        metrics: true,
        ..RunOptions::default()
    };
    let outcome = run_to_completion(manifest, dir, &opts)?;
    let store = CheckpointStore::open(dir)?;
    let grid = manifest.grid.to_grid()?;
    outcome
        .summary
        .jobs
        .into_iter()
        .map(|job| {
            let result = store.load_result(&job.meta, &grid)?;
            Ok((job.meta, result))
        })
        .collect()
}

/// [`run_manifest`] into `results/figures/<figure>`, reporting the
/// campaign directory on stdout. A figure whose campaign fails has failed:
/// the error goes to stderr and the binary exits with status 1.
pub fn figure_campaign(figure: &str, manifest: &Manifest) -> Vec<(JobMeta, CampaignResult)> {
    let dir = results_dir().join("figures").join(figure);
    match run_manifest(manifest, &dir) {
        Ok(jobs) => {
            println!("  campaign {} (qufi stats reads it)", dir.display());
            jobs
        }
        Err(e) => {
            eprintln!("  campaign {} failed: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// `true` when the binary was invoked with `--coarse` (45° grids instead of
/// the paper's 15°, for quick smoke runs).
pub fn coarse_requested() -> bool {
    std::env::args().any(|a| a == "--coarse")
}

/// A console section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_cli::obs_artifacts::load_metrics;
    use qufi_core::report::{records_to_csv, Heatmap};

    #[test]
    fn run_manifest_returns_each_jobs_exported_result_in_manifest_order() {
        let manifest = Manifest::from_toml(
            "[campaign]\nname = \"helper\"\nthreads = 2\nexecutor = \"noisy\"\n\
             workloads = [\"ghz-3\", \"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\npreset = \"coarse\"\n",
        )
        .unwrap();
        let dir =
            std::env::temp_dir().join(format!("qufi-bench-run-manifest-{}", std::process::id()));
        for pass in 0..2 {
            let jobs = run_manifest(&manifest, &dir).unwrap();
            let ids: Vec<&str> = jobs.iter().map(|(meta, _)| meta.id.as_str()).collect();
            assert_eq!(ids, ["ghz-3@lima", "bv-3@lima"], "manifest order");
            for (meta, result) in &jobs {
                let exported = dir.join("results").join(&meta.id);
                let read = |name: &str| fs::read_to_string(exported.join(name)).unwrap();
                assert_eq!(records_to_csv(&result.records), read("records.csv"));
                assert_eq!(Heatmap::from_campaign(result).to_csv(), read("heatmap.csv"));
            }
            // The second pass starts fresh: nothing comes from the first
            // pass's checkpoints.
            let metrics = load_metrics(&dir).unwrap().expect("metrics.json");
            let resumed = metrics.counters.get("campaign.points_resumed");
            assert_eq!(resumed, Some(&0), "pass {pass}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
