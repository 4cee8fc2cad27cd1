//! End-to-end orchestration tests: a multi-workload, multi-backend
//! campaign must survive interruption-and-resume with artifacts
//! byte-identical to an uninterrupted run, and its exported records
//! must match a direct `qufi_core::campaign` library invocation.

use qufi_cli::{resume, run_to_completion, Manifest, RunOptions, RunStatus};
use qufi_core::campaign::{golden_outputs, run_single_campaign, CampaignOptions};
use qufi_core::executor::NoisyExecutor;
use qufi_core::fault::FaultGrid;
use qufi_core::report::records_to_csv;
use qufi_noise::BackendCalibration;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const MANIFEST: &str = r#"
[campaign]
name = "roundtrip"
seed = 11
threads = 2
executor = "noisy"
workloads = ["bv-3", "ghz-3"]
backends = ["jakarta", "lima"]

[grid]
thetas = [0.0, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qufi-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quiet() -> RunOptions {
    RunOptions {
        quiet: true,
        ..RunOptions::default()
    }
}

/// Every file under `root`, keyed by relative path.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
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
fn interrupted_campaign_resumes_to_identical_artifacts() {
    let manifest = Manifest::from_toml(MANIFEST).unwrap();

    // Reference: one uninterrupted run.
    let dir_a = temp_dir("uninterrupted");
    let outcome_a = run_to_completion(&manifest, &dir_a, &quiet()).unwrap();
    assert_eq!(outcome_a.summary.status, RunStatus::Complete);
    assert_eq!(
        outcome_a.export.jobs_complete, 4,
        "2 workloads × 2 backends"
    );

    // The same campaign, killed by a 3-point budget…
    let dir_b = temp_dir("interrupted");
    let first = run_to_completion(
        &manifest,
        &dir_b,
        &RunOptions {
            point_budget: Some(3),
            ..quiet()
        },
    )
    .unwrap();
    assert_eq!(first.summary.status, RunStatus::Interrupted);
    assert_eq!(first.summary.points_run, 3);
    assert!(first.export.jobs_partial > 0);

    // …then resumed (with a budget again, to exercise several
    // interrupt/resume cycles) until it completes.
    let mut cycles = 0;
    loop {
        cycles += 1;
        assert!(cycles < 100, "campaign never completed");
        let outcome = resume(
            &dir_b,
            &RunOptions {
                point_budget: Some(5),
                ..quiet()
            },
        )
        .unwrap();
        if outcome.summary.status == RunStatus::Complete {
            assert_eq!(
                outcome.summary.points_run + outcome.summary.points_resumed,
                outcome_a.summary.points_run,
                "resumed campaign covered a different point set"
            );
            break;
        }
        assert!(outcome.summary.points_run <= 5);
    }

    // Artifact trees must match byte-for-byte.
    let results_a = tree(&dir_a.join("results"));
    let results_b = tree(&dir_b.join("results"));
    assert_eq!(
        results_a.keys().collect::<Vec<_>>(),
        results_b.keys().collect::<Vec<_>>(),
        "different artifact sets"
    );
    for (path, bytes_a) in &results_a {
        assert_eq!(
            bytes_a, &results_b[path],
            "artifact {path} differs between uninterrupted and resumed runs"
        );
    }

    let _ = fs::remove_dir_all(dir_a);
    let _ = fs::remove_dir_all(dir_b);
}

/// The value `summary.json` exports under `key` for `job`.
fn summary_field<'a>(summary: &'a str, job: &str, key: &str) -> &'a str {
    let at = summary
        .find(&format!("\"job\":\"{job}\""))
        .unwrap_or_else(|| panic!("{job} not in summary: {summary}"));
    let key = format!("\"{key}\":");
    let rest = &summary[at..];
    let from = rest.find(&key).expect("key in job object") + key.len();
    rest[from..].split([',', '}']).next().unwrap()
}

#[test]
fn exported_records_match_direct_library_campaign() {
    let manifest = Manifest::from_toml(MANIFEST).unwrap();
    let dir = temp_dir("library-match");
    run_to_completion(&manifest, &dir, &quiet()).unwrap();
    let summary = fs::read_to_string(dir.join("results/summary.json")).unwrap();

    // The equivalent direct qufi_core invocation for every matrix cell.
    let opts = CampaignOptions {
        grid: FaultGrid::custom(
            vec![0.0, std::f64::consts::PI],
            vec![0.0, std::f64::consts::PI],
        ),
        points: None,
        threads: 2,
    };
    for workload in ["bv-3", "ghz-3"] {
        let w = qufi_algos::build_workload(workload).unwrap();
        let golden = golden_outputs(&w.circuit).unwrap();
        for backend in ["jakarta", "lima"] {
            let job = format!("{workload}@{backend}");
            let executor = NoisyExecutor::new(BackendCalibration::named(backend).unwrap());
            let direct = run_single_campaign(&w.circuit, &golden, &executor, &opts).unwrap();

            // The CLI's canonical records.csv is exactly the library's CSV
            // rendering of the same campaign (checkpoint round-tripping is
            // format-idempotent).
            let exported =
                fs::read_to_string(dir.join(format!("results/{job}/records.csv"))).unwrap();
            assert_eq!(exported, records_to_csv(&direct.records), "{job}");

            // The summary carries the same baseline, and the export, which
            // rebuilds the campaign from checkpointed (rounded) records,
            // counts the same improved records as the library.
            let num = qufi_core::serialize::json::num;
            assert_eq!(
                summary_field(&summary, &job, "baseline_qvf"),
                num(direct.baseline_qvf),
                "{job}"
            );
            assert_eq!(
                summary_field(&summary, &job, "improved_fraction"),
                num(direct.improved_fraction()),
                "{job}"
            );
        }
    }

    let _ = fs::remove_dir_all(dir);
}

#[test]
fn the_qufi_binary_runs_lists_and_resumes() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_qufi");
    let dir = temp_dir("binary");
    fs::create_dir_all(&dir).unwrap();
    let manifest_path = dir.join("m.toml");
    fs::write(
        &manifest_path,
        "[campaign]\nname = \"bin\"\nexecutor = \"ideal\"\nworkloads = [\"ghz-2\"]\n\
         [grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n",
    )
    .unwrap();
    let out = dir.join("campaign");

    // A budgeted run exits 2 (interrupted)…
    let status = Command::new(bin)
        .args(["run", manifest_path.to_str().unwrap(), "--out"])
        .arg(&out)
        .args(["--budget", "1", "--quiet"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2), "budgeted run should exit 2");

    // …resume finishes with 0 and produces artifacts.
    let status = Command::new(bin)
        .args(["resume"])
        .arg(&out)
        .args(["--quiet"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "resume should complete");
    assert!(out.join("results/summary.json").is_file());

    // export regenerates in place; list subcommands answer.
    let status = Command::new(bin)
        .args(["export", out.to_str().unwrap()])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "export failed");
    for what in ["workloads", "backends", "grids"] {
        let output = Command::new(bin).args(["list", what]).output().unwrap();
        assert!(output.status.success());
        assert!(!output.stdout.is_empty());
    }

    // Usage errors exit 1.
    let status = Command::new(bin).args(["frobnicate"]).status().unwrap();
    assert_eq!(status.code(), Some(1));
    // So does a flag the command does not read, named in the error.
    let dir_arg = out.to_str().unwrap();
    for (args, flag) in [
        (vec!["export", dir_arg, "--threads", "2"], "--threads"),
        (vec!["shard", "merge", dir_arg, "--budget", "1"], "--budget"),
    ] {
        let output = Command::new(bin).args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?} should be refused");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr does not name {flag}"
        );
    }

    let _ = fs::remove_dir_all(dir);
}
