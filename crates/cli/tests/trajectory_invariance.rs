//! Trajectory-backend determinism, end to end: a `executor = "trajectory"`
//! manifest must export byte-identical JSON/CSV artifacts across
//!
//! * `--threads 1/2/4` (the point-worker × grid split), and
//! * interrupt + resume cycles (checkpoint replay).
//!
//! Per-shot seeds derive from (campaign seed, job, point, fault angles,
//! shot index), and shot blocks fold in fixed order, so no schedule can
//! leak into the averaged distributions.

use qufi_cli::{resume, run_to_completion, Manifest, RunOptions, RunStatus};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const TRAJECTORY: &str = r#"
[campaign]
name = "traj-invariance"
seed = 31
shots = 192
executor = "trajectory"
workloads = ["bv-3"]
backends = ["lima"]

[grid]
thetas = [0.0, 1.5707963267948966, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qufi-traj-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
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

fn quiet() -> RunOptions {
    RunOptions {
        quiet: true,
        ..RunOptions::default()
    }
}

fn run_complete(manifest: &Manifest, tag: &str, opts: &RunOptions) -> BTreeMap<String, Vec<u8>> {
    let dir = temp_dir(tag);
    let outcome = run_to_completion(manifest, &dir, opts).unwrap();
    assert_eq!(outcome.summary.status, RunStatus::Complete);
    let artifacts = tree(&dir.join("results"));
    assert!(
        artifacts.keys().any(|p| p.ends_with(".json"))
            && artifacts.keys().any(|p| p.ends_with(".csv")),
        "expected JSON and CSV artifacts, got {:?}",
        artifacts.keys().collect::<Vec<_>>()
    );
    let _ = fs::remove_dir_all(dir);
    artifacts
}

fn assert_same_tree(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: different artifact sets"
    );
    for (path, bytes) in a {
        assert_eq!(bytes, &b[path], "{what}: artifact {path} differs");
    }
}

#[test]
fn trajectory_exports_are_thread_count_invariant() {
    let manifest = Manifest::from_toml(TRAJECTORY).unwrap();
    let reference = run_complete(
        &manifest,
        "t1",
        &RunOptions {
            threads: Some(1),
            ..quiet()
        },
    );
    for threads in [2usize, 4] {
        let other = run_complete(
            &manifest,
            &format!("t{threads}"),
            &RunOptions {
                threads: Some(threads),
                ..quiet()
            },
        );
        assert_same_tree(&reference, &other, &format!("--threads {threads}"));
    }
}

#[test]
fn trajectory_exports_survive_interrupt_and_resume() {
    let manifest = Manifest::from_toml(TRAJECTORY).unwrap();
    let reference = run_complete(&manifest, "uninterrupted", &quiet());

    let dir = temp_dir("interrupted");
    let first = run_to_completion(
        &manifest,
        &dir,
        &RunOptions {
            point_budget: Some(1),
            ..quiet()
        },
    )
    .unwrap();
    assert_eq!(first.summary.status, RunStatus::Interrupted);
    let mut cycles = 0;
    loop {
        cycles += 1;
        assert!(cycles < 100, "campaign never completed");
        let outcome = resume(
            &dir,
            &RunOptions {
                point_budget: Some(2),
                ..quiet()
            },
        )
        .unwrap();
        if outcome.summary.status == RunStatus::Complete {
            break;
        }
    }
    let resumed = tree(&dir.join("results"));
    assert_same_tree(&reference, &resumed, "interrupt + resume");
    let _ = fs::remove_dir_all(dir);
}
