//! Golden-file tests: the `export` output of small committed manifests is
//! pinned byte-for-byte. Any refactor of the sweep engine, the evolution
//! kernels or the exporters that silently changes campaign results fails
//! here instead of shipping. One golden per executor family whose results
//! come from different code:
//!
//! * `tests/golden/` — the noisy density executor (bv-2, ghz-2 on lima);
//! * `tests/golden_trajectory/` — the Monte-Carlo trajectory executor
//!   (ghz-3 on lima, 64 shots, coarse grid);
//! * `tests/golden_hardware/` — the hardware executor's noisy evolution
//!   plus seeded readout sampling (bv-3 on lima, coarse grid).
//!
//! To re-bless the snapshots after an *intentional* result change:
//!
//! ```bash
//! QUFI_BLESS=1 cargo test -p qufi-cli --test golden_export
//! git add crates/cli/tests/golden*
//! ```

use qufi_cli::{run_to_completion, Manifest, RunOptions, RunStatus};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn golden_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
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
                    .replace('\\', "/");
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Runs `tests/<name>/manifest.toml` and diffs its `results/` against the
/// committed `tests/<name>/results/` (or re-blesses it under `QUFI_BLESS`).
fn check_golden(name: &str) {
    let dir = golden_dir(name);
    let manifest_text = fs::read_to_string(dir.join("manifest.toml")).unwrap();
    let manifest = Manifest::from_toml(&manifest_text).unwrap();

    let out = std::env::temp_dir().join(format!(
        "qufi-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&out);
    let outcome = run_to_completion(
        &manifest,
        &out,
        &RunOptions {
            quiet: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.summary.status, RunStatus::Complete);
    let produced = tree(&out.join("results"));
    assert!(!produced.is_empty(), "{name}: campaign exported nothing");

    let snapshot_dir = dir.join("results");
    if std::env::var_os("QUFI_BLESS").is_some() {
        let _ = fs::remove_dir_all(&snapshot_dir);
        for (rel, bytes) in &produced {
            let dest = snapshot_dir.join(rel);
            fs::create_dir_all(dest.parent().unwrap()).unwrap();
            fs::write(dest, bytes).unwrap();
        }
        eprintln!("{name}: blessed {} golden files", produced.len());
        let _ = fs::remove_dir_all(&out);
        return;
    }

    let expected = tree(&snapshot_dir);
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        produced.keys().collect::<Vec<_>>(),
        "{name}: artifact set changed — if intentional, re-bless with QUFI_BLESS=1"
    );
    for (rel, bytes) in &expected {
        assert_eq!(
            bytes, &produced[rel],
            "{name}: artifact {rel} diverged from the golden snapshot — campaign \
             results changed; if intentional, re-bless with QUFI_BLESS=1"
        );
    }
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn export_matches_committed_golden_files() {
    check_golden("golden");
}

#[test]
fn trajectory_export_matches_committed_golden_files() {
    check_golden("golden_trajectory");
}

#[test]
fn hardware_export_matches_committed_golden_files() {
    check_golden("golden_hardware");
}
