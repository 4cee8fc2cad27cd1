//! Telemetry must live strictly outside the determinism envelope: every
//! byte under `results/` is identical with metrics on or off, with or
//! without `--trace`, at any thread count — and the metrics a run *does*
//! record have to be internally consistent (Σ per-point replay counts =
//! points × grid size, trajectory sampler totals as counted per draw) and
//! nest correctly as a span tree.
//!
//! The recorder is process-global, so every scenario runs inside one
//! `#[test]` (Rust runs tests in one binary concurrently); the `#[ignore]`d
//! overhead guard shares a lock with it for `--include-ignored` runs.

use qufi_cli::obs_artifacts::{COSTS_FILE, METRICS_FILE, TRACE_FILE};
use qufi_cli::{run_to_completion, Manifest, RunOptions, RunStatus};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Noisy (exact density-matrix) scenario — same shape as the
/// thread-invariance suite, so a failure here isolates telemetry as the
/// cause rather than the scheduler.
const NOISY: &str = r#"
[campaign]
name = "metrics-noisy"
threads = 2
executor = "noisy"
workloads = ["bv-3"]
backends = ["jakarta"]

[grid]
thetas = [0.0, 1.5707963267948966, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

/// Hardware (finite-shot sampling) scenario: the RNG path is where a
/// stray telemetry call could most plausibly perturb results.
const HARDWARE: &str = r#"
[campaign]
name = "metrics-hardware"
seed = 23
shots = 256
executor = "hardware"
workloads = ["bv-3"]
backends = ["lima"]

[grid]
thetas = [0.0, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

/// Trajectory (Monte-Carlo statevector) scenario: shot streams and the
/// sampler's telemetry tallies.
const TRAJECTORY: &str = r#"
[campaign]
name = "metrics-trajectory"
seed = 5
shots = 64
executor = "trajectory"
workloads = ["bv-3"]
backends = ["lima"]

[grid]
thetas = [0.0, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

/// The trajectory scenario's sampler counters, as counting each draw,
/// branch evaluation, lane continuation and state copy where it happens
/// records them. The shot loops tally these in their workspaces and add
/// each total once, so the totals must come out the same: `traj.shots` is
/// (8 points × 4 cells + 1 baseline) × 64 shots, and every shot makes 12
/// draws. Shots run as 16-lane batches: in each point's 4-cell block the
/// first three cells fork the batch's prefix and the last finishes in it
/// (64 lane copies per forking cell, 1536 in all), and each of the 77
/// lanes that leave the fast path is extracted and written back (154
/// copies) and copies once per further branch it evaluates (386, the
/// evaluations beyond one per draw).
const TRAJECTORY_COUNTERS: [(&str, u64); 6] = [
    ("traj.shots", 2112),
    ("traj.branch_draws", 25344),
    ("traj.branch_evals", 25730),
    ("traj.branch_fallback", 0),
    ("traj.lane_continuations", 77),
    ("sim.state_copies", 2076),
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qufi-metrics-{tag}-{}-{:?}",
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
                    .replace('\\', "/");
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

struct Variant {
    metrics: bool,
    trace: bool,
    threads: usize,
}

/// Runs `manifest` under one telemetry/thread configuration and returns
/// the `results/` tree; when telemetry is on, checks the metric artifacts
/// for internal consistency before the directory is deleted.
fn run_variant(manifest: &Manifest, tag: &str, v: &Variant) -> BTreeMap<String, Vec<u8>> {
    let dir = temp_dir(&format!(
        "{tag}-m{}-tr{}-t{}",
        v.metrics as u8, v.trace as u8, v.threads
    ));
    let outcome = run_to_completion(
        manifest,
        &dir,
        &RunOptions {
            threads: Some(v.threads),
            quiet: true,
            metrics: v.metrics,
            trace: v.trace,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.summary.status, RunStatus::Complete, "{tag}");

    let telemetry = v.metrics || v.trace;
    assert_eq!(
        dir.join(METRICS_FILE).is_file(),
        telemetry,
        "{tag}: metrics.json presence must follow the telemetry flags"
    );
    assert_eq!(
        dir.join(TRACE_FILE).is_file(),
        v.trace,
        "{tag}: trace.jsonl"
    );
    if telemetry {
        check_metrics_consistency(manifest, &dir, tag);
    }
    if v.trace {
        check_trace(&dir, tag);
    }

    let results = tree(&dir.join("results"));
    assert!(!results.is_empty(), "{tag}: campaign exported nothing");
    for artifact in [METRICS_FILE, COSTS_FILE, TRACE_FILE] {
        assert!(
            !results.contains_key(artifact),
            "{tag}: telemetry artifact {artifact} leaked into results/"
        );
    }
    let _ = fs::remove_dir_all(&dir);
    results
}

/// Totals in `metrics.json` and `costs.csv` must agree with each other
/// and with the campaign geometry: Σ per-point replay cells = points ×
/// grid size.
fn check_metrics_consistency(manifest: &Manifest, dir: &Path, tag: &str) {
    let snap = qufi_cli::obs_artifacts::load_metrics(dir).unwrap().unwrap();
    let costs = qufi_cli::obs_artifacts::load_costs(dir).unwrap().unwrap();
    let grid_len = manifest.grid.to_grid().unwrap().len() as u64;

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let points_run = counter("campaign.points_run");
    assert!(points_run > 0, "{tag}: campaign ran no points");
    let cells = counter("replay.cells");
    assert_eq!(
        cells,
        points_run * grid_len,
        "{tag}: replay.cells must equal points × grid configurations"
    );
    assert_eq!(
        counter("replay.batch.cells") + counter("replay.batch.scalar_fallback"),
        cells,
        "{tag}: every cell replays once, in a cell-major block or on its own"
    );
    assert_eq!(
        costs.len() as u64,
        points_run,
        "{tag}: one costs.csv row per executed point"
    );
    assert_eq!(
        costs.iter().map(|c| c.cells).sum::<u64>(),
        cells,
        "{tag}: per-point cell counts must sum to replay.cells"
    );
    for c in &costs {
        assert!(!c.job.is_empty(), "{tag}: cost row without a job label");
    }

    // The per-point span histograms cover the same population as costs.csv.
    for hist in ["point.prepare_ns", "point.replay_ns"] {
        let h = snap
            .hists
            .get(hist)
            .unwrap_or_else(|| panic!("{tag}: missing {hist}"));
        assert_eq!(h.count, points_run, "{tag}: {hist} count");
    }
    let total = snap
        .hists
        .get("campaign.total_ns")
        .unwrap_or_else(|| panic!("{tag}: missing campaign.total_ns"));
    assert_eq!(total.count, 1, "{tag}: exactly one campaign.total_ns span");

    if tag == "trajectory" {
        for (name, want) in TRAJECTORY_COUNTERS {
            assert_eq!(
                counter(name),
                want,
                "{tag}: {name} must equal the per-draw count"
            );
        }
    }
}

fn check_trace(dir: &Path, tag: &str) {
    let events = qufi_cli::obs_artifacts::load_trace(dir).unwrap().unwrap();
    assert!(!events.is_empty(), "{tag}: trace recorded no spans");
    qufi_obs::trace::validate_nesting(&events)
        .unwrap_or_else(|e| panic!("{tag}: trace nesting broken: {e}"));
    assert!(
        events
            .iter()
            .any(|e| e.name == "campaign.total_ns" && e.depth == 0),
        "{tag}: no root campaign.total_ns span in the trace"
    );
}

/// Telemetry on/off × trace × thread count never changes a single
/// exported byte, and the recorded metrics are internally consistent.
#[test]
fn exports_are_byte_identical_with_metrics_on_off_and_any_thread_count() {
    let _guard = RECORDER_LOCK.lock().unwrap();
    let variants = [
        Variant {
            metrics: false,
            trace: false,
            threads: 1,
        },
        Variant {
            metrics: true,
            trace: false,
            threads: 1,
        },
        Variant {
            metrics: true,
            trace: true,
            threads: 4,
        },
        Variant {
            metrics: true,
            trace: false,
            threads: 4,
        },
    ];
    for (tag, text) in [
        ("noisy", NOISY),
        ("hardware", HARDWARE),
        ("trajectory", TRAJECTORY),
    ] {
        let manifest = Manifest::from_toml(text).unwrap();
        let reference = run_variant(&manifest, tag, &variants[0]);
        for v in &variants[1..] {
            let other = run_variant(&manifest, tag, v);
            assert_eq!(
                reference.keys().collect::<Vec<_>>(),
                other.keys().collect::<Vec<_>>(),
                "{tag}: artifact set changed under metrics={} trace={} threads={}",
                v.metrics,
                v.trace,
                v.threads
            );
            for (path, bytes) in &reference {
                assert_eq!(
                    bytes, &other[path],
                    "{tag}: {path} differs under metrics={} trace={} threads={}",
                    v.metrics, v.trace, v.threads
                );
            }
        }
    }

    // The committed golden snapshot is the cross-PR anchor: telemetry on
    // at several thread counts must still reproduce it byte-for-byte.
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let manifest_text = fs::read_to_string(golden_dir.join("manifest.toml")).unwrap();
    let manifest = Manifest::from_toml(&manifest_text).unwrap();
    let expected = tree(&golden_dir.join("results"));
    for v in [
        Variant {
            metrics: true,
            trace: true,
            threads: 1,
        },
        Variant {
            metrics: true,
            trace: false,
            threads: 4,
        },
    ] {
        let produced = run_variant(&manifest, "golden", &v);
        assert_eq!(
            expected.keys().collect::<Vec<_>>(),
            produced.keys().collect::<Vec<_>>(),
            "golden: artifact set changed with telemetry on (threads={})",
            v.threads
        );
        for (path, bytes) in &expected {
            assert_eq!(
                bytes, &produced[path],
                "golden: {path} diverged from the committed snapshot with \
                 telemetry on (threads={})",
                v.threads
            );
        }
    }
}

/// Timing guard for the zero-overhead claim: with the recorder disabled,
/// a counter bump plus a span open/close is one relaxed atomic load each
/// — it must stay in the low tens of nanoseconds even on a loaded CI
/// runner. Run explicitly (`-- --ignored`) by the CI telemetry job so an
/// unlucky scheduler stall never fails the default suite.
#[test]
#[ignore = "timing guard; run via the CI telemetry job with -- --ignored"]
fn disabled_telemetry_is_nearly_free() {
    let _guard = RECORDER_LOCK.lock().unwrap();
    qufi_obs::disable();
    const ITERS: u64 = 1_000_000;
    let start = std::time::Instant::now();
    for i in 0..ITERS {
        qufi_obs::add("guard.counter", i);
        qufi_obs::observe("guard.hist", i);
        qufi_obs::span("guard.span_ns").finish();
    }
    let per_iter = start.elapsed().as_nanos() as f64 / ITERS as f64;
    assert!(
        per_iter < 250.0,
        "disabled-path telemetry costs {per_iter:.1} ns per add+observe+span \
         triple; the disabled fast path should be a few relaxed atomic loads"
    );
    // Nothing may have been recorded while disabled.
    qufi_obs::flush();
    let snap = qufi_obs::snapshot();
    assert!(
        !snap.counters.contains_key("guard.counter")
            && !snap.hists.contains_key("guard.hist")
            && !snap.hists.contains_key("guard.span_ns"),
        "disabled recorder still captured data: {:?}",
        snap.counters.keys().collect::<Vec<_>>()
    );
}
