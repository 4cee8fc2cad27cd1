//! Library drivers of the figures that do not run as `qufi run` campaigns:
//! the Fig. 4 worked example, the double-fault Figs. 8–10 (the manifest has
//! no double-fault axis) and the Fig. 7 trajectory extension; and the
//! studies of the Fig. 7 and Fig. 11 campaigns, with Fig. 11's rows.

use crate::paper_manifest;
use qufi_cli::{ExecutorKind, GridSpec, Manifest};
use qufi_core::campaign::{run_single_campaign, CampaignOptions, CampaignResult};
use qufi_core::double::{neighbor_pairs, run_double_campaign, DoubleCampaignResult, DoubleOptions};
use qufi_core::engine::SweepExecutor;
use qufi_core::executor::{Executor, NoisyExecutor, TrajectoryExecutor};
use qufi_core::fault::{enumerate_injection_points, inject_fault, FaultGrid, FaultParams};
use qufi_core::metrics::{mean, qvf_from_dist, stddev};
use qufi_core::report::{Heatmap, Histogram};
use qufi_noise::BackendCalibration;
use qufi_sim::Gate;
use std::f64::consts::PI;

/// The default device of the reproduction: the synthetic Jakarta
/// calibration (the machine the paper's hardware experiment used).
pub fn default_executor() -> NoisyExecutor {
    NoisyExecutor::new(BackendCalibration::jakarta())
}

/// Fig. 4 — the worked example: a θ=π/4 fault on q0 of Bernstein-Vazirani
/// (secret 101) after the first Hadamard, shown as the fault-free vs faulty
/// output distributions and the resulting QVF.
pub fn fig4_worked_example() -> String {
    use std::fmt::Write as _;
    let w = qufi_algos::bernstein_vazirani(0b101, 3);
    let ex = default_executor();
    let clean = ex.execute(&w.circuit).expect("clean run");
    // op_index 2 is the first H on q0 (ops: x(3), h(3), h(0), …) — inject
    // after the Hadamard that puts q0 into superposition.
    let point = enumerate_injection_points(&w.circuit)
        .into_iter()
        .find(|p| p.qubit == 0)
        .expect("q0 has gates");
    let faulty_qc =
        inject_fault(&w.circuit, point, FaultParams::shift(PI / 4.0, 0.0)).expect("in range");
    let faulty = ex.execute(&faulty_qc).expect("faulty run");

    let mut out = String::new();
    let _ = writeln!(out, "Bernstein-Vazirani (secret 101), θ=π/4 fault on q0:");
    let _ = writeln!(out, "state   P(fault-free)  P(faulty)");
    for idx in 0..clean.len() {
        let _ = writeln!(
            out,
            "{}     {:>10.3}   {:>10.3}",
            clean.bitstring(idx),
            clean.prob(idx),
            faulty.prob(idx)
        );
    }
    let qvf_clean = qvf_from_dist(&clean, &w.correct_outputs);
    let qvf_faulty = qvf_from_dist(&faulty, &w.correct_outputs);
    let _ = writeln!(
        out,
        "QVF fault-free = {qvf_clean:.4}, faulty = {qvf_faulty:.4}"
    );
    out
}

/// Fig. 8 — Bernstein-Vazirani single vs double fault injection:
/// (a) the single-fault heatmap restricted to the half-φ grid,
/// (b) the double-fault heatmap (averaging all second faults), and
/// (c) the detailed second-fault sweep with the first fault at (π, π).
pub struct Fig8Output {
    /// Single-fault campaign (half-φ grid).
    pub single: CampaignResult,
    /// Single-fault heatmap — Fig. 8a.
    pub single_map: Heatmap,
    /// Double-fault campaign.
    pub double: DoubleCampaignResult,
    /// Double-fault first-fault heatmap — Fig. 8b.
    pub double_map: Heatmap,
    /// Detail records with the first fault fixed to (π, π) — Fig. 8c.
    pub detail: Vec<qufi_core::double::DoubleInjectionRecord>,
}

/// Runs the Fig. 8 experiment on the given executor.
pub fn fig8_double(grid: &FaultGrid, executor: &NoisyExecutor) -> Fig8Output {
    let w = qufi_algos::bernstein_vazirani(0b101, 3);
    let single_opts = CampaignOptions {
        grid: grid.clone(),
        points: None,
        threads: 0,
    };
    let single = run_single_campaign(&w.circuit, &w.correct_outputs, executor, &single_opts)
        .expect("single campaign");
    let single_map = Heatmap::from_campaign(&single);

    let pairs = neighbor_pairs(&w.circuit, executor.transpiler()).expect("pairs");
    let double_opts = DoubleOptions {
        grid: grid.clone(),
        points: None,
        pairs,
        threads: 0,
    };
    let double = run_double_campaign(&w.circuit, &w.correct_outputs, executor, &double_opts)
        .expect("double campaign");
    let double_map = Heatmap::from_double_campaign(&double);
    let t_max = *grid.thetas.last().expect("nonempty grid");
    let p_max = *grid.phis.last().expect("nonempty grid");
    let detail = double.slice_first_fault(t_max, p_max);
    Fig8Output {
        single,
        single_map,
        double,
        double_map,
        detail,
    }
}

/// Fig. 9 — the ΔQVF (double − single) heatmap derived from Fig. 8.
pub fn fig9_delta(fig8: &Fig8Output) -> Heatmap {
    fig8.double_map.delta(&fig8.single_map)
}

/// Fig. 10 — the single vs double QVF distributions with their moments.
pub struct Fig10Output {
    /// Single-fault histogram.
    pub single_hist: Histogram,
    /// Double-fault histogram.
    pub double_hist: Histogram,
    /// Single mean / stddev.
    pub single_stats: (f64, f64),
    /// Double mean / stddev.
    pub double_stats: (f64, f64),
}

/// Derives Fig. 10 from the Fig. 8 campaigns.
pub fn fig10_distributions(fig8: &Fig8Output) -> Fig10Output {
    let s = fig8.single.qvfs();
    let d = fig8.double.qvfs();
    Fig10Output {
        single_hist: Histogram::new(&s, 50),
        double_hist: Histogram::new(&d, 50),
        single_stats: (mean(&s), stddev(&s)),
        double_stats: (mean(&d), stddev(&d)),
    }
}

/// The circuit families of Fig. 7's scaling study.
pub const FIG7_FAMILIES: [&str; 3] = ["bv", "dj", "qft"];

/// Fig. 7's study on `grid`: each of [`FIG7_FAMILIES`] at each width in
/// `qubits` on jakarta, family by family, width by width.
pub fn fig7_manifest(qubits: &[usize], grid: GridSpec) -> Manifest {
    let mut manifest = paper_manifest();
    manifest.name = "fig7".into();
    manifest.workloads = FIG7_FAMILIES
        .iter()
        .flat_map(|family| qubits.iter().map(move |n| format!("{family}-{n}")))
        .collect();
    manifest.grid = grid;
    manifest
}

/// One width step of the Fig. 7 trajectory extension.
#[derive(Debug, Clone)]
pub struct TrajectoryExtensionPoint {
    /// Circuit width.
    pub qubits: usize,
    /// Mean QVF across the swept grid at the probed injection point.
    pub mean_qvf: f64,
    /// Grid cells swept (each averaging `shots` trajectories).
    pub cells: usize,
}

/// Fig. 7 extension — the paper's scaling study stops where the
/// density-matrix cost wall (gates × 312 × 4ⁿ) stops being interactive,
/// around 11 qubits. The Monte-Carlo trajectory executor replaces the 4ⁿ
/// term with shots × 2ⁿ, carrying the same per-point QVF sweep to
/// 10–16-qubit GHZ circuits on the 16-qubit guadalupe calibration. One
/// mid-circuit injection point per width keeps the driver interactive;
/// the per-point cost is what BENCHMARKS.md pins.
pub fn fig7_trajectory_extension(
    grid: &FaultGrid,
    shots: u64,
    widths: &[usize],
) -> Vec<TrajectoryExtensionPoint> {
    widths
        .iter()
        .map(|&n| {
            let w = qufi_algos::build_workload(&format!("ghz-{n}")).expect("registry workload");
            let ex = TrajectoryExecutor::with_shots(
                BackendCalibration::guadalupe(),
                0xF160 + n as u64,
                shots,
            );
            let points = enumerate_injection_points(&w.circuit);
            let point = points[points.len() / 2];
            let prepared = ex.prepare(&w.circuit, point).expect("prepare");
            let cells = prepared.replay_grid(grid, 1).expect("replay grid");
            let qvfs: Vec<f64> = cells
                .iter()
                .map(|dist| qvf_from_dist(dist, &w.correct_outputs))
                .collect();
            TrajectoryExtensionPoint {
                qubits: n,
                mean_qvf: mean(&qvfs),
                cells: qvfs.len(),
            }
        })
        .collect()
}

/// Fig. 11's study under `executor`, named `fig11-<executor>`:
/// bv-4@jakarta (seed 2022) on the θ × φ grid that holds the cells of the
/// T, S, Z and Y faults.
pub fn fig11_manifest(executor: ExecutorKind) -> Manifest {
    let mut manifest = paper_manifest();
    manifest.name = format!("fig11-{}", executor.keyword());
    manifest.seed = 2022;
    manifest.executor = executor;
    manifest.workloads = vec!["bv-4".into()];
    manifest.grid = GridSpec::Custom {
        thetas: vec![0.0, PI],
        phis: vec![PI / 4.0, PI / 2.0, PI],
    };
    manifest
}

/// Fig. 11's rows: each gate-equivalent fault (T, S, Z, Y) with its QVF
/// cell in the `hardware` and the `simulation` campaign of
/// [`fig11_manifest`]. A cell averages the QVF over every injection point,
/// so it does not depend on the rest of the grid.
pub fn fig11_rows(hardware: &CampaignResult, simulation: &CampaignResult) -> Vec<(Gate, f64, f64)> {
    let [hardware, simulation] = [hardware, simulation].map(Heatmap::from_campaign);
    [Gate::T, Gate::S, Gate::Z, Gate::Y]
        .into_iter()
        .map(|gate| {
            let (theta, phi) = gate.as_fault_shift().expect("gate has a fault shift");
            let cell = |hm: &Heatmap| {
                let ti = hm.thetas().iter().position(|&t| t == theta);
                let pi = hm.phis().iter().position(|&p| p == phi);
                hm.value(pi.expect("φ on the grid"), ti.expect("θ on the grid"))
            };
            (gate, cell(&hardware), cell(&simulation))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_manifest;
    use std::fs;
    use std::path::PathBuf;

    /// A campaign directory of its own for the test `name`.
    fn scratch_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qufi-bench-{name}-{}", std::process::id()))
    }

    #[test]
    fn fig4_report_mentions_golden_state() {
        let report = fig4_worked_example();
        assert!(report.contains("101"));
        assert!(report.contains("QVF"));
    }

    #[test]
    fn fig5_coarse_produces_three_heatmaps() {
        // fig5's study on the coarse grid, on the ideal executor.
        let mut manifest = paper_manifest();
        manifest.threads = 2;
        manifest.executor = ExecutorKind::Ideal;
        manifest.grid = GridSpec::Preset("coarse".into());
        let dir = scratch_dir("fig5");
        let out = run_manifest(&manifest, &dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let workloads: Vec<&str> = out.iter().map(|(meta, _)| meta.workload.as_str()).collect();
        assert_eq!(workloads, ["bv-4", "dj-4", "qft-4"]);
        for (meta, res) in &out {
            assert!(!res.is_empty(), "{} empty", meta.workload);
            // The (0,0) fault cell must be perfect on the ideal executor.
            let hm = Heatmap::from_campaign(res);
            assert!(
                hm.value(0, 0) < 1e-9,
                "{}: {}",
                meta.workload,
                hm.value(0, 0)
            );
        }
    }

    #[test]
    fn fig7_single_family_scales() {
        let grid = GridSpec::Custom {
            thetas: vec![0.0, PI],
            phis: vec![0.0],
        };
        let mut manifest = fig7_manifest(&[4, 5], grid);
        manifest.threads = 2;
        let dir = scratch_dir("fig7");
        let out = run_manifest(&manifest, &dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(out.len(), 6);
        for (family, runs) in FIG7_FAMILIES.iter().zip(out.chunks(2)) {
            let workloads: Vec<&str> = runs
                .iter()
                .map(|(meta, _)| meta.workload.as_str())
                .collect();
            assert_eq!(workloads, [format!("{family}-4"), format!("{family}-5")]);
            let (narrow, wide) = (&runs[0].1, &runs[1].1);
            assert!(!narrow.is_empty(), "{family}");
            // A wider circuit has more gates, so more injection points.
            assert!(wide.len() > narrow.len(), "{family}");
        }
    }

    #[test]
    fn fig7_trajectory_extension_crosses_the_density_wall() {
        let grid = FaultGrid::custom(vec![0.0, PI], vec![0.0]);
        let out = fig7_trajectory_extension(&grid, 32, &[10, 13]);
        assert_eq!(out.len(), 2);
        for pt in &out {
            assert!(
                pt.qubits > qufi_sim::density::MAX_QUBITS || pt.qubits == 10,
                "{pt:?}"
            );
            assert_eq!(pt.cells, 2);
            assert!((0.0..=1.0).contains(&pt.mean_qvf), "{pt:?}");
        }
        // A θ=π cell drives QVF up relative to the null cell, so the mean
        // sits strictly inside (0, 1).
        assert!(out.iter().all(|p| p.mean_qvf > 0.0));
    }

    #[test]
    fn fig11_rows_track_both_backends() {
        let [hardware, simulation] =
            [ExecutorKind::Hardware, ExecutorKind::Noisy].map(|executor| {
                let mut manifest = fig11_manifest(executor);
                manifest.threads = 2;
                let dir = scratch_dir(&manifest.name);
                let mut jobs = run_manifest(&manifest, &dir).unwrap();
                fs::remove_dir_all(&dir).unwrap();
                assert_eq!(jobs.len(), 1);
                jobs.remove(0).1
            });
        let rows = fig11_rows(&hardware, &simulation);
        let gates: Vec<Gate> = rows.iter().map(|&(gate, _, _)| gate).collect();
        assert_eq!(gates, [Gate::T, Gate::S, Gate::Z, Gate::Y]);
        for &(gate, hw, sim) in &rows {
            assert!((0.0..=1.0).contains(&hw), "{gate:?}: {hw}");
            assert!((0.0..=1.0).contains(&sim), "{gate:?}: {sim}");
            // The paper's bound on |hardware − simulation|.
            assert!((hw - sim).abs() < 0.052, "{gate:?}: {hw} vs {sim}");
        }
    }
}
