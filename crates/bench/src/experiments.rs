//! Drivers reproducing each figure of the paper's evaluation (§V).

use qufi_algos::{paper_workloads, scaling_family, Workload};
use qufi_core::campaign::{run_single_campaign, CampaignOptions, CampaignResult};
use qufi_core::double::{neighbor_pairs, run_double_campaign, DoubleCampaignResult, DoubleOptions};
use qufi_core::engine::SweepExecutor;
use qufi_core::executor::{Executor, HardwareExecutor, NoisyExecutor, TrajectoryExecutor};
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

/// Fig. 5 — QVF heatmaps of the three 4-qubit circuits under single-fault
/// injection over the full (φ, θ) grid.
pub fn fig5_heatmaps(
    grid: &FaultGrid,
    executor: &impl SweepExecutor,
) -> Vec<(Workload, CampaignResult, Heatmap)> {
    paper_workloads(4)
        .into_iter()
        .map(|w| {
            let opts = CampaignOptions {
                grid: grid.clone(),
                points: None,
                threads: 0,
                naive: false,
            };
            let res = run_single_campaign(&w.circuit, &w.correct_outputs, executor, &opts)
                .expect("campaign");
            let hm = Heatmap::from_campaign(&res);
            (w, res, hm)
        })
        .collect()
}

/// Fig. 6 — per-qubit QVF heatmaps for the 4-qubit QFT.
pub fn fig6_per_qubit(
    grid: &FaultGrid,
    executor: &impl SweepExecutor,
) -> (CampaignResult, Vec<(usize, Heatmap)>) {
    let w = &paper_workloads(4)[2]; // qft-4
    let opts = CampaignOptions {
        grid: grid.clone(),
        points: None,
        threads: 0,
        naive: false,
    };
    let res =
        run_single_campaign(&w.circuit, &w.correct_outputs, executor, &opts).expect("campaign");
    let maps = res
        .injected_qubits()
        .into_iter()
        .map(|q| (q, Heatmap::from_campaign_qubit(&res, q)))
        .collect();
    (res, maps)
}

/// One scaling data point of Fig. 7.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Total qubits of the instance.
    pub qubits: usize,
    /// 50-bin QVF density histogram.
    pub histogram: Histogram,
    /// Mean QVF.
    pub mean: f64,
    /// QVF standard deviation.
    pub stddev: f64,
    /// Number of injections.
    pub injections: usize,
}

/// Fig. 7 — QVF distribution histograms while scaling each circuit from 4
/// to `max_qubits` qubits.
pub fn fig7_scaling(
    grid: &FaultGrid,
    executor: &impl SweepExecutor,
    max_qubits: usize,
) -> Vec<(String, Vec<ScalingPoint>)> {
    ["bv", "dj", "qft"]
        .into_iter()
        .map(|family| {
            let points = scaling_family(family, max_qubits)
                .into_iter()
                .map(|w| {
                    let opts = CampaignOptions {
                        grid: grid.clone(),
                        points: None,
                        threads: 0,
                        naive: false,
                    };
                    let res = run_single_campaign(&w.circuit, &w.correct_outputs, executor, &opts)
                        .expect("campaign");
                    let qvfs = res.qvfs();
                    ScalingPoint {
                        qubits: w.circuit.num_qubits(),
                        histogram: Histogram::new(&qvfs, 50),
                        mean: mean(&qvfs),
                        stddev: stddev(&qvfs),
                        injections: qvfs.len(),
                    }
                })
                .collect();
            (family.to_string(), points)
        })
        .collect()
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
        naive: false,
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
        naive: false,
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

/// One gate-equivalent fault comparison row of Fig. 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Gate whose phase shift was injected (T, S, Z, Y).
    pub gate: &'static str,
    /// Mean QVF on the simulated-hardware backend.
    pub hardware_qvf: f64,
    /// Mean QVF on the noise-model simulation.
    pub simulation_qvf: f64,
}

/// Fig. 11 — QVF of gate-equivalent faults (T, S, Z, Y) on Bernstein-
/// Vazirani: simulated IBM-Q Jakarta hardware vs noise-model simulation,
/// injected at every fault position.
pub fn fig11_hardware(seed: u64) -> Vec<Fig11Row> {
    let w = qufi_algos::bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();
    let hw = HardwareExecutor::new(cal.clone(), seed);
    let sim = NoisyExecutor::new(cal);
    let shifts: [(&'static str, Gate); 4] = [
        ("t", Gate::T),
        ("s", Gate::S),
        ("z", Gate::Z),
        ("y", Gate::Y),
    ];
    shifts
        .into_iter()
        .map(|(name, gate)| {
            let (theta, phi) = gate.as_fault_shift().expect("gate has a fault shift");
            let grid = FaultGrid::custom(vec![theta], vec![phi]);
            let run = |ex: &dyn SweepExecutor| -> f64 {
                let opts = CampaignOptions {
                    grid: grid.clone(),
                    points: None,
                    threads: 1,
                    naive: false,
                };
                run_single_campaign(&w.circuit, &w.correct_outputs, &ex, &opts)
                    .expect("campaign")
                    .mean_qvf()
            };
            Fig11Row {
                gate: name,
                hardware_qvf: run(&hw),
                simulation_qvf: run(&sim),
            }
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_core::executor::IdealExecutor;

    #[test]
    fn fig4_report_mentions_golden_state() {
        let report = fig4_worked_example();
        assert!(report.contains("101"));
        assert!(report.contains("QVF"));
    }

    #[test]
    fn fig5_coarse_produces_three_heatmaps() {
        let out = fig5_heatmaps(&FaultGrid::coarse(), &IdealExecutor);
        assert_eq!(out.len(), 3);
        for (w, res, hm) in &out {
            assert!(!res.is_empty(), "{} empty", w.name);
            // The (0,0) fault cell must be perfect on the ideal executor.
            assert!(hm.value(0, 0) < 1e-9, "{}: {}", w.name, hm.value(0, 0));
        }
    }

    #[test]
    fn fig7_single_family_scales() {
        let grid = FaultGrid::custom(vec![0.0, PI], vec![0.0]);
        let out = fig7_scaling(&grid, &IdealExecutor, 5);
        assert_eq!(out.len(), 3);
        for (name, points) in &out {
            assert_eq!(points.len(), 2, "{name}");
            assert!(points[0].injections > 0);
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
        let rows = fig11_hardware(7);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.hardware_qvf), "{r:?}");
            assert!((0.0..=1.0).contains(&r.simulation_qvf), "{r:?}");
        }
    }
}
