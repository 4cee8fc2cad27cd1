//! The paper's headline experimental claims, encoded as integration tests.
//! Each test cites the section of the paper it reproduces. Most run on
//! coarse grids so the suite stays fast; the `fig*` binaries confirm the
//! same claims on the full 15° grids. The §V-B number tests at the end
//! share one run of `manifests/paper.toml`'s full campaign, and where the
//! reproduction departs from the paper they pin the reproduction and say
//! by how much.

use qufi::core::metrics::record_severity;
use qufi::prelude::*;
use std::f64::consts::PI;
use std::sync::OnceLock;

fn noisy() -> NoisyExecutor {
    NoisyExecutor::new(BackendCalibration::jakarta())
}

fn campaign(w: &Workload, ex: &impl SweepExecutor, grid: FaultGrid) -> CampaignResult {
    let opts = CampaignOptions {
        grid,
        points: None,
        threads: 0,
    };
    run_single_campaign(&w.circuit, &w.correct_outputs, ex, &opts).expect("campaign")
}

/// §V-B: "a shift in θ … is indeed more critical than a shift in φ".
#[test]
fn theta_shifts_are_more_critical_than_phi_shifts() {
    let ex = noisy();
    for w in qufi::algos::paper_workloads(4) {
        // Pure θ=π vs pure φ=π faults across all positions.
        let theta_only = campaign(&w, &ex, FaultGrid::custom(vec![PI], vec![0.0]));
        let phi_only = campaign(&w, &ex, FaultGrid::custom(vec![0.0], vec![PI]));
        assert!(
            theta_only.mean_qvf() > phi_only.mean_qvf(),
            "{}: θ-fault QVF {:.3} should exceed φ-fault QVF {:.3}",
            w.name,
            theta_only.mean_qvf(),
            phi_only.mean_qvf()
        );
    }
}

/// §V-B: "the QVF, for Bernstein-Vazirani and Deutsch-Jozsa, is almost
/// symmetric on φ with respect to π".
#[test]
fn bv_and_dj_are_phi_symmetric_about_pi() {
    let ex = noisy();
    let phis: Vec<f64> = vec![PI / 4.0, 7.0 * PI / 4.0, PI / 2.0, 3.0 * PI / 2.0];
    let thetas: Vec<f64> = vec![0.0, PI / 2.0, PI];
    for w in &qufi::algos::paper_workloads(4)[..2] {
        let res = campaign(w, &ex, FaultGrid::custom(thetas.clone(), phis.clone()));
        let hm = Heatmap::from_campaign(&res);
        // φ and 2π−φ cells must be close.
        for (lo, hi) in [(0usize, 1usize), (2, 3)] {
            for ti in 0..thetas.len() {
                let a = hm.value(lo, ti);
                let b = hm.value(hi, ti);
                assert!(
                    (a - b).abs() < 0.06,
                    "{}: asymmetry at θ idx {ti}: {a:.3} vs {b:.3}",
                    w.name
                );
            }
        }
    }
}

/// §V-B: "a fault of (φ = π, θ = π) is critical for QFT, but is harmless
/// for Bernstein-Vazirani and Deutsch-Jozsa".
#[test]
fn pi_pi_fault_is_circuit_dependent() {
    let ex = noisy();
    let grid = FaultGrid::custom(vec![PI], vec![PI]);
    let ws = qufi::algos::paper_workloads(4);
    let bv = campaign(&ws[0], &ex, grid.clone()).mean_qvf();
    let dj = campaign(&ws[1], &ex, grid.clone()).mean_qvf();
    let qft = campaign(&ws[2], &ex, grid).mean_qvf();
    assert!(bv < 0.45, "(π,π) should be masked on BV, got {bv:.3}");
    assert!(dj < 0.45, "(π,π) should be masked on DJ, got {dj:.3}");
    assert!(
        qft > bv + 0.1,
        "(π,π) should hit QFT ({qft:.3}) harder than BV ({bv:.3})"
    );
}

/// §V-B: the fault-free spot of the noisy heatmap "is not solid green
/// (i.e., QVF > 0) due to noise".
#[test]
fn noisy_baseline_qvf_is_positive_but_masked() {
    let ex = noisy();
    for w in qufi::algos::paper_workloads(4) {
        let res = campaign(&w, &ex, FaultGrid::custom(vec![0.0], vec![0.0]));
        assert!(res.baseline_qvf > 0.0, "{}", w.name);
        assert!(res.baseline_qvf < 0.45, "{}", w.name);
    }
}

/// §V-C: BV and DJ reliability profiles are scale-independent; QFT
/// concentrates toward QVF ≈ 0.5 (its σ drops) as the circuit grows.
#[test]
fn qft_concentrates_with_scale_bv_does_not() {
    let ex = noisy();
    let grid = FaultGrid::coarse();
    let sigma = |family: &str, n: usize| -> f64 {
        let ws = qufi::algos::scaling_family(family, n);
        let w = ws.last().expect("family nonempty");
        // Subsample fault sites on the larger instances: σ is estimated
        // across positions, so every-other-site keeps the statistic while
        // halving the 6-qubit simulation cost.
        let points: Vec<_> = enumerate_injection_points(&w.circuit)
            .into_iter()
            .step_by(if n >= 6 { 2 } else { 1 })
            .collect();
        let opts = CampaignOptions {
            grid: grid.clone(),
            points: Some(points),
            threads: 0,
        };
        run_single_campaign(&w.circuit, &w.correct_outputs, &ex, &opts)
            .expect("campaign")
            .stddev_qvf()
    };
    let bv_4 = sigma("bv", 4);
    let bv_6 = sigma("bv", 6);
    let qft_4 = sigma("qft", 4);
    let qft_6 = sigma("qft", 6);
    // QFT's σ must visibly shrink; BV's change stays comparatively small.
    assert!(
        qft_4 - qft_6 > 0.02,
        "QFT σ should drop with scale: {qft_4:.4} → {qft_6:.4}"
    );
    assert!(
        (bv_4 - bv_6).abs() < qft_4 - qft_6 + 0.05,
        "BV profile should be steadier: Δbv {:.4} vs Δqft {:.4}",
        bv_4 - bv_6,
        qft_4 - qft_6
    );
}

/// §V-D: "a double fault actually has a higher (negative) effect on the
/// output" — mean QVF rises and the distribution shifts upward.
#[test]
fn double_faults_are_worse_than_single_faults() {
    let ex = noisy();
    let w = bernstein_vazirani(0b101, 3);
    let grid = FaultGrid::coarse();
    let single = campaign(&w, &ex, grid.clone());
    let pairs = qufi::core::double::neighbor_pairs(&w.circuit, ex.transpiler()).expect("pairs");
    let double = run_double_campaign(
        &w.circuit,
        &w.correct_outputs,
        &ex,
        &DoubleOptions {
            grid,
            points: None,
            pairs,
            threads: 0,
        },
    )
    .expect("double campaign");
    assert!(
        double.mean_qvf() > single.mean_qvf() + 0.05,
        "double {:.4} vs single {:.4}",
        double.mean_qvf(),
        single.mean_qvf()
    );
}

/// §V-E: simulation with the noise model tracks (simulated) hardware to
/// small absolute QVF differences for the T, S, Z, Y gate-equivalent
/// faults (paper: < 0.052; we allow sampling slack).
#[test]
fn hardware_and_simulation_agree() {
    let w = bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();
    let hw = HardwareExecutor::new(cal.clone(), 99);
    let sim = NoisyExecutor::new(cal);
    for gate in [Gate::T, Gate::S, Gate::Z, Gate::Y] {
        let (theta, phi) = gate.as_fault_shift().expect("fault shift");
        let grid = FaultGrid::custom(vec![theta], vec![phi]);
        let opts = CampaignOptions {
            grid,
            points: None,
            threads: 0,
        };
        let a = run_single_campaign(&w.circuit, &w.correct_outputs, &hw, &opts)
            .expect("hw campaign")
            .mean_qvf();
        let b = run_single_campaign(&w.circuit, &w.correct_outputs, &sim, &opts)
            .expect("sim campaign")
            .mean_qvf();
        assert!(
            (a - b).abs() < 0.08,
            "{}: hardware {a:.4} vs simulation {b:.4}",
            gate.name()
        );
    }
}

/// §IV-B: the paper's grid yields exactly 312 faults per injection point.
#[test]
fn paper_grid_injection_counts() {
    let w = bernstein_vazirani(0b101, 3);
    let points = enumerate_injection_points(&w.circuit);
    let grid = FaultGrid::paper();
    assert_eq!(grid.len(), 312);
    // BV-4 with secret 101: x + 4 H + 2 CX + 3 H = 10 gates, 12 operand slots.
    assert_eq!(points.len(), 12);
}

/// `manifests/paper.toml`'s three jobs — bv-4, dj-4 and qft-4 on jakarta,
/// noisy executor, the paper's 312-configuration grid — with the golden
/// outputs `qufi run` derives. Run once and shared by the §V-B tests
/// below; the numbers those tests quote are this campaign's.
fn paper_campaigns() -> &'static [(&'static str, CampaignResult)] {
    static RUNS: OnceLock<Vec<(&'static str, CampaignResult)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let ex = noisy();
        ["bv-4", "dj-4", "qft-4"]
            .into_iter()
            .map(|name| {
                let w = qufi::algos::build_workload(name).expect("registry workload");
                let golden = golden_outputs(&w.circuit).expect("golden outputs");
                let opts = CampaignOptions {
                    grid: FaultGrid::paper(),
                    points: None,
                    threads: 0,
                };
                let res = run_single_campaign(&w.circuit, &golden, &ex, &opts).expect("campaign");
                (name, res)
            })
            .collect()
    })
}

fn is_theta_pi(theta: f64) -> bool {
    (theta - PI).abs() < 1e-9
}

/// §V-B: a θ = π shift is a bit flip, which PAPER.md's summary of the
/// results calls a near-guaranteed SDC. The reproduction classes 58–63% of θ = π
/// injections SDC (bv-4 173/288, dj-4 195/336, qft-4 405/648; records
/// classed as exported): most, not nearly all. The test asks for a share
/// in [0.55, 0.65].
#[test]
fn theta_pi_injections_are_mostly_sdc() {
    for (name, res) in paper_campaigns() {
        let at_pi: Vec<&InjectionRecord> = res
            .records
            .iter()
            .filter(|r| is_theta_pi(r.theta))
            .collect();
        let sdc = at_pi
            .iter()
            .filter(|r| record_severity(r.qvf) == Severity::Sdc)
            .count();
        let share = sdc as f64 / at_pi.len() as f64;
        assert!(
            (0.55..=0.65).contains(&share),
            "{name}: {sdc}/{} θ = π injections are SDC ({share:.3})",
            at_pi.len()
        );
    }
}

/// §V-B, the heatmap view of the same claim: in the θ = π row, 15 (bv-4),
/// 13 (dj-4) and 17 (qft-4) of the 24 φ cells average to an SDC QVF. The
/// test asks for at least half the row.
#[test]
fn theta_pi_heatmap_row_is_mostly_sdc() {
    for (name, res) in paper_campaigns() {
        let hm = Heatmap::from_campaign(res);
        let ti = hm
            .thetas()
            .iter()
            .position(|&t| is_theta_pi(t))
            .expect("the paper grid reaches θ = π");
        let sdc_cells = (0..hm.phis().len())
            .filter(|&pi| Severity::classify(hm.value(pi, ti)) == Severity::Sdc)
            .count();
        assert!(
            sdc_cells >= 12,
            "{name}: only {sdc_cells}/{} θ = π cells are SDC",
            hm.phis().len()
        );
    }
}

/// §V-B reports that ~0.9% of injections lower the QVF below the
/// fault-free baseline, the fault compensating the intrinsic noise. This
/// does not reproduce under the synthetic jakarta noise model: 0 (bv-4),
/// 0 (dj-4) and 8 of 8424 (qft-4, all at op 13 on qubit 2, φ = 0)
/// injections improve on the baseline at checkpoint precision, 0.05% of
/// the whole campaign. The test pins the reproduction: below 0.2%.
#[test]
fn compensating_faults_are_rare() {
    for (name, res) in paper_campaigns() {
        let improved = res.improved_fraction();
        assert!(improved < 0.002, "{name}: improved fraction {improved:.5}");
    }
}

/// Pearson correlation of paired samples.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    cov / (vx * vy).sqrt()
}

/// §V-B: faults on later gates are more critical than on earlier ones
/// (PAPER.md's summary of the results). Here "later" is the
/// injection point's logical `op_index`, the position of the struck gate
/// in the logical circuit (not its transpiled depth, nor its distance to
/// measurement). The claim reproduces on qft-4 only: the mean QVF per
/// `op_index` correlates with `op_index` at r = +0.39 there, but at −0.14
/// on bv-4 and −0.18 on dj-4. The test pins those signs: r > 0.3 on
/// qft-4, r < 0 on bv-4 and dj-4.
#[test]
fn later_gates_are_more_critical_on_qft_only() {
    for (name, res) in paper_campaigns() {
        let mut ops: Vec<usize> = res.records.iter().map(|r| r.point.op_index).collect();
        ops.sort_unstable();
        ops.dedup();
        let mean_qvf: Vec<f64> = ops
            .iter()
            .map(|&op| {
                let qvfs: Vec<f64> = res
                    .records
                    .iter()
                    .filter(|r| r.point.op_index == op)
                    .map(|r| r.qvf)
                    .collect();
                qufi::core::metrics::mean(&qvfs)
            })
            .collect();
        let positions: Vec<f64> = ops.iter().map(|&op| op as f64).collect();
        let r = pearson(&positions, &mean_qvf);
        if *name == "qft-4" {
            assert!(
                r > 0.3,
                "{name}: later gates should be more critical, r = {r:+.3}"
            );
        } else {
            assert!(r < 0.0, "{name}: r = {r:+.3}, expected no later-gate trend");
        }
    }
}
