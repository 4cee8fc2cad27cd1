//! Integration tests of the extension features layered on the paper's core:
//! shot-based QVF estimation accuracy, QPE/QEC workloads and campaign
//! persistence.

use qufi::algos::qec::bit_flip_code;
use qufi::algos::qpe::quantum_phase_estimation;
use qufi::core::serialize;
use qufi::prelude::*;

fn coarse_campaign(
    qc: &QuantumCircuit,
    golden: &[usize],
    ex: &impl SweepExecutor,
) -> CampaignResult {
    run_single_campaign(qc, golden, ex, &CampaignOptions::coarse()).expect("campaign")
}

#[test]
fn shot_based_qvf_estimates_track_exact_values() {
    // The paper estimates QVF from 1024-shot histograms; the exact engine
    // removes that sampling error. Quantify it: per-injection |Δ| stays
    // small and the campaign mean converges.
    let w = bernstein_vazirani(0b11, 2);
    let cal = BackendCalibration::lima();
    let exact_ex = NoisyExecutor::new(cal.clone());
    let shot_ex = HardwareExecutor::with_config(cal, 5, 1024, 0.0);

    let grid = FaultGrid::coarse();
    let opts = CampaignOptions {
        grid,
        points: None,
        threads: 0,
    };
    let exact = run_single_campaign(&w.circuit, &w.correct_outputs, &exact_ex, &opts).unwrap();
    let shots = run_single_campaign(&w.circuit, &w.correct_outputs, &shot_ex, &opts).unwrap();
    assert_eq!(exact.len(), shots.len());
    let diffs: Vec<f64> = exact
        .records
        .iter()
        .zip(&shots.records)
        .map(|(a, b)| (a.qvf - b.qvf).abs())
        .collect();
    let max = diffs.iter().cloned().fold(0.0, f64::max);
    let mean_diff = qufi::core::metrics::mean(&diffs);
    assert!(max < 0.12, "worst per-injection shot error {max:.4}");
    assert!(mean_diff < 0.02, "mean shot error {mean_diff:.4}");
    assert!((exact.mean_qvf() - shots.mean_qvf()).abs() < 0.01);
}

#[test]
fn qpe_workload_campaigns_like_the_paper_benchmarks() {
    let w = quantum_phase_estimation(3, 5);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let res = coarse_campaign(&w.circuit, &w.correct_outputs, &ex);
    assert!(!res.is_empty());
    assert!(res.baseline_qvf < 0.45, "QPE should survive device noise");
    let (_, _, sdc) = res.severity_counts();
    assert!(sdc > 0, "some faults must corrupt QPE");
}

#[test]
fn qec_workload_masks_more_faults_than_unprotected() {
    let code = bit_flip_code(true);
    let bare = qufi::algos::qec::unprotected(true);
    let window = |c: &qufi::algos::qec::CodeWorkload| -> Vec<InjectionPoint> {
        enumerate_injection_points(&c.workload.circuit)
            .into_iter()
            .filter(|p| p.op_index >= c.region.start && p.op_index < c.region.end)
            .collect()
    };
    let run = |c: &qufi::algos::qec::CodeWorkload| {
        run_single_campaign(
            &c.workload.circuit,
            &c.workload.correct_outputs,
            &IdealExecutor,
            &CampaignOptions {
                grid: FaultGrid::coarse(),
                points: Some(window(c)),
                threads: 0,
            },
        )
        .expect("campaign")
    };
    let code_res = run(&code);
    let bare_res = run(&bare);
    let masked_frac = |r: &CampaignResult| {
        let (m, _, _) = r.severity_counts();
        m as f64 / r.len() as f64
    };
    assert!(
        masked_frac(&code_res) > masked_frac(&bare_res),
        "code {:.3} vs bare {:.3}",
        masked_frac(&code_res),
        masked_frac(&bare_res)
    );
}

#[test]
fn campaign_records_roundtrip_through_csv() {
    let w = bernstein_vazirani(0b10, 2);
    let res = coarse_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor);
    let csv = qufi::core::report::records_to_csv(&res.records);
    let back = serialize::records_from_csv(&csv).expect("parses");
    assert_eq!(back.len(), res.records.len());
    // Heatmaps built from reloaded records match the originals.
    let hm_orig = Heatmap::from_campaign(&res);
    let hm_back = Heatmap::from_samples(&res.grid, back.iter().map(|r| (r.theta, r.phi, r.qvf)));
    for pi in 0..res.grid.phis.len() {
        for ti in 0..res.grid.thetas.len() {
            let (a, b) = (hm_orig.value(pi, ti), hm_back.value(pi, ti));
            assert!((a - b).abs() < 1e-5 || (a.is_nan() && b.is_nan()));
        }
    }
}
