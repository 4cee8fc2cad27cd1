//! End-to-end pipeline tests across all crates: workloads → transpiler →
//! noise → injector → metric → reports.

use qufi::prelude::*;

#[test]
fn every_workload_survives_the_full_noisy_pipeline() {
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    for n in 4..=6 {
        for w in qufi::algos::paper_workloads(n) {
            let dist = ex.execute(&w.circuit).expect("executes");
            // The golden state must remain the most probable outcome under
            // realistic noise.
            let (winner, _) = dist.most_probable();
            assert!(
                w.correct_outputs.contains(&winner),
                "{}: winner {winner:#b} not golden",
                w.name
            );
        }
    }
}

#[test]
fn extension_workloads_run_end_to_end() {
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    // GHZ: two golden states.
    let g = ghz(4);
    let dist = ex.execute(&g.circuit).expect("executes");
    let p: f64 = g.correct_outputs.iter().map(|&o| dist.prob(o)).sum();
    assert!(p > 0.8, "GHZ golden mass only {p:.3}");
    let v = qvf_from_dist(&dist, &g.correct_outputs);
    assert!(v < 0.45, "GHZ noisy baseline should be masked, got {v:.3}");

    // Grover: deeper circuit, still correct under noise.
    let gr = grover(3, 0b101);
    let dist = ex.execute(&gr.circuit).expect("executes");
    assert_eq!(dist.most_probable().0, 0b101);
}

#[test]
fn campaign_to_reports_roundtrip() {
    let w = bernstein_vazirani(0b11, 2);
    let ex = IdealExecutor;
    let golden = golden_outputs(&w.circuit).expect("golden");
    let res = run_single_campaign(&w.circuit, &golden, &ex, &CampaignOptions::coarse())
        .expect("campaign");

    // Heatmap cells aggregate exactly the records.
    let hm = Heatmap::from_campaign(&res);
    let total_cells: usize = (0..hm.phis().len())
        .flat_map(|p| (0..hm.thetas().len()).map(move |t| (p, t)))
        .map(|(p, t)| hm.count(p, t))
        .sum();
    assert_eq!(total_cells, res.len());

    // Histogram covers every record.
    let hist = Histogram::new(&res.qvfs(), 20);
    assert_eq!(hist.counts().iter().sum::<usize>(), res.len());

    // CSV artifacts are well-formed.
    let csv = qufi::core::report::records_to_csv(&res.records);
    assert_eq!(csv.lines().count(), res.len() + 1);
    assert!(csv.lines().next().expect("header").contains("qvf"));
}

#[test]
fn transpiled_faulty_circuit_matches_logical_fault_semantics() {
    // Injecting on the logical circuit and then transpiling must preserve
    // the fault's effect (the transpiler cannot optimize the fault away —
    // only merge it, preserving semantics).
    let w = bernstein_vazirani(0b101, 3);
    let point = enumerate_injection_points(&w.circuit)[5];
    let faulty = inject_fault(&w.circuit, point, FaultParams::shift(0.7, 1.3)).expect("in range");
    let t = Transpiler::new(CouplingMap::ibm_h7());
    let routed = t.run(&faulty).expect("transpiles");
    let logical = IdealExecutor.execute(&faulty).expect("runs");
    let physical = IdealExecutor.execute(routed.circuit()).expect("runs");
    assert!(logical.tv_distance(&physical) < 1e-8);
}

#[test]
fn hardware_executor_statistics_converge_to_noisy_simulation() {
    // With drift disabled and many shots, the hardware backend's sampled
    // distribution converges to the exact noisy one — the invariant that
    // makes Fig. 11's agreement argument meaningful.
    let w = bernstein_vazirani(0b11, 2);
    let cal = BackendCalibration::lima();
    let exact = NoisyExecutor::new(cal.clone())
        .execute(&w.circuit)
        .expect("exact");
    let sampled = HardwareExecutor::with_config(cal, 3, 200_000, 0.0)
        .execute(&w.circuit)
        .expect("sampled");
    assert!(
        exact.tv_distance(&sampled) < 0.01,
        "tv = {}",
        exact.tv_distance(&sampled)
    );
}

#[test]
fn different_devices_give_different_noise_profiles() {
    let w = bernstein_vazirani(0b101, 3);
    let golden = golden_outputs(&w.circuit).expect("golden");
    let mut qvfs = Vec::new();
    for cal in [
        BackendCalibration::jakarta(),
        BackendCalibration::casablanca(),
        BackendCalibration::lima(),
        BackendCalibration::bogota(),
    ] {
        let ex = NoisyExecutor::new(cal);
        let dist = ex.execute(&w.circuit).expect("executes");
        qvfs.push(qvf_from_dist(&dist, &golden));
    }
    // All masked, but not identical across devices.
    assert!(qvfs.iter().all(|&v| v < 0.45), "{qvfs:?}");
    let min = qvfs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = qvfs.iter().cloned().fold(0.0, f64::max);
    assert!(max - min > 1e-4, "devices indistinguishable: {qvfs:?}");
}
