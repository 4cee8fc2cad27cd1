//! Differential suite for the forked-state sweep engine.
//!
//! The engine's contract: for every executor, replaying a fault from a
//! parked prefix snapshot ([`PreparedSweep::replay`]) is **bit-identical**
//! to the naive per-configuration pipeline that rebuilds, re-transpiles and
//! re-simulates the whole faulty circuit ([`PreparedSweep::replay_naive`]).
//! These tests pin that contract across every registry workload family on
//! the coarse grid, for the ideal, noisy and (fixed-seed) hardware
//! executors — per-replay distributions, campaign records, and the exported
//! JSON/CSV artifacts.
//!
//! CI runs this suite in release mode (the `naive-oracle` job): the
//! density-matrix oracle re-simulates every configuration from scratch,
//! which is exactly the cost the engine exists to avoid.

use qufi::core::campaign::run_point_sweep_naive;
use qufi::core::engine::SweepExecutor;
use qufi::core::report::records_to_csv;
use qufi::core::serialize::{campaign_to_json, records_to_json};
use qufi::prelude::*;

/// One 3-qubit instance of every registry family — small enough for the
/// naive density-matrix oracle, wide enough to exercise routing/SWAPs.
fn registry_workloads() -> Vec<Workload> {
    qufi::algos::registry::families()
        .iter()
        .map(|f| {
            qufi::algos::build_workload(&format!("{}-3", f.family))
                .expect("every family supports 3 qubits")
        })
        .collect()
}

fn coarse() -> FaultGrid {
    FaultGrid::coarse()
}

/// tv-distance bound of the suite. The paths are expected to be *bit*
/// identical; 1e-12 leaves headroom for nothing but genuine divergence.
const TOL: f64 = 1e-12;

/// Every replay of every point of every workload must match the oracle.
fn assert_executor_equivalence<E: SweepExecutor>(ex: &E, label: &str) {
    let grid = coarse();
    for w in registry_workloads() {
        for point in enumerate_injection_points(&w.circuit) {
            let prepared = ex
                .prepare(&w.circuit, point)
                .unwrap_or_else(|e| panic!("{label}/{}: prepare {point:?}: {e}", w.name));
            for (theta, phi) in grid.iter() {
                let fault = FaultParams::shift(theta, phi);
                let fast = prepared.replay(fault).expect("replay");
                let slow = prepared.replay_naive(fault).expect("naive replay");
                let tv = fast.tv_distance(&slow);
                assert!(
                    tv < TOL,
                    "{label}/{}: {point:?} (θ={theta:.3}, φ={phi:.3}) \
                     diverged: tv = {tv:e}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn ideal_forked_sweep_matches_naive_oracle() {
    assert_executor_equivalence(&IdealExecutor, "ideal");
}

#[test]
fn noisy_forked_sweep_matches_naive_oracle() {
    let ex = NoisyExecutor::new(BackendCalibration::lima());
    assert_executor_equivalence(&ex, "noisy-lima");
}

#[test]
fn hardware_forked_sweep_matches_naive_oracle() {
    let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 0xD5A1);
    assert_executor_equivalence(&ex, "hardware-jakarta");
}

/// Whole-campaign check: the default forked campaign and an oracle
/// campaign assembled from [`run_point_sweep_naive`] point by point must
/// export byte-identical JSON and CSV artifacts.
///
/// Takes an executor *factory*: the hardware scenario's fault-free baseline
/// draws from the executor's shared RNG stream, so each campaign gets a
/// fresh fixed-seed instance (exactly what a reproducible run does).
fn assert_campaign_export_identical<E: SweepExecutor>(
    w: &Workload,
    make: impl Fn() -> E,
    label: &str,
) {
    let golden = golden_outputs(&w.circuit).expect("golden");
    let opts = CampaignOptions {
        grid: coarse(),
        points: None,
        threads: 0,
    };
    let forked = run_single_campaign(&w.circuit, &golden, &make(), &opts).expect("forked");
    let oracle = make();
    let baseline_qvf = qvf_from_dist(&oracle.execute(&w.circuit).expect("baseline"), &golden);
    let records = enumerate_injection_points(&w.circuit)
        .into_iter()
        .flat_map(|point| {
            run_point_sweep_naive(&w.circuit, &golden, &oracle, point, &opts.grid).expect("naive")
        })
        .collect();
    let naive = CampaignResult::from_parts(
        w.circuit.name.clone(),
        golden.clone(),
        baseline_qvf,
        opts.grid.clone(),
        records,
    );
    assert_eq!(
        forked.records.len(),
        naive.records.len(),
        "{label}/{}: record counts differ",
        w.name
    );
    assert_eq!(
        records_to_csv(&forked.records),
        records_to_csv(&naive.records),
        "{label}/{}: CSV export differs",
        w.name
    );
    assert_eq!(
        records_to_json(&forked.records),
        records_to_json(&naive.records),
        "{label}/{}: JSON records differ",
        w.name
    );
    assert_eq!(
        campaign_to_json(&forked),
        campaign_to_json(&naive),
        "{label}/{}: campaign JSON differs",
        w.name
    );
}

#[test]
fn exported_artifacts_are_byte_identical_ideal() {
    for w in registry_workloads() {
        assert_campaign_export_identical(&w, || IdealExecutor, "ideal");
    }
}

#[test]
fn exported_artifacts_are_byte_identical_noisy_and_hardware() {
    let w = qufi::algos::build_workload("bv-4").expect("bv-4");
    assert_campaign_export_identical(
        &w,
        || NoisyExecutor::new(BackendCalibration::jakarta()),
        "noisy-jakarta",
    );
    assert_campaign_export_identical(
        &w,
        || HardwareExecutor::new(BackendCalibration::jakarta(), 99),
        "hardware-jakarta",
    );
}

/// The bench smoke of the CI `naive-oracle` job: on the paper's bv-4
/// baseline, the forked path must perform strictly fewer gate applications
/// than the naive path — prefix gates run once per point instead of once
/// per configuration.
#[test]
fn forked_path_performs_fewer_gate_applications_on_bv4() {
    let w = qufi::algos::build_workload("bv-4").expect("bv-4");
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let configs = FaultGrid::paper().len(); // 312, §IV-B
    let mut forked_apps = 0usize;
    let mut naive_apps = 0usize;
    for point in enumerate_injection_points(&w.circuit) {
        let prepared = ex.prepare(&w.circuit, point).expect("prepare");
        let (prefix, suffix) = (prepared.prefix_gates(), prepared.suffix_gates());
        // Forked: prefix once, suffix per configuration (+1 injector each).
        forked_apps += prefix + configs * (suffix + 1);
        // Naive: the whole circuit per configuration.
        naive_apps += configs * (prefix + suffix + 1);
    }
    assert!(
        forked_apps < naive_apps,
        "forked path should do less work: {forked_apps} vs {naive_apps}"
    );
    // The prefix skipped per replay averages out to a ~2× saving on bv-4
    // (half the circuit sits before the mean injection site).
    assert!(
        (naive_apps as f64) / (forked_apps as f64) > 1.5,
        "expected ≥1.5× fewer gate applications, got {:.2}×",
        naive_apps as f64 / forked_apps as f64
    );
}
