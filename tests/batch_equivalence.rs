//! Differential suite for the grid-replay fan-out.
//!
//! The engine's contract: replaying a fault grid through
//! [`PreparedSweep::replay_grid`] — θ-sorted cell-major blocks of up to 16
//! cells, with one-cell blocks on the scalar path — is **bit-identical** to
//! replaying every cell on its own through [`PreparedSweep::replay`]
//! (itself pinned against the naive oracle by `fork_equivalence.rs`), for
//! every registry workload family, every scenario (ideal, noisy,
//! fixed-seed hardware, trajectory), every thread count, and every block
//! shape the fan-out forms, ragged tails included.
//!
//! No test here touches process-global state, so the harness runs them in
//! parallel safely.

use qufi::core::engine::{PreparedSweep, SweepExecutor};
use qufi::prelude::*;
use std::f64::consts::{FRAC_PI_2, PI};

/// One 3-qubit instance of every registry family — wide enough to exercise
/// routing/SWAPs, small enough to replay the full paper grid per family.
fn registry_workloads() -> Vec<Workload> {
    qufi::algos::registry::families()
        .iter()
        .map(|f| {
            qufi::algos::build_workload(&format!("{}-3", f.family))
                .expect("every family supports 3 qubits")
        })
        .collect()
}

fn assert_bit_identical(a: &ProbDist, b: &ProbDist, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: width mismatch");
    for i in 0..a.len() {
        assert_eq!(
            a.prob(i).to_bits(),
            b.prob(i).to_bits(),
            "{what}: outcome {i} differs ({} vs {})",
            a.prob(i),
            b.prob(i)
        );
    }
}

/// A mid-circuit injection point: representative prefix/suffix balance.
fn mid_point(qc: &QuantumCircuit) -> InjectionPoint {
    let points = enumerate_injection_points(qc);
    points[points.len() / 2]
}

/// The scalar reference: every cell replayed on its own, in grid order.
fn per_cell(prepared: &dyn PreparedSweep, grid: &FaultGrid) -> Vec<ProbDist> {
    grid.iter()
        .map(|(theta, phi)| {
            prepared
                .replay(FaultParams::shift(theta, phi))
                .expect("per-cell replay")
        })
        .collect()
}

fn assert_grid_matches(
    prepared: &dyn PreparedSweep,
    want: &[ProbDist],
    grid: &FaultGrid,
    threads: usize,
    label: &str,
) {
    let got = prepared.replay_grid(grid, threads).expect("grid replay");
    assert_eq!(got.len(), want.len(), "{label}: cells");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_bit_identical(got, want, &format!("{label}: cell {i}"));
    }
}

fn assert_grids_match<E: SweepExecutor>(ex: &E, grid: &FaultGrid, threads: usize, label: &str) {
    for w in registry_workloads() {
        let prepared = ex
            .prepare(&w.circuit, mid_point(&w.circuit))
            .unwrap_or_else(|e| panic!("{label}/{}: prepare: {e}", w.name));
        let want = per_cell(&*prepared, grid);
        assert_grid_matches(
            &*prepared,
            &want,
            grid,
            threads,
            &format!("{label}/{}", w.name),
        );
    }
}

/// Every registry family × scenario, full 312-cell paper grid (19 blocks
/// of 16 plus one of 8): the grid replay and per-cell replays agree bit
/// for bit.
#[test]
fn batched_paper_grid_matches_scalar_ideal() {
    assert_grids_match(&IdealExecutor, &FaultGrid::paper(), 2, "ideal");
}

#[test]
fn batched_paper_grid_matches_scalar_noisy() {
    let ex = NoisyExecutor::new(BackendCalibration::lima());
    assert_grids_match(&ex, &FaultGrid::paper(), 2, "noisy-lima");
}

#[test]
fn batched_paper_grid_matches_scalar_hardware() {
    let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 0xD5A1);
    assert_grids_match(&ex, &FaultGrid::paper(), 2, "hardware-jakarta");
}

/// Grids of 0, 1, 2, 3, 8, 15, 16, 17, 24 and 312 cells: every block width
/// the constant-16 fan-out forms, including a lone cell, a ragged one-cell
/// tail (17 = 16 + 1) and ragged eight-cell tails (24, 312), with repeated
/// θs for the hoisted trig runs.
fn block_shape_grids() -> Vec<FaultGrid> {
    let thetas = |n: usize| (0..n).map(|i| i as f64 * 0.37).collect::<Vec<_>>();
    vec![
        FaultGrid::custom(vec![], vec![0.0]),
        FaultGrid::custom(vec![FRAC_PI_2], vec![0.4]),
        FaultGrid::custom(vec![0.0, PI], vec![0.4]),
        FaultGrid::custom(vec![0.7, 0.7, 2.1], vec![1.3]),
        FaultGrid::custom(thetas(4), vec![0.0, 5.0]),
        FaultGrid::custom(vec![0.0, 0.7, 0.7, 2.1, PI], vec![0.0, 1.3, 5.0]),
        FaultGrid::custom(thetas(4), vec![0.0, 1.3, 2.6, 5.0]),
        FaultGrid::custom(thetas(17), vec![0.4]),
        FaultGrid::custom(thetas(8), vec![0.0, 1.3, 5.0]),
        FaultGrid::paper(),
    ]
}

/// Every block shape × threads 1/2/4 × all four scenarios: one-cell blocks
/// take the scalar path, wider ones the cell-major engine (trajectory
/// sweeps form one-cell blocks only), and every cell stays bit-identical
/// to its per-cell replay.
#[test]
fn batched_ragged_grids_match_scalar_across_widths_and_threads() {
    let w = qufi::algos::build_workload("bv-3").expect("bv-3");
    let point = mid_point(&w.circuit);
    let noisy = NoisyExecutor::new(BackendCalibration::jakarta());
    let hw = HardwareExecutor::new(BackendCalibration::jakarta(), 7);
    let traj = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 5, 64);
    let prepared: Vec<(&str, Box<dyn PreparedSweep + '_>)> = vec![
        ("ideal", IdealExecutor.prepare(&w.circuit, point).unwrap()),
        ("noisy", noisy.prepare(&w.circuit, point).unwrap()),
        ("hardware", hw.prepare(&w.circuit, point).unwrap()),
        ("trajectory", traj.prepare(&w.circuit, point).unwrap()),
    ];
    for (label, p) in &prepared {
        for grid in block_shape_grids() {
            let want = per_cell(&**p, &grid);
            for threads in [1usize, 2, 4] {
                assert_grid_matches(
                    &**p,
                    &want,
                    &grid,
                    threads,
                    &format!("{label} {} cells t={threads}", grid.len()),
                );
            }
        }
    }
}

/// The campaign layer routes through `replay_grid`; its records must equal
/// a campaign assembled from per-cell replays of every point.
#[test]
fn campaign_records_are_identical_with_batching_on_and_off() {
    let w = qufi::algos::build_workload("bv-3").expect("bv-3");
    let golden = golden_outputs(&w.circuit).expect("golden");
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let grid = FaultGrid::coarse();
    let opts = CampaignOptions {
        grid: grid.clone(),
        points: None,
        threads: 0,
    };
    let batched = run_single_campaign(&w.circuit, &golden, &ex, &opts).expect("campaign");
    let mut records = Vec::new();
    for point in enumerate_injection_points(&w.circuit) {
        let prepared = ex.prepare(&w.circuit, point).expect("prepare");
        let dists = per_cell(&*prepared, &grid);
        records.extend(
            grid.iter()
                .zip(dists)
                .map(|((theta, phi), dist)| InjectionRecord {
                    point,
                    theta,
                    phi,
                    qvf: qvf_from_dist(&dist, &golden),
                }),
        );
    }
    let scalar = CampaignResult::from_parts(
        w.circuit.name.clone(),
        golden.clone(),
        batched.baseline_qvf,
        grid,
        records,
    );
    assert_eq!(
        qufi::core::report::records_to_csv(&batched.records),
        qufi::core::report::records_to_csv(&scalar.records),
        "campaign CSV must not depend on the replay path"
    );
    assert_eq!(
        qufi::core::serialize::campaign_to_json(&batched),
        qufi::core::serialize::campaign_to_json(&scalar),
        "campaign JSON must not depend on the replay path"
    );
}
