//! Cross-engine and cross-pass validation: the statevector and
//! density-matrix simulators, the transpiler, and the ideal sweep's parked
//! prefix must all agree on circuit semantics. Property-based tests drive
//! random circuits through every pair of paths.

use proptest::prelude::*;
use qufi::prelude::*;
use qufi::sim::{DensityMatrix, Statevector};

/// A random gate on up to `n` qubits.
fn arb_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let angle = -std::f64::consts::PI..std::f64::consts::PI;
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::X, vec![a])),
        q.clone().prop_map(|a| (Gate::Y, vec![a])),
        q.clone().prop_map(|a| (Gate::Z, vec![a])),
        q.clone().prop_map(|a| (Gate::S, vec![a])),
        q.clone().prop_map(|a| (Gate::T, vec![a])),
        q.clone().prop_map(|a| (Gate::Sx, vec![a])),
        (angle.clone(), q.clone()).prop_map(|(t, a)| (Gate::Rx(t), vec![a])),
        (angle.clone(), q.clone()).prop_map(|(t, a)| (Gate::Ry(t), vec![a])),
        (angle.clone(), q.clone()).prop_map(|(t, a)| (Gate::Rz(t), vec![a])),
        (angle.clone(), angle.clone(), angle.clone(), q.clone())
            .prop_map(|(t, p, l, a)| (Gate::U(t, p, l), vec![a])),
        (q.clone(), q.clone())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        (q.clone(), q.clone())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        (angle, q.clone(), q)
            .prop_filter("distinct", |(_, a, b)| a != b)
            .prop_map(|(l, a, b)| (Gate::Cp(l), vec![a, b])),
    ]
}

/// A random measured circuit over `n` qubits.
fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec(arb_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut qc = QuantumCircuit::new(n, n);
        for (g, qs) in gates {
            qc.append(g, &qs);
        }
        qc.measure_all();
        qc
    })
}

/// A random measured circuit with a full-register barrier after random
/// gates. Barriers are instructions but not gates, so a prefix that counts
/// one where it should count the other parks at the wrong place.
fn arb_barriered_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec((arb_gate(n), any::<bool>()), 1..max_gates).prop_map(move |gates| {
        let mut qc = QuantumCircuit::new(n, n);
        for ((g, qs), barrier) in gates {
            qc.append(g, &qs);
            if barrier {
                qc.barrier(&[]);
            }
        }
        qc.measure_all();
        qc
    })
}

fn prob_bits(dist: &ProbDist) -> Vec<u64> {
    (0..dist.len()).map(|i| dist.prob(i).to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Statevector and density-matrix engines agree on noiseless circuits.
    #[test]
    fn statevector_matches_density_matrix(qc in arb_circuit(4, 20)) {
        let sv = Statevector::from_circuit(&qc).expect("fits");
        let mut rho = DensityMatrix::new(4).expect("fits");
        rho.run_circuit(&qc);
        let a = sv.measurement_distribution(&qc);
        let b = rho.measurement_distribution(&qc);
        prop_assert!(a.tv_distance(&b) < 1e-9);
        // Pure evolution keeps the density matrix pure and trace-one.
        prop_assert!((rho.purity() - 1.0).abs() < 1e-8);
        prop_assert!((rho.trace().re - 1.0).abs() < 1e-9);
    }

    /// Transpiling onto the H7 device never changes measured semantics.
    #[test]
    fn transpilation_preserves_semantics(qc in arb_circuit(4, 16)) {
        let t = Transpiler::new(CouplingMap::ibm_h7());
        let result = t.run(&qc).expect("transpiles");
        let golden = Statevector::from_circuit(&qc)
            .expect("fits")
            .measurement_distribution(&qc);
        let routed = Statevector::from_circuit(result.circuit())
            .expect("fits")
            .measurement_distribution(result.circuit());
        prop_assert!(
            golden.tv_distance(&routed) < 1e-8,
            "transpilation broke semantics (tv = {})",
            golden.tv_distance(&routed)
        );
    }

    /// The ideal sweep parks the statevector at the injection point once;
    /// every replay from it equals the naive oracle (the fault spliced in,
    /// the whole circuit run from scratch) bit for bit, including a replay
    /// that follows another one.
    #[test]
    fn parked_prefix_replays_match_straight_runs(
        qc in arb_barriered_circuit(4, 20),
        point_sel in 0usize..64,
        theta_a in 0.0..std::f64::consts::PI,
        phi_a in 0.0..(2.0 * std::f64::consts::PI),
        theta_b in 0.0..std::f64::consts::PI,
        phi_b in 0.0..(2.0 * std::f64::consts::PI),
    ) {
        let points = enumerate_injection_points(&qc);
        let point = points[point_sel % points.len()];
        let prepared = IdealExecutor.prepare(&qc, point).expect("in range");
        for fault in [FaultParams::shift(theta_a, phi_a), FaultParams::shift(theta_b, phi_b)] {
            let parked = prepared.replay(fault).expect("replays");
            let straight = prepared.replay_naive(fault).expect("replays");
            prop_assert_eq!(prob_bits(&parked), prob_bits(&straight));
        }
    }

    /// A (0,0) fault injected anywhere is invisible on every backend path.
    #[test]
    fn null_fault_is_invisible(qc in arb_circuit(3, 12), point_sel in 0usize..64) {
        let points = enumerate_injection_points(&qc);
        prop_assume!(!points.is_empty());
        let point = points[point_sel % points.len()];
        let faulty = inject_fault(&qc, point, FaultParams::shift(0.0, 0.0)).expect("in range");
        let a = Statevector::from_circuit(&qc).expect("fits").measurement_distribution(&qc);
        let b = Statevector::from_circuit(&faulty).expect("fits").measurement_distribution(&faulty);
        prop_assert!(a.tv_distance(&b) < 1e-9);
    }

    /// QVF is always in [0, 1], for any distribution and golden set.
    #[test]
    fn qvf_is_bounded(probs in prop::collection::vec(0.0f64..1.0, 8), golden_bits in 0usize..7) {
        let total: f64 = probs.iter().sum();
        prop_assume!(total > 1e-9);
        let normalized: Vec<f64> = probs.iter().map(|p| p / total).collect();
        let dist = ProbDist::from_probs(normalized, 3);
        let v = qvf_from_dist(&dist, &[golden_bits]);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    /// Noise never produces negative probabilities or trace loss.
    #[test]
    fn noisy_execution_yields_valid_distribution(qc in arb_circuit(3, 10)) {
        let ex = NoisyExecutor::new(BackendCalibration::lima());
        let dist = ex.execute(&qc).expect("runs");
        prop_assert!((dist.total() - 1.0).abs() < 1e-6);
        for i in 0..dist.len() {
            prop_assert!(dist.prob(i) >= 0.0);
        }
    }
}
