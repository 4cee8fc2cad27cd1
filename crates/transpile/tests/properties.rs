//! Property-based tests of the transpilation pipeline: for random circuits
//! and random devices, routing and optimization must preserve the implemented
//! unitary (up to global phase) / the measured distribution, and structural
//! invariants (coupled 2q pairs, native basis) must hold.

use proptest::prelude::*;
use qufi_sim::circuit::Op;
use qufi_sim::{unitary, Gate, QuantumCircuit, Statevector};
use qufi_transpile::basis::is_native;
use qufi_transpile::optimize::optimize;
use qufi_transpile::routing::route;
use qufi_transpile::{CouplingMap, Layout, Transpiler};

fn arb_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let angle = -3.0f64..3.0;
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::X, vec![a])),
        q.clone().prop_map(|a| (Gate::S, vec![a])),
        q.clone().prop_map(|a| (Gate::Tdg, vec![a])),
        (angle.clone(), q.clone()).prop_map(|(t, a)| (Gate::Ry(t), vec![a])),
        (angle.clone(), q.clone()).prop_map(|(t, a)| (Gate::Rz(t), vec![a])),
        (q.clone(), q.clone())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        (q.clone(), q.clone())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (Gate::Swap, vec![a, b])),
        (angle, q.clone(), q)
            .prop_filter("distinct", |(_, a, b)| a != b)
            .prop_map(|(l, a, b)| (Gate::Cp(l), vec![a, b])),
    ]
}

fn arb_unitary_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec(arb_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut qc = QuantumCircuit::new(n, 0);
        for (g, qs) in gates {
            qc.append(g, &qs);
        }
        qc
    })
}

fn arb_device() -> impl Strategy<Value = CouplingMap> {
    prop_oneof![
        Just(CouplingMap::line(4)),
        Just(CouplingMap::ring(4)),
        Just(CouplingMap::ibm_t5()),
        Just(CouplingMap::ibm_h7()),
        Just(CouplingMap::grid(2, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing preserves the circuit unitary up to phase.
    #[test]
    fn routing_preserves_unitary(
        qc in arb_unitary_circuit(4, 12),
        device in arb_device(),
    ) {
        let layout = Layout::trivial(4, device.num_qubits());
        let routed = route(&qc, &device, layout).expect("routes");
        // Compare distributions from a superposed probe state: run both
        // circuits after H on every logical wire (physical wires for the
        // routed one, through the final layout).
        let probe_logical = Statevector::from_circuit(&qc).expect("fits");
        let probe_routed = Statevector::from_circuit(&routed.circuit).expect("fits");
        // Undo the permutation: logical qubit l sits on physical
        // final_layout.physical(l); marginalize the routed distribution
        // through that map.
        let map: Vec<(usize, usize)> = (0..4)
            .map(|l| (routed.final_layout.physical(l), l))
            .collect();
        let routed_dist = probe_routed.probabilities().marginalize(&map, 4);
        prop_assert!(probe_logical.probabilities().tv_distance(&routed_dist) < 1e-8);
        // Structural invariant: every 2q gate is coupled.
        for op in routed.circuit.instructions() {
            if let Op::Gate { qubits, .. } = op {
                if qubits.len() == 2 {
                    prop_assert!(device.are_coupled(qubits[0], qubits[1]));
                }
            }
        }
    }

    /// The optimizer preserves the unitary up to global phase.
    #[test]
    fn optimizer_preserves_unitary(qc in arb_unitary_circuit(3, 14)) {
        let reference = unitary::circuit_unitary(&qc).expect("fits");
        let opt = optimize(&qc);
        let u = unitary::circuit_unitary(&opt).expect("fits");
        prop_assert!(
            u.approx_eq_up_to_phase(&reference, 1e-8),
            "optimization changed the unitary"
        );
    }

    /// The full pipeline emits only native gates and preserves measured
    /// semantics.
    #[test]
    fn full_pipeline_native_and_correct(qc0 in arb_unitary_circuit(4, 10)) {
        let mut qc = qc0;
        // measure_all needs clbits; rebuild with them.
        let mut measured = QuantumCircuit::new(4, 4);
        for op in qc.instructions() {
            if let Op::Gate { gate, qubits } = op {
                measured.append(*gate, qubits);
            }
        }
        measured.measure_all();
        qc = measured;

        let t = Transpiler::new(CouplingMap::ibm_h7());
        let result = t.run(&qc).expect("transpiles");
        for op in result.circuit().instructions() {
            if let Op::Gate { gate, .. } = op {
                prop_assert!(is_native(*gate), "non-native {gate}");
            }
        }
        let a = Statevector::from_circuit(&qc).expect("fits").measurement_distribution(&qc);
        let b = Statevector::from_circuit(result.circuit())
            .expect("fits")
            .measurement_distribution(result.circuit());
        prop_assert!(a.tv_distance(&b) < 1e-8);
    }
}
