//! SWAP routing.
//!
//! Rewrites a logical circuit into a physical one in which every two-qubit
//! gate acts on a coupled pair, inserting SWAP chains along BFS shortest
//! paths and updating the logical→physical layout as qubits move.

use crate::error::TranspileError;
use crate::layout::Layout;
use crate::topology::CouplingMap;
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};

/// The output of routing: the physical circuit and the final layout.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// Circuit over *physical* qubits (width = device size).
    pub circuit: QuantumCircuit,
    /// Layout after the last gate (differs when SWAPs were inserted).
    pub final_layout: Layout,
}

/// Routes `qc` onto `cm` starting from `layout`: before each two-qubit
/// gate on an uncoupled pair, SWAPs walk the first operand along a BFS
/// shortest path until it is adjacent to the second.
///
/// # Errors
///
/// Fails when the device is too small/disconnected or a gate with more than
/// two operands reaches the router (decompose first).
pub fn route(
    qc: &QuantumCircuit,
    cm: &CouplingMap,
    mut layout: Layout,
) -> Result<RoutedCircuit, TranspileError> {
    cm.check_capacity(qc.num_qubits())?;
    let mut out = QuantumCircuit::with_name(cm.num_qubits(), qc.num_clbits(), &qc.name);

    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } => match qubits.len() {
                1 => {
                    out.append(*gate, &[layout.physical(qubits[0])]);
                }
                2 => {
                    let (l0, l1) = (qubits[0], qubits[1]);
                    let mut p0 = layout.physical(l0);
                    let p1 = layout.physical(l1);
                    if !cm.are_coupled(p0, p1) {
                        let path = cm
                            .shortest_path(p0, p1)
                            .ok_or(TranspileError::DisconnectedTopology)?;
                        for &hop in &path[1..path.len() - 1] {
                            out.append(Gate::Swap, &[p0, hop]);
                            layout.swap_physical(p0, hop);
                            p0 = hop;
                        }
                    }
                    out.append(*gate, &[p0, p1]);
                }
                n => {
                    return Err(TranspileError::UnroutableGate(format!(
                        "{} ({n} operands)",
                        gate.name()
                    )));
                }
            },
            Op::Barrier(qs) => {
                let mapped: Vec<usize> = qs.iter().map(|&q| layout.physical(q)).collect();
                out.barrier(&mapped);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(layout.physical(*qubit), *clbit);
            }
        }
    }
    Ok(RoutedCircuit {
        circuit: out,
        final_layout: layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_sim::Statevector;

    /// Simulates a routed physical circuit and compares its measured
    /// distribution against the logical circuit's, undoing the layout.
    fn assert_equivalent(qc: &QuantumCircuit, cm: &CouplingMap, layout: Layout) {
        let routed = route(qc, cm, layout).expect("routable");
        // Golden: logical circuit measured through its own map.
        let golden = Statevector::from_circuit(qc)
            .unwrap()
            .measurement_distribution(qc);
        let actual = Statevector::from_circuit(&routed.circuit)
            .unwrap()
            .measurement_distribution(&routed.circuit);
        assert!(
            golden.tv_distance(&actual) < 1e-9,
            "routing changed semantics: {golden:?} vs {actual:?}"
        );
    }

    #[test]
    fn coupled_gates_pass_through() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        let cm = CouplingMap::line(2);
        let routed = route(&qc, &cm, Layout::trivial(2, 2)).unwrap();
        assert_eq!(routed.circuit.gate_count(), 2);
    }

    #[test]
    fn distant_cx_inserts_swaps_and_preserves_semantics() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 2).measure_all();
        let cm = CouplingMap::line(3);
        let routed = route(&qc, &cm, Layout::trivial(3, 3)).unwrap();
        // h, one SWAP, cx.
        assert_eq!(routed.circuit.gate_count(), 3);
        assert_equivalent(&qc, &cm, Layout::trivial(3, 3));
    }

    #[test]
    fn final_layout_tracks_movement() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.cx(0, 2);
        let cm = CouplingMap::line(3);
        let routed = route(&qc, &cm, Layout::trivial(3, 3)).unwrap();
        // Logical 0 moved from physical 0 to physical 1.
        assert_eq!(routed.final_layout.physical(0), 1);
    }

    #[test]
    fn measurements_follow_the_moved_qubit() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.x(0).cx(0, 2).measure_all();
        let cm = CouplingMap::line(3);
        assert_equivalent(&qc, &cm, Layout::trivial(3, 3));
    }

    #[test]
    fn routing_on_h7_with_dense_layout() {
        let cm = CouplingMap::ibm_h7();
        let mut qc = QuantumCircuit::new(4, 4);
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3).measure_all();
        let layout = Layout::dense(&cm, 4);
        assert_equivalent(&qc, &cm, layout);
    }

    #[test]
    fn long_chain_on_ring() {
        let cm = CouplingMap::ring(5);
        let mut qc = QuantumCircuit::new(5, 5);
        qc.h(0);
        for i in 0..4 {
            qc.cx(i, i + 1);
        }
        qc.cx(0, 2).cx(4, 1).measure_all();
        assert_equivalent(&qc, &cm, Layout::trivial(5, 5));
    }

    #[test]
    fn too_wide_rejected() {
        let qc = QuantumCircuit::new(4, 0);
        let cm = CouplingMap::line(3);
        assert!(matches!(
            route(&qc, &cm, Layout::trivial(3, 3)),
            Err(TranspileError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn three_qubit_gate_rejected() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.ccx(0, 1, 2);
        let cm = CouplingMap::line(3);
        assert!(matches!(
            route(&qc, &cm, Layout::trivial(3, 3)),
            Err(TranspileError::UnroutableGate(_))
        ));
    }

    #[test]
    fn device_wider_than_circuit() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        let cm = CouplingMap::ibm_h7();
        let routed = route(&qc, &cm, Layout::dense(&cm, 2)).unwrap();
        assert_eq!(routed.circuit.num_qubits(), 7);
        let golden = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        let actual = Statevector::from_circuit(&routed.circuit)
            .unwrap()
            .measurement_distribution(&routed.circuit);
        assert!(golden.tv_distance(&actual) < 1e-9);
    }
}
