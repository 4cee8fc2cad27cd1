//! Peephole optimization passes.
//!
//! Three passes mirror the workhorses of Qiskit's `optimization_level=3`:
//! inverse-pair cancellation (`H·H`, `CX·CX`, `T·T†` …), rotation merging
//! (`RZ(a)·RZ(b) → RZ(a+b)`), and single-qubit-run fusion (multiply the
//! run's matrices, drop it when the product is the identity, otherwise
//! resynthesize it in the native `{rz, sx}` basis). [`optimize`] iterates
//! them to a fixpoint.

use crate::basis::decompose_1q_matrix;
use qufi_math::{decompose::normalize_angle, CMatrix};
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};

/// Runs the passes to a fixpoint: each round cancels inverse pairs until
/// none are left, merges rotations and fuses single-qubit runs.
pub fn optimize(qc: &QuantumCircuit) -> QuantumCircuit {
    run_to_fixpoint(qc, |c| {
        fuse_single_qubit_runs(&merge_rotations(&run_to_fixpoint(c, cancel_inverse_pairs)))
    })
}

/// Applies `pass` until the circuit stops changing, at most ten times.
fn run_to_fixpoint(
    qc: &QuantumCircuit,
    pass: impl Fn(&QuantumCircuit) -> QuantumCircuit,
) -> QuantumCircuit {
    let mut cur = qc.clone();
    for _ in 0..10 {
        let next = pass(&cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn params_match(a: Gate, b: Gate) -> bool {
    let (pa, pb) = (a.params(), b.params());
    pa.len() == pb.len() && pa.iter().zip(&pb).all(|(x, y)| (x - y).abs() < 1e-12)
}

/// Removes adjacent gate pairs `G · G⁻¹` acting on identical operand lists.
pub fn cancel_inverse_pairs(qc: &QuantumCircuit) -> QuantumCircuit {
    let mut out: Vec<Option<Op>> = Vec::with_capacity(qc.size());
    // last[q] = index in `out` of the most recent op touching qubit q.
    let mut last: Vec<Option<usize>> = vec![None; qc.num_qubits()];

    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } => {
                // Candidate for cancellation: all operands point at the same
                // previous instruction, which is our inverse on the same
                // operand list.
                let candidate = qubits
                    .iter()
                    .map(|&q| last[q])
                    .collect::<Option<Vec<usize>>>()
                    .and_then(|idxs| {
                        let first = idxs[0];
                        idxs.iter().all(|&i| i == first).then_some(first)
                    });
                if let Some(j) = candidate {
                    if let Some(Op::Gate {
                        gate: prev,
                        qubits: prev_qs,
                    }) = &out[j]
                    {
                        let inv = gate.inverse();
                        if prev_qs == qubits
                            && std::mem::discriminant(prev) == std::mem::discriminant(&inv)
                            && params_match(*prev, inv)
                        {
                            out[j] = None;
                            for &q in qubits {
                                last[q] = None;
                            }
                            continue;
                        }
                    }
                }
                let idx = out.len();
                out.push(Some(op.clone()));
                for &q in qubits {
                    last[q] = Some(idx);
                }
            }
            Op::Barrier(qs) => {
                let idx = out.len();
                out.push(Some(op.clone()));
                for &q in qs {
                    last[q] = Some(idx);
                }
            }
            Op::Measure { qubit, .. } => {
                let idx = out.len();
                out.push(Some(op.clone()));
                last[*qubit] = Some(idx);
            }
        }
    }
    rebuild(qc, out.into_iter().flatten())
}

/// Merges adjacent `rz`/`p` rotations on the same qubit and `cp` rotations on
/// the same ordered pair; zero-angle results are dropped.
pub fn merge_rotations(qc: &QuantumCircuit) -> QuantumCircuit {
    let mut out: Vec<Option<Op>> = Vec::with_capacity(qc.size());
    let mut last: Vec<Option<usize>> = vec![None; qc.num_qubits()];

    for op in qc.instructions() {
        if let Op::Gate { gate, qubits } = op {
            let mergeable = matches!(gate, Gate::Rz(_) | Gate::P(_) | Gate::Cp(_));
            if mergeable {
                let candidate = qubits
                    .iter()
                    .map(|&q| last[q])
                    .collect::<Option<Vec<usize>>>()
                    .and_then(|idxs| {
                        let first = idxs[0];
                        idxs.iter().all(|&i| i == first).then_some(first)
                    });
                if let Some(j) = candidate {
                    if let Some(Op::Gate {
                        gate: prev,
                        qubits: prev_qs,
                    }) = &out[j]
                    {
                        let merged = match (*prev, *gate) {
                            (Gate::Rz(a), Gate::Rz(b)) if prev_qs == qubits => {
                                Some(Gate::Rz(normalize_angle(a + b)))
                            }
                            (Gate::P(a), Gate::P(b)) if prev_qs == qubits => {
                                Some(Gate::P(normalize_angle(a + b)))
                            }
                            (Gate::Cp(a), Gate::Cp(b)) if same_pair(prev_qs, qubits) => {
                                Some(Gate::Cp(normalize_angle(a + b)))
                            }
                            _ => None,
                        };
                        if let Some(m) = merged {
                            if m.params()[0].abs() < 1e-12 {
                                out[j] = None;
                                for &q in qubits {
                                    last[q] = None;
                                }
                            } else {
                                out[j] = Some(Op::Gate {
                                    gate: m,
                                    qubits: prev_qs.clone(),
                                });
                            }
                            continue;
                        }
                    }
                }
            }
        }
        let idx = out.len();
        let touched: Vec<usize> = match op {
            Op::Gate { qubits, .. } => qubits.clone(),
            Op::Barrier(qs) => qs.clone(),
            Op::Measure { qubit, .. } => vec![*qubit],
        };
        out.push(Some(op.clone()));
        for q in touched {
            last[q] = Some(idx);
        }
    }
    rebuild(qc, out.into_iter().flatten())
}

/// `cp` is symmetric: control/target order does not matter.
fn same_pair(a: &[usize], b: &[usize]) -> bool {
    a.len() == 2 && b.len() == 2 && (a == b || (a[0] == b[1] && a[1] == b[0]))
}

/// Fuses maximal runs of single-qubit gates into at most five native
/// gates (`rz`, `sx`); identity runs vanish.
pub fn fuse_single_qubit_runs(qc: &QuantumCircuit) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); qc.num_qubits()];

    let flush = |out: &mut QuantumCircuit, pending: &mut Vec<Vec<Gate>>, q: usize| {
        let run = std::mem::take(&mut pending[q]);
        if run.is_empty() {
            return;
        }
        if run.len() == 1 && !matches!(run[0], Gate::I) {
            out.append(run[0], &[q]);
            return;
        }
        let mut m = CMatrix::identity(2);
        for g in &run {
            m = g.matrix().matmul(&m);
        }
        if m.approx_eq_up_to_phase(&CMatrix::identity(2), 1e-10) {
            return;
        }
        for g in decompose_1q_matrix(&m) {
            out.append(g, &[q]);
        }
    };

    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } if qubits.len() == 1 => {
                pending[qubits[0]].push(*gate);
            }
            Op::Gate { gate, qubits } => {
                for &q in qubits {
                    flush(&mut out, &mut pending, q);
                }
                out.append(*gate, qubits);
            }
            Op::Barrier(qs) => {
                for &q in qs {
                    flush(&mut out, &mut pending, q);
                }
                out.barrier(qs);
            }
            Op::Measure { qubit, clbit } => {
                flush(&mut out, &mut pending, *qubit);
                out.measure(*qubit, *clbit);
            }
        }
    }
    for q in 0..qc.num_qubits() {
        flush(&mut out, &mut pending, q);
    }
    out
}

fn rebuild<I: IntoIterator<Item = Op>>(qc: &QuantumCircuit, ops: I) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    for op in ops {
        match op {
            Op::Gate { gate, qubits } => {
                out.append(gate, &qubits);
            }
            Op::Barrier(qs) => {
                out.barrier(&qs);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(qubit, clbit);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_sim::Statevector;

    fn equivalent(a: &QuantumCircuit, b: &QuantumCircuit) -> bool {
        let pa = Statevector::from_circuit(a).unwrap().probabilities();
        let pb = Statevector::from_circuit(b).unwrap().probabilities();
        pa.tv_distance(&pb) < 1e-9
    }

    #[test]
    fn hh_cancels() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).h(0);
        let opt = cancel_inverse_pairs(&qc);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn cx_pair_cancels_only_with_same_orientation() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.cx(0, 1).cx(0, 1);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 0);

        let mut qc2 = QuantumCircuit::new(2, 0);
        qc2.cx(0, 1).cx(1, 0);
        assert_eq!(cancel_inverse_pairs(&qc2).gate_count(), 2);
    }

    #[test]
    fn t_tdg_cancels() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.t(0).tdg(0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 0);
    }

    #[test]
    fn rz_pair_cancels_only_when_opposite() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.rz(0.7, 0).rz(-0.7, 0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 0);
        let mut qc2 = QuantumCircuit::new(1, 0);
        qc2.rz(0.7, 0).rz(0.6, 0);
        assert_eq!(cancel_inverse_pairs(&qc2).gate_count(), 2);
    }

    #[test]
    fn intervening_gate_blocks_cancellation() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cx(0, 1).h(0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 3);
    }

    #[test]
    fn barrier_blocks_cancellation() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).barrier(&[0]).h(0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 2);
    }

    #[test]
    fn nested_pairs_cancel_across_iterations() {
        // X H H X -> X X -> nothing (needs two passes).
        let mut qc = QuantumCircuit::new(1, 0);
        qc.x(0).h(0).h(0).x(0);
        let opt = run_to_fixpoint(&qc, cancel_inverse_pairs);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0);
        let opt = merge_rotations(&qc);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn cp_merges_regardless_of_operand_order() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.cp(0.5, 0, 1).cp(0.25, 1, 0);
        let opt = merge_rotations(&qc);
        assert_eq!(opt.gate_count(), 1);
        assert!(equivalent(&qc, &opt));
    }

    #[test]
    fn fuse_collapses_runs() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).t(0).h(0).s(0).h(0);
        let fused = fuse_single_qubit_runs(&qc);
        // One run resynthesizes to at most rz·sx·rz·sx·rz.
        assert!(fused.gate_count() <= 5, "{fused}");
        assert!(equivalent(&qc, &fused));
    }

    #[test]
    fn fuse_native_emits_only_native() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).t(0).sdg(0);
        let fused = fuse_single_qubit_runs(&qc);
        for op in fused.instructions() {
            if let Op::Gate { gate, .. } = op {
                assert!(crate::basis::is_native(*gate));
            }
        }
        assert!(equivalent(&qc, &fused));
    }

    #[test]
    fn fuse_respects_two_qubit_boundaries() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cx(0, 1).h(0);
        let fused = fuse_single_qubit_runs(&qc);
        assert_eq!(fused.gate_count(), 3);
        assert!(equivalent(&qc, &fused));
    }

    #[test]
    fn level3_shrinks_redundant_circuit() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0)
            .h(0)
            .t(1)
            .tdg(1)
            .cx(0, 1)
            .cx(0, 1)
            .rz(0.4, 0)
            .rz(-0.4, 0)
            .h(1)
            .s(1)
            .sdg(1)
            .h(1)
            .measure_all();
        let opt = optimize(&qc);
        assert_eq!(opt.gate_count(), 0, "{opt}");
    }

    #[test]
    fn optimization_preserves_semantics_on_random_circuit() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0)
            .cx(0, 1)
            .t(1)
            .t(1)
            .h(2)
            .h(2)
            .cp(0.9, 1, 2)
            .rz(1.1, 0)
            .rz(0.2, 0)
            .cx(1, 2)
            .y(2)
            .measure_all();
        let opt = optimize(&qc);
        let a = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        let b = Statevector::from_circuit(&opt)
            .unwrap()
            .measurement_distribution(&opt);
        assert!(a.tv_distance(&b) < 1e-9, "optimization broke circuit");
        assert!(opt.gate_count() <= qc.gate_count());
    }
}
