//! Qubit reliability ranking and injection-site tracking.
//!
//! The paper's §I motivation: QVF information "allows a reliability-aware
//! mapping of the circuit qubits to physical qubits, predicts the effects
//! of faults in the quantum computation, and focuses the eventual
//! additional fault tolerance solution to the most critical qubit(s)".
//! [`qubit_reliability`] ranks **logical** qubits by their measured fault
//! sensitivity (from a campaign), most vulnerable first.
//!
//! It also carries a **logical injection site** through the transpiler
//! for the forked-state sweep engine. The engine plants a
//! [splice marker](mark_injection_site) — a sentinel barrier — right
//! after the target instruction. Barriers ride through
//! routing (their qubits are remapped as SWAPs move the logical qubit),
//! basis translation and optimization untouched, so
//! [`extract_splice_sites`] can recover, in the *physical* circuit, both
//! the instruction boundary and the physical qubit where the injector gate
//! must be spliced — without re-transpiling per fault configuration.

use crate::campaign::CampaignResult;
use crate::error::ExecError;
use crate::fault::{check_double_site, check_injection_point, InjectionPoint};
use crate::metrics::{mean_of, record_severity, Severity};
use qufi_sim::circuit::Op;
use qufi_sim::QuantumCircuit;

/// Fault-sensitivity summary of one logical qubit.
#[derive(Debug, Clone, PartialEq)]
pub struct QubitReliability {
    /// The logical qubit.
    pub qubit: usize,
    /// Mean QVF over all faults injected on this qubit.
    pub mean_qvf: f64,
    /// Fraction of injections that were silent data corruptions.
    pub sdc_fraction: f64,
    /// Number of injections behind the estimate.
    pub samples: usize,
}

/// Per-qubit reliability profile of a campaign, sorted **most vulnerable
/// first** (descending mean QVF).
pub fn qubit_reliability(result: &CampaignResult) -> Vec<QubitReliability> {
    let mut out: Vec<QubitReliability> = result
        .injected_qubits()
        .into_iter()
        .map(|q| {
            let qvfs = result
                .records
                .iter()
                .filter(|r| r.point.qubit == q)
                .map(|r| r.qvf);
            let samples = qvfs.clone().count();
            let sdc = qvfs
                .clone()
                .filter(|&qvf| record_severity(qvf) == Severity::Sdc)
                .count();
            QubitReliability {
                qubit: q,
                mean_qvf: mean_of(qvfs),
                sdc_fraction: sdc as f64 / samples.max(1) as f64,
                samples,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.mean_qvf
            .partial_cmp(&a.mean_qvf)
            .expect("QVF is finite")
            .then(a.qubit.cmp(&b.qubit))
    });
    out
}

/// Where an injector gate must be spliced into a circuit: right **before**
/// instruction `index`, on `qubit` (a *physical* qubit when the sites were
/// extracted from a transpiled circuit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceSite {
    /// Instruction index the injector goes in front of.
    pub index: usize,
    /// The struck qubit, in the coordinates of the carrying circuit.
    pub qubit: usize,
}

/// A splice marker is a barrier whose operand list names the same qubit
/// twice — a shape no circuit builder produces (real barriers list distinct
/// qubits), so it is unambiguous in-band through every transpiler pass.
fn is_marker(op: &Op) -> bool {
    matches!(op, Op::Barrier(qs) if qs.len() == 2 && qs[0] == qs[1])
}

fn marker(qubit: usize) -> Op {
    Op::Barrier(vec![qubit, qubit])
}

fn with_markers(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    qubits: &[usize],
) -> Result<QuantumCircuit, ExecError> {
    check_injection_point(qc, point)?;
    let mut marked = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    for (i, op) in qc.instructions().enumerate() {
        if is_marker(op) {
            return Err(ExecError::Engine(format!(
                "circuit {:?} already carries a splice marker at instruction {i}",
                qc.name
            )));
        }
        push_op(&mut marked, op.clone());
        if i == point.op_index {
            for &q in qubits {
                push_op(&mut marked, marker(q));
            }
        }
    }
    Ok(marked)
}

fn push_op(qc: &mut QuantumCircuit, op: Op) {
    match op {
        Op::Gate { gate, qubits } => {
            qc.append(gate, &qubits);
        }
        Op::Barrier(qs) => {
            qc.barrier(&qs);
        }
        Op::Measure { qubit, clbit } => {
            qc.measure(qubit, clbit);
        }
    }
}

/// Returns a copy of `qc` carrying a splice marker right after
/// `point.op_index` on `point.qubit`. Transpile the marked circuit, then
/// recover the physical splice site with [`extract_splice_sites`].
///
/// # Errors
///
/// [`ExecError::InjectionOutOfRange`] for nonexistent points and
/// [`ExecError::Engine`] if the circuit already carries a marker.
pub fn mark_injection_site(
    qc: &QuantumCircuit,
    point: InjectionPoint,
) -> Result<QuantumCircuit, ExecError> {
    with_markers(qc, point, &[point.qubit])
}

/// Like [`mark_injection_site`], but plants two markers at the same
/// position: first the struck qubit, then the neighboring qubit that
/// receives the second (weaker) fault of a double injection (§III-C).
///
/// # Errors
///
/// Same failure modes as [`mark_injection_site`].
pub fn mark_double_injection_site(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    neighbor: usize,
) -> Result<QuantumCircuit, ExecError> {
    check_double_site(qc, point, neighbor)?;
    with_markers(qc, point, &[point.qubit, neighbor])
}

/// Strips every splice marker out of `qc` (typically a transpiled marked
/// circuit) and reports where each one sat: the instruction boundary in the
/// *stripped* circuit and the qubit the marker tracked — remapped to
/// physical coordinates by routing, including any SWAP movement before the
/// injection site.
///
/// Sites come back in program order (for a double injection: struck qubit
/// first, neighbor second).
pub fn extract_splice_sites(qc: &QuantumCircuit) -> (QuantumCircuit, Vec<SpliceSite>) {
    let mut stripped = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    let mut sites = Vec::new();
    for op in qc.instructions() {
        if let Op::Barrier(qs) = op {
            if qs.len() == 2 && qs[0] == qs[1] {
                sites.push(SpliceSite {
                    index: stripped.size(),
                    qubit: qs[0],
                });
                continue;
            }
        }
        push_op(&mut stripped, op.clone());
    }
    (stripped, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_single_campaign, CampaignOptions};
    use crate::executor::IdealExecutor;
    use crate::fault::FaultGrid;
    use qufi_algos::bernstein_vazirani;

    fn small_campaign() -> CampaignResult {
        let w = bernstein_vazirani(0b101, 3);
        run_single_campaign(
            &w.circuit,
            &w.correct_outputs,
            &IdealExecutor,
            &CampaignOptions {
                grid: FaultGrid::coarse(),
                points: None,
                threads: 0,
            },
        )
        .expect("campaign")
    }

    #[test]
    fn reliability_ranking_is_sorted_and_complete() {
        let res = small_campaign();
        let ranking = qubit_reliability(&res);
        assert_eq!(ranking.len(), 4);
        for w in ranking.windows(2) {
            assert!(w[0].mean_qvf >= w[1].mean_qvf);
        }
        let total: usize = ranking.iter().map(|r| r.samples).sum();
        assert_eq!(total, res.len());
        for r in &ranking {
            assert!((0.0..=1.0).contains(&r.sdc_fraction));
        }
    }

    #[test]
    fn bv_ancilla_is_less_vulnerable_than_secret_qubits() {
        // Faults on the BV ancilla (q3) mostly cancel through phase
        // kickback; the measured secret qubits carry the damage.
        let res = small_campaign();
        let ranking = qubit_reliability(&res);
        let pos = |q: usize| ranking.iter().position(|r| r.qubit == q).expect("ranked");
        // The ancilla must not be the most vulnerable qubit.
        assert!(pos(3) > 0, "ancilla ranked most vulnerable: {ranking:?}");
    }

    #[test]
    fn marker_rides_through_level3_transpilation() {
        use qufi_transpile::{CouplingMap, Transpiler};
        let w = bernstein_vazirani(0b101, 3);
        let t = Transpiler::new(CouplingMap::ibm_h7());
        for point in crate::fault::enumerate_injection_points(&w.circuit) {
            let marked = mark_injection_site(&w.circuit, point).unwrap();
            let result = t.run(&marked).unwrap();
            let (stripped, sites) = extract_splice_sites(result.circuit());
            assert_eq!(sites.len(), 1, "marker lost or duplicated at {point:?}");
            let site = sites[0];
            assert!(site.index <= stripped.size());
            // The tracked qubit is a real device qubit hosting a logical one.
            assert!(site.qubit < 7);
            // Stripping leaves a marker-free circuit.
            let (_, none) = extract_splice_sites(&stripped);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn marker_follows_routing_swaps() {
        use qufi_transpile::{CouplingMap, Layout, Transpiler};
        // On a 4-qubit line the dense layout seats logical 0 on an inner
        // qubit and logical 3 on an end two hops away, so cx(0,3) forces a
        // SWAP; a marker planted after that gate must land on the *moved*
        // physical seat of logical 0.
        let mut qc = QuantumCircuit::new(4, 0);
        qc.cx(0, 3);
        let point = InjectionPoint {
            op_index: 0,
            qubit: 0,
        };
        let marked = mark_injection_site(&qc, point).unwrap();
        let cm = CouplingMap::line(4);
        let seat = Layout::dense(&cm, 4).physical(0);
        let result = Transpiler::new(cm).run(&marked).unwrap();
        let (_, sites) = extract_splice_sites(result.circuit());
        assert_eq!(sites.len(), 1);
        // The marker is after the last gate, so its qubit is logical 0's
        // final physical position (which routing moved off its seat).
        assert_eq!(sites[0].qubit, result.physical_qubit(0));
        assert_ne!(sites[0].qubit, seat, "routing should have moved logical 0");
    }

    #[test]
    fn double_markers_keep_program_order() {
        let w = bernstein_vazirani(0b11, 2);
        let point = InjectionPoint {
            op_index: 2,
            qubit: 0,
        };
        let marked = mark_double_injection_site(&w.circuit, point, 1).unwrap();
        let (stripped, sites) = extract_splice_sites(&marked);
        assert_eq!(stripped.ops(), w.circuit.ops());
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].qubit, 0);
        assert_eq!(sites[1].qubit, 1);
        assert!(sites[0].index <= sites[1].index);
    }

    #[test]
    fn marking_rejects_bad_sites_and_double_marking() {
        let w = bernstein_vazirani(0b11, 2);
        let bad = InjectionPoint {
            op_index: 999,
            qubit: 0,
        };
        assert!(matches!(
            mark_injection_site(&w.circuit, bad),
            Err(ExecError::InjectionOutOfRange { .. })
        ));
        let point = InjectionPoint {
            op_index: 0,
            qubit: 0,
        };
        assert!(matches!(
            mark_double_injection_site(&w.circuit, point, 5),
            Err(ExecError::InjectionOutOfRange { qubit: 5, .. })
        ));
        let marked = mark_injection_site(&w.circuit, point).unwrap();
        assert!(matches!(
            mark_injection_site(&marked, point),
            Err(ExecError::Engine(_))
        ));
    }
}
