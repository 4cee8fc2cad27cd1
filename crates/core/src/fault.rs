//! The radiation-induced transient fault model (paper §III–IV).
//!
//! A particle strike deposits charge that phase-shifts the qubit state; the
//! shift magnitude depends on the deposited charge, so — unlike the binary
//! CMOS bit-flip — faults of *every* magnitude must be injected. QuFI models
//! a fault as an extra `U(θ, φ, λ=0)` gate spliced in right after a gate of
//! the original circuit, and sweeps `φ ∈ [0, 2π)`, `θ ∈ [0, π]` in 15°
//! steps: 312 configurations per injection point (§IV-B).

use crate::error::ExecError;
use qufi_math::AngleGrid;
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};

/// The parameters of one injected fault: a `U(θ, φ, λ)` phase shift.
/// The paper fixes `λ = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultParams {
    /// θ shift — rotation toward/away from |1⟩ (the more critical axis).
    pub theta: f64,
    /// φ shift — rotation about Z.
    pub phi: f64,
    /// λ parameter of the injector gate; 0 in the paper's model.
    pub lambda: f64,
}

impl FaultParams {
    /// A fault with the paper's `λ = 0` convention.
    pub fn shift(theta: f64, phi: f64) -> Self {
        FaultParams {
            theta,
            phi,
            lambda: 0.0,
        }
    }

    /// The injector gate realizing this fault.
    pub fn injector_gate(&self) -> Gate {
        Gate::U(self.theta, self.phi, self.lambda)
    }

    /// `true` for the (0, 0) no-op fault.
    pub fn is_null(&self) -> bool {
        self.theta.abs() < 1e-15 && self.phi.abs() < 1e-15 && self.lambda.abs() < 1e-15
    }
}

/// Where a fault strikes: right **after** instruction `op_index`, on `qubit`
/// (which must be an operand of that instruction when enumerated by
/// [`enumerate_injection_points`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InjectionPoint {
    /// Index into the circuit's operation list.
    pub op_index: usize,
    /// The struck qubit.
    pub qubit: usize,
}

/// The φ/θ sweep of a campaign.
///
/// # Example
///
/// ```
/// use qufi_core::fault::FaultGrid;
///
/// let g = FaultGrid::paper();
/// assert_eq!(g.len(), 312); // 24 φ × 13 θ, §IV-B
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultGrid {
    /// θ values (radians).
    pub thetas: Vec<f64>,
    /// φ values (radians).
    pub phis: Vec<f64>,
}

impl FaultGrid {
    /// The paper's grid: θ ∈ [0, π] and φ ∈ [0, 2π), both in 15° steps.
    pub fn paper() -> Self {
        FaultGrid {
            thetas: AngleGrid::qufi_theta().values(),
            phis: AngleGrid::qufi_phi().values(),
        }
    }

    /// Half-φ grid (φ ∈ [0, π]) used by the double-fault study, which
    /// exploits the φ-symmetry of Bernstein-Vazirani around π (§V-D).
    pub fn paper_half_phi() -> Self {
        FaultGrid {
            thetas: AngleGrid::qufi_theta().values(),
            phis: AngleGrid::qufi_phi_half().values(),
        }
    }

    /// A 45°-step grid for fast benches; the coverage shape is preserved.
    pub fn coarse() -> Self {
        FaultGrid {
            thetas: AngleGrid::coarse(std::f64::consts::PI, true).values(),
            phis: AngleGrid::coarse(2.0 * std::f64::consts::PI, false).values(),
        }
    }

    /// Explicit grids.
    pub fn custom(thetas: Vec<f64>, phis: Vec<f64>) -> Self {
        FaultGrid { thetas, phis }
    }

    /// Number of (θ, φ) configurations.
    pub fn len(&self) -> usize {
        self.thetas.len() * self.phis.len()
    }

    /// `true` when either axis is empty.
    pub fn is_empty(&self) -> bool {
        self.thetas.is_empty() || self.phis.is_empty()
    }

    /// Iterates all `(θ, φ)` pairs, θ-major.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.phis
            .iter()
            .flat_map(move |&p| self.thetas.iter().map(move |&t| (t, p)))
    }
}

/// Enumerates every fault location of a circuit: one point per (gate,
/// operand-qubit) pair, "after each gate of the original circuit" (§IV-B).
/// Barriers and measurements are not fault sites.
pub fn enumerate_injection_points(qc: &QuantumCircuit) -> Vec<InjectionPoint> {
    let mut points = Vec::new();
    for (i, op) in qc.instructions().enumerate() {
        if let Op::Gate { qubits, .. } = op {
            for &q in qubits {
                points.push(InjectionPoint {
                    op_index: i,
                    qubit: q,
                });
            }
        }
    }
    points
}

/// Validates that `point` names an existing instruction and qubit of `qc`.
///
/// # Errors
///
/// [`ExecError::InjectionOutOfRange`] when either index is out of range.
pub fn check_injection_point(qc: &QuantumCircuit, point: InjectionPoint) -> Result<(), ExecError> {
    if point.op_index >= qc.size() || point.qubit >= qc.num_qubits() {
        return Err(ExecError::InjectionOutOfRange {
            op_index: point.op_index,
            qubit: point.qubit,
            size: qc.size(),
            width: qc.num_qubits(),
        });
    }
    Ok(())
}

/// Validates the location part of a double fault: `point` exists and
/// `neighbor` is a distinct in-range qubit.
///
/// # Errors
///
/// [`ExecError::InjectionOutOfRange`] or [`ExecError::InvalidFault`].
pub fn check_double_site(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    neighbor: usize,
) -> Result<(), ExecError> {
    check_injection_point(qc, point)?;
    if neighbor >= qc.num_qubits() {
        return Err(ExecError::InjectionOutOfRange {
            op_index: point.op_index,
            qubit: neighbor,
            size: qc.size(),
            width: qc.num_qubits(),
        });
    }
    if point.qubit == neighbor {
        return Err(ExecError::InvalidFault(
            "double fault needs two distinct qubits".into(),
        ));
    }
    Ok(())
}

/// Validates the double-fault constraints of §III-C: the neighbor is a
/// distinct in-range qubit, and the second shift never exceeds the first
/// in either angle.
///
/// # Errors
///
/// [`ExecError::InjectionOutOfRange`] or [`ExecError::InvalidFault`].
pub fn check_double_fault(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    first: FaultParams,
    neighbor: usize,
    second: FaultParams,
) -> Result<(), ExecError> {
    check_double_site(qc, point, neighbor)?;
    check_fault_order(first, second)
}

/// Validates the §III-C magnitude ordering of a double fault: the second
/// (neighbor) shift never exceeds the first in either angle.
///
/// # Errors
///
/// [`ExecError::InvalidFault`] when `θ1 > θ0` or `φ1 > φ0`.
pub fn check_fault_order(first: FaultParams, second: FaultParams) -> Result<(), ExecError> {
    if second.theta > first.theta + 1e-12 || second.phi > first.phi + 1e-12 {
        return Err(ExecError::InvalidFault(
            "second fault must not exceed the first (θ1 ≤ θ0, φ1 ≤ φ0)".into(),
        ));
    }
    Ok(())
}

/// Builds the faulty circuit: a copy of `qc` with the injector gate spliced
/// in right after `point.op_index`.
///
/// # Errors
///
/// [`ExecError::InjectionOutOfRange`] when the point names an instruction
/// or qubit the circuit does not have.
pub fn inject_fault(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    fault: FaultParams,
) -> Result<QuantumCircuit, ExecError> {
    check_injection_point(qc, point)?;
    let mut faulty = qc.clone();
    faulty.insert(point.op_index + 1, fault.injector_gate(), &[point.qubit]);
    faulty.name = format!("{}+fault", qc.name);
    Ok(faulty)
}

/// Builds a double-faulty circuit: the first fault on `point`, and a second
/// (weaker) fault on `neighbor` at the same position — the qubit physically
/// adjacent to the strike location receives the smaller shift (§III-C).
///
/// # Errors
///
/// [`ExecError::InjectionOutOfRange`] when an index is out of range and
/// [`ExecError::InvalidFault`] when the neighbor equals the struck qubit or
/// the second fault exceeds the first in either angle.
pub fn inject_double_fault(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    first: FaultParams,
    neighbor: usize,
    second: FaultParams,
) -> Result<QuantumCircuit, ExecError> {
    check_double_fault(qc, point, first, neighbor, second)?;
    let mut faulty = inject_fault(qc, point, first)?;
    faulty.insert(point.op_index + 2, second.injector_gate(), &[neighbor]);
    Ok(faulty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_sim::Statevector;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn bell() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    #[test]
    fn grid_sizes_match_paper() {
        assert_eq!(FaultGrid::paper().len(), 312);
        assert_eq!(FaultGrid::paper_half_phi().len(), 13 * 13);
        assert!(FaultGrid::coarse().len() < 64);
        assert_eq!(FaultGrid::paper().iter().count(), 312);
    }

    #[test]
    fn enumerate_points_covers_all_operands() {
        let qc = bell();
        let points = enumerate_injection_points(&qc);
        // h(0) -> 1 point, cx(0,1) -> 2 points; measures are not sites.
        assert_eq!(points.len(), 3);
        assert_eq!(
            points[0],
            InjectionPoint {
                op_index: 0,
                qubit: 0
            }
        );
        assert_eq!(
            points[1],
            InjectionPoint {
                op_index: 1,
                qubit: 0
            }
        );
        assert_eq!(
            points[2],
            InjectionPoint {
                op_index: 1,
                qubit: 1
            }
        );
    }

    #[test]
    fn null_fault_preserves_distribution() {
        let qc = bell();
        let faulty = inject_fault(
            &qc,
            InjectionPoint {
                op_index: 0,
                qubit: 0,
            },
            FaultParams::shift(0.0, 0.0),
        )
        .unwrap();
        assert_eq!(faulty.gate_count(), qc.gate_count() + 1);
        let a = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        let b = Statevector::from_circuit(&faulty)
            .unwrap()
            .measurement_distribution(&faulty);
        assert!(a.tv_distance(&b) < 1e-12);
    }

    #[test]
    fn theta_pi_fault_flips_qubit() {
        // X-equivalent fault on a fresh qubit: |0> -> |1> (up to phase).
        let mut qc = QuantumCircuit::new(1, 1);
        qc.i(0).measure(0, 0);
        let faulty = inject_fault(
            &qc,
            InjectionPoint {
                op_index: 0,
                qubit: 0,
            },
            FaultParams::shift(PI, 0.0),
        )
        .unwrap();
        let d = Statevector::from_circuit(&faulty)
            .unwrap()
            .measurement_distribution(&faulty);
        assert!((d.prob(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phi_fault_invisible_without_downstream_interference() {
        // A pure φ shift right before measurement cannot change outcomes.
        let qc = bell();
        let faulty = inject_fault(
            &qc,
            InjectionPoint {
                op_index: 1,
                qubit: 1,
            },
            FaultParams::shift(0.0, FRAC_PI_2),
        )
        .unwrap();
        let a = Statevector::from_circuit(&qc)
            .unwrap()
            .measurement_distribution(&qc);
        let b = Statevector::from_circuit(&faulty)
            .unwrap()
            .measurement_distribution(&faulty);
        assert!(a.tv_distance(&b) < 1e-12);
    }

    #[test]
    fn injector_gate_is_the_paper_u_gate() {
        let f = FaultParams::shift(FRAC_PI_4, PI);
        assert_eq!(f.injector_gate(), Gate::U(FRAC_PI_4, PI, 0.0));
        assert!(FaultParams::shift(0.0, 0.0).is_null());
        assert!(!f.is_null());
    }

    #[test]
    fn double_fault_inserts_two_gates_in_order() {
        let qc = bell();
        let faulty = inject_double_fault(
            &qc,
            InjectionPoint {
                op_index: 1,
                qubit: 0,
            },
            FaultParams::shift(PI, PI),
            1,
            FaultParams::shift(FRAC_PI_2, FRAC_PI_4),
        )
        .unwrap();
        assert_eq!(faulty.gate_count(), qc.gate_count() + 2);
        // Ops: h, cx, U(q0), U(q1), measures.
        match (&faulty.ops()[2], &faulty.ops()[3]) {
            (
                Op::Gate {
                    gate: Gate::U(t0, ..),
                    qubits: q0,
                },
                Op::Gate {
                    gate: Gate::U(t1, ..),
                    qubits: q1,
                },
            ) => {
                assert!((t0 - PI).abs() < 1e-12);
                assert!((t1 - FRAC_PI_2).abs() < 1e-12);
                assert_eq!(q0, &vec![0]);
                assert_eq!(q1, &vec![1]);
            }
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn second_fault_magnitude_bounded_by_first() {
        let qc = bell();
        let err = inject_double_fault(
            &qc,
            InjectionPoint {
                op_index: 0,
                qubit: 0,
            },
            FaultParams::shift(FRAC_PI_4, 0.0),
            1,
            FaultParams::shift(PI, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, crate::error::ExecError::InvalidFault(_)));
        assert!(err.to_string().contains("must not exceed"));
    }

    #[test]
    fn double_fault_requires_distinct_qubits() {
        let qc = bell();
        let err = inject_double_fault(
            &qc,
            InjectionPoint {
                op_index: 0,
                qubit: 0,
            },
            FaultParams::shift(PI, 0.0),
            0,
            FaultParams::shift(0.0, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, crate::error::ExecError::InvalidFault(_)));
        assert!(err.to_string().contains("distinct qubits"));
    }

    #[test]
    fn out_of_range_points_are_errors_not_panics() {
        let qc = bell();
        // Instruction index past the end.
        let err = inject_fault(
            &qc,
            InjectionPoint {
                op_index: qc.size(),
                qubit: 0,
            },
            FaultParams::shift(PI, 0.0),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ExecError::InjectionOutOfRange { .. }
        ));
        // Qubit outside the register.
        let err = inject_fault(
            &qc,
            InjectionPoint {
                op_index: 0,
                qubit: 7,
            },
            FaultParams::shift(PI, 0.0),
        )
        .unwrap_err();
        assert!(err.to_string().contains("qubit 7"));
        // Out-of-range neighbor on the double-fault path.
        let err = inject_double_fault(
            &qc,
            InjectionPoint {
                op_index: 0,
                qubit: 0,
            },
            FaultParams::shift(PI, 0.0),
            9,
            FaultParams::shift(0.0, 0.0),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ExecError::InjectionOutOfRange { qubit: 9, .. }
        ));
    }
}
