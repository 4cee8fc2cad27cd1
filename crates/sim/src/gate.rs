//! The gate set.
//!
//! Includes every gate the QuFI paper touches: the common named gates whose
//! fault-equivalent phase shifts are drawn as reference lines on the paper's
//! heatmaps (X, Y, Z, S, T), the generic `U(θ, φ, λ)` gate used as the fault
//! injector (Eq. 3), the IBM native basis (`rz`, `sx`, `x`, `cx`, `id`) the
//! transpiler targets, and the two-qubit gates needed by the benchmark
//! circuits (CX for BV/DJ, controlled-phase and SWAP for QFT).

use core::fmt;
use qufi_math::CMatrix;
use std::f64::consts::PI;

/// A quantum gate. Parameterized variants carry their angles in radians.
///
/// # Example
///
/// ```
/// use qufi_sim::Gate;
/// use std::f64::consts::PI;
///
/// // A fault injector gate from the QuFI model: U(θ, φ, 0).
/// let fault = Gate::U(PI / 4.0, PI, 0.0);
/// assert_eq!(fault.num_qubits(), 1);
/// assert!(fault.matrix().is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (the `id` delay gate).
    I,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = P(π/2).
    S,
    /// S-dagger.
    Sdg,
    /// T = P(π/4).
    T,
    /// T-dagger.
    Tdg,
    /// Square root of X (IBM native).
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// Rotation about X.
    Rx(f64),
    /// Rotation about Y.
    Ry(f64),
    /// Rotation about Z (IBM native, virtual).
    Rz(f64),
    /// Phase gate P(λ) = diag(1, e^{iλ}).
    P(f64),
    /// The generic single-qubit gate `U(θ, φ, λ)` (QuFI Eq. 3).
    U(f64, f64, f64),
    /// Controlled-X; operand order is `[control, target]`.
    Cx,
    /// Controlled-Z.
    Cz,
    /// Controlled-phase `CP(λ)`.
    Cp(f64),
    /// SWAP.
    Swap,
    /// Toffoli (CCX); operand order `[control, control, target]`.
    Ccx,
}

impl Gate {
    /// Number of qubits the gate acts on.
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::Cx | Gate::Cz | Gate::Cp(_) | Gate::Swap => 2,
            Gate::Ccx => 3,
            _ => 1,
        }
    }

    /// Lower-case mnemonic, matching OpenQASM 2 / Qiskit spellings.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::P(_) => "p",
            Gate::U(_, _, _) => "u",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Cp(_) => "cp",
            Gate::Swap => "swap",
            Gate::Ccx => "ccx",
        }
    }

    /// The unitary matrix of the gate.
    ///
    /// For multi-qubit gates the first operand is the **most significant**
    /// bit of the matrix index (so [`CMatrix::cnot`] has its control on the
    /// first operand).
    pub fn matrix(&self) -> CMatrix {
        match *self {
            Gate::I => CMatrix::identity(2),
            Gate::H => CMatrix::hadamard(),
            Gate::X => CMatrix::pauli_x(),
            Gate::Y => CMatrix::pauli_y(),
            Gate::Z => CMatrix::pauli_z(),
            Gate::S => CMatrix::phase(PI / 2.0),
            Gate::Sdg => CMatrix::phase(-PI / 2.0),
            Gate::T => CMatrix::phase(PI / 4.0),
            Gate::Tdg => CMatrix::phase(-PI / 4.0),
            Gate::Sx => CMatrix::sx(),
            Gate::Sxdg => CMatrix::sx().adjoint(),
            Gate::Rx(t) => CMatrix::rx(t),
            Gate::Ry(t) => CMatrix::ry(t),
            Gate::Rz(t) => CMatrix::rz(t),
            Gate::P(l) => CMatrix::phase(l),
            Gate::U(t, p, l) => CMatrix::u_gate(t, p, l),
            Gate::Cx => CMatrix::cnot(),
            Gate::Cz => CMatrix::cz(),
            Gate::Cp(l) => CMatrix::cphase(l),
            Gate::Swap => CMatrix::swap(),
            Gate::Ccx => {
                let mut m = CMatrix::identity(8);
                // |110> <-> |111>
                m[(6, 6)] = qufi_math::Complex::ZERO;
                m[(7, 7)] = qufi_math::Complex::ZERO;
                m[(6, 7)] = qufi_math::Complex::ONE;
                m[(7, 6)] = qufi_math::Complex::ONE;
                m
            }
        }
    }

    /// The inverse gate, as a gate (not a matrix).
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::P(l) => Gate::P(-l),
            Gate::Cp(l) => Gate::Cp(-l),
            Gate::U(t, p, l) => Gate::U(-t, -l, -p),
            // Self-inverse gates.
            g => g,
        }
    }

    /// The gate's parameters, if any, in declaration order.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::P(t) | Gate::Cp(t) => vec![t],
            Gate::U(t, p, l) => vec![t, p, l],
            _ => vec![],
        }
    }

    /// The `(θ, φ)` phase-shift a named single-qubit gate corresponds to in
    /// the QuFI fault model — the dotted reference lines of Fig. 5.
    ///
    /// Returns `None` for gates that are not pure `U(θ, φ, 0)` shifts.
    pub fn as_fault_shift(&self) -> Option<(f64, f64)> {
        match self {
            Gate::X => Some((PI, 0.0)),
            Gate::Y => Some((PI, PI / 2.0)),
            // Diagonal phase gates are φ-shifts with θ = 0 (up to the λ/φ
            // equivalence for diagonal U gates: U(0, φ, 0)·|ψ⟩ has the same
            // measurement statistics as P(φ)).
            Gate::Z => Some((0.0, PI)),
            Gate::S => Some((0.0, PI / 2.0)),
            Gate::T => Some((0.0, PI / 4.0)),
            _ => None,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_PARAMLESS: [Gate; 14] = [
        Gate::I,
        Gate::H,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Cx,
        Gate::Cz,
        Gate::Swap,
    ];

    #[test]
    fn all_gates_unitary() {
        for g in ALL_PARAMLESS {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
        for g in [
            Gate::Rx(0.3),
            Gate::Ry(1.0),
            Gate::Rz(2.0),
            Gate::P(0.5),
            Gate::U(0.2, 1.4, 2.7),
            Gate::Cp(0.8),
            Gate::Ccx,
        ] {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
        }
    }

    #[test]
    fn inverse_matrices_multiply_to_identity() {
        let gates = [
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rx(0.7),
            Gate::Ry(-1.3),
            Gate::Rz(2.1),
            Gate::P(0.4),
            Gate::U(0.5, 1.0, 1.5),
            Gate::Cx,
            Gate::Cp(1.1),
            Gate::Swap,
            Gate::Ccx,
        ];
        for g in gates {
            let m = g.matrix();
            let inv = g.inverse().matrix();
            let prod = m.matmul(&inv);
            let n = prod.rows();
            assert!(
                prod.approx_eq_up_to_phase(&CMatrix::identity(n), 1e-10),
                "{g} inverse wrong"
            );
        }
    }

    #[test]
    fn u_gate_inverse_exact() {
        // U(θ,φ,λ)⁻¹ = U(-θ,-λ,-φ), exactly (not only up to phase).
        let g = Gate::U(0.9, 0.3, 1.7);
        let prod = g.matrix().matmul(&g.inverse().matrix());
        assert!(prod.approx_eq(&CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn fault_shift_reference_lines() {
        // Fig. 5 reference lines: X/Y at θ=π, Z/S/T at φ=π, π/2, π/4.
        assert_eq!(Gate::X.as_fault_shift(), Some((PI, 0.0)));
        assert_eq!(Gate::Z.as_fault_shift(), Some((0.0, PI)));
        assert_eq!(Gate::T.as_fault_shift(), Some((0.0, PI / 4.0)));
        assert_eq!(Gate::H.as_fault_shift(), None);
    }

    #[test]
    fn names_are_qasm_spellings() {
        assert_eq!(Gate::Cx.name(), "cx");
        assert_eq!(Gate::U(0.0, 0.0, 0.0).name(), "u");
        assert_eq!(Gate::Sdg.name(), "sdg");
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(1.5).to_string().starts_with("rz(1.5"));
        assert!(Gate::U(1.0, 2.0, 3.0).to_string().contains(','));
    }

    #[test]
    fn ccx_flips_target_only_when_controls_set() {
        let m = Gate::Ccx.matrix();
        // |110> (controls q_a=1, q_b=1, target 0) -> |111>
        assert!(m[(7, 6)].approx_eq(qufi_math::Complex::ONE, 1e-15));
        // |100> stays.
        assert!(m[(4, 4)].approx_eq(qufi_math::Complex::ONE, 1e-15));
    }
}
