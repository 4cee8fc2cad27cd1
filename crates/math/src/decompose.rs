//! Euler-angle (ZYZ) decomposition of 2×2 unitaries.
//!
//! Any single-qubit unitary `U` can be written as
//! `U = e^{iα} · RZ(φ) · RY(θ) · RZ(λ)`.
//! The transpiler uses this to collapse runs of single-qubit gates into one
//! `U(θ, φ, λ)` gate and to translate into the IBM native basis
//! `{rz, sx, x, cx}` (via `U(θ,φ,λ) = e^{iγ} RZ(φ+π)·SX·RZ(θ+π)·SX·RZ(λ)`).

use crate::complex::Complex;
use crate::matrix::CMatrix;
use std::f64::consts::PI;

/// The result of a ZYZ decomposition: `U = e^{iα}·RZ(φ)·RY(θ)·RZ(λ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZyzAngles {
    /// Global phase α.
    pub alpha: f64,
    /// Middle RY rotation angle θ ∈ [0, π].
    pub theta: f64,
    /// Leading RZ angle φ.
    pub phi: f64,
    /// Trailing RZ angle λ.
    pub lambda: f64,
}

impl ZyzAngles {
    /// Reconstructs the unitary `e^{iα}·RZ(φ)·RY(θ)·RZ(λ)`.
    pub fn to_matrix(self) -> CMatrix {
        CMatrix::rz(self.phi)
            .matmul(&CMatrix::ry(self.theta))
            .matmul(&CMatrix::rz(self.lambda))
            .scale(Complex::cis(self.alpha))
    }

    /// The same unitary expressed as a `U(θ, φ, λ)` gate plus a global phase.
    ///
    /// `U(θ,φ,λ) = e^{i(φ+λ)/2} RZ(φ) RY(θ) RZ(λ)`, so the U-gate global
    /// phase is `α − (φ+λ)/2`.
    pub fn u_gate_phase(self) -> f64 {
        self.alpha - (self.phi + self.lambda) / 2.0
    }
}

/// Decomposes an arbitrary 2×2 unitary into ZYZ Euler angles.
///
/// # Panics
///
/// Panics if `u` is not 2×2 or deviates from unitarity by more than `1e-6`.
///
/// # Example
///
/// ```
/// use qufi_math::{zyz_decompose, CMatrix};
///
/// let u = CMatrix::u_gate(0.7, 1.1, 2.3);
/// let angles = zyz_decompose(&u);
/// assert!(angles.to_matrix().approx_eq(&u, 1e-10));
/// ```
pub fn zyz_decompose(u: &CMatrix) -> ZyzAngles {
    assert_eq!(
        (u.rows(), u.cols()),
        (2, 2),
        "zyz_decompose needs 2x2 input"
    );
    assert!(u.is_unitary(1e-6), "zyz_decompose needs a unitary matrix");

    // Remove the global phase: det(U) = e^{2iα} for U = e^{iα}·SU(2).
    let det = u[(0, 0)] * u[(1, 1)] - u[(0, 1)] * u[(1, 0)];
    let alpha = det.arg() / 2.0;
    let su = u.scale(Complex::cis(-alpha));

    // SU(2) form:
    //   [  cos(θ/2) e^{-i(φ+λ)/2}   -sin(θ/2) e^{-i(φ-λ)/2} ]
    //   [  sin(θ/2) e^{ i(φ-λ)/2}    cos(θ/2) e^{ i(φ+λ)/2} ]
    let c = su[(0, 0)].norm().clamp(0.0, 1.0);
    let s = su[(1, 0)].norm().clamp(0.0, 1.0);
    let theta = 2.0 * s.atan2(c);

    let (phi, lambda) = if s < 1e-12 {
        // θ ≈ 0: only φ+λ is defined; put everything in λ.
        let sum = 2.0 * su[(1, 1)].arg();
        (0.0, sum)
    } else if c < 1e-12 {
        // θ ≈ π: only φ−λ is defined; put everything in φ.
        let diff = 2.0 * su[(1, 0)].arg();
        (diff, 0.0)
    } else {
        let sum = 2.0 * su[(1, 1)].arg(); // φ + λ
        let diff = 2.0 * su[(1, 0)].arg(); // φ − λ
        ((sum + diff) / 2.0, (sum - diff) / 2.0)
    };

    let angles = ZyzAngles {
        alpha,
        theta,
        phi,
        lambda,
    };
    debug_assert!(
        angles.to_matrix().approx_eq(u, 1e-8),
        "zyz reconstruction failed for {u:?} -> {angles:?}"
    );
    angles
}

/// Normalizes an angle into `(-π, π]`.
pub fn normalize_angle(a: f64) -> f64 {
    let mut a = a % (2.0 * PI);
    if a <= -PI {
        a += 2.0 * PI;
    } else if a > PI {
        a -= 2.0 * PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    fn check_roundtrip(u: &CMatrix) {
        let a = zyz_decompose(u);
        assert!(
            a.to_matrix().approx_eq(u, 1e-9),
            "roundtrip failed: {u:?} vs {:?}",
            a.to_matrix()
        );
        assert!((0.0..=PI + 1e-9).contains(&a.theta), "theta out of range");
    }

    #[test]
    fn decomposes_named_gates() {
        for u in [
            CMatrix::identity(2),
            CMatrix::hadamard(),
            CMatrix::pauli_x(),
            CMatrix::pauli_y(),
            CMatrix::pauli_z(),
            CMatrix::sx(),
            CMatrix::phase(FRAC_PI_4),
            CMatrix::phase(FRAC_PI_2),
        ] {
            check_roundtrip(&u);
        }
    }

    #[test]
    fn decomposes_u_gate_grid() {
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..4 {
                    let u = CMatrix::u_gate(
                        PI * i as f64 / 7.0,
                        2.0 * PI * j as f64 / 8.0,
                        PI * k as f64 / 4.0,
                    );
                    check_roundtrip(&u);
                }
            }
        }
    }

    #[test]
    fn u_gate_phase_relation_holds() {
        let u = CMatrix::u_gate(1.2, 0.4, 2.7);
        let a = zyz_decompose(&u);
        let rebuilt =
            CMatrix::u_gate(a.theta, a.phi, a.lambda).scale(Complex::cis(a.u_gate_phase()));
        assert!(rebuilt.approx_eq(&u, 1e-9));
    }

    #[test]
    fn normalize_angle_wraps() {
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(FRAC_PI_2) - FRAC_PI_2).abs() < 1e-15);
        assert!(normalize_angle(2.0 * PI).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unitary")]
    fn rejects_non_unitary() {
        let m = CMatrix::from_real(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let _ = zyz_decompose(&m);
    }
}
