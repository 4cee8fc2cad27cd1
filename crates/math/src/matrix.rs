//! Small dense complex matrices.
//!
//! Gate unitaries are 2×2 or 4×4; density matrices for the circuits in this
//! reproduction are at most 256×256 (8 qubits). A row-major `Vec<Complex>`
//! with straightforward O(n³) multiplication is both simple and fast enough:
//! the simulators never multiply full-system matrices in hot paths (they apply
//! local gates index-wise), so this type is used for construction, validation
//! and testing.

use crate::complex::Complex;
use core::fmt;
use core::ops::{Index, IndexMut};
use std::f64::consts::FRAC_1_SQRT_2;

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use qufi_math::CMatrix;
///
/// let x = CMatrix::pauli_x();
/// let z = CMatrix::pauli_z();
/// // XZ = -ZX  (anticommutation)
/// let xz = x.matmul(&z);
/// let zx = z.matmul(&x);
/// assert!(xz.approx_eq(&zx.scale_real(-1.0), 1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        CMatrix { rows, cols, data }
    }

    /// Builds a 2×2 matrix from row-major entries.
    pub fn from_2x2(a: Complex, b: Complex, c: Complex, d: Complex) -> Self {
        CMatrix::from_vec(2, 2, vec![a, b, c, d])
    }

    /// Builds a matrix from row-major real entries.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        CMatrix::from_vec(rows, cols, data.iter().map(|&x| Complex::real(x)).collect())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not match.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} . {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![Complex::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = Complex::ZERO;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        CMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex) -> CMatrix {
        CMatrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&z| z * k).collect(),
        )
    }

    /// Scales every entry by a real factor.
    pub fn scale_real(&self, k: f64) -> CMatrix {
        self.scale(Complex::real(k))
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Trace `Σ aᵢᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert_eq!(self.rows, self.cols, "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `true` when `A†A ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.adjoint()
            .matmul(self)
            .approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, rhs: &CMatrix, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }

    /// Equality up to a global phase: `true` when there exists a unit phasor
    /// `e^{iα}` with `self ≈ e^{iα}·rhs`.
    ///
    /// This is the right notion of equality for quantum gate matrices, where
    /// the global phase is unobservable.
    pub fn approx_eq_up_to_phase(&self, rhs: &CMatrix, tol: f64) -> bool {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return false;
        }
        // Find the largest entry of rhs to fix the phase reference.
        let mut best = 0usize;
        let mut best_norm = 0.0f64;
        for (idx, z) in rhs.data.iter().enumerate() {
            let n = z.norm_sqr();
            if n > best_norm {
                best_norm = n;
                best = idx;
            }
        }
        if best_norm < tol * tol {
            // rhs is (numerically) zero: compare directly.
            return self.approx_eq(rhs, tol);
        }
        if self.data[best].norm_sqr() < tol * tol {
            return false;
        }
        let phase = self.data[best] / rhs.data[best];
        // The ratio must be a unit phasor.
        if (phase.norm() - 1.0).abs() > 10.0 * tol {
            return false;
        }
        self.approx_eq(&rhs.scale(phase), tol)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    // ---- Common quantum gate matrices (2×2 and 4×4) ----

    /// Hadamard gate.
    pub fn hadamard() -> CMatrix {
        let s = FRAC_1_SQRT_2;
        CMatrix::from_real(2, 2, &[s, s, s, -s])
    }

    /// Pauli-X (bit-flip) gate.
    pub fn pauli_x() -> CMatrix {
        CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    /// Pauli-Y gate.
    pub fn pauli_y() -> CMatrix {
        CMatrix::from_2x2(Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO)
    }

    /// Pauli-Z (phase-flip) gate.
    pub fn pauli_z() -> CMatrix {
        CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    /// The generic IBM `U(θ, φ, λ)` gate — Eq. (3) of the QuFI paper:
    ///
    /// ```text
    /// U = [ cos(θ/2)            -e^{iλ}   sin(θ/2) ]
    ///     [ e^{iφ} sin(θ/2)      e^{i(φ+λ)} cos(θ/2) ]
    /// ```
    pub fn u_gate(theta: f64, phi: f64, lambda: f64) -> CMatrix {
        let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
        CMatrix::u_gate_from_trig(s, c, phi, lambda)
    }

    /// [`CMatrix::u_gate`] with `sin(θ/2)`/`cos(θ/2)` supplied by the
    /// caller. The batched grid-replay engine hoists the trig pair out of
    /// runs of θ-identical grid cells; because `u_gate` delegates here, a
    /// hoisted matrix is bit-identical to a freshly constructed one.
    pub fn u_gate_from_trig(s: f64, c: f64, phi: f64, lambda: f64) -> CMatrix {
        CMatrix::from_2x2(
            Complex::real(c),
            -Complex::cis(lambda) * s,
            Complex::cis(phi) * s,
            Complex::cis(phi + lambda) * c,
        )
    }

    /// `RZ(λ) = diag(e^{-iλ/2}, e^{iλ/2})`.
    pub fn rz(lambda: f64) -> CMatrix {
        CMatrix::from_2x2(
            Complex::cis(-lambda / 2.0),
            Complex::ZERO,
            Complex::ZERO,
            Complex::cis(lambda / 2.0),
        )
    }

    /// `RY(θ)` rotation about the Y axis.
    pub fn ry(theta: f64) -> CMatrix {
        let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
        CMatrix::from_real(2, 2, &[c, -s, s, c])
    }

    /// `RX(θ)` rotation about the X axis.
    pub fn rx(theta: f64) -> CMatrix {
        let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
        CMatrix::from_2x2(
            Complex::real(c),
            Complex::new(0.0, -s),
            Complex::new(0.0, -s),
            Complex::real(c),
        )
    }

    /// Square root of X (the IBM native `sx` gate).
    pub fn sx() -> CMatrix {
        let half = 0.5;
        CMatrix::from_2x2(
            Complex::new(half, half),
            Complex::new(half, -half),
            Complex::new(half, -half),
            Complex::new(half, half),
        )
    }

    /// Phase gate `P(λ) = diag(1, e^{iλ})`.
    pub fn phase(lambda: f64) -> CMatrix {
        CMatrix::from_2x2(
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::cis(lambda),
        )
    }

    /// CNOT with control on the *first* tensor factor.
    pub fn cnot() -> CMatrix {
        CMatrix::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 1.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
        )
    }

    /// Controlled-Z.
    pub fn cz() -> CMatrix {
        CMatrix::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, 0.0, 0.0, -1.0,
            ],
        )
    }

    /// SWAP gate.
    pub fn swap() -> CMatrix {
        CMatrix::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 1.0,
            ],
        )
    }

    /// Controlled-phase gate `CP(λ)`.
    pub fn cphase(lambda: f64) -> CMatrix {
        let mut m = CMatrix::identity(4);
        m[(3, 3)] = Complex::cis(lambda);
        m
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_is_multiplicative_unit() {
        let h = CMatrix::hadamard();
        assert!(h.matmul(&CMatrix::identity(2)).approx_eq(&h, 1e-14));
        assert!(CMatrix::identity(2).matmul(&h).approx_eq(&h, 1e-14));
    }

    #[test]
    fn standard_gates_are_unitary() {
        for m in [
            CMatrix::hadamard(),
            CMatrix::pauli_x(),
            CMatrix::pauli_y(),
            CMatrix::pauli_z(),
            CMatrix::sx(),
            CMatrix::phase(0.3),
            CMatrix::rz(1.1),
            CMatrix::ry(2.2),
            CMatrix::rx(0.4),
            CMatrix::u_gate(0.7, 1.9, 0.2),
            CMatrix::cnot(),
            CMatrix::cz(),
            CMatrix::swap(),
            CMatrix::cphase(0.9),
        ] {
            assert!(m.is_unitary(1e-12), "not unitary: {m:?}");
        }
    }

    #[test]
    fn u_gate_recovers_named_gates() {
        // U(π, 0, π) = X
        assert!(CMatrix::u_gate(PI, 0.0, PI).approx_eq(&CMatrix::pauli_x(), 1e-12));
        // U(π, π/2, π/2) = Y
        assert!(CMatrix::u_gate(PI, FRAC_PI_2, FRAC_PI_2).approx_eq(&CMatrix::pauli_y(), 1e-12));
        // U(0, 0, λ) = P(λ)
        assert!(CMatrix::u_gate(0.0, 0.0, 0.7).approx_eq(&CMatrix::phase(0.7), 1e-12));
        // U(π/2, 0, π) = H
        assert!(CMatrix::u_gate(FRAC_PI_2, 0.0, PI).approx_eq(&CMatrix::hadamard(), 1e-12));
    }

    #[test]
    fn phase_vs_rz_differ_by_global_phase() {
        let p = CMatrix::phase(0.8);
        let rz = CMatrix::rz(0.8);
        assert!(!p.approx_eq(&rz, 1e-12));
        assert!(p.approx_eq_up_to_phase(&rz, 1e-12));
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = CMatrix::sx();
        assert!(sx.matmul(&sx).approx_eq(&CMatrix::pauli_x(), 1e-12));
    }

    #[test]
    fn kron_shapes_and_values() {
        let id2 = CMatrix::identity(2);
        let x = CMatrix::pauli_x();
        let ix = id2.kron(&x);
        assert_eq!(ix.rows(), 4);
        // I ⊗ X swaps within each 2-block.
        assert!(ix[(0, 1)].approx_eq(Complex::ONE, 1e-15));
        assert!(ix[(2, 3)].approx_eq(Complex::ONE, 1e-15));
        assert!(ix[(0, 2)].approx_eq(Complex::ZERO, 1e-15));
    }

    #[test]
    fn trace_of_pauli_is_zero() {
        for m in [CMatrix::pauli_x(), CMatrix::pauli_y(), CMatrix::pauli_z()] {
            assert!(m.trace().approx_eq(Complex::ZERO, 1e-15));
        }
        assert!(CMatrix::identity(4)
            .trace()
            .approx_eq(Complex::real(4.0), 1e-15));
    }

    #[test]
    fn matvec_matches_matmul() {
        let u = CMatrix::u_gate(0.3, 0.9, 1.2);
        let v = vec![Complex::new(0.6, 0.1), Complex::new(-0.3, 0.7)];
        let as_mat = CMatrix::from_vec(2, 1, v.clone());
        let prod = u.matmul(&as_mat);
        let direct = u.matvec(&v);
        assert!(prod[(0, 0)].approx_eq(direct[0], 1e-13));
        assert!(prod[(1, 0)].approx_eq(direct[1], 1e-13));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn cnot_action_on_basis() {
        let cx = CMatrix::cnot();
        // |10> -> |11>
        let v = vec![Complex::ZERO, Complex::ZERO, Complex::ONE, Complex::ZERO];
        let out = cx.matvec(&v);
        assert!(out[3].approx_eq(Complex::ONE, 1e-15));
    }
}
