//! Exact mixed-state (density-matrix) simulation.
//!
//! This engine implements the paper's scenario (2): "simulation of a physical
//! machine, tuning the noise over which the fault is injected". Noise enters
//! as Kraus channels (built by `qufi-noise`); unitary gates and the fault
//! injector's `U(θ,φ,0)` gate evolve the state as `ρ ↦ UρU†`.
//!
//! For the paper's circuit sizes (4–7 qubits) the density matrix is at most
//! `128 × 128`, so one evolution yields the **exact** output distribution —
//! equivalent to the 1024-shot Qiskit estimate in expectation, with zero
//! sampling variance.

use crate::circuit::{Op, QuantumCircuit};
use crate::counts::ProbDist;
use crate::error::SimError;
use crate::gate::Gate;
use crate::kernel::{apply_matrix_on_bits, MAX_KERNEL_QUBITS};
use crate::statevector::Statevector;
use crate::workspace::EvolutionWorkspace;
use qufi_math::{CMatrix, Complex};

/// Maximum register width for the density-matrix engine (2^12 × 2^12
/// entries ≈ 256 MiB).
pub const MAX_QUBITS: usize = 12;

/// A density matrix over `n` qubits, stored row-major with dimension `2^n`.
///
/// # Example
///
/// ```
/// use qufi_sim::{DensityMatrix, QuantumCircuit};
///
/// let mut qc = QuantumCircuit::new(2, 2);
/// qc.h(0).cx(0, 1).measure_all();
/// let mut rho = DensityMatrix::new(2).unwrap();
/// rho.run_circuit(&qc);
/// let d = rho.measurement_distribution(&qc);
/// assert!((d.prob_of("11") - 0.5).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12); // no noise applied
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    data: Vec<Complex>,
    n: usize,
    dim: usize,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above [`MAX_QUBITS`].
    pub fn new(n: usize) -> Result<Self, SimError> {
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n,
                max: MAX_QUBITS,
            });
        }
        let dim = 1usize << n;
        let mut data = vec![Complex::ZERO; dim * dim];
        data[0] = Complex::ONE;
        Ok(DensityMatrix { data, n, dim })
    }

    /// The projector onto a pure state.
    pub fn from_statevector(sv: &Statevector) -> Self {
        let n = sv.num_qubits();
        let dim = 1usize << n;
        let mut data = vec![Complex::ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = sv.amp(i) * sv.amp(j).conj();
            }
        }
        DensityMatrix { data, n, dim }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Matrix dimension (`2^n`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry `ρ[i][j]`.
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> Complex {
        self.data[i * self.dim + j]
    }

    /// Applies a unitary gate: `ρ ↦ UρU†`.
    ///
    /// # Panics
    ///
    /// Panics on operand arity mismatch or out-of-range qubits.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "operand arity mismatch");
        self.apply_unitary(&gate.matrix(), qubits);
    }

    /// Applies an arbitrary unitary matrix over the listed qubits.
    ///
    /// Allocation-free: ρ (row-major) is treated as a statevector over `2n`
    /// flat bits — row bit `q` is flat bit `n + q`, column bit `q` is flat
    /// bit `q` — and the two sides of `ρ ↦ UρU†` become two in-place kernel
    /// passes.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn apply_unitary(&mut self, u: &CMatrix, qubits: &[usize]) {
        Self::unitary_passes(&mut self.data, self.n, u, qubits);
    }

    /// The two kernel passes of `ρ ↦ UρU†` over a raw `4^n` buffer (shared
    /// by [`DensityMatrix::apply_unitary`] and the Kraus accumulator, which
    /// transforms a scratch buffer instead of `self.data`).
    fn unitary_passes(data: &mut [Complex], n: usize, u: &CMatrix, qubits: &[usize]) {
        let k = qubits.len();
        let mut row_positions = [0usize; MAX_KERNEL_QUBITS];
        for (slot, &q) in row_positions.iter_mut().zip(qubits) {
            assert!(q < n, "qubit {q} out of range for width {n}");
            *slot = n + q;
        }
        // Row pass: ρ ← U ρ.
        apply_matrix_on_bits(data, u.as_slice(), &row_positions[..k], 2 * n, false);
        // Column pass: ρ ← ρ U† (conjugated entries on the column bits).
        apply_matrix_on_bits(data, u.as_slice(), qubits, 2 * n, true);
    }

    /// Applies a completely-positive map given by Kraus operators:
    /// `ρ ↦ Σₖ Kₖ ρ Kₖ†`.
    ///
    /// # Panics
    ///
    /// Panics if the operators are not square over `2^|qubits|` dimensions or
    /// the channel is empty.
    pub fn apply_kraus(&mut self, kraus: &[CMatrix], qubits: &[usize]) {
        let mut ws = EvolutionWorkspace::new();
        self.apply_kraus_with(kraus, qubits, &mut ws);
    }

    /// [`DensityMatrix::apply_kraus`] with caller-owned scratch buffers:
    /// each Kraus term is evolved in the workspace's term buffer and
    /// accumulated into its accumulator, so a reused workspace makes
    /// repeated channel application free of steady-state allocations.
    /// Results are bit-identical to [`DensityMatrix::apply_kraus`].
    ///
    /// # Panics
    ///
    /// Panics if the operators are not square over `2^|qubits|` dimensions
    /// or the channel is empty.
    pub fn apply_kraus_with(
        &mut self,
        kraus: &[CMatrix],
        qubits: &[usize],
        ws: &mut EvolutionWorkspace,
    ) {
        assert!(!kraus.is_empty(), "empty Kraus channel");
        let k_dim = 1usize << qubits.len();
        for k in kraus {
            assert_eq!(
                (k.rows(), k.cols()),
                (k_dim, k_dim),
                "Kraus operator shape mismatch"
            );
        }
        let len = self.data.len();
        ws.ensure(len);
        let (term, acc) = (&mut ws.term[..len], &mut ws.acc[..len]);
        acc.fill(Complex::ZERO);
        for k in kraus {
            term.copy_from_slice(&self.data);
            Self::unitary_passes(term, self.n, k, qubits);
            for (a, t) in acc.iter_mut().zip(term.iter()) {
                *a += *t;
            }
        }
        self.data.copy_from_slice(acc);
    }

    /// Applies a channel given as a **superoperator** — a `4^k × 4^k` matrix
    /// `S[(a,b),(c,d)] = Σₖ Kₖ[a,c]·K̄ₖ[b,d]` acting on vectorized density
    /// matrices — in a single strided pass.
    ///
    /// This is algebraically identical to [`DensityMatrix::apply_kraus`] but
    /// roughly `2·|Kraus set|` times cheaper, which matters in
    /// fault-injection campaigns running hundreds of thousands of noisy
    /// evolutions.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `4^k × 4^k` for `k = qubits.len()` or a
    /// qubit is out of range.
    pub fn apply_superoperator(&mut self, s: &CMatrix, qubits: &[usize]) {
        let k = qubits.len();
        assert_eq!(s.rows(), 1 << (2 * k), "superoperator size mismatch");
        // Treat ρ (row-major) as a statevector over 2n "qubits": row bit q of
        // ρ is flat bit n+q, column bit q is flat bit q. The superoperator
        // index convention (a = row bits as the most significant group)
        // matches the kernel's first-operand-most-significant rule when the
        // combined operand list is [row qubits..., column qubits...].
        let mut combined = [0usize; MAX_KERNEL_QUBITS];
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
            combined[i] = self.n + q;
            combined[k + i] = q;
        }
        apply_matrix_on_bits(
            &mut self.data,
            s.as_slice(),
            &combined[..2 * k],
            2 * self.n,
            false,
        );
    }

    /// Runs the unitary part of a circuit (barriers/measurements skipped).
    pub fn run_circuit(&mut self, qc: &QuantumCircuit) {
        for op in qc.instructions() {
            if let Op::Gate { gate, qubits } = op {
                self.apply_gate(*gate, qubits);
            }
        }
    }

    /// Born-rule probabilities over all qubits: the diagonal of `ρ`.
    pub fn probabilities(&self) -> ProbDist {
        ProbDist::from_probs((0..self.dim).map(|i| self.entry(i, i).re).collect(), self.n)
    }

    /// Distribution over classical bits after measurement (marginalized
    /// through the circuit's measurement map; full qubit distribution when
    /// the circuit has no measurements).
    pub fn measurement_distribution(&self, qc: &QuantumCircuit) -> ProbDist {
        let map = qc.measurement_map();
        if map.is_empty() {
            return self.probabilities();
        }
        self.probabilities().marginalize(&map, qc.num_clbits())
    }

    /// Trace `Tr ρ` (1 for a trace-preserving evolution).
    pub fn trace(&self) -> Complex {
        (0..self.dim).map(|i| self.entry(i, i)).sum()
    }

    /// Purity `Tr ρ²` — 1 for pure states, `1/2^n` for the maximally mixed
    /// state. Noise strictly decreases it.
    pub fn purity(&self) -> f64 {
        // Tr ρ² = Σ_{ij} ρ_ij ρ_ji = Σ_{ij} |ρ_ij|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` with a pure reference state.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn fidelity_pure(&self, psi: &Statevector) -> f64 {
        assert_eq!(psi.num_qubits(), self.n, "width mismatch");
        let mut acc = Complex::ZERO;
        for i in 0..self.dim {
            for j in 0..self.dim {
                acc += psi.amp(i).conj() * self.entry(i, j) * psi.amp(j);
            }
        }
        acc.re
    }

    /// Raw row-major buffer — the batched replay engine broadcasts it into
    /// a cell-major block.
    pub(crate) fn raw(&self) -> &[Complex] {
        &self.data
    }

    /// `true` when `ρ ≈ ρ†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        for i in 0..self.dim {
            for j in 0..=i {
                if !self.entry(i, j).approx_eq(self.entry(j, i).conj(), tol) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn bell() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).cx(0, 1).measure_all();
        qc
    }

    #[test]
    fn pure_evolution_matches_statevector() {
        let mut qc = QuantumCircuit::new(3, 0);
        qc.h(0)
            .cx(0, 1)
            .t(1)
            .ry(0.7, 2)
            .cx(1, 2)
            .u(0.3, 1.1, 2.2, 0);
        let sv = Statevector::from_circuit(&qc).unwrap();
        let mut rho = DensityMatrix::new(3).unwrap();
        rho.run_circuit(&qc);
        assert!(rho.probabilities().tv_distance(&sv.probabilities()) < 1e-10);
        assert!((rho.fidelity_pure(&sv) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_statevector_is_projector() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let sv = Statevector::from_circuit(&qc).unwrap();
        let rho = DensityMatrix::from_statevector(&sv);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.is_hermitian(1e-12));
    }

    #[test]
    fn bell_distribution() {
        let qc = bell();
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.run_circuit(&qc);
        let d = rho.measurement_distribution(&qc);
        assert!((d.prob_of("00") - 0.5).abs() < 1e-12);
        assert!((d.prob_of("11") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_kraus_mixes_state() {
        // Full depolarizing on 1 qubit: ρ -> I/2.
        let p: f64 = 1.0;
        let k = vec![
            CMatrix::identity(2).scale_real((1.0 - 3.0 * p / 4.0).sqrt()),
            CMatrix::pauli_x().scale_real((p / 4.0).sqrt()),
            CMatrix::pauli_y().scale_real((p / 4.0).sqrt()),
            CMatrix::pauli_z().scale_real((p / 4.0).sqrt()),
        ];
        let mut rho = DensityMatrix::new(1).unwrap();
        rho.apply_kraus(&k, &[0]);
        assert!((rho.entry(0, 0).re - 0.5).abs() < 1e-12);
        assert!((rho.entry(1, 1).re - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kraus_preserves_trace_on_entangled_state() {
        let qc = bell();
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.run_circuit(&qc);
        // Amplitude damping on qubit 1.
        let g: f64 = 0.3;
        let k = vec![
            CMatrix::from_2x2(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::real((1.0 - g).sqrt()),
            ),
            CMatrix::from_2x2(
                Complex::ZERO,
                Complex::real(g.sqrt()),
                Complex::ZERO,
                Complex::ZERO,
            ),
        ];
        rho.apply_kraus(&k, &[1]);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.is_hermitian(1e-12));
        assert!(rho.purity() < 1.0);
        // Damping moves mass from |11> toward |01>.
        let p = rho.probabilities();
        assert!(p.prob(0b01) > 0.0);
        assert!(p.prob(0b11) < 0.5);
    }

    #[test]
    fn unitary_preserves_purity_kraus_decreases_it() {
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.apply_gate(Gate::H, &[0]);
        rho.apply_gate(Gate::Cx, &[0, 1]);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        let p: f64 = 0.2;
        let k = vec![
            CMatrix::identity(2).scale_real((1.0 - p).sqrt()),
            CMatrix::pauli_z().scale_real(p.sqrt()),
        ];
        rho.apply_kraus(&k, &[0]);
        assert!(rho.purity() < 1.0 - 1e-6);
    }

    #[test]
    fn fault_injection_as_u_gate_changes_distribution() {
        // The Fig. 4 scenario in miniature: a θ=π/4 shift alters output
        // probabilities of an H-H identity.
        let mut clean = QuantumCircuit::new(1, 1);
        clean.h(0).h(0).measure(0, 0);
        let mut faulty = QuantumCircuit::new(1, 1);
        faulty.h(0).u(PI / 4.0, 0.0, 0.0, 0).h(0).measure(0, 0);

        let mut r1 = DensityMatrix::new(1).unwrap();
        r1.run_circuit(&clean);
        let mut r2 = DensityMatrix::new(1).unwrap();
        r2.run_circuit(&faulty);
        let d1 = r1.measurement_distribution(&clean);
        let d2 = r2.measurement_distribution(&faulty);
        assert!((d1.prob_of("0") - 1.0).abs() < 1e-12);
        assert!(d2.prob_of("0") < 1.0 - 1e-3);
        assert!(d2.prob_of("0") > 0.5);
    }

    #[test]
    fn superoperator_matches_kraus() {
        // Amplitude damping as explicit Kraus set and as a superoperator.
        let g: f64 = 0.35;
        let kraus = vec![
            CMatrix::from_2x2(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::real((1.0 - g).sqrt()),
            ),
            CMatrix::from_2x2(
                Complex::ZERO,
                Complex::real(g.sqrt()),
                Complex::ZERO,
                Complex::ZERO,
            ),
        ];
        let mut s = CMatrix::zeros(4, 4);
        for k in &kraus {
            for a in 0..2 {
                for b in 0..2 {
                    for c in 0..2 {
                        for d in 0..2 {
                            s[(a * 2 + b, c * 2 + d)] += k[(a, c)] * k[(b, d)].conj();
                        }
                    }
                }
            }
        }
        let mut qc = QuantumCircuit::new(3, 0);
        qc.h(0).cx(0, 1).t(1).ry(0.4, 2).cx(1, 2);
        let mut r1 = DensityMatrix::new(3).unwrap();
        r1.run_circuit(&qc);
        let mut r2 = r1.clone();
        for q in [0usize, 1, 2] {
            r1.apply_kraus(&kraus, &[q]);
            r2.apply_superoperator(&s, &[q]);
        }
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    r1.entry(i, j).approx_eq(r2.entry(i, j), 1e-12),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(DensityMatrix::new(MAX_QUBITS + 1).is_err());
    }

    #[test]
    fn marginalized_measurement_with_partial_map() {
        let mut qc = QuantumCircuit::new(3, 2);
        qc.x(2).h(0);
        qc.measure(2, 1).measure(0, 0);
        let mut rho = DensityMatrix::new(3).unwrap();
        rho.run_circuit(&qc);
        let d = rho.measurement_distribution(&qc);
        // clbit1 (qubit2) always 1; clbit0 (qubit0) is 50/50.
        assert!((d.prob_of("10") - 0.5).abs() < 1e-12);
        assert!((d.prob_of("11") - 0.5).abs() < 1e-12);
    }
}
