//! Batched (cell-major) state containers for the grid replay engine.
//!
//! A fault-grid sweep replays the same suffix gate sequence over many forked
//! copies of one parked prefix state — one copy per (θ, φ) cell. This module
//! lays `width ≤` [`MAX_BATCH_CELLS`] such copies out as columns of a single
//! split-complex matrix (flat index `amp · width + cell`, real and imaginary
//! parts in separate `f64` buffers) so each suffix gate's index arithmetic is
//! computed once and its arithmetic runs in stride-1 loops *across cells*.
//!
//! **Bit compatibility is the load-bearing invariant**: a cell evolved inside
//! a batch goes through exactly the per-cell operation sequence of the scalar
//! [`Statevector`] / [`DensityMatrix`] engines (see `kernel.rs`), so
//! extracting any cell's distribution is bit-identical to replaying that cell
//! alone. The engine layer relies on this to keep batched campaign exports
//! byte-identical to the scalar path at any batch width.
//!
//! A replay that reads ρ only through its diagonal need not compute every
//! entry. [`ObservedMask::backward_from_diagonal`] gives each operation of
//! such a replay the qubits whose row and column bits may still differ in
//! an entry that reaches the readout, and the `*_masked` methods of
//! [`BatchedDensity`] skip the amplitude groups outside it. The diagonal
//! stays bit-identical to the unmasked replay (see `kernel.rs`).

use crate::circuit::QuantumCircuit;
use crate::counts::ProbDist;
use crate::density::DensityMatrix;
use crate::gate::Gate;
use crate::kernel::{
    batch_apply_1q_per_cell, batch_apply_matrix_on_bits, Observed, MAX_KERNEL_QUBITS,
};
use crate::statevector::Statevector;
use qufi_math::{CMatrix, Complex};

/// Largest supported batch width (cells per block).
pub const MAX_BATCH_CELLS: usize = crate::kernel::MAX_BATCH_CELLS;

/// The shared cell-major split-complex buffer: `width` states of `1 << m`
/// amplitudes each, amplitude-major × cell-minor.
#[derive(Debug, Clone)]
struct CellBlock {
    re: Vec<f64>,
    im: Vec<f64>,
    width: usize,
}

impl CellBlock {
    fn broadcast(amps: &[Complex], width: usize) -> Self {
        assert!(
            (1..=MAX_BATCH_CELLS).contains(&width),
            "batch width must be 1..={MAX_BATCH_CELLS}"
        );
        let mut re = vec![0.0f64; amps.len() * width];
        let mut im = vec![0.0f64; amps.len() * width];
        for (a, z) in amps.iter().enumerate() {
            re[a * width..(a + 1) * width].fill(z.re);
            im[a * width..(a + 1) * width].fill(z.im);
        }
        CellBlock { re, im, width }
    }

    #[inline]
    fn at(&self, amp: usize, cell: usize) -> (f64, f64) {
        let i = amp * self.width + cell;
        (self.re[i], self.im[i])
    }
}

/// Packs one 2×2 matrix per cell into the element-major split layout the
/// per-cell kernel consumes (entry `e` of cell `c` at `e · width + c`).
fn pack_per_cell_1q(us: &[CMatrix], width: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(us.len(), width, "one matrix per cell");
    let mut u_re = vec![0.0f64; 4 * width];
    let mut u_im = vec![0.0f64; 4 * width];
    for (c, u) in us.iter().enumerate() {
        let s = u.as_slice();
        assert_eq!(s.len(), 4, "per-cell matrices must be 2×2");
        for (e, z) in s.iter().enumerate() {
            u_re[e * width + c] = z.re;
            u_im[e * width + c] = z.im;
        }
    }
    (u_re, u_im)
}

/// The qubits of one batched density operation whose row and column bits
/// may differ in an entry it must compute: bit `q` for qubit `q`.
///
/// An operation applied with mask `M` computes every entry whose row and
/// column agree on each qubit outside `M`, and may leave the others at
/// earlier values. A mask must contain the operation's own operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedMask(u64);

impl ObservedMask {
    /// Every entry observed: what the unmasked methods compute.
    const ALL: ObservedMask = ObservedMask(u64::MAX);

    /// One mask per operation of a replay whose result is read only through
    /// ρ's diagonal, from the operations' operand qubits in application
    /// order.
    ///
    /// Walking backward from the readout, `D` starts empty — the diagonal
    /// is the entries whose row and column agree on every qubit — and each
    /// operation `T` gets `D ∪ T`, which then becomes `D` for the operation
    /// before it. An entry `(r, c)` with `(r ⊕ c) ∩ D = ∅` after `T` is
    /// computed from entries that differ from it only in `T`'s bits, so
    /// `D ∪ T` is exactly what `T` needs computed before it.
    ///
    /// # Panics
    ///
    /// Panics on a qubit index of 64 or more.
    pub fn backward_from_diagonal<'a, I>(operands: I) -> Vec<ObservedMask>
    where
        I: IntoIterator<Item = &'a [usize]>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut later = 0u64;
        let mut masks: Vec<ObservedMask> = operands
            .into_iter()
            .rev()
            .map(|qubits| {
                later |= ObservedMask::of(qubits).0;
                ObservedMask(later)
            })
            .collect();
        masks.reverse();
        masks
    }

    /// The mask holding exactly `qubits`.
    ///
    /// # Panics
    ///
    /// Panics on a qubit index of 64 or more.
    fn of(qubits: &[usize]) -> Self {
        ObservedMask(qubits.iter().fold(0, |bits, &q| {
            assert!(q < 64, "observed masks cover qubits 0..64");
            bits | 1 << q
        }))
    }

    /// Whether the mask holds `qubit`.
    fn contains(self, qubit: usize) -> bool {
        qubit < 64 && self.0 >> qubit & 1 == 1
    }
}

/// `width` forked pure states evolving in lockstep.
#[derive(Debug, Clone)]
pub struct BatchedStatevector {
    block: CellBlock,
    n: usize,
}

impl BatchedStatevector {
    /// Broadcasts one parked state into all `width` cells.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds [`MAX_BATCH_CELLS`].
    pub fn broadcast(sv: &Statevector, width: usize) -> Self {
        BatchedStatevector {
            block: CellBlock::broadcast(sv.amplitudes(), width),
            n: sv.num_qubits(),
        }
    }

    /// Applies one shared gate to every cell.
    ///
    /// # Panics
    ///
    /// Panics on operand arity mismatch or out-of-range qubits.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "operand arity mismatch");
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies one shared `2^k × 2^k` unitary to every cell.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn apply_matrix(&mut self, u: &CMatrix, qubits: &[usize]) {
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
        }
        batch_apply_matrix_on_bits(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            u.as_slice(),
            qubits,
            self.n,
            false,
            Observed::ALL,
        );
    }

    /// Applies one single-qubit unitary **per cell** (the grid's per-cell
    /// fault injector) on the shared target qubit.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `width` 2×2 matrices are given and the qubit is
    /// in range.
    pub fn apply_matrix_per_cell(&mut self, us: &[CMatrix], qubit: usize) {
        assert!(qubit < self.n, "qubit {qubit} out of range");
        let (u_re, u_im) = pack_per_cell_1q(us, self.block.width);
        batch_apply_1q_per_cell(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            &u_re,
            &u_im,
            qubit,
            false,
            Observed::ALL,
        );
    }

    /// Born-rule probabilities of one cell.
    pub fn probabilities(&self, cell: usize) -> ProbDist {
        ProbDist::from_probs(
            (0..1usize << self.n)
                .map(|a| {
                    let (re, im) = self.block.at(a, cell);
                    re * re + im * im
                })
                .collect(),
            self.n,
        )
    }

    /// One cell's distribution over classical bits (marginalized through the
    /// circuit's measurement map, like the scalar engine).
    pub fn measurement_distribution(&self, cell: usize, qc: &QuantumCircuit) -> ProbDist {
        let map = qc.measurement_map();
        if map.is_empty() {
            return self.probabilities(cell);
        }
        self.probabilities(cell).marginalize(&map, qc.num_clbits())
    }
}

/// Reusable scratch for [`BatchedDensity::apply_kraus_with`] — the batched
/// counterpart of `EvolutionWorkspace`.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    term_re: Vec<f64>,
    term_im: Vec<f64>,
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, len: usize) {
        if self.term_re.len() < len {
            self.term_re.resize(len, 0.0);
            self.term_im.resize(len, 0.0);
            self.acc_re.resize(len, 0.0);
            self.acc_im.resize(len, 0.0);
        }
    }
}

/// `width` forked mixed states evolving in lockstep. ρ (row-major) is
/// treated exactly as the scalar engine treats it: a statevector over `2n`
/// flat bits, row bit `q` at flat bit `n + q`, column bit `q` at flat bit
/// `q`.
#[derive(Debug, Clone)]
pub struct BatchedDensity {
    block: CellBlock,
    n: usize,
    dim: usize,
    /// Amplitude groups of every kernel pass so far, and how many of them
    /// an observed mask skipped.
    groups: u64,
    groups_skipped: u64,
}

impl BatchedDensity {
    /// Broadcasts one parked density matrix into all `width` cells.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds [`MAX_BATCH_CELLS`].
    pub fn broadcast(rho: &DensityMatrix, width: usize) -> Self {
        BatchedDensity {
            block: CellBlock::broadcast(rho.raw(), width),
            n: rho.num_qubits(),
            dim: rho.dim(),
            groups: 0,
            groups_skipped: 0,
        }
    }

    /// Amplitude groups the kernel passes so far have walked, and how many
    /// of them their observed masks skipped: `(groups, skipped)`.
    pub fn group_counts(&self) -> (u64, u64) {
        (self.groups, self.groups_skipped)
    }

    /// The kernel filter for `passes` passes over `operands` flat operand
    /// bits each under `mask`, counted into [`BatchedDensity::group_counts`].
    /// A group is kept when its row and column agree on every qubit outside
    /// `mask`, and those qubits are all fixed bits of the group.
    fn observe(&mut self, mask: ObservedMask, operands: usize, passes: u64) -> Observed {
        let per_pass = 1u64 << (2 * self.n - operands);
        let outside = (0..self.n).filter(|&q| !mask.contains(q)).count();
        self.groups += passes * per_pass;
        self.groups_skipped += passes * (per_pass - (per_pass >> outside));
        Observed::density(self.n, mask.0)
    }

    /// Applies one shared unitary to every cell: `ρ ↦ UρU†` as a row pass
    /// plus a conjugated column pass, exactly like the scalar engine.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn apply_unitary(&mut self, u: &CMatrix, qubits: &[usize]) {
        self.apply_unitary_masked(u, qubits, ObservedMask::ALL);
    }

    /// [`BatchedDensity::apply_unitary`] computing only the entries `mask`
    /// observes.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range or `mask` misses one.
    pub fn apply_unitary_masked(&mut self, u: &CMatrix, qubits: &[usize], mask: ObservedMask) {
        let k = qubits.len();
        let mut row_positions = [0usize; MAX_KERNEL_QUBITS];
        for (slot, &q) in row_positions.iter_mut().zip(qubits) {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
            *slot = self.n + q;
        }
        assert!(
            qubits.iter().all(|&q| mask.contains(q)),
            "observed mask misses an operand"
        );
        let observed = self.observe(mask, k, 2);
        batch_apply_matrix_on_bits(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            u.as_slice(),
            &row_positions[..k],
            2 * self.n,
            false,
            observed,
        );
        batch_apply_matrix_on_bits(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            u.as_slice(),
            qubits,
            2 * self.n,
            true,
            observed,
        );
    }

    /// Applies one single-qubit unitary **per cell** (the grid's per-cell
    /// fault injector) on the shared target qubit.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `width` 2×2 matrices are given and the qubit is
    /// in range.
    pub fn apply_unitary_per_cell(&mut self, us: &[CMatrix], qubit: usize) {
        self.apply_unitary_per_cell_masked(us, qubit, ObservedMask::ALL);
    }

    /// [`BatchedDensity::apply_unitary_per_cell`] computing only the
    /// entries `mask` observes.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `width` 2×2 matrices are given and the qubit is
    /// in range and in `mask`.
    pub fn apply_unitary_per_cell_masked(
        &mut self,
        us: &[CMatrix],
        qubit: usize,
        mask: ObservedMask,
    ) {
        assert!(qubit < self.n, "qubit {qubit} out of range");
        assert!(mask.contains(qubit), "observed mask misses the operand");
        let (u_re, u_im) = pack_per_cell_1q(us, self.block.width);
        let observed = self.observe(mask, 1, 2);
        batch_apply_1q_per_cell(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            &u_re,
            &u_im,
            self.n + qubit,
            false,
            observed,
        );
        batch_apply_1q_per_cell(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            &u_re,
            &u_im,
            qubit,
            true,
            observed,
        );
    }

    /// Applies one shared channel superoperator (`4^k × 4^k` over the
    /// combined row/column bits) to every cell.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `4^k × 4^k` or a qubit is out of range.
    pub fn apply_superoperator(&mut self, s: &CMatrix, qubits: &[usize]) {
        self.apply_superoperator_masked(s, qubits, ObservedMask::ALL);
    }

    /// [`BatchedDensity::apply_superoperator`] computing only the entries
    /// `mask` observes.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `4^k × 4^k` or a qubit is out of range
    /// or missing from `mask`.
    pub fn apply_superoperator_masked(
        &mut self,
        s: &CMatrix,
        qubits: &[usize],
        mask: ObservedMask,
    ) {
        let k = qubits.len();
        assert_eq!(s.rows(), 1 << (2 * k), "superoperator size mismatch");
        let mut combined = [0usize; MAX_KERNEL_QUBITS];
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
            combined[i] = self.n + q;
            combined[k + i] = q;
        }
        assert!(
            qubits.iter().all(|&q| mask.contains(q)),
            "observed mask misses an operand"
        );
        let observed = self.observe(mask, 2 * k, 1);
        batch_apply_matrix_on_bits(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            s.as_slice(),
            &combined[..2 * k],
            2 * self.n,
            false,
            observed,
        );
    }

    /// Applies a Kraus channel `ρ ↦ Σₖ Kₖ ρ Kₖ†` to every cell, mirroring
    /// the scalar accumulate-from-zero term structure so each cell stays
    /// bit-identical to `DensityMatrix::apply_kraus_with`.
    ///
    /// # Panics
    ///
    /// Panics if the operators are not square over `2^|qubits|` dimensions
    /// or the channel is empty.
    pub fn apply_kraus_with(
        &mut self,
        kraus: &[CMatrix],
        qubits: &[usize],
        ws: &mut BatchWorkspace,
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
        let len = self.block.re.len();
        ws.ensure(len);
        ws.acc_re[..len].fill(0.0);
        ws.acc_im[..len].fill(0.0);
        let k_count = qubits.len();
        let mut row_positions = [0usize; MAX_KERNEL_QUBITS];
        for (slot, &q) in row_positions.iter_mut().zip(qubits) {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
            *slot = self.n + q;
        }
        for op in kraus {
            ws.term_re[..len].copy_from_slice(&self.block.re);
            ws.term_im[..len].copy_from_slice(&self.block.im);
            batch_apply_matrix_on_bits(
                &mut ws.term_re[..len],
                &mut ws.term_im[..len],
                self.block.width,
                op.as_slice(),
                &row_positions[..k_count],
                2 * self.n,
                false,
                Observed::ALL,
            );
            batch_apply_matrix_on_bits(
                &mut ws.term_re[..len],
                &mut ws.term_im[..len],
                self.block.width,
                op.as_slice(),
                qubits,
                2 * self.n,
                true,
                Observed::ALL,
            );
            for (a, t) in ws.acc_re[..len].iter_mut().zip(&ws.term_re[..len]) {
                *a += *t;
            }
            for (a, t) in ws.acc_im[..len].iter_mut().zip(&ws.term_im[..len]) {
                *a += *t;
            }
        }
        self.block.re.copy_from_slice(&ws.acc_re[..len]);
        self.block.im.copy_from_slice(&ws.acc_im[..len]);
    }

    /// The real parts of one cell's diagonal, unclamped.
    pub fn diagonal(&self, cell: usize) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.block.at(i * self.dim + i, cell).0)
            .collect()
    }

    /// Born-rule probabilities of one cell: the diagonal of that cell's ρ.
    pub fn probabilities(&self, cell: usize) -> ProbDist {
        ProbDist::from_probs(self.diagonal(cell), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::EvolutionWorkspace;

    fn assert_dist_bitwise(a: &ProbDist, b: &ProbDist, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert_eq!(
                a.prob(i).to_bits(),
                b.prob(i).to_bits(),
                "{what}: index {i}: {} vs {}",
                a.prob(i),
                b.prob(i)
            );
        }
    }

    fn suffix_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 1).t(1).ry(0.7, 2).cx(1, 2).h(0);
        qc.measure(0, 0).measure(1, 1).measure(2, 2);
        qc
    }

    #[test]
    fn batched_statevector_cells_match_scalar_bitwise() {
        let mut prep = QuantumCircuit::new(3, 0);
        prep.h(0).cx(0, 1).ry(0.4, 2);
        let parked = Statevector::from_circuit(&prep).unwrap();
        let suffix = suffix_circuit();
        for width in [1usize, 3, 8] {
            let injectors: Vec<CMatrix> = (0..width)
                .map(|c| CMatrix::u_gate(0.2 + 0.3 * c as f64, 0.1 * c as f64, 0.0))
                .collect();
            let mut batch = BatchedStatevector::broadcast(&parked, width);
            batch.apply_matrix_per_cell(&injectors, 1);
            for op in suffix.instructions() {
                if let crate::circuit::Op::Gate { gate, qubits } = op {
                    batch.apply_gate(*gate, qubits);
                }
            }
            for (c, u) in injectors.iter().enumerate() {
                let mut sv = parked.clone();
                sv.apply_matrix(u, &[1]);
                for op in suffix.instructions() {
                    if let crate::circuit::Op::Gate { gate, qubits } = op {
                        sv.apply_gate(*gate, qubits);
                    }
                }
                assert_dist_bitwise(
                    &batch.measurement_distribution(c, &suffix),
                    &sv.measurement_distribution(&suffix),
                    &format!("sv width={width} cell={c}"),
                );
            }
        }
    }

    #[test]
    fn batched_density_cells_match_scalar_bitwise() {
        let mut prep = QuantumCircuit::new(2, 0);
        prep.h(0).cx(0, 1);
        let mut parked = DensityMatrix::new(2).unwrap();
        parked.run_circuit(&prep);
        // A non-trivial channel: amplitude damping as a superoperator.
        let g: f64 = 0.3;
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
        let mut sup = CMatrix::zeros(4, 4);
        for k in &kraus {
            for a in 0..2 {
                for b in 0..2 {
                    for c in 0..2 {
                        for d in 0..2 {
                            sup[(a * 2 + b, c * 2 + d)] += k[(a, c)] * k[(b, d)].conj();
                        }
                    }
                }
            }
        }
        for width in [1usize, 5, MAX_BATCH_CELLS] {
            let injectors: Vec<CMatrix> = (0..width)
                .map(|c| CMatrix::u_gate(0.25 * c as f64, 0.4, 0.0))
                .collect();
            let mut batch = BatchedDensity::broadcast(&parked, width);
            batch.apply_unitary_per_cell(&injectors, 0);
            batch.apply_superoperator(&sup, &[0]);
            batch.apply_unitary(&CMatrix::cnot(), &[0, 1]);
            batch.apply_superoperator(&sup, &[1]);
            for (c, u) in injectors.iter().enumerate() {
                let mut rho = parked.clone();
                rho.apply_unitary(u, &[0]);
                rho.apply_superoperator(&sup, &[0]);
                rho.apply_unitary(&CMatrix::cnot(), &[0, 1]);
                rho.apply_superoperator(&sup, &[1]);
                assert_dist_bitwise(
                    &batch.probabilities(c),
                    &rho.probabilities(),
                    &format!("rho width={width} cell={c}"),
                );
            }
        }
    }

    #[test]
    fn backward_masks_collect_later_operands() {
        let ops: [&[usize]; 4] = [&[0], &[1], &[0, 2], &[1]];
        let masks = ObservedMask::backward_from_diagonal(ops);
        let want = [0b111, 0b111, 0b111, 0b010].map(ObservedMask);
        assert_eq!(masks, want);
        assert!(masks[3].contains(1) && !masks[3].contains(0));
    }

    #[test]
    fn batched_kraus_matches_scalar_bitwise() {
        let mut prep = QuantumCircuit::new(2, 0);
        prep.h(0).t(0).cx(0, 1);
        let mut parked = DensityMatrix::new(2).unwrap();
        parked.run_circuit(&prep);
        let p: f64 = 0.2;
        let kraus = vec![
            CMatrix::identity(2).scale_real((1.0 - p).sqrt()),
            CMatrix::pauli_z().scale_real(p.sqrt()),
        ];
        let width = 4usize;
        let mut batch = BatchedDensity::broadcast(&parked, width);
        let mut ws = BatchWorkspace::new();
        batch.apply_kraus_with(&kraus, &[1], &mut ws);
        let mut rho = parked.clone();
        let mut sws = EvolutionWorkspace::new();
        rho.apply_kraus_with(&kraus, &[1], &mut sws);
        for c in 0..width {
            assert_dist_bitwise(
                &batch.probabilities(c),
                &rho.probabilities(),
                &format!("kraus cell={c}"),
            );
        }
    }
}
