//! Kernel-vs-dense-oracle property tests.
//!
//! The in-place index-arithmetic kernels (`crates/sim/src/kernel.rs`) are
//! the arithmetic underneath every statevector gate, density-matrix
//! unitary, Kraus channel, and channel superoperator in the stack. These
//! tests pin them against an *independent* dense oracle: the operator is
//! embedded entry-by-entry into the full `2^n × 2^n` matrix and applied by
//! plain matrix multiplication (`qufi_math::CMatrix`), with no shared index
//! arithmetic. Random circuits and channels must agree with the oracle to
//! `< 1e-12` per application, and unitary application must be **bitwise**
//! invariant under kernel dispatch: padding a gate with an identity operand
//! (which reroutes it through the wider specialized/generic kernel paths)
//! must not change a single bit of the state.
//!
//! The kernels skip matrix entries that are exactly zero. The
//! zero-skipping properties check that this is exact: every entry point,
//! bit for bit, against a test-local reference that runs the full dense
//! loop — every entry, zero or not, accumulated from `+0.0` in column
//! order — on operands built to stress the signed-zero argument of
//! `kernel.rs`.
//!
//! The kernels also drop the imaginary products of operands whose
//! imaginary parts are all `±0`, and the batched ones skip the amplitude
//! groups an observed mask leaves out. Two properties check both against
//! the same reference: real operands through every scalar entry point at 4
//! and 8 qubits, real and complex operands through every batched entry
//! point at widths 1, 3, 8, 15 and 16, and random suffixes replayed with
//! the masks of `ObservedMask::backward_from_diagonal` and with full masks.
//!
//! Unit entries (`1` with a `±0` imaginary part) skip their multiplication
//! too: the batched two-qubit kernel copies through a permutation of them,
//! and the trajectory lanes' diagonal passes pass them through. The drawn
//! matrices include unit entries and unit permutations, and the last
//! property checks the permuting walk and the lanes' weigh, commit and
//! commit-and-weigh passes amplitude by amplitude.

use proptest::prelude::*;
use qufi_math::{CMatrix, Complex};
use qufi_sim::{
    BatchedDensity, BatchedStatevector, DensityMatrix, EvolutionWorkspace, Gate, ObservedMask,
    Statevector,
};

/// Embeds a `2^k × 2^k` operator over `qubits` of an `n`-qubit register
/// into the full `2^n × 2^n` matrix, entry by entry. Matches the kernel's
/// operand convention (first operand = most significant matrix bit) but
/// shares none of its index arithmetic.
fn embed(u: &CMatrix, qubits: &[usize], n: usize) -> CMatrix {
    let k = qubits.len();
    let dim = 1usize << n;
    let sub = |i: usize| -> usize {
        let mut m = 0usize;
        for (t, &q) in qubits.iter().enumerate() {
            m |= ((i >> q) & 1) << (k - 1 - t);
        }
        m
    };
    let rest_mask = {
        let mut mask = dim - 1;
        for &q in qubits {
            mask &= !(1usize << q);
        }
        mask
    };
    let mut full = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            if i & rest_mask == j & rest_mask {
                full[(i, j)] = u[(sub(i), sub(j))];
            }
        }
    }
    full
}

/// The density matrix as a dense `CMatrix` (oracle side).
fn to_matrix(rho: &DensityMatrix) -> CMatrix {
    let dim = rho.dim();
    let mut m = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            m[(i, j)] = rho.entry(i, j);
        }
    }
    m
}

fn max_entry_diff(rho: &DensityMatrix, oracle: &CMatrix) -> f64 {
    let dim = rho.dim();
    let mut worst: f64 = 0.0;
    for i in 0..dim {
        for j in 0..dim {
            let d = rho.entry(i, j) - oracle[(i, j)];
            worst = worst.max(d.norm());
        }
    }
    worst
}

fn assert_bitwise_state(a: &Statevector, b: &Statevector, what: &str) {
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i}: {x:?} vs {y:?}"
        );
    }
}

fn assert_bitwise_density(a: &DensityMatrix, b: &DensityMatrix, what: &str) {
    for i in 0..a.dim() {
        for j in 0..a.dim() {
            let (x, y) = (a.entry(i, j), b.entry(i, j));
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: entry ({i},{j}): {x:?} vs {y:?}"
            );
        }
    }
}

/// A random gate over `n` qubits, as (matrix, operands).
fn arb_gate(n: usize) -> impl Strategy<Value = (CMatrix, Vec<usize>)> {
    let q = 0..n;
    let angle = -std::f64::consts::PI..std::f64::consts::PI;
    prop_oneof![
        (angle.clone(), angle.clone(), angle.clone(), q.clone())
            .prop_map(|(t, p, l, a)| (CMatrix::u_gate(t, p, l), vec![a])),
        q.clone().prop_map(|a| (CMatrix::hadamard(), vec![a])),
        (q.clone(), q.clone())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (CMatrix::cnot(), vec![a, b])),
        (angle.clone(), angle.clone(), q.clone(), q)
            .prop_filter("distinct", |(_, _, a, b)| a != b)
            .prop_map(|(t, p, a, b)| {
                // An entangling random 2q unitary: CX · (U(t,p,0) ⊗ U(p,t,0)).
                let u = CMatrix::cnot()
                    .matmul(&CMatrix::u_gate(t, p, 0.0).kron(&CMatrix::u_gate(p, t, 0.0)));
                (u, vec![a, b])
            }),
    ]
}

/// A random CPTP channel `{√(1-p)·I, √p·V}` with V unitary over k qubits,
/// as its Kraus operators.
fn arb_channel(n: usize) -> impl Strategy<Value = (Vec<CMatrix>, Vec<usize>)> {
    let p = 0.05f64..0.95;
    let angle = -std::f64::consts::PI..std::f64::consts::PI;
    prop_oneof![
        (p.clone(), angle.clone(), angle.clone(), 0..n).prop_map(|(p, t, l, q)| {
            let v = CMatrix::u_gate(t, l, 0.0);
            (
                vec![
                    CMatrix::identity(2).scale_real((1.0 - p).sqrt()),
                    v.scale_real(p.sqrt()),
                ],
                vec![q],
            )
        }),
        (p, angle.clone(), angle, 0..n, 0..n)
            .prop_filter("distinct", |(_, _, _, a, b)| a != b)
            .prop_map(|(p, t, l, a, b)| {
                let v = CMatrix::cnot()
                    .matmul(&CMatrix::u_gate(t, l, 0.0).kron(&CMatrix::u_gate(l, t, 0.0)));
                (
                    vec![
                        CMatrix::identity(4).scale_real((1.0 - p).sqrt()),
                        v.scale_real(p.sqrt()),
                    ],
                    vec![a, b],
                )
            }),
    ]
}

/// The channel superoperator `S[(a,b),(c,d)] = Σₖ Kₖ[a,c]·K̄ₖ[b,d]`, built
/// densely from the Kraus set (oracle-side construction).
fn superop_of(kraus: &[CMatrix]) -> CMatrix {
    let d = kraus[0].rows();
    let mut s = CMatrix::zeros(d * d, d * d);
    for k in kraus {
        for a in 0..d {
            for b in 0..d {
                for c in 0..d {
                    for e in 0..d {
                        s[(a * d + b, c * d + e)] += k[(a, c)] * k[(b, e)].conj();
                    }
                }
            }
        }
    }
    s
}

const N: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Statevector kernels vs dense matvec: every gate of a random circuit
    /// agrees with the embedded full-matrix product to < 1e-12.
    #[test]
    fn statevector_gates_match_dense_matvec(gates in prop::collection::vec(arb_gate(N), 1..12)) {
        let mut sv = Statevector::new(N).expect("fits");
        // Leave |0…0⟩ with a couple of fixed gates so later gates act on a
        // non-trivial state.
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::Cx, &[0, 1]);
        for (u, qs) in gates {
            let before: Vec<Complex> = sv.amplitudes().to_vec();
            sv.apply_matrix(&u, &qs);
            let oracle = embed(&u, &qs, N).matvec(&before);
            for (i, (got, want)) in sv.amplitudes().iter().zip(&oracle).enumerate() {
                let d = *got - *want;
                prop_assert!(d.norm() < 1e-12, "amplitude {i}: {got:?} vs {want:?}");
            }
        }
    }

    /// Density-matrix unitary kernels vs dense `UρU†`, plus the per-gate
    /// distribution distance the sweep engine's guarantees quote.
    #[test]
    fn density_unitaries_match_dense_matmul(gates in prop::collection::vec(arb_gate(N), 1..10)) {
        let mut rho = DensityMatrix::new(N).expect("fits");
        rho.apply_gate(Gate::H, &[0]);
        rho.apply_gate(Gate::Cx, &[0, 1]);
        for (u, qs) in gates {
            let full = embed(&u, &qs, N);
            let oracle = full.matmul(&to_matrix(&rho)).matmul(&full.adjoint());
            rho.apply_unitary(&u, &qs);
            prop_assert!(max_entry_diff(&rho, &oracle) < 1e-12);
            // tv distance of the Born distributions: a strictly weaker view
            // of the same bound, stated because it is what replay
            // equivalence is measured in.
            let mut dense = Vec::with_capacity(rho.dim());
            for i in 0..rho.dim() {
                dense.push(oracle[(i, i)].re);
            }
            let tv: f64 = rho
                .probabilities()
                .probs()
                .iter()
                .zip(&dense)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            prop_assert!(tv < 1e-12, "per-gate tv {tv}");
        }
    }

    /// Unitary application is **bitwise** invariant under kernel dispatch:
    /// padding the operand list with an identity qubit reroutes a 1q gate
    /// through the 2q kernel and a 2q gate through the generic kernel, and
    /// must not change one bit of the state.
    #[test]
    fn padded_dispatch_is_bitwise_identical(
        gates in prop::collection::vec(arb_gate(N), 1..10),
        pad_seed in 0usize..1024,
    ) {
        let mut sv = Statevector::new(N).expect("fits");
        let mut sv_padded = Statevector::new(N).expect("fits");
        let mut rho = DensityMatrix::new(N).expect("fits");
        let mut rho_padded = DensityMatrix::new(N).expect("fits");
        for (i, (u, qs)) in gates.iter().enumerate() {
            let pad = (0..N)
                .find(|q| (q + pad_seed + i) % N == 0 && !qs.contains(q))
                .or_else(|| (0..N).find(|q| !qs.contains(q)))
                .expect("a free qubit exists");
            let padded_u = CMatrix::identity(2).kron(u);
            let mut padded_qs = vec![pad];
            padded_qs.extend_from_slice(qs);

            sv.apply_matrix(u, qs);
            sv_padded.apply_matrix(&padded_u, &padded_qs);
            assert_bitwise_state(&sv, &sv_padded, "statevector dispatch");

            rho.apply_unitary(u, qs);
            rho_padded.apply_unitary(&padded_u, &padded_qs);
            assert_bitwise_density(&rho, &rho_padded, "density dispatch");
        }
    }

    /// Kraus kernels vs dense `Σₖ KₖρKₖ†`, the superoperator path against
    /// both, and workspace reuse against fresh workspaces (bitwise).
    #[test]
    fn channels_match_dense_oracle(channels in prop::collection::vec(arb_channel(N), 1..6)) {
        let mut rho = DensityMatrix::new(N).expect("fits");
        rho.apply_gate(Gate::H, &[0]);
        rho.apply_gate(Gate::Cx, &[0, 1]);
        rho.apply_gate(Gate::Cx, &[1, 2]);
        let mut via_superop = rho.clone();
        let mut via_fresh = rho.clone();
        let mut ws = EvolutionWorkspace::new();
        for (kraus, qs) in channels {
            // Dense oracle: embed each Kraus operator and matmul.
            let mut oracle = CMatrix::zeros(rho.dim(), rho.dim());
            for k in &kraus {
                let full = embed(k, &qs, N);
                oracle = oracle.add(&full.matmul(&to_matrix(&rho)).matmul(&full.adjoint()));
            }
            rho.apply_kraus_with(&kraus, &qs, &mut ws);
            prop_assert!(max_entry_diff(&rho, &oracle) < 1e-12, "kraus vs dense");

            // Superoperator path: same channel compiled to a superop.
            via_superop.apply_superoperator(&superop_of(&kraus), &qs);
            prop_assert!(max_entry_diff(&via_superop, &oracle) < 1e-12, "superop vs dense");

            // Workspace reuse never changes bits vs a fresh workspace.
            via_fresh.apply_kraus(&kraus, &qs);
            assert_bitwise_density(&rho, &via_fresh, "workspace reuse");

            // Keep the two kernel evolutions aligned for the next round
            // (they agree to 1e-12, not bitwise — different arithmetic).
            via_superop = rho.clone();
        }
        // The evolved state is still a density matrix.
        prop_assert!((rho.trace().re - 1.0).abs() < 1e-9);
        prop_assert!(rho.is_hermitian(1e-9));
    }
}

// ---------------------------------------------------------------------------
// Zero skipping is bitwise exact
// ---------------------------------------------------------------------------

/// Deterministic xorshift stream building one case's operands.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A nonzero value in (−1, 1).
    fn value(&mut self) -> f64 {
        let x = (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        if x == 0.0 {
            0.5
        } else {
            x
        }
    }

    fn signed_zero(&mut self) -> f64 {
        if self.next() & 1 == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// A zero entry: `±0` in both parts.
    fn zero(&mut self) -> Complex {
        Complex::new(self.signed_zero(), self.signed_zero())
    }

    /// A nonzero entry: both parts random, or one of them a signed zero.
    fn nonzero(&mut self) -> Complex {
        match self.below(3) {
            0 => Complex::new(self.value(), self.value()),
            1 => Complex::new(self.value(), self.signed_zero()),
            _ => Complex::new(self.signed_zero(), self.value()),
        }
    }

    /// An amplitude, zero in both parts one time in four.
    fn amplitude(&mut self) -> Complex {
        if self.below(4) == 0 {
            self.zero()
        } else {
            self.nonzero()
        }
    }

    /// A unit entry: `1` with a signed-zero imaginary part.
    fn unit(&mut self) -> Complex {
        Complex::new(1.0, self.signed_zero())
    }

    /// A `dim × dim` matrix: fully dense, a random zero pattern, monomial,
    /// a random pattern with whole rows zeroed, or a permutation of unit
    /// entries (CX and SWAP are). Zero entries carry random signs; nonzero
    /// ones are scaled by `1/dim` so repeated application stays O(1),
    /// except that one in eight is an exact unit entry.
    fn matrix(&mut self, dim: usize) -> CMatrix {
        let kind = self.below(5);
        let perm = self.permutation(dim);
        let zero_rows: Vec<bool> = (0..dim).map(|_| kind == 3 && self.below(2) == 0).collect();
        let mut m = CMatrix::zeros(dim, dim);
        for row in 0..dim {
            for col in 0..dim {
                let nonzero = match kind {
                    0 => true,
                    2 | 4 => perm[row] == col,
                    _ => !zero_rows[row] && self.below(2) == 0,
                };
                m[(row, col)] = if !nonzero {
                    self.zero()
                } else if kind == 4 || self.below(8) == 0 {
                    self.unit()
                } else {
                    self.nonzero().scale(1.0 / dim as f64)
                };
            }
        }
        m
    }

    /// The diagonal of a Kraus branch 0 on `k` qubits: `diag(1, c)`
    /// repeated (a calibrated relaxation branch) one time in three,
    /// otherwise each entry a unit entry, a real value, a zero, a complex
    /// value whose real part is exactly `1`, or any nonzero entry.
    fn diagonal(&mut self, k: usize) -> Vec<Complex> {
        let dim = 1usize << k;
        if self.below(3) == 0 {
            let c = self.value().abs();
            return (0..dim)
                .map(|i| {
                    if i % 2 == 0 {
                        self.unit()
                    } else {
                        Complex::new(c, self.signed_zero())
                    }
                })
                .collect();
        }
        (0..dim)
            .map(|_| match self.below(5) {
                0 => self.unit(),
                1 => Complex::new(self.value(), self.signed_zero()),
                2 => self.zero(),
                3 => Complex::new(1.0, self.value()),
                _ => self.nonzero(),
            })
            .collect()
    }

    /// A [`Stream::matrix`], half the time a [`Stream::real_matrix`].
    fn operand(&mut self, dim: usize) -> CMatrix {
        if self.below(2) == 0 {
            self.real_matrix(dim)
        } else {
            self.matrix(dim)
        }
    }

    /// A [`Stream::matrix`] with every imaginary part replaced by a signed
    /// zero: a real operand, which the kernels multiply without the
    /// imaginary products.
    fn real_matrix(&mut self, dim: usize) -> CMatrix {
        let mut m = self.matrix(dim);
        for row in 0..dim {
            for col in 0..dim {
                m[(row, col)] = Complex::new(m[(row, col)].re, self.signed_zero());
            }
        }
        m
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            p.swap(i, j);
        }
        p
    }

    /// `k` distinct operand qubits of an `n`-qubit register.
    fn operands(&mut self, k: usize, n: usize) -> Vec<usize> {
        self.permutation(n)[..k].to_vec()
    }
}

/// The dense kernel loop, written independently of `kernel.rs`: for every
/// group of `2^k` amplitudes, each output accumulates `u[row][col] ·
/// g[col]` over **every** column, from `+0.0`, in column order.
fn dense_reference(data: &mut [Complex], u: &CMatrix, positions: &[usize], conj: bool) {
    let k = positions.len();
    let dim = 1usize << k;
    let offset = |mm: usize| -> usize {
        (0..k)
            .filter(|&j| (mm >> (k - 1 - j)) & 1 == 1)
            .map(|j| 1usize << positions[j])
            .sum()
    };
    let operand_mask = offset(dim - 1);
    for base in (0..data.len()).filter(|b| b & operand_mask == 0) {
        let g: Vec<Complex> = (0..dim).map(|col| data[base | offset(col)]).collect();
        for row in 0..dim {
            let mut acc = Complex::ZERO;
            for (col, &gc) in g.iter().enumerate() {
                let x = if conj {
                    u[(row, col)].conj()
                } else {
                    u[(row, col)]
                };
                acc += x * gc;
            }
            data[base | offset(row)] = acc;
        }
    }
}

/// `ρ ↦ UρU†` on a raw row-major `n`-qubit density buffer, as two
/// reference passes (row bits at `n + q`, conjugated column pass at `q`).
fn reference_unitary(rho: &mut [Complex], n: usize, u: &CMatrix, qubits: &[usize]) {
    let rows: Vec<usize> = qubits.iter().map(|&q| n + q).collect();
    dense_reference(rho, u, &rows, false);
    dense_reference(rho, u, qubits, true);
}

fn raw_density(rho: &DensityMatrix) -> Vec<Complex> {
    let dim = rho.dim();
    (0..dim * dim)
        .map(|i| rho.entry(i / dim, i % dim))
        .collect()
}

fn assert_bits(got: &[Complex], want: &[Complex], what: &str) {
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: entry {i}: kernel {x:?} vs dense reference {y:?}"
        );
    }
}

/// A batched cell's Born probabilities against the reference values they
/// are built from (`ProbDist` clamps at zero, so the reference is clamped
/// the same way).
fn assert_probs(got: &qufi_sim::ProbDist, want: impl Iterator<Item = f64>, what: &str) {
    for (i, w) in want.enumerate() {
        assert_eq!(
            got.prob(i).to_bits(),
            w.max(0.0).to_bits(),
            "{what}: outcome {i}: batched {} vs dense reference {w}",
            got.prob(i)
        );
    }
}

/// One density-matrix channel step of the zero-skipping property.
enum DensityOp {
    Unitary(CMatrix, Vec<usize>),
    Superop(CMatrix, Vec<usize>),
    Kraus(Vec<CMatrix>, Vec<usize>),
}

impl DensityOp {
    fn draw(s: &mut Stream, n: usize) -> Self {
        match s.below(3) {
            0 => {
                let k = 1 + s.below(4);
                DensityOp::Unitary(s.matrix(1 << k), s.operands(k, n))
            }
            kind => {
                let k = 1 + s.below(2);
                let kraus: Vec<CMatrix> = (0..1 + s.below(3)).map(|_| s.matrix(1 << k)).collect();
                let qubits = s.operands(k, n);
                if kind == 1 {
                    // Completely positive, so batched diagonals stay
                    // probabilities; the sums never produce −0, so zero
                    // entries get random signs afterwards.
                    let mut sup = superop_of(&kraus);
                    let d = sup.rows();
                    for i in 0..d {
                        for j in 0..d {
                            if sup[(i, j)] == Complex::ZERO {
                                sup[(i, j)] = s.zero();
                            }
                        }
                    }
                    DensityOp::Superop(sup, qubits)
                } else {
                    DensityOp::Kraus(kraus, qubits)
                }
            }
        }
    }

    /// A unitary-shaped operand or a superoperator-shaped one on one or
    /// two qubits, real or complex ([`Stream::operand`]). Neither needs to
    /// be physical: the properties compare raw diagonals, not
    /// probabilities.
    fn draw_operand(s: &mut Stream, n: usize) -> Self {
        let k = 1 + s.below(2);
        let qubits = s.operands(k, n);
        if s.below(2) == 0 {
            DensityOp::Unitary(s.operand(1 << k), qubits)
        } else {
            DensityOp::Superop(s.operand(1 << (2 * k)), qubits)
        }
    }

    /// A real unitary-shaped operand on one to four qubits, or a real
    /// superoperator-shaped operand or Kraus set on one or two
    /// ([`Stream::real_matrix`]).
    fn draw_real(s: &mut Stream, n: usize) -> Self {
        match s.below(3) {
            0 => {
                let k = 1 + s.below(4);
                DensityOp::Unitary(s.real_matrix(1 << k), s.operands(k, n))
            }
            1 => {
                let k = 1 + s.below(2);
                DensityOp::Superop(s.real_matrix(1 << (2 * k)), s.operands(k, n))
            }
            _ => {
                let k = 1 + s.below(2);
                let kraus = (0..1 + s.below(3)).map(|_| s.real_matrix(1 << k)).collect();
                DensityOp::Kraus(kraus, s.operands(k, n))
            }
        }
    }

    fn apply(&self, rho: &mut DensityMatrix, ws: &mut EvolutionWorkspace) {
        match self {
            DensityOp::Unitary(u, qs) => rho.apply_unitary(u, qs),
            DensityOp::Superop(sup, qs) => rho.apply_superoperator(sup, qs),
            DensityOp::Kraus(kraus, qs) => rho.apply_kraus_with(kraus, qs, ws),
        }
    }

    fn qubits(&self) -> &[usize] {
        match self {
            DensityOp::Unitary(_, qs) | DensityOp::Superop(_, qs) | DensityOp::Kraus(_, qs) => qs,
        }
    }

    fn reference(&self, rho: &mut [Complex], n: usize) {
        match self {
            DensityOp::Unitary(u, qs) => reference_unitary(rho, n, u, qs),
            DensityOp::Superop(sup, qs) => {
                let mut combined: Vec<usize> = qs.iter().map(|&q| n + q).collect();
                combined.extend_from_slice(qs);
                dense_reference(rho, sup, &combined, false);
            }
            DensityOp::Kraus(kraus, qs) => {
                let mut acc = vec![Complex::ZERO; rho.len()];
                for k in kraus {
                    let mut term = rho.to_vec();
                    reference_unitary(&mut term, n, k, qs);
                    for (a, t) in acc.iter_mut().zip(&term) {
                        *a += *t;
                    }
                }
                rho.copy_from_slice(&acc);
            }
        }
    }
}

/// Register of the zero-skipping properties: wide enough for 4-operand
/// (16 × 16) unitaries on both engines.
const ZN: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Statevector` and `BatchedStatevector` (widths 1, 3, 16, each cell
    /// first hit by its own injector) against the dense reference, after
    /// every operation of a random sequence.
    #[test]
    fn statevector_zero_skipping_is_bitwise_exact(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        let amps: Vec<Complex> = (0..1 << ZN).map(|_| s.amplitude()).collect();
        let ops: Vec<(CMatrix, Vec<usize>)> = (0..4)
            .map(|_| {
                let k = 1 + s.below(4);
                (s.matrix(1 << k), s.operands(k, ZN))
            })
            .collect();

        let mut sv = Statevector::from_amplitudes(amps.clone());
        let mut want = amps.clone();
        for (u, qs) in &ops {
            sv.apply_matrix(u, qs);
            dense_reference(&mut want, u, qs, false);
            assert_bits(sv.amplitudes(), &want, &format!("statevector {qs:?}"));
        }

        for width in [1usize, 3, 16] {
            let injectors: Vec<CMatrix> = (0..width).map(|_| s.matrix(2)).collect();
            let target = s.below(ZN);
            let mut batch =
                BatchedStatevector::broadcast(&Statevector::from_amplitudes(amps.clone()), width);
            batch.apply_matrix_per_cell(&injectors, target);
            let mut cells: Vec<Vec<Complex>> = injectors
                .iter()
                .map(|u| {
                    let mut cell = amps.clone();
                    dense_reference(&mut cell, u, &[target], false);
                    cell
                })
                .collect();
            for (u, qs) in &ops {
                batch.apply_matrix(u, qs);
                for (c, cell) in cells.iter_mut().enumerate() {
                    dense_reference(cell, u, qs, false);
                    assert_probs(
                        &batch.probabilities(c),
                        cell.iter().map(|z| z.norm_sqr()),
                        &format!("batched statevector width {width} cell {c} {qs:?}"),
                    );
                }
            }
        }
    }

    /// `DensityMatrix` unitary (row pass plus conjugated column pass),
    /// superoperator and Kraus application, and `BatchedDensity` unitary
    /// and superoperator application at widths 1, 3, 16, against the dense
    /// reference after every operation. The batch has no Kraus entry point
    /// (plans store channels as superoperators), so it skips Kraus draws.
    #[test]
    fn density_zero_skipping_is_bitwise_exact(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        let amps: Vec<Complex> = (0..1 << ZN).map(|_| s.amplitude()).collect();
        let rho0 = DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps));
        let ops: Vec<DensityOp> = (0..4).map(|_| DensityOp::draw(&mut s, ZN)).collect();

        let mut rho = rho0.clone();
        let mut want = raw_density(&rho0);
        let mut ws = EvolutionWorkspace::new();
        for (i, op) in ops.iter().enumerate() {
            op.apply(&mut rho, &mut ws);
            op.reference(&mut want, ZN);
            assert_bits(&raw_density(&rho), &want, &format!("density op {i}"));
        }

        let dim = 1usize << ZN;
        for width in [1usize, 3, 16] {
            let injectors: Vec<CMatrix> = (0..width).map(|_| s.matrix(2)).collect();
            let target = s.below(ZN);
            let mut batch = BatchedDensity::broadcast(&rho0, width);
            batch.apply_unitary_per_cell(&injectors, target);
            let mut cells: Vec<Vec<Complex>> = injectors
                .iter()
                .map(|u| {
                    let mut cell = raw_density(&rho0);
                    reference_unitary(&mut cell, ZN, u, &[target]);
                    cell
                })
                .collect();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    DensityOp::Unitary(u, qs) => batch.apply_unitary(u, qs),
                    DensityOp::Superop(sup, qs) => batch.apply_superoperator(sup, qs),
                    DensityOp::Kraus(..) => continue,
                }
                for (c, cell) in cells.iter_mut().enumerate() {
                    op.reference(cell, ZN);
                    assert_probs(
                        &batch.probabilities(c),
                        (0..dim).map(|d| cell[d * dim + d].re),
                        &format!("batched density width {width} cell {c} op {i}"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Real-operand walks and observed masks are bitwise exact
// ---------------------------------------------------------------------------

/// Batch widths of the real-operand and observed-mask properties: ragged,
/// a partial paper block (8), one short of full (15), and full.
const WIDTHS: [usize; 5] = [1, 3, 8, 15, 16];

/// Registers of the scalar real-operand property: the zero-skipping
/// register, and an 8-qubit one whose operands reach higher bits.
const REAL_REGISTERS: [usize; 2] = [ZN, 8];

/// `Statevector::apply_matrix` and the `DensityMatrix` unitary,
/// superoperator and Kraus entry points on an `n`-qubit register, with
/// real operands and signed-zero amplitudes, against the dense reference
/// after every operation.
fn check_scalar_real_operands(s: &mut Stream, n: usize) {
    let amps: Vec<Complex> = (0..1 << n).map(|_| s.amplitude()).collect();
    let mut sv = Statevector::from_amplitudes(amps.clone());
    let mut want = amps.clone();
    for i in 0..6 {
        let k = 1 + s.below(4);
        let (u, qs) = (s.real_matrix(1 << k), s.operands(k, n));
        sv.apply_matrix(&u, &qs);
        dense_reference(&mut want, &u, &qs, false);
        assert_bits(
            sv.amplitudes(),
            &want,
            &format!("{n} qubits: statevector op {i} on {qs:?}"),
        );
    }

    let mut rho = DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps));
    let mut want = raw_density(&rho);
    let mut ws = EvolutionWorkspace::new();
    for i in 0..4 {
        let op = DensityOp::draw_real(s, n);
        op.apply(&mut rho, &mut ws);
        op.reference(&mut want, n);
        assert_bits(
            &raw_density(&rho),
            &want,
            &format!("{n} qubits: density op {i} on {:?}", op.qubits()),
        );
    }
}

/// A batched cell's raw diagonal against a reference density buffer's.
fn assert_diagonal(got: &[f64], want: &[Complex], what: &str) {
    let dim = got.len();
    for (d, g) in got.iter().enumerate() {
        let w = want[d * dim + d].re;
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: diagonal {d}: batched {g} vs reference {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scalar entry point on real operands (every imaginary part
    /// `+0` or `−0`) at 4 and 8 qubits, and every batched entry point —
    /// shared and per-cell statevector matrices, density unitaries,
    /// per-cell injectors and superoperators — on a mix of real operands
    /// and complex ones, against the dense reference after every operation.
    #[test]
    fn real_operand_walks_are_bitwise_exact(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        for n in REAL_REGISTERS {
            check_scalar_real_operands(&mut s, n);
        }
        let amps: Vec<Complex> = (0..1 << ZN).map(|_| s.amplitude()).collect();
        let ops: Vec<(CMatrix, Vec<usize>)> = (0..4)
            .map(|_| {
                let k = 1 + s.below(4);
                (s.operand(1 << k), s.operands(k, ZN))
            })
            .collect();
        for width in WIDTHS {
            let injectors: Vec<CMatrix> = (0..width).map(|_| s.operand(2)).collect();
            let target = s.below(ZN);
            let mut batch =
                BatchedStatevector::broadcast(&Statevector::from_amplitudes(amps.clone()), width);
            batch.apply_matrix_per_cell(&injectors, target);
            let mut cells: Vec<Vec<Complex>> = injectors
                .iter()
                .map(|u| {
                    let mut cell = amps.clone();
                    dense_reference(&mut cell, u, &[target], false);
                    cell
                })
                .collect();
            for (u, qs) in &ops {
                batch.apply_matrix(u, qs);
                for (c, cell) in cells.iter_mut().enumerate() {
                    dense_reference(cell, u, qs, false);
                    assert_probs(
                        &batch.probabilities(c),
                        cell.iter().map(|z| z.norm_sqr()),
                        &format!("batched statevector width {width} cell {c} {qs:?}"),
                    );
                }
            }
        }

        let rho0 = DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps));
        let dops: Vec<DensityOp> = (0..4).map(|_| DensityOp::draw_operand(&mut s, ZN)).collect();
        for width in WIDTHS {
            let injectors: Vec<CMatrix> = (0..width).map(|_| s.operand(2)).collect();
            let target = s.below(ZN);
            let mut batch = BatchedDensity::broadcast(&rho0, width);
            batch.apply_unitary_per_cell(&injectors, target);
            let mut cells: Vec<Vec<Complex>> = injectors
                .iter()
                .map(|u| {
                    let mut cell = raw_density(&rho0);
                    reference_unitary(&mut cell, ZN, u, &[target]);
                    cell
                })
                .collect();
            for (c, cell) in cells.iter().enumerate() {
                assert_diagonal(&batch.diagonal(c), cell, &format!("injector width {width} cell {c}"));
            }
            for (i, op) in dops.iter().enumerate() {
                match op {
                    DensityOp::Unitary(u, qs) => batch.apply_unitary(u, qs),
                    DensityOp::Superop(sup, qs) => batch.apply_superoperator(sup, qs),
                    DensityOp::Kraus(..) => unreachable!("draw_operand draws no Kraus channel"),
                }
                for (c, cell) in cells.iter_mut().enumerate() {
                    op.reference(cell, ZN);
                    assert_diagonal(
                        &batch.diagonal(c),
                        cell,
                        &format!("batched density width {width} cell {c} op {i}"),
                    );
                }
            }
        }
    }

    /// A random suffix on 3–5 qubits — a per-cell injector, then one- and
    /// two-qubit unitaries and superoperators, real or complex — replayed
    /// once with the masks `ObservedMask::backward_from_diagonal` gives it
    /// and once with full masks: every cell's diagonal must match the full
    /// replay's, and both the dense reference's, bit for bit.
    #[test]
    fn observed_masks_keep_the_diagonal_bitwise(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        let n = 3 + s.below(3);
        let width = WIDTHS[s.below(WIDTHS.len())];
        let amps: Vec<Complex> = (0..1 << n).map(|_| s.amplitude()).collect();
        let rho0 = DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps));
        let injectors: Vec<CMatrix> = (0..width).map(|_| s.operand(2)).collect();
        let target = [s.below(n)];
        let ops: Vec<DensityOp> = (0..1 + s.below(8)).map(|_| DensityOp::draw_operand(&mut s, n)).collect();
        let masks = ObservedMask::backward_from_diagonal(
            std::iter::once(&target[..]).chain(ops.iter().map(DensityOp::qubits)).collect::<Vec<_>>(),
        );
        prop_assert_eq!(masks.len(), ops.len() + 1);

        let mut masked = BatchedDensity::broadcast(&rho0, width);
        let mut full = masked.clone();
        masked.apply_unitary_per_cell_masked(&injectors, target[0], masks[0]);
        full.apply_unitary_per_cell(&injectors, target[0]);
        for (op, &mask) in ops.iter().zip(&masks[1..]) {
            match op {
                DensityOp::Unitary(u, qs) => {
                    masked.apply_unitary_masked(u, qs, mask);
                    full.apply_unitary(u, qs);
                }
                DensityOp::Superop(sup, qs) => {
                    masked.apply_superoperator_masked(sup, qs, mask);
                    full.apply_superoperator(sup, qs);
                }
                DensityOp::Kraus(..) => unreachable!("draw_operand draws no Kraus channel"),
            }
        }
        let (groups, skipped) = masked.group_counts();
        prop_assert_eq!(full.group_counts(), (groups, 0));
        prop_assert!(skipped > 0, "the last operation's mask leaves a qubit out");

        for (c, u) in injectors.iter().enumerate() {
            let mut cell = raw_density(&rho0);
            reference_unitary(&mut cell, n, u, &target);
            for op in &ops {
                op.reference(&mut cell, n);
            }
            let what = format!("{n} qubits, width {width}, cell {c}");
            assert_diagonal(&full.diagonal(c), &cell, &format!("full masks: {what}"));
            assert_diagonal(&masked.diagonal(c), &cell, &format!("backward masks: {what}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Unit entries and the trajectory lanes' diagonal passes are bitwise exact
// ---------------------------------------------------------------------------

/// `diag` as a full matrix whose off-diagonal entries are signed zeros, for
/// the dense reference.
fn diagonal_matrix(s: &mut Stream, diag: &[Complex]) -> CMatrix {
    let dim = diag.len();
    let mut m = CMatrix::zeros(dim, dim);
    for row in 0..dim {
        for col in 0..dim {
            m[(row, col)] = if row == col { diag[row] } else { s.zero() };
        }
    }
    m
}

/// `cell` after the dense reference applies `m` on `qubits`.
fn reference_applied(cell: &[Complex], m: &CMatrix, qubits: &[usize]) -> Vec<Complex> {
    let mut out = cell.to_vec();
    dense_reference(&mut out, m, qubits, false);
    out
}

/// The squared norm of `cell`, summed in ascending amplitude order.
fn ascending_norm(cell: &[Complex]) -> f64 {
    cell.iter().fold(0.0, |w, z| w + z.norm_sqr())
}

/// The cells of `batch`, extracted.
fn cells_of(batch: &BatchedStatevector) -> Vec<Vec<Complex>> {
    (0..batch.width())
        .map(|c| {
            let mut sv = Statevector::new(0).expect("fits");
            batch.extract_cell(c, &mut sv);
            sv.amplitudes().to_vec()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit entries through the batched statevector, at widths 1, 3, 8, 15
    /// and 16 on 2–5 qubits whose amplitudes carry signed zeros, against
    /// the dense reference, amplitude by amplitude: a two-qubit operand
    /// (half the time a permutation, mostly of unit entries, so the
    /// permutation walk runs) applied to every cell, then the trajectory
    /// lanes' diagonal passes — weigh, commit, and commit then weigh in one
    /// pass — whose reference applies the diagonal densely, sums
    /// `norm_sqr` in ascending order and then scales. Entries whose real
    /// part is `1` and imaginary part is not zero appear in both, the
    /// diagonals include `diag(1, c)`, and the scales commit every lane,
    /// none, or some.
    #[test]
    fn unit_entries_and_lane_passes_are_bitwise_exact(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        let n = 2 + s.below(4);
        for width in WIDTHS {
            let start: Vec<Vec<Complex>> = (0..width)
                .map(|_| (0..1 << n).map(|_| s.amplitude()).collect())
                .collect();
            let mut batch = BatchedStatevector::broadcast(&Statevector::new(n).expect("fits"), width);
            for (c, cell) in start.iter().enumerate() {
                batch.store_cell(c, &Statevector::from_amplitudes(cell.clone()));
            }
            let perm = s.permutation(4);
            let u = if s.below(2) == 0 {
                let mut m = CMatrix::zeros(4, 4);
                for (row, &col) in perm.iter().enumerate() {
                    for c in 0..4 {
                        m[(row, c)] = match (c == col, s.below(8)) {
                            (false, _) => s.zero(),
                            (true, 0) => Complex::new(1.0, s.value()),
                            (true, _) => s.unit(),
                        };
                    }
                }
                m
            } else {
                s.matrix(4)
            };
            let gate_qubits = s.operands(2, n);
            batch.apply_matrix(&u, &gate_qubits);
            let cells: Vec<Vec<Complex>> = start
                .iter()
                .map(|cell| reference_applied(cell, &u, &gate_qubits))
                .collect();
            let what = format!("{n} qubits, width {width}");
            for (c, (got, want)) in cells_of(&batch).iter().zip(&cells).enumerate() {
                assert_bits(got, want, &format!("{what}: {u:?} on {gate_qubits:?}, cell {c}"));
            }

            let (k1, k2) = (1 + s.below(2), 1 + s.below(2));
            let (d1, q1) = (s.diagonal(k1), s.operands(k1, n));
            let (d2, q2) = (s.diagonal(k2), s.operands(k2, n));
            let (m1, m2) = (diagonal_matrix(&mut s, &d1), diagonal_matrix(&mut s, &d2));
            let accept = s.below(3);
            let scale: Vec<Option<f64>> = (0..width)
                .map(|_| match accept {
                    0 => Some(0.5 + s.value().abs()),
                    1 => None,
                    _ => (s.below(2) == 0).then(|| 0.5 + s.value().abs()),
                })
                .collect();
            let committed: Vec<Vec<Complex>> = cells
                .iter()
                .zip(&scale)
                .map(|(cell, sc)| match sc {
                    Some(f) => reference_applied(cell, &m1, &q1)
                        .iter()
                        .map(|z| z.scale(*f))
                        .collect(),
                    None => cell.clone(),
                })
                .collect();
            let weights_of = |cells: &[Vec<Complex>]| -> Vec<f64> {
                cells.iter().map(|cell| ascending_norm(&reference_applied(cell, &m2, &q2))).collect()
            };
            let check_weights = |got: &[f64], want: &[f64], pass: &str| {
                for (c, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{what}: {pass} weight of cell {c}: batched {g} vs dense reference {w}"
                    );
                }
            };

            let mut weights = vec![0.0f64; width];
            let mut weigh = batch.clone();
            weigh.diagonal_weights(&d2, &q2, &mut weights);
            check_weights(&weights, &weights_of(&cells), &format!("{d2:?} on {q2:?}"));
            for (c, (got, want)) in cells_of(&weigh).iter().zip(&cells).enumerate() {
                assert_bits(got, want, &format!("{what}: weigh leaves cell {c}"));
            }

            let mut commit = batch.clone();
            commit.apply_diagonal_scaled(&d1, &q1, &scale);
            for (c, (got, want)) in cells_of(&commit).iter().zip(&committed).enumerate() {
                assert_bits(got, want, &format!("{what}: commit {d1:?} on {q1:?}, cell {c}"));
            }

            let mut fused = batch.clone();
            weights.fill(-1.0);
            fused.apply_diagonal_scaled_and_weigh((&d1, &q1), &scale, (&d2, &q2), &mut weights);
            for (c, (got, want)) in cells_of(&fused).iter().zip(&committed).enumerate() {
                assert_bits(got, want, &format!("{what}: commit-and-weigh {d1:?} on {q1:?}, cell {c}"));
            }
            check_weights(
                &weights,
                &weights_of(&committed),
                &format!("commit {d1:?} on {q1:?} and weigh {d2:?} on {q2:?}"),
            );
        }
    }
}
