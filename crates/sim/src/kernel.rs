//! Index-arithmetic kernels shared by the statevector and density-matrix
//! engines.
//!
//! A `k`-qubit unitary applied to an `n`-qubit register never materializes a
//! `2^n × 2^n` matrix: it transforms groups of `2^k` amplitudes in place.
//! Everything in the stack reduces to one primitive,
//! [`apply_matrix_on_bits`]: apply a `2^k × 2^k` matrix to `k` *flat bit
//! positions* of a `2^m`-amplitude buffer.
//!
//! * Statevector gates: `m = n`, positions are the operand qubits.
//! * Density-matrix `ρ ↦ UρU†`: ρ (row-major) is a statevector over `2n`
//!   bits — row bit `q` is flat bit `n + q`, column bit `q` is flat bit `q`.
//!   The row pass applies `U` at positions `n + qubits`, the column pass
//!   applies the element-wise conjugate at positions `qubits`.
//! * Channel superoperators: a `4^k × 4^k` matrix at the combined positions
//!   `[n + qubits..., qubits...]`.
//!
//! The 1- and 2-qubit cases — all of a transpiled circuit's gates and every
//! 1-qubit channel — run through specialized loops; larger operands (Toffoli,
//! 2-qubit-channel superoperators) fall back to a generic `k ≤ 4` path. All
//! paths are allocation-free (fixed stack buffers) because campaigns call
//! them hundreds of millions of times.
//!
//! # Arithmetic contract
//!
//! Every path, scalar or batched, computes each output amplitude the same
//! way: gather the operand group, accumulate the output from `+0.0` over the
//! **nonzero** entries of its matrix row in ascending column order — `acc +=
//! u[row][col] · g[col]`, the complex product expanded as `(ur·gr − ui·gi,
//! ur·gi + ui·gr)` — and scatter. Results are therefore bit-identical
//! whichever path dispatches, at any batch width, and whether a loop visits
//! every entry or only the nonzero ones — a property the campaign layer's
//! byte-pinned golden exports rely on.
//!
//! Skipping an exactly-zero entry (`±0` in both parts) is exact, not an
//! approximation:
//!
//! 1. An accumulator that starts at `+0.0` never holds `−0.0`: `+0 + (−0)`
//!    is `+0`, and two nonzero values that cancel exactly sum to `+0`.
//! 2. A zero entry times a finite amplitude has parts that are each a sum
//!    or difference of two signed-zero products, so `±0`.
//! 3. `x + (±0) = x` for every `x` other than `−0`.
//!
//! So a zero entry's product never changes an accumulator's bits, and the
//! dense and the skipping loop perform the same sequence of bit-changing
//! additions. The argument needs finite amplitudes (`0 · ∞` is NaN), the
//! default round-to-nearest mode (rounding toward −∞ makes `+0 + (−0)` equal
//! `−0`) and unfused multiply-adds (rustc never contracts `a * b + c`).
//! Nothing here may fold the first product into an accumulator's
//! initialization either: `+0 + x` normalizes the sign of a zero product
//! exactly as every other path does.
//!
//! Each kernel reads the zero pattern of the matrix it is handed once per
//! call, as the kernels with a real-operand walk (below) read whether the
//! matrix is real and the batched 2-qubit kernel reads whether it is a
//! permutation of unit entries; nothing else selects a path. A matrix
//! without zero entries runs the plain dense loops. Otherwise the 1-qubit
//! kernels run a loop specialized to the pattern, the 2-qubit kernels walk
//! each row's nonzero entries padded with zero entries to a common count
//! (where that beats the dense loop: see [`apply_2q`] and
//! [`batch_apply_2q`]), and the generic kernels walk a row-sparse list of
//! the nonzero entries.
//!
//! Three more skips are exact: real operands, in the scalar 1-qubit and
//! one-entry-per-row 2-qubit loops and in the batched walks; unit entries,
//! in the batched 2-qubit walk and the trajectory lanes' diagonal passes;
//! and unobservable groups, in the batched density kernels.
//!
//! **Real operands.** When every entry's imaginary part is `±0` (every CX,
//! SWAP, real Pauli product, diagonal Kraus branch, and calibrated
//! relaxation or depolarizing superoperator), the scalar loops that a
//! trajectory shot runs — the sixteen 1-qubit pattern loops and the
//! 2-qubit one-entry-per-row walk — and the batched walks — the 1-qubit
//! loop for a matrix with a zero entry, the padded-row walk and the
//! row-sparse walk — accumulate `acc += ar · g`, part by part, and drop
//! the `ai · g` products. With `g` finite, `ai · g` is a signed zero, so
//! `ar·gr − ai·gi` equals `ar·gr` unless both are zeros, and then the two
//! differ at most in the sign of zero; the same holds for `ar·gi + ai·gr`.
//! By point 1 above the accumulator is never `−0`, and by point 3 adding
//! `+0` or `−0` to it gives the same bits. So each accumulation, and every
//! output, is unchanged. The accumulator must start at `+0` here too: a
//! walk that began from its first product would keep a `−0` product that
//! the contract turns into `+0`. The scalar 2-qubit full transform and the
//! generic kernel keep the complex products: no workload runs them often
//! enough for a real variant to show.
//!
//! **Unit entries.** An entry whose real part is exactly `1` and whose
//! imaginary part is `±0` multiplies a finite `g` into `g` itself: the real
//! walk forms `1·gr` and `1·gi`, which are `gr` and `gi` bit for bit, signs
//! of zero included. So an output whose lone entry is a unit entry is
//! `+0 + g[col]`, part by part, with no multiplication; the `+0` start
//! stays, since it turns a `−0` part into `+0` as the contract does. The
//! batched 2-qubit kernel takes this permutation walk, once per call, when
//! every row of the matrix holds exactly one nonzero entry and it is a unit
//! entry (CX, SWAP, in the statevector lanes and in both density passes),
//! and copies each row's column. A unit test must read the imaginary part:
//! `1 + 0.25i` is not a unit entry.
//!
//! **Diagonal lane passes.** The trajectory lanes weigh and commit a
//! diagonal Kraus branch through [`batch_diagonal_pass`] rather than
//! through [`apply_matrix_on_bits`]: one ascending pass that commits one
//! diagonal, weighs one, or both, each amplitude committed and stored
//! before it is weighed. A committed lane's amplitude is `+0 + d·ψ[a]`
//! from the row's lone entry, formed per entry kind — `+0 + ψ[a]` for a
//! unit entry, the real walk for an entry whose imaginary part is `±0`,
//! the full product otherwise, `+0` for a zero entry (whose product is a
//! signed zero, so computing it gives the skipped entry's bits) — and
//! then multiplied by `1/√w` part by part, like `Statevector::scale`. A
//! weight sums the products' `re² + im²` in ascending amplitude order from
//! a zero, like a scalar sum over the branch-applied state. Its products
//! drop the `+0` start: `(+0 + t)² = t²` bit for bit, and no term is `−0`,
//! so neither that start nor the sign of the starting zero matters. A
//! unit entry's term is `ψr² + ψi²`, with no multiplication by the entry.
//! A tile in which every lane commits stores without a per-lane select.

//! **Unobservable groups.** A batched density call may take an observed
//! mask `M` of qubits and skip every amplitude group whose fixed bits have
//! `(row ⊕ col)` outside `M` — a group's fixed bits fix `row ⊕ col` on every
//! qubit that is not an operand, and `M` must contain the operands. A
//! replay read only through ρ's diagonal gives each operation the mask
//! `D ∪ T` (`BatchedDensity`'s `ObservedMask::backward_from_diagonal`):
//! walking backward from the readout, `D` starts empty and collects every
//! later operation's operands `T`. The analysis is closed:
//!
//! 1. An entry with `(row ⊕ col) ∩ D = ∅` after an operation on `T` is
//!    computed from entries that differ from it only in `T`'s row and
//!    column bits, which all satisfy `(row ⊕ col) ∩ (D ∪ T) = ∅`. So every
//!    input a kept group reads was itself computed by the operation before
//!    it, down to the broadcast prefix, which is complete.
//! 2. A kept group therefore computes exactly the unmasked values, and a
//!    skipped group's entries are never read by any kept group. They keep
//!    earlier values — the exact values of an earlier state, so finite —
//!    and the readout, whose `D` is empty, reads only kept diagonal
//!    entries.
//!
//! Every skip keeps the base contract's preconditions: finite amplitudes,
//! round-to-nearest, and no fused multiply-add. Only the batched density
//! replay uses masks; the scalar engines compute every entry and stay the
//! oracle the batched replay is checked against, and the dense reference
//! of `tests/kernel_oracle.rs` checks both engines' real walks, the
//! permutation walk and the lanes' diagonal passes.

use qufi_math::Complex;
use std::ops::Range;

/// Largest supported operand count: 3-qubit gates (Toffoli) and 2-qubit
/// channel superoperators (4 combined row/column bits).
pub(crate) const MAX_KERNEL_QUBITS: usize = 4;

/// Rows (and columns) of the largest operand matrix.
const MAX_GROUP: usize = 1 << MAX_KERNEL_QUBITS;

/// Entries of the largest operand matrix.
const MAX_ENTRIES: usize = MAX_GROUP * MAX_GROUP;

/// `true` when both parts of a matrix entry are zero, of either sign: its
/// product with a finite amplitude cannot change an accumulator (see the
/// module docs), so a kernel may skip it.
#[inline]
fn is_zero(z: Complex) -> bool {
    z.re == 0.0 && z.im == 0.0
}

/// `true` when every entry's imaginary part is `±0` (conjugation keeps
/// this), so the kernels may take the real-operand walk (see the module
/// docs).
#[inline]
fn is_real(u: &[Complex]) -> bool {
    u.iter().all(|x| x.im == 0.0)
}

/// `true` for a unit entry: real part exactly `1`, imaginary part `±0`
/// (conjugation keeps this). Its product with a finite amplitude is the
/// amplitude itself (see the module docs).
#[inline]
fn is_unit(x: Complex) -> bool {
    x.re == 1.0 && x.im == 0.0
}

/// `acc += x · v`; when `REAL` (`x.im` is `±0`) only `acc += x.re · v`,
/// part by part, whose dropped `x.im · v` products are signed zeros (see
/// the module docs).
#[inline(always)]
fn mac<const REAL: bool>(acc: &mut Complex, x: Complex, v: Complex) {
    if REAL {
        acc.re += x.re * v.re;
        acc.im += x.re * v.im;
    } else {
        *acc += x * v;
    }
}

/// Applies `u` (a row-major `2^k × 2^k` matrix over the listed flat bit
/// `positions`) to `data`, a buffer of `2^m` amplitudes.
///
/// Matrix-index convention: bit `k-1-j` of a matrix index corresponds to
/// `positions[j]`, i.e. the **first operand is the most significant** matrix
/// bit, matching [`qufi_math::CMatrix::cnot`] (control first).
///
/// When `conjugate` is true the element-wise conjugate of `u` is used
/// (needed for the density-matrix column pass: `ρ ↦ K ρ K†`).
pub(crate) fn apply_matrix_on_bits(
    data: &mut [Complex],
    u: &[Complex],
    positions: &[usize],
    m: usize,
    conjugate: bool,
) {
    let k = positions.len();
    debug_assert_eq!(data.len(), 1usize << m, "buffer is not 2^m amplitudes");
    debug_assert_eq!(u.len(), 1usize << (2 * k), "matrix size mismatch");
    debug_assert!(positions.iter().all(|&q| q < m));
    assert!(
        k <= MAX_KERNEL_QUBITS,
        "kernel supports at most {MAX_KERNEL_QUBITS} operand qubits"
    );
    match k {
        1 => apply_1q(data, u, positions[0], conjugate),
        2 => apply_2q(data, u, positions[0], positions[1], conjugate),
        _ => apply_generic(data, u, positions, m, conjugate),
    }
}

/// Transposed (and optionally conjugated) split-layout copy of a row-major
/// `group × group` matrix — entry `(row, col)` at `col * group + row` — so
/// column-outer accumulation walks it contiguously as plain `f64` arrays the
/// compiler can keep in SIMD registers.
fn transposed<const N: usize>(u: &[Complex], group: usize, conj: bool) -> ([f64; N], [f64; N]) {
    let mut ut_re = [0.0f64; N];
    let mut ut_im = [0.0f64; N];
    for row in 0..group {
        for col in 0..group {
            let x = u[row * group + col];
            ut_re[col * group + row] = x.re;
            ut_im[col * group + row] = if conj { -x.im } else { x.im };
        }
    }
    (ut_re, ut_im)
}

/// A 4×4 matrix (optionally conjugated) as exactly `k` entries per row, `k`
/// the most nonzero entries any row has: each row's nonzero entries in
/// ascending column order, then `+0` entries at column 0. A padding entry's
/// product is a signed zero, which leaves an accumulator unchanged (see the
/// module docs), so every row takes `k` multiply-adds and the loops over
/// them carry no per-entry branches.
struct PaddedRows {
    k: usize,
    /// Every entry's imaginary part is `±0`.
    real: bool,
    /// Every row holds exactly one nonzero entry and it is a unit entry
    /// ([`is_unit`]): CX and SWAP, whose batched walk copies (see the
    /// module docs).
    unit: bool,
    col: [[usize; 4]; 4],
    re: [[f64; 4]; 4],
    im: [[f64; 4]; 4],
}

impl PaddedRows {
    fn of(u: &[Complex], conj: bool) -> Self {
        let mut p = PaddedRows {
            k: 0,
            real: is_real(&u[..16]),
            unit: true,
            col: [[0; 4]; 4],
            re: [[0.0; 4]; 4],
            im: [[0.0; 4]; 4],
        };
        for row in 0..4 {
            let mut n = 0;
            for (col, &x) in u[row * 4..row * 4 + 4].iter().enumerate() {
                if !is_zero(x) {
                    p.col[row][n] = col;
                    p.re[row][n] = x.re;
                    p.im[row][n] = if conj { -x.im } else { x.im };
                    n += 1;
                }
            }
            p.unit &= n == 1 && is_unit(u[row * 4 + p.col[row][0]]);
            p.k = p.k.max(n);
        }
        p
    }
}

/// The nonzero entries of a `group × group` matrix (optionally conjugated),
/// row by row with columns ascending: the order each output accumulates
/// its terms in.
struct RowSparse {
    /// Row `r`'s entries are `start[r]..start[r + 1]`.
    start: [usize; MAX_GROUP + 1],
    /// Every entry's imaginary part is `±0`.
    real: bool,
    col: [u8; MAX_ENTRIES],
    re: [f64; MAX_ENTRIES],
    im: [f64; MAX_ENTRIES],
}

impl RowSparse {
    fn of(u: &[Complex], group: usize, conj: bool) -> Self {
        let mut s = RowSparse {
            start: [0; MAX_GROUP + 1],
            real: is_real(&u[..group * group]),
            col: [0; MAX_ENTRIES],
            re: [0.0; MAX_ENTRIES],
            im: [0.0; MAX_ENTRIES],
        };
        let mut e = 0;
        for row in 0..group {
            for (col, &x) in u[row * group..(row + 1) * group].iter().enumerate() {
                if !is_zero(x) {
                    s.col[e] = col as u8;
                    s.re[e] = x.re;
                    s.im[e] = if conj { -x.im } else { x.im };
                    e += 1;
                }
            }
            s.start[row + 1] = e;
        }
        s
    }

    #[inline(always)]
    fn row(&self, row: usize) -> Range<usize> {
        self.start[row]..self.start[row + 1]
    }

    #[inline(always)]
    fn col(&self, e: usize) -> usize {
        usize::from(self.col[e])
    }
}

/// Data offset of each matrix index's amplitude within its group (the
/// deposit of the index bits at the operand positions; matrix bit `k-1-j`
/// is `positions[j]`), and the operand positions sorted ascending — the
/// holes [`deposit`] spreads the rest-space counter around.
fn group_layout(positions: &[usize]) -> ([usize; MAX_GROUP], [usize; MAX_KERNEL_QUBITS]) {
    let k = positions.len();
    let mut pos = [0usize; MAX_GROUP];
    for (mm, slot) in pos.iter_mut().enumerate().take(1 << k) {
        for (j, &q) in positions.iter().enumerate() {
            if (mm >> (k - 1 - j)) & 1 == 1 {
                *slot |= 1usize << q;
            }
        }
    }
    let mut holes = [0usize; MAX_KERNEL_QUBITS];
    holes[..k].copy_from_slice(positions);
    holes[..k].sort_unstable();
    (pos, holes)
}

/// Base index of rest-space group `r`: its bits deposited around the sorted
/// operand `holes`.
#[inline(always)]
fn deposit(r: usize, holes: &[usize]) -> usize {
    let mut idx = r;
    for &q in holes {
        let low = idx & ((1 << q) - 1);
        idx = ((idx >> q) << (q + 1)) | low;
    }
    idx
}

/// The rest-space walk of a two-operand kernel: counter bits are deposited
/// around the two operand holes (sorted ascending), and each group lists
/// its four amplitudes in matrix-index order (`p_hi` the most significant
/// matrix bit).
struct Quad {
    qa: usize,
    qb: usize,
    o_hi: usize,
    o_lo: usize,
}

impl Quad {
    fn new(p_hi: usize, p_lo: usize) -> Self {
        Quad {
            qa: p_hi.min(p_lo),
            qb: p_hi.max(p_lo),
            o_hi: 1 << p_hi,
            o_lo: 1 << p_lo,
        }
    }

    #[inline(always)]
    fn amps(&self, r: usize) -> [usize; 4] {
        let (qa, qb) = (self.qa, self.qb);
        let t = ((r >> qa) << (qa + 1)) | (r & ((1 << qa) - 1));
        let idx = ((t >> qb) << (qb + 1)) | (t & ((1 << qb) - 1));
        [
            idx,
            idx | self.o_lo,
            idx | self.o_hi,
            idx | self.o_lo | self.o_hi,
        ]
    }
}

/// Specialized single-operand kernel: transforms amplitude pairs in place.
///
/// The matrix's zero pattern and whether it is real pick one of 32
/// monomorphizations of [`apply_1q_nz`], so each runs a branch-free loop
/// over just its nonzero entries (the all-nonzero ones are the plain dense
/// loops).
fn apply_1q(data: &mut [Complex], u: &[Complex], q: usize, conjugate: bool) {
    type Kernel = fn(&mut [Complex], &[Complex], usize, bool);
    macro_rules! by_pattern {
        ($real:literal) => {
            [
                apply_1q_nz::<0, $real>,
                apply_1q_nz::<1, $real>,
                apply_1q_nz::<2, $real>,
                apply_1q_nz::<3, $real>,
                apply_1q_nz::<4, $real>,
                apply_1q_nz::<5, $real>,
                apply_1q_nz::<6, $real>,
                apply_1q_nz::<7, $real>,
                apply_1q_nz::<8, $real>,
                apply_1q_nz::<9, $real>,
                apply_1q_nz::<10, $real>,
                apply_1q_nz::<11, $real>,
                apply_1q_nz::<12, $real>,
                apply_1q_nz::<13, $real>,
                apply_1q_nz::<14, $real>,
                apply_1q_nz::<15, $real>,
            ]
        };
    }
    const BY_PATTERN: [[Kernel; 16]; 2] = [by_pattern!(false), by_pattern!(true)];
    let pattern = (0..4).fold(0, |p, e| p | (usize::from(!is_zero(u[e])) << e));
    BY_PATTERN[usize::from(is_real(&u[..4]))][pattern](data, u, q, conjugate);
}

/// [`apply_1q`] for zero pattern `NZ` (bit `e` set when row-major entry `e`
/// is nonzero), `REAL` when every entry's imaginary part is `±0`.
///
/// Blocks are walked as `chunks_exact_mut(2·bit)` split at `bit`, so the
/// inner pair loop is a bounds-check-free zip over two slices the compiler
/// can pipeline and vectorize. At bit 0 that loop would run once per block,
/// so bit 0 walks the `chunks_exact_mut(2)` pairs directly instead.
fn apply_1q_nz<const NZ: u8, const REAL: bool>(
    data: &mut [Complex],
    u: &[Complex],
    q: usize,
    conjugate: bool,
) {
    let bit = 1usize << q;
    let e: [Complex; 4] = std::array::from_fn(|i| if conjugate { u[i].conj() } else { u[i] });
    if q == 0 {
        for block in data.chunks_exact_mut(2) {
            let [p0, p1] = block else {
                unreachable!("chunks of two")
            };
            pair_1q::<NZ, REAL>(p0, p1, &e);
        }
        return;
    }
    for block in data.chunks_exact_mut(bit << 1) {
        let (lo, hi) = block.split_at_mut(bit);
        for (p0, p1) in lo.iter_mut().zip(hi.iter_mut()) {
            pair_1q::<NZ, REAL>(p0, p1, &e);
        }
    }
}

/// One amplitude pair of [`apply_1q_nz`] under the row-major entries `e`.
#[inline(always)]
fn pair_1q<const NZ: u8, const REAL: bool>(p0: &mut Complex, p1: &mut Complex, e: &[Complex; 4]) {
    let v0 = *p0;
    let v1 = *p1;
    let mut a0 = Complex::ZERO;
    if NZ & 1 != 0 {
        mac::<REAL>(&mut a0, e[0], v0);
    }
    if NZ & 2 != 0 {
        mac::<REAL>(&mut a0, e[1], v1);
    }
    let mut a1 = Complex::ZERO;
    if NZ & 4 != 0 {
        mac::<REAL>(&mut a1, e[2], v0);
    }
    if NZ & 8 != 0 {
        mac::<REAL>(&mut a1, e[3], v1);
    }
    *p0 = a0;
    *p1 = a1;
}

/// Specialized two-operand kernel: 4-amplitude gather, 4×4 transform,
/// scatter. `p_hi` is the most significant matrix bit.
///
/// The full transform accumulates column-outer into four independent output
/// accumulators (through a [`transposed`] copy, so the inner row loop is
/// contiguous): each output still sums its columns in ascending order, but
/// the four chains pipeline instead of serializing on one accumulator, and
/// the compiler vectorizes them across the four rows. That beats walking
/// the [`PaddedRows`] entries one product at a time unless each row has at
/// most one nonzero entry (CX, SWAP, Pauli products, diagonal matrices), so
/// only those take the walk, [`apply_2q_monomial`].
fn apply_2q(data: &mut [Complex], u: &[Complex], p_hi: usize, p_lo: usize, conjugate: bool) {
    let quad = Quad::new(p_hi, p_lo);
    let rest = data.len() >> 2;
    let rows = PaddedRows::of(u, conjugate);
    if rows.k <= 1 {
        if rows.real {
            apply_2q_monomial::<true>(data, &quad, &rows);
        } else {
            apply_2q_monomial::<false>(data, &quad, &rows);
        }
        return;
    }
    let (ut_re, ut_im) = transposed::<16>(u, 4, conjugate);
    for r in 0..rest {
        let amps = quad.amps(r);
        let g = amps.map(|a| data[a]);
        let mut o_re = [0.0f64; 4];
        let mut o_im = [0.0f64; 4];
        for (col, &gc) in g.iter().enumerate() {
            let (cr, ci) = (gc.re, gc.im);
            let ur = &ut_re[col * 4..col * 4 + 4];
            let ui = &ut_im[col * 4..col * 4 + 4];
            // Exactly `slot += u · g` unrolled into parts: each output's
            // column order — and therefore every bit — is unchanged.
            for (((or_, oi_), &ar), &ai) in o_re.iter_mut().zip(o_im.iter_mut()).zip(ur).zip(ui) {
                *or_ += ar * cr - ai * ci;
                *oi_ += ar * ci + ai * cr;
            }
        }
        for (row, &a) in amps.iter().enumerate() {
            data[a] = Complex::new(o_re[row], o_im[row]);
        }
    }
}

/// [`apply_2q`] for a matrix with at most one nonzero entry per row, `REAL`
/// when every entry's imaginary part is `±0`. The four entries and the
/// group slots they read are hoisted out of the group loop; a row without
/// a nonzero entry reads slot 0 through its `+0` padding entry.
fn apply_2q_monomial<const REAL: bool>(data: &mut [Complex], quad: &Quad, rows: &PaddedRows) {
    let col: [usize; 4] = std::array::from_fn(|row| rows.col[row][0]);
    let entry: [Complex; 4] =
        std::array::from_fn(|row| Complex::new(rows.re[row][0], rows.im[row][0]));
    for r in 0..data.len() >> 2 {
        let amps = quad.amps(r);
        let g = amps.map(|a| data[a]);
        for row in 0..4 {
            let mut acc = Complex::ZERO;
            mac::<REAL>(&mut acc, entry[row], g[col[row]]);
            data[amps[row]] = acc;
        }
    }
}

/// Generic `k ≤ 4` fallback (Toffoli, 2-qubit-channel superoperators).
fn apply_generic(data: &mut [Complex], u: &[Complex], positions: &[usize], m: usize, conj: bool) {
    let k = positions.len();
    let group = 1usize << k;
    let rest = 1usize << (m - k);
    let (pos, holes) = group_layout(positions);
    let holes = &holes[..k];
    let mut gathered = [Complex::ZERO; MAX_GROUP];

    if u.iter().any(|&x| is_zero(x)) {
        // Row-sparse: each output accumulates its row's nonzero entries.
        let sparse = RowSparse::of(u, group, conj);
        for r in 0..rest {
            let idx = deposit(r, holes);
            for (slot, &off) in gathered.iter_mut().zip(&pos).take(group) {
                *slot = data[idx | off];
            }
            for (row, &off) in pos.iter().enumerate().take(group) {
                let mut acc = Complex::ZERO;
                for e in sparse.row(row) {
                    acc += Complex::new(sparse.re[e], sparse.im[e]) * gathered[sparse.col(e)];
                }
                data[idx | off] = acc;
            }
        }
        return;
    }

    // Dense: column-outer accumulation over the transposed copy. Each
    // output element still sums its columns in ascending order, but the
    // `group` output chains are independent and pipeline instead of
    // serializing on a single accumulator.
    let (ut_re, ut_im) = transposed::<MAX_ENTRIES>(u, group, conj);
    let mut o_re = [0.0f64; MAX_GROUP];
    let mut o_im = [0.0f64; MAX_GROUP];
    for r in 0..rest {
        let idx = deposit(r, holes);
        for (slot, &off) in gathered.iter_mut().zip(&pos).take(group) {
            *slot = data[idx | off];
        }
        o_re[..group].fill(0.0);
        o_im[..group].fill(0.0);
        for (col, &gc) in gathered.iter().enumerate().take(group) {
            let (cr, ci) = (gc.re, gc.im);
            let ur = &ut_re[col * group..(col + 1) * group];
            let ui = &ut_im[col * group..(col + 1) * group];
            for (((or_, oi_), &ar), &ai) in o_re[..group]
                .iter_mut()
                .zip(o_im[..group].iter_mut())
                .zip(ur)
                .zip(ui)
            {
                *or_ += ar * cr - ai * ci;
                *oi_ += ar * ci + ai * cr;
            }
        }
        for row in 0..group {
            data[idx | pos[row]] = Complex::new(o_re[row], o_im[row]);
        }
    }
}

// ---------------------------------------------------------------------------
// Batched (cell-major) kernels
// ---------------------------------------------------------------------------
//
// The batched replay engine lays `width` forked states out as columns of one
// split-complex matrix: flat index `amp * width + cell`, real and imaginary
// parts in separate `f64` buffers. A gate's index arithmetic (block walks,
// rest-space deposits, gather/scatter offsets) is computed once per amplitude
// group and applied to all cells through stride-1 inner loops the compiler
// vectorizes *across cells*. Each cell's own operation sequence is exactly
// the scalar kernels' (the module's arithmetic contract), so a batched cell
// is bit-identical to a scalar replay of the same state. Zero-entry, real-
// operand, unit-entry and observed-group decisions sit outside the cell
// loops: a skipped entry or group costs at most one branch per amplitude
// group, never work per cell.
//
// Every kernel runs its cell loops at a compile-time width: it walks the
// cells in `const T` tiles, powers of two ([`pow2_tile`]) or register tiles
// of at most 8 lanes. With runtime trip counts the vectorizer emits
// prologue/epilogue checks around 4–16-element loops and the batched path
// loses to the scalar kernels' fully unrolled fixed-length loops; a const
// tile is what turns the cell axis into straight-line vector code (one or
// two full-width vectors per accumulate at T = 8/16 on AVX-512). Tiles read
// their inputs into local arrays before storing any output, so no loop
// depends on the compiler proving that two rows of one buffer are disjoint.
// Tiling never changes arithmetic order, so every width stays bit-identical.

/// Largest supported batch width (cells per block). Sized so a 4-operand
/// gather/accumulate group (16 amplitudes × 16 cells × 4 buffers) still fits
/// comfortably in stack arrays and L1.
pub(crate) const MAX_BATCH_CELLS: usize = 16;

/// The amplitude groups one batched call computes.
///
/// A density kernel call runs over ρ as a statevector of `2n` flat bits,
/// row bit `q` at flat bit `n + q` and column bit `q` at flat bit `q`. A
/// group's fixed bits are every flat bit outside the call's operand
/// positions, so they fix `row ⊕ col` on every qubit outside the operands.
/// The filter skips a group when that xor has a bit on a qubit of `free`,
/// the qubits outside the call's observed mask. Skipped groups keep their
/// earlier values; the module docs give the conditions under which no
/// observed output reads them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Observed {
    n: usize,
    free: usize,
}

impl Observed {
    /// Computes every group: the statevector kernels and unmasked density
    /// calls.
    pub(crate) const ALL: Observed = Observed { n: 0, free: 0 };

    /// The filter of an `n`-qubit density call whose observed mask is
    /// `mask` (bit `q` set for qubit `q`).
    pub(crate) fn density(n: usize, mask: u64) -> Self {
        let qubits = 1u64.checked_shl(n as u32).map_or(u64::MAX, |b| b - 1);
        Observed {
            n,
            free: (qubits & !mask) as usize,
        }
    }

    /// Whether the filter keeps every group.
    #[inline(always)]
    fn keeps_all(self) -> bool {
        self.free == 0
    }

    /// Whether the group with base index `base` (operand bits zero) is
    /// skipped.
    #[inline(always)]
    fn skips(self, base: usize) -> bool {
        ((base >> self.n) ^ base) & self.free != 0
    }
}

/// Batched counterpart of [`apply_matrix_on_bits`]: applies one shared
/// `2^k × 2^k` matrix to every cell of a cell-major split-complex buffer
/// holding `width` states of `2^m` amplitudes each, computing only the
/// groups `observed` keeps.
#[allow(clippy::too_many_arguments)] // the scalar signature plus width and filter
pub(crate) fn batch_apply_matrix_on_bits(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u: &[Complex],
    positions: &[usize],
    m: usize,
    conjugate: bool,
    observed: Observed,
) {
    let k = positions.len();
    debug_assert_eq!(re.len(), width << m, "buffer is not width · 2^m reals");
    debug_assert_eq!(re.len(), im.len());
    debug_assert_eq!(u.len(), 1usize << (2 * k), "matrix size mismatch");
    debug_assert!(positions.iter().all(|&q| q < m));
    assert!(
        k <= MAX_KERNEL_QUBITS,
        "kernel supports at most {MAX_KERNEL_QUBITS} operand qubits"
    );
    assert!(
        (1..=MAX_BATCH_CELLS).contains(&width),
        "batch width must be 1..={MAX_BATCH_CELLS}"
    );
    match k {
        1 => batch_apply_1q(re, im, width, u, positions[0], conjugate, observed),
        2 => batch_apply_2q(
            re,
            im,
            width,
            u,
            positions[0],
            positions[1],
            conjugate,
            observed,
        ),
        _ => batch_apply_generic(re, im, width, u, positions, m, conjugate, observed),
    }
}

/// Cells per register tile in the dense 2q and generic kernels. Tiling
/// bounds the live accumulator set — a full-width accumulator block for a
/// 4×4 or 16×16 transform spills registers at `width` 16 — while a
/// remainder tile narrower than the constant just runs shorter; per-cell
/// arithmetic order is unchanged either way. The sizes are empirical on the
/// bv-4 density workload: the 4×4 transform peaks at 4 lanes (its 4-row
/// accumulator block plus gathers stays register-resident with room for the
/// compiler to software-pipeline), the 16×16 superoperator transform at 8
/// lanes (one 512-bit vector per row, amortizing its much larger gather).
const BATCH_TILE_2Q: usize = 4;
const BATCH_TILE_GENERIC: usize = 8;

/// Cells in the next tile starting at cell `c0`: the largest power of two
/// that fits. The 1q kernels and the sparse walks keep at most two output
/// rows live, so registers do not bound their tiles, and a full block of
/// [`MAX_BATCH_CELLS`] goes as one tile; powers of two split any width into
/// at most five tiles while monomorphizing only five tile sizes.
#[inline(always)]
fn pow2_tile(width: usize, c0: usize) -> usize {
    1 << (width - c0).ilog2()
}

/// Expands `match tile` over the [`pow2_tile`] sizes so each arm calls the
/// tile kernel with a `const T` equal to the runtime tile (and, when given,
/// the const arguments after it).
macro_rules! dispatch_pow2 {
    ($tile:expr => $f:ident $(::<_ $(, $flag:tt)+>)? ($($args:expr),* $(,)?)) => {
        match $tile {
            1 => $f::<1 $($(, $flag)+)?>($($args),*),
            2 => $f::<2 $($(, $flag)+)?>($($args),*),
            4 => $f::<4 $($(, $flag)+)?>($($args),*),
            8 => $f::<8 $($(, $flag)+)?>($($args),*),
            16 => $f::<16 $($(, $flag)+)?>($($args),*),
            _ => unreachable!("pow2 tiles are powers of two up to MAX_BATCH_CELLS"),
        }
    };
}

/// Expands `match tile` over 1..=8 so each arm calls the tile kernel with a
/// `const T` equal to the runtime remainder.
macro_rules! dispatch_tile {
    ($tile:expr => $f:ident($($args:expr),* $(,)?)) => {
        match $tile {
            1 => $f::<1>($($args),*),
            2 => $f::<2>($($args),*),
            3 => $f::<3>($($args),*),
            4 => $f::<4>($($args),*),
            5 => $f::<5>($($args),*),
            6 => $f::<6>($($args),*),
            7 => $f::<7>($($args),*),
            8 => $f::<8>($($args),*),
            _ => unreachable!("tile bounded by the per-kernel BATCH_TILE constant"),
        }
    };
}

/// `acc += (ar + i·ai) · g` in every one of `T` cells, each part expanded
/// exactly as the scalar `Complex` product.
#[inline(always)]
fn cell_mac<const T: usize>(
    acc_re: &mut [f64; T],
    acc_im: &mut [f64; T],
    ar: f64,
    ai: f64,
    g_re: &[f64; T],
    g_im: &[f64; T],
) {
    for c in 0..T {
        acc_re[c] += ar * g_re[c] - ai * g_im[c];
        acc_im[c] += ar * g_im[c] + ai * g_re[c];
    }
}

/// [`cell_mac`] of one entry of a walked matrix: when `REAL` (every entry's
/// imaginary part is `±0`) only `acc += ar · g`, whose dropped `ai · g`
/// products are signed zeros (see the module docs).
#[inline(always)]
fn entry_mac<const T: usize, const REAL: bool>(
    acc_re: &mut [f64; T],
    acc_im: &mut [f64; T],
    ar: f64,
    ai: f64,
    g_re: &[f64; T],
    g_im: &[f64; T],
) {
    if REAL {
        for c in 0..T {
            acc_re[c] += ar * g_re[c];
            acc_im[c] += ar * g_im[c];
        }
    } else {
        cell_mac(acc_re, acc_im, ar, ai, g_re, g_im);
    }
}

/// `acc += e · g` in every one of `T` cells with a per-cell entry `e`, each
/// part expanded exactly as the scalar `Complex` product.
#[inline(always)]
fn lane_mac<const T: usize>(
    acc_re: &mut [f64; T],
    acc_im: &mut [f64; T],
    e_re: &[f64; T],
    e_im: &[f64; T],
    g_re: &[f64; T],
    g_im: &[f64; T],
) {
    for c in 0..T {
        acc_re[c] += e_re[c] * g_re[c] - e_im[c] * g_im[c];
        acc_im[c] += e_re[c] * g_im[c] + e_im[c] * g_re[c];
    }
}

/// Runs `$body` on cells `$c0..$c0 + T` of every amplitude pair of a
/// single-operand pass on flat bit `$q` that `$observed` keeps, with
/// `$r0, $i0, $r1, $i1` bound to the real and imaginary lanes of the
/// pair's low and high amplitude. Blocks are walked as
/// `chunks_exact_mut(2·bit)` rows split at `bit`, as the scalar kernel
/// does. A call that keeps every group runs a copy of the walk without the
/// per-pair test, which costs the lightest 1q loops about a tenth. A macro
/// rather than a closure: the compiler declined to inline the per-pair
/// closure at some tile sizes.
macro_rules! for_each_pair {
    (
        $re:expr, $im:expr, $width:expr, $c0:expr, $q:expr, $observed:expr,
        |$r0:ident, $i0:ident, $r1:ident, $i1:ident| $body:block
    ) => {{
        let (width, c0, q, observed): (usize, usize, usize, Observed) =
            ($width, $c0, $q, $observed);
        let bit = 1usize << q;
        let block = (bit << 1) * width;
        macro_rules! walk {
            ($test:expr) => {
                for (b, (bre, bim)) in $re
                    .chunks_exact_mut(block)
                    .zip($im.chunks_exact_mut(block))
                    .enumerate()
                {
                    let (lo_re, hi_re) = bre.split_at_mut(bit * width);
                    let (lo_im, hi_im) = bim.split_at_mut(bit * width);
                    for p in 0..bit {
                        if $test && observed.skips((b << (q + 1)) | p) {
                            continue;
                        }
                        let at = p * width + c0;
                        let $r0 = tile_mut(lo_re, at);
                        let $i0 = tile_mut(lo_im, at);
                        let $r1 = tile_mut(hi_re, at);
                        let $i1 = tile_mut(hi_im, at);
                        $body
                    }
                }
            };
        }
        if observed.keeps_all() {
            walk!(false);
        } else {
            walk!(true);
        }
    }};
}

/// Reborrows the `T` lanes starting at `at` as a fixed-size array.
#[inline(always)]
fn tile_mut<const T: usize>(buf: &mut [f64], at: usize) -> &mut [f64; T] {
    (&mut buf[at..at + T]).try_into().expect("tile of T lanes")
}

/// Batched single-operand kernel with one shared matrix. The cells split
/// into [`pow2_tile`]s and each tile walks every amplitude pair: a matrix
/// without zero entries through [`batch_1q_tile`] with its entries
/// broadcast across the lanes, one with a zero entry through
/// [`batch_1q_sparse_tile`].
fn batch_apply_1q(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u: &[Complex],
    q: usize,
    conj: bool,
    observed: Observed,
) {
    let entries: [Complex; 4] = std::array::from_fn(|e| if conj { u[e].conj() } else { u[e] });
    let dense = entries.iter().all(|&x| !is_zero(x));
    let real = is_real(&entries);
    let mut c0 = 0usize;
    while c0 < width {
        let tile = pow2_tile(width, c0);
        if dense {
            dispatch_pow2!(tile => batch_1q_shared(re, im, width, c0, &entries, q, observed));
        } else if real {
            dispatch_pow2!(
                tile => batch_1q_sparse_tile::<_, true>(re, im, width, c0, &entries, q, observed)
            );
        } else {
            dispatch_pow2!(
                tile => batch_1q_sparse_tile::<_, false>(re, im, width, c0, &entries, q, observed)
            );
        }
        c0 += tile;
    }
}

/// One tile of [`batch_apply_1q`] with a matrix without zero entries: its
/// entries broadcast across the tile's lanes.
#[inline(never)] // each tile's pair loop compiles on its own, not inside the dispatcher
fn batch_1q_shared<const T: usize>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    entries: &[Complex; 4],
    q: usize,
    observed: Observed,
) {
    let e_re = entries.map(|x| [x.re; T]);
    let e_im = entries.map(|x| [x.im; T]);
    batch_1q_tile(re, im, width, c0, q, &e_re, &e_im, observed);
}

/// The scalar pair loop over cells `c0..c0 + T`, with matrix entry `e` of
/// lane `c` at `e_re[e][c]`, `e_im[e][c]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn batch_1q_tile<const T: usize>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    q: usize,
    e_re: &[[f64; T]; 4],
    e_im: &[[f64; T]; 4],
    observed: Observed,
) {
    for_each_pair!(re, im, width, c0, q, observed, |r0, i0, r1, i1| {
        let (v0r, v0i, v1r, v1i) = (*r0, *i0, *r1, *i1);
        let (mut a0r, mut a0i) = ([0.0f64; T], [0.0f64; T]);
        let (mut a1r, mut a1i) = ([0.0f64; T], [0.0f64; T]);
        lane_mac(&mut a0r, &mut a0i, &e_re[0], &e_im[0], &v0r, &v0i);
        lane_mac(&mut a0r, &mut a0i, &e_re[1], &e_im[1], &v1r, &v1i);
        lane_mac(&mut a1r, &mut a1i, &e_re[2], &e_im[2], &v0r, &v0i);
        lane_mac(&mut a1r, &mut a1i, &e_re[3], &e_im[3], &v1r, &v1i);
        (*r0, *i0, *r1, *i1) = (a0r, a0i, a1r, a1i);
    });
}

/// One tile of [`batch_apply_1q`] for a matrix with a zero entry (rz, x,
/// damping Kraus operators): under every amplitude pair, each nonzero
/// entry's product runs as its own `T`-cell loop, in the row's column order.
#[inline(never)] // each tile's pair loop compiles on its own, not inside the dispatcher
fn batch_1q_sparse_tile<const T: usize, const REAL: bool>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    entries: &[Complex; 4],
    q: usize,
    observed: Observed,
) {
    let nonzero = entries.map(|x| !is_zero(x));
    for_each_pair!(re, im, width, c0, q, observed, |r0, i0, r1, i1| {
        let v = [(*r0, *i0), (*r1, *i1)];
        let mut out = [([0.0f64; T], [0.0f64; T]); 2];
        for (row, (o_re, o_im)) in out.iter_mut().enumerate() {
            for (col, (v_re, v_im)) in v.iter().enumerate() {
                let e = row * 2 + col;
                if nonzero[e] {
                    let x = entries[e];
                    entry_mac::<T, REAL>(o_re, o_im, x.re, x.im, v_re, v_im);
                }
            }
        }
        (*r0, *i0) = out[0];
        (*r1, *i1) = out[1];
    });
}

/// Batched single-operand kernel with one matrix **per cell** (the grid's
/// per-cell injector). `u_re`/`u_im` hold the four matrix entries in
/// element-major layout: entry `e` of cell `c` at `e * width + c`.
#[allow(clippy::too_many_arguments)] // the batched kernel signature plus filter
pub(crate) fn batch_apply_1q_per_cell(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u_re: &[f64],
    u_im: &[f64],
    q: usize,
    conjugate: bool,
    observed: Observed,
) {
    debug_assert_eq!(u_re.len(), 4 * width);
    debug_assert_eq!(u_im.len(), 4 * width);
    assert!(
        (1..=MAX_BATCH_CELLS).contains(&width),
        "batch width must be 1..={MAX_BATCH_CELLS}"
    );
    let mut c0 = 0usize;
    while c0 < width {
        let tile = pow2_tile(width, c0);
        dispatch_pow2!(
            tile => batch_1q_per_cell_tile(re, im, width, c0, u_re, u_im, q, conjugate, observed)
        );
        c0 += tile;
    }
}

/// One tile of [`batch_apply_1q_per_cell`]: lane `c` takes cell `c0 + c`'s
/// entries.
#[inline(never)] // each tile's pair loop compiles on its own, not inside the dispatcher
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn batch_1q_per_cell_tile<const T: usize>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    u_re: &[f64],
    u_im: &[f64],
    q: usize,
    conjugate: bool,
    observed: Observed,
) {
    // Conjugate the entries once up front. Negation by `-1.0 ·` is exact, so
    // this is bit-identical to the scalar path's per-use `u[i].conj()`.
    let s = if conjugate { -1.0f64 } else { 1.0f64 };
    let mut e_re = [[0.0f64; T]; 4];
    let mut e_im = [[0.0f64; T]; 4];
    for e in 0..4 {
        for c in 0..T {
            e_re[e][c] = u_re[e * width + c0 + c];
            e_im[e][c] = s * u_im[e * width + c0 + c];
        }
    }
    batch_1q_tile(re, im, width, c0, q, &e_re, &e_im, observed);
}

/// Batched two-operand kernel: the scalar 4-amplitude gather/transform/
/// scatter with the cell dimension as the stride-1 inner axis. Here every
/// multiply-add is a vector operation across cells, so a matrix whose rows
/// have fewer than four nonzero entries each walks its [`PaddedRows`] in
/// [`batch_2q_padded_tile`]s; the full transform is walked in
/// [`BATCH_TILE_2Q`]-cell register tiles. The walk is chosen once per
/// call: a permutation of unit entries (CX, SWAP) copies each row's column,
/// a real matrix drops the imaginary products, and any other multiplies in
/// full.
#[allow(clippy::too_many_arguments)] // the batched kernel signature plus filter
fn batch_apply_2q(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u: &[Complex],
    p_hi: usize,
    p_lo: usize,
    conj: bool,
    observed: Observed,
) {
    let quad = Quad::new(p_hi, p_lo);
    let rows = PaddedRows::of(u, conj);
    if rows.k < 4 {
        if rows.unit {
            batch_2q_walk::<UNIT_ENTRY>(re, im, width, &quad, &rows, observed);
        } else if rows.real {
            batch_2q_walk::<REAL_ENTRY>(re, im, width, &quad, &rows, observed);
        } else {
            batch_2q_walk::<COMPLEX_ENTRY>(re, im, width, &quad, &rows, observed);
        }
        return;
    }
    let (ut_re, ut_im) = transposed::<16>(u, 4, conj);
    let rest = (re.len() / width) >> 2;
    for r in 0..rest {
        let amps = quad.amps(r);
        if observed.skips(amps[0]) {
            continue;
        }
        let mut c0 = 0usize;
        while c0 < width {
            let tile = (width - c0).min(BATCH_TILE_2Q);
            dispatch_tile!(tile => batch_2q_tile(re, im, width, c0, &amps, &ut_re, &ut_im));
            c0 += tile;
        }
    }
}

/// [`batch_apply_2q`]'s [`PaddedRows`] walk over entries of kind `KIND`
/// (every entry's, see [`UNIT_ENTRY`]).
fn batch_2q_walk<const KIND: u8>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    quad: &Quad,
    rows: &PaddedRows,
    observed: Observed,
) {
    let rest = (re.len() / width) >> 2;
    for r in 0..rest {
        let amps = quad.amps(r);
        if observed.skips(amps[0]) {
            continue;
        }
        let mut c0 = 0usize;
        while c0 < width {
            let tile = pow2_tile(width, c0);
            dispatch_pow2!(
                tile => batch_2q_padded_tile::<_, KIND>(re, im, width, c0, &amps, rows)
            );
            c0 += tile;
        }
    }
}

/// One register tile of [`batch_apply_2q`]: cells `c0..c0 + T` of a gathered
/// 4-amplitude group, accumulated column-outer over the [`transposed`]
/// matrix.
#[inline(always)]
fn batch_2q_tile<const T: usize>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    amps: &[usize; 4],
    ut_re: &[f64; 16],
    ut_im: &[f64; 16],
) {
    let mut g_re = [[0.0f64; T]; 4];
    let mut g_im = [[0.0f64; T]; 4];
    for (slot, &a) in amps.iter().enumerate() {
        let base = a * width + c0;
        g_re[slot].copy_from_slice(&re[base..base + T]);
        g_im[slot].copy_from_slice(&im[base..base + T]);
    }
    let mut o_re = [[0.0f64; T]; 4];
    let mut o_im = [[0.0f64; T]; 4];
    for col in 0..4 {
        for row in 0..4 {
            let e = col * 4 + row;
            let (or_, oi_) = (&mut o_re[row], &mut o_im[row]);
            cell_mac(or_, oi_, ut_re[e], ut_im[e], &g_re[col], &g_im[col]);
        }
    }
    for (row, &a) in amps.iter().enumerate() {
        let base = a * width + c0;
        re[base..base + T].copy_from_slice(&o_re[row]);
        im[base..base + T].copy_from_slice(&o_im[row]);
    }
}

/// One register tile of [`batch_apply_2q`]'s [`PaddedRows`] walk: cells
/// `c0..c0 + T` of a gathered 4-amplitude group, one output row at a time.
/// Under [`UNIT_ENTRY`] each row is `+0 + g[col]` of its lone column.
#[inline(always)]
fn batch_2q_padded_tile<const T: usize, const KIND: u8>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    amps: &[usize; 4],
    rows: &PaddedRows,
) {
    let mut g_re = [[0.0f64; T]; 4];
    let mut g_im = [[0.0f64; T]; 4];
    for (slot, &a) in amps.iter().enumerate() {
        let base = a * width + c0;
        g_re[slot].copy_from_slice(&re[base..base + T]);
        g_im[slot].copy_from_slice(&im[base..base + T]);
    }
    for (row, &a) in amps.iter().enumerate() {
        let mut o_re = [0.0f64; T];
        let mut o_im = [0.0f64; T];
        if KIND == UNIT_ENTRY {
            let col = rows.col[row][0];
            for c in 0..T {
                o_re[c] += g_re[col][c];
                o_im[c] += g_im[col][c];
            }
        } else {
            for j in 0..rows.k {
                let col = rows.col[row][j];
                let (er, ei) = (rows.re[row][j], rows.im[row][j]);
                let (gr, gi) = (&g_re[col], &g_im[col]);
                if KIND == REAL_ENTRY {
                    entry_mac::<T, true>(&mut o_re, &mut o_im, er, ei, gr, gi);
                } else {
                    entry_mac::<T, false>(&mut o_re, &mut o_im, er, ei, gr, gi);
                }
            }
        }
        let base = a * width + c0;
        re[base..base + T].copy_from_slice(&o_re);
        im[base..base + T].copy_from_slice(&o_im);
    }
}

/// Batched generic `k ≤ 4` kernel (Toffoli, channel superoperators). A
/// dense matrix is walked in [`BATCH_TILE_GENERIC`]-cell register tiles;
/// one with a zero entry walks a [`RowSparse`] list in [`batch_sparse_tile`]s.
#[allow(clippy::too_many_arguments)] // the batched kernel signature plus filter
fn batch_apply_generic(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u: &[Complex],
    positions: &[usize],
    m: usize,
    conj: bool,
    observed: Observed,
) {
    let k = positions.len();
    let group = 1usize << k;
    let rest = 1usize << (m - k);
    let (pos, holes) = group_layout(positions);
    let holes = &holes[..k];

    if u.iter().any(|&x| is_zero(x)) {
        let sparse = RowSparse::of(u, group, conj);
        if sparse.real {
            batch_generic_walk::<true>(re, im, width, holes, &pos, group, &sparse, observed);
        } else {
            batch_generic_walk::<false>(re, im, width, holes, &pos, group, &sparse, observed);
        }
        return;
    }

    let (ut_re, ut_im) = transposed::<MAX_ENTRIES>(u, group, conj);
    for r in 0..rest {
        let idx = deposit(r, holes);
        if observed.skips(idx) {
            continue;
        }
        let mut c0 = 0usize;
        while c0 < width {
            let tile = (width - c0).min(BATCH_TILE_GENERIC);
            dispatch_tile!(
                tile => batch_generic_tile(re, im, width, c0, idx, &pos, group, &ut_re, &ut_im)
            );
            c0 += tile;
        }
    }
}

/// [`batch_apply_generic`]'s [`RowSparse`] walk, `REAL` when every entry's
/// imaginary part is `±0`.
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn batch_generic_walk<const REAL: bool>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    holes: &[usize],
    pos: &[usize; MAX_GROUP],
    group: usize,
    sparse: &RowSparse,
    observed: Observed,
) {
    let rest = (re.len() / width) >> holes.len();
    for r in 0..rest {
        let idx = deposit(r, holes);
        if observed.skips(idx) {
            continue;
        }
        let mut c0 = 0usize;
        while c0 < width {
            let tile = pow2_tile(width, c0);
            dispatch_pow2!(
                tile => batch_sparse_tile::<_, REAL>(re, im, width, c0, idx, pos, group, sparse)
            );
            c0 += tile;
        }
    }
}

/// One register tile of [`batch_apply_generic`]: cells `c0..c0 + T` of one
/// gathered `group`-amplitude rest index. Outputs are produced in blocks of
/// four rows so the live accumulator set stays register-resident even for
/// the 16-row superoperator groups; the gathered stack copy keeps later row
/// blocks reading pre-transform inputs.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn batch_generic_tile<const T: usize>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    idx: usize,
    pos: &[usize; MAX_GROUP],
    group: usize,
    ut_re: &[f64; MAX_ENTRIES],
    ut_im: &[f64; MAX_ENTRIES],
) {
    let mut g_re = [[0.0f64; T]; MAX_GROUP];
    let mut g_im = [[0.0f64; T]; MAX_GROUP];
    for mm in 0..group {
        let base = (idx | pos[mm]) * width + c0;
        g_re[mm].copy_from_slice(&re[base..base + T]);
        g_im[mm].copy_from_slice(&im[base..base + T]);
    }
    let mut row0 = 0usize;
    while row0 < group {
        let rows = (group - row0).min(4);
        let mut o_re = [[0.0f64; T]; 4];
        let mut o_im = [[0.0f64; T]; 4];
        for col in 0..group {
            for dr in 0..rows {
                let e = col * group + row0 + dr;
                cell_mac(
                    &mut o_re[dr],
                    &mut o_im[dr],
                    ut_re[e],
                    ut_im[e],
                    &g_re[col],
                    &g_im[col],
                );
            }
        }
        for dr in 0..rows {
            let base = (idx | pos[row0 + dr]) * width + c0;
            re[base..base + T].copy_from_slice(&o_re[dr]);
            im[base..base + T].copy_from_slice(&o_im[dr]);
        }
        row0 += rows;
    }
}

/// How a walk multiplies by a matrix entry: a unit entry ([`is_unit`])
/// passes the amplitude through, a real one (imaginary part `±0`) drops
/// the `ai·g` products, a complex one multiplies in full (see the module
/// docs). A kernel monomorphizes its walk over these.
const UNIT_ENTRY: u8 = 0;
const REAL_ENTRY: u8 = 1;
const COMPLEX_ENTRY: u8 = 2;

/// The kind of entry `x` (see [`UNIT_ENTRY`]).
#[inline(always)]
fn entry_kind(x: Complex) -> u8 {
    if is_unit(x) {
        UNIT_ENTRY
    } else if x.im == 0.0 {
        REAL_ENTRY
    } else {
        COMPLEX_ENTRY
    }
}

/// A diagonal matrix `diag` on flat bit `positions` (the first operand the
/// most significant matrix bit), as the lane passes read it.
#[derive(Clone, Copy)]
pub(crate) struct LaneDiagonal<'a> {
    pub(crate) diag: &'a [Complex],
    pub(crate) positions: &'a [usize],
}

impl LaneDiagonal<'_> {
    /// The entry that multiplies amplitude `a`.
    #[inline(always)]
    fn entry(&self, a: usize) -> Complex {
        self.diag[self.positions.iter().fold(0, |m, &q| m << 1 | (a >> q & 1))]
    }

    /// The lowest operand bit: amplitudes below it share an entry.
    fn low_bit(&self) -> usize {
        *self
            .positions
            .iter()
            .min()
            .expect("a diagonal pass has operands")
    }
}

/// `e·x` in every one of `T` cells, for an entry `e` of kind `K`, each part
/// formed as a walk of the module's contract forms it but without the `+0`
/// start: the two differ at most in the sign of a zero.
#[inline(always)]
fn lane_product<const T: usize, const K: u8>(
    e: Complex,
    x_re: &[f64; T],
    x_im: &[f64; T],
) -> ([f64; T], [f64; T]) {
    match K {
        UNIT_ENTRY => (*x_re, *x_im),
        REAL_ENTRY => (
            std::array::from_fn(|c| e.re * x_re[c]),
            std::array::from_fn(|c| e.re * x_im[c]),
        ),
        _ => (
            std::array::from_fn(|c| e.re * x_re[c] - e.im * x_im[c]),
            std::array::from_fn(|c| e.re * x_im[c] + e.im * x_re[c]),
        ),
    }
}

/// One ascending pass over a lane block that commits a diagonal branch,
/// weighs one, or both.
///
/// `commit` applies its diagonal to every cell `c` with `scale[c] = Some(s)`
/// and multiplies the result by `s`: `ψ[a] ↦ (+0 + d·ψ[a])·s`, part by part,
/// which is bit-identical to applying the matrix to that cell alone and
/// then scaling it by `s`. Cells with `None` keep their amplitudes.
///
/// `weigh` writes each cell's weight `Σₐ |d·ψ[a]|²` to `weights[cell]`,
/// where `ψ` is the state after the commit: the products' `re² + im²` in
/// ascending amplitude order from a zero, which is bit-identical to
/// applying the matrix to that cell alone and summing its `norm_sqr`s.
/// (`(+0 + t)² = t²` bit for bit, and no term is `−0`, so neither the
/// product's `+0` start nor the sign of the starting zero matters.)
///
/// Each amplitude is committed and stored before it is weighed.
pub(crate) fn batch_diagonal_pass(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    commit: Option<(LaneDiagonal<'_>, &[Option<f64>])>,
    weigh: Option<(LaneDiagonal<'_>, &mut [f64])>,
) {
    const NONE: LaneDiagonal<'static> = LaneDiagonal {
        diag: &[],
        positions: &[],
    };
    let unchosen = [None; MAX_BATCH_CELLS];
    let (cd, scale) = match commit {
        Some((d, scale)) => {
            debug_assert_eq!(d.diag.len(), 1 << d.positions.len(), "diagonal size");
            assert_eq!(scale.len(), width, "one scale per cell");
            (d, scale)
        }
        None => (NONE, &unchosen[..width]),
    };
    let weighs = weigh.is_some();
    let (wd, weights) = match weigh {
        Some((d, weights)) => {
            debug_assert_eq!(d.diag.len(), 1 << d.positions.len(), "diagonal size");
            assert_eq!(weights.len(), width, "one weight per cell");
            (d, weights)
        }
        None => (NONE, &mut [][..]),
    };
    let mut c0 = 0usize;
    while c0 < width {
        let tile = pow2_tile(width, c0);
        let chosen = scale[c0..c0 + tile].iter().filter(|s| s.is_some()).count();
        macro_rules! pass {
            ($commit:tt, $weigh:tt, $all:tt) => {
                dispatch_pow2!(tile => diagonal_pass_tile::<_, $commit, $weigh, $all>(
                    re, im, width, c0, &cd, scale, &wd, weights
                ))
            };
        }
        match (chosen, weighs) {
            (0, false) => {}
            (0, true) => pass!(false, true, false),
            (n, false) if n == tile => pass!(true, false, true),
            (_, false) => pass!(true, false, false),
            (n, true) if n == tile => pass!(true, true, true),
            (_, true) => pass!(true, true, false),
        }
        c0 += tile;
    }
}

/// One tile of [`batch_diagonal_pass`], cells `c0..c0 + T`: commits `cd`
/// when `COMMIT`, weighs `wd` when `WEIGH`, and stores the committed value
/// without a per-lane select when `ALL` (every lane of the tile commits).
/// The entries are looked up once per run of amplitudes that share them.
/// A full tile walks a run of unit and real entries at their kinds. Any
/// other run, and every run of a narrower tile (only a ragged last shot
/// batch has them), takes the complex walk for both entries, which gives
/// the same bits; a narrower tile also keeps its select.
#[inline(never)] // each tile's amplitude loop compiles on its own, not inside the dispatcher
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn diagonal_pass_tile<const T: usize, const COMMIT: bool, const WEIGH: bool, const ALL: bool>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    cd: &LaneDiagonal<'_>,
    scale: &[Option<f64>],
    wd: &LaneDiagonal<'_>,
    weights: &mut [f64],
) {
    let full = T == MAX_BATCH_CELLS;
    let chosen: [bool; T] = std::array::from_fn(|c| (ALL && full) || scale[c0 + c].is_some());
    let s: [f64; T] = std::array::from_fn(|c| scale[c0 + c].unwrap_or(1.0));
    let mut w = [0.0f64; T];
    let low = match (COMMIT, WEIGH) {
        (true, true) => cd.low_bit().min(wd.low_bit()),
        (true, false) => cd.low_bit(),
        _ => wd.low_bit(),
    };
    let run = 1usize << low;
    let amps = re.len() / width;
    for a0 in (0..amps).step_by(run) {
        let ec = if COMMIT { cd.entry(a0) } else { Complex::ONE };
        let ew = if WEIGH { wd.entry(a0) } else { Complex::ONE };
        macro_rules! walk {
            ($ck:expr, $wk:expr) => {
                for a in a0..a0 + run {
                    let at = a * width + c0;
                    diagonal_step::<T, COMMIT, WEIGH, $ck, $wk>(
                        tile_mut(re, at),
                        tile_mut(im, at),
                        ec,
                        &s,
                        &chosen,
                        ew,
                        &mut w,
                    );
                }
            };
        }
        match (full, entry_kind(ec), entry_kind(ew)) {
            (true, UNIT_ENTRY, UNIT_ENTRY) => walk!(UNIT_ENTRY, UNIT_ENTRY),
            (true, UNIT_ENTRY, REAL_ENTRY) => walk!(UNIT_ENTRY, REAL_ENTRY),
            (true, REAL_ENTRY, UNIT_ENTRY) => walk!(REAL_ENTRY, UNIT_ENTRY),
            (true, REAL_ENTRY, REAL_ENTRY) => walk!(REAL_ENTRY, REAL_ENTRY),
            _ => walk!(COMPLEX_ENTRY, COMPLEX_ENTRY),
        }
    }
    if WEIGH {
        weights[c0..c0 + T].copy_from_slice(&w);
    }
}

/// One amplitude of a [`diagonal_pass_tile`] in its `T` lanes: commit the
/// entry `ec` of kind `CK` into the lanes `chosen` marks and scale them by
/// `s`, store, then add the weight term of the entry `ew` of kind `WK`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn diagonal_step<
    const T: usize,
    const COMMIT: bool,
    const WEIGH: bool,
    const CK: u8,
    const WK: u8,
>(
    x_re: &mut [f64; T],
    x_im: &mut [f64; T],
    ec: Complex,
    s: &[f64; T],
    chosen: &[bool; T],
    ew: Complex,
    w: &mut [f64; T],
) {
    if COMMIT {
        let (p_re, p_im) = lane_product::<T, CK>(ec, x_re, x_im);
        for c in 0..T {
            let (q_re, q_im) = ((0.0 + p_re[c]) * s[c], (0.0 + p_im[c]) * s[c]);
            x_re[c] = if chosen[c] { q_re } else { x_re[c] };
            x_im[c] = if chosen[c] { q_im } else { x_im[c] };
        }
    }
    if WEIGH {
        let (p_re, p_im) = lane_product::<T, WK>(ew, x_re, x_im);
        for c in 0..T {
            w[c] += p_re[c] * p_re[c] + p_im[c] * p_im[c];
        }
    }
}

/// One register tile of [`batch_apply_generic`]'s row-sparse walk: cells
/// `c0..c0 + T` of one gathered `group`-amplitude rest index, one output
/// row at a time over its nonzero entries.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // a flat register-tile kernel signature, not an API
fn batch_sparse_tile<const T: usize, const REAL: bool>(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    c0: usize,
    idx: usize,
    pos: &[usize; MAX_GROUP],
    group: usize,
    sparse: &RowSparse,
) {
    let mut g_re = [[0.0f64; T]; MAX_GROUP];
    let mut g_im = [[0.0f64; T]; MAX_GROUP];
    for mm in 0..group {
        let base = (idx | pos[mm]) * width + c0;
        g_re[mm].copy_from_slice(&re[base..base + T]);
        g_im[mm].copy_from_slice(&im[base..base + T]);
    }
    for (row, &off) in pos.iter().enumerate().take(group) {
        let mut o_re = [0.0f64; T];
        let mut o_im = [0.0f64; T];
        for e in sparse.row(row) {
            let col = sparse.col(e);
            entry_mac::<T, REAL>(
                &mut o_re,
                &mut o_im,
                sparse.re[e],
                sparse.im[e],
                &g_re[col],
                &g_im[col],
            );
        }
        let base = (idx | off) * width + c0;
        re[base..base + T].copy_from_slice(&o_re);
        im[base..base + T].copy_from_slice(&o_im);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_math::CMatrix;

    fn apply(data: &mut [Complex], u: &CMatrix, positions: &[usize], m: usize, conj: bool) {
        apply_matrix_on_bits(data, u.as_slice(), positions, m, conj);
    }

    #[test]
    fn single_qubit_gate_on_lsb() {
        // |0> --X--> |1> on a 2-qubit register (qubit 0).
        let mut v = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::pauli_x(), &[0], 2, false);
        assert!(v[1].approx_eq(Complex::ONE, 1e-15));
    }

    #[test]
    fn single_qubit_gate_on_msb() {
        let mut v = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::pauli_x(), &[1], 2, false);
        assert!(v[2].approx_eq(Complex::ONE, 1e-15));
    }

    #[test]
    fn cnot_control_order() {
        // control = qubit 0, target = qubit 1; state |01> (q0=1) -> |11>.
        let mut v = vec![Complex::ZERO, Complex::ONE, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::cnot(), &[0, 1], 2, false);
        assert!(v[3].approx_eq(Complex::ONE, 1e-15), "{v:?}");

        // control = qubit 1: |01> unchanged.
        let mut v = vec![Complex::ZERO, Complex::ONE, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::cnot(), &[1, 0], 2, false);
        assert!(v[1].approx_eq(Complex::ONE, 1e-15), "{v:?}");
    }

    #[test]
    fn conjugate_flag_conjugates_entries() {
        let s = CMatrix::phase(std::f64::consts::FRAC_PI_2); // diag(1, i)
        let mut v = vec![Complex::ZERO, Complex::ONE];
        apply(&mut v, &s, &[0], 1, true);
        assert!(v[1].approx_eq(-Complex::I, 1e-15));
    }

    #[test]
    fn three_qubit_gate_supported() {
        // Toffoli |110> -> |111> with operands [c0=2, c1=1, t=0].
        let mut v = vec![Complex::ZERO; 8];
        v[0b110] = Complex::ONE;
        let ccx = {
            let mut m = CMatrix::identity(8);
            m[(6, 6)] = Complex::ZERO;
            m[(7, 7)] = Complex::ZERO;
            m[(6, 7)] = Complex::ONE;
            m[(7, 6)] = Complex::ONE;
            m
        };
        apply(&mut v, &ccx, &[2, 1, 0], 3, false);
        assert!(v[0b111].approx_eq(Complex::ONE, 1e-15), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "kernel supports at most")]
    fn too_many_operands_rejected() {
        let mut v = vec![Complex::ONE; 32];
        let u = CMatrix::identity(32);
        apply(&mut v, &u, &[0, 1, 2, 3, 4], 5, false);
    }

    /// The specialized 1q/2q paths must be *bit-identical* to the generic
    /// path on random data — the dispatch must never change results.
    #[test]
    fn specialized_paths_match_generic_bitwise() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let m = 5usize;
        let data: Vec<Complex> = (0..1 << m).map(|_| Complex::new(next(), next())).collect();
        let cases: Vec<(CMatrix, Vec<usize>)> = vec![
            (CMatrix::hadamard(), vec![0]),
            (CMatrix::u_gate(0.7, 1.3, 0.2), vec![3]),
            (CMatrix::sx(), vec![4]),
            (CMatrix::cnot(), vec![1, 3]),
            (CMatrix::cnot(), vec![4, 0]),
            (CMatrix::swap(), vec![2, 1]),
            (CMatrix::cphase(0.9), vec![0, 4]),
        ];
        for (u, positions) in cases {
            for conj in [false, true] {
                let mut fast = data.clone();
                apply_matrix_on_bits(&mut fast, u.as_slice(), &positions, m, conj);
                let mut slow = data.clone();
                apply_generic(&mut slow, u.as_slice(), &positions, m, conj);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "{u:?} on {positions:?} (conj={conj}): amp {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    fn rng(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// Packs `width` scalar states into the cell-major split layout.
    fn pack(states: &[Vec<Complex>]) -> (Vec<f64>, Vec<f64>) {
        let width = states.len();
        let len = states[0].len();
        let mut re = vec![0.0f64; len * width];
        let mut im = vec![0.0f64; len * width];
        for (c, s) in states.iter().enumerate() {
            for (a, z) in s.iter().enumerate() {
                re[a * width + c] = z.re;
                im[a * width + c] = z.im;
            }
        }
        (re, im)
    }

    fn assert_cell_bitwise(
        re: &[f64],
        im: &[f64],
        width: usize,
        scalar: &[Vec<Complex>],
        what: &str,
    ) {
        for (c, s) in scalar.iter().enumerate() {
            for (a, z) in s.iter().enumerate() {
                let (br, bi) = (re[a * width + c], im[a * width + c]);
                assert!(
                    br.to_bits() == z.re.to_bits() && bi.to_bits() == z.im.to_bits(),
                    "{what}: cell {c} amp {a}: batched ({br}, {bi}) vs scalar {z:?}"
                );
            }
        }
    }

    /// Every batched shared-matrix path must be *bit-identical*, cell by
    /// cell, to the scalar kernel run on each cell's state separately —
    /// including ragged widths (1, 3) that exercise partial blocks.
    #[test]
    fn batched_shared_matrix_matches_scalar_bitwise() {
        let m = 5usize;
        let cases: Vec<(CMatrix, Vec<usize>)> = vec![
            (CMatrix::hadamard(), vec![0]),
            (CMatrix::u_gate(0.7, 1.3, 0.2), vec![3]),
            (CMatrix::cnot(), vec![1, 3]),
            (CMatrix::swap(), vec![2, 1]),
            (CMatrix::cphase(0.9), vec![0, 4]),
            (
                {
                    let mut ccx = CMatrix::identity(8);
                    ccx[(6, 6)] = Complex::ZERO;
                    ccx[(7, 7)] = Complex::ZERO;
                    ccx[(6, 7)] = Complex::ONE;
                    ccx[(7, 6)] = Complex::ONE;
                    ccx
                },
                vec![4, 2, 0],
            ),
        ];
        for width in [1usize, 3, 8, 15, MAX_BATCH_CELLS] {
            let mut next = rng(0xA5A5_1234_5678_9ABC ^ width as u64);
            let states: Vec<Vec<Complex>> = (0..width)
                .map(|_| (0..1 << m).map(|_| Complex::new(next(), next())).collect())
                .collect();
            for (u, positions) in &cases {
                for conj in [false, true] {
                    let mut scalar = states.clone();
                    for s in &mut scalar {
                        apply_matrix_on_bits(s, u.as_slice(), positions, m, conj);
                    }
                    let (mut re, mut im) = pack(&states);
                    batch_apply_matrix_on_bits(
                        &mut re,
                        &mut im,
                        width,
                        u.as_slice(),
                        positions,
                        m,
                        conj,
                        Observed::ALL,
                    );
                    assert_cell_bitwise(
                        &re,
                        &im,
                        width,
                        &scalar,
                        &format!("{u:?} on {positions:?} conj={conj} width={width}"),
                    );
                }
            }
        }
    }

    /// The per-cell 1q kernel (grid injectors: one matrix per cell) must be
    /// bit-identical to applying each cell's matrix with the scalar kernel.
    #[test]
    fn batched_per_cell_matrix_matches_scalar_bitwise() {
        let m = 4usize;
        for width in [1usize, 5, 8, 15, MAX_BATCH_CELLS] {
            let mut next = rng(0xDEAD_BEEF_0BAD_F00D ^ width as u64);
            let states: Vec<Vec<Complex>> = (0..width)
                .map(|_| (0..1 << m).map(|_| Complex::new(next(), next())).collect())
                .collect();
            let mats: Vec<CMatrix> = (0..width)
                .map(|c| CMatrix::u_gate(0.3 + c as f64, 0.1 * c as f64, 0.0))
                .collect();
            for q in 0..m {
                for conj in [false, true] {
                    let mut scalar = states.clone();
                    for (s, u) in scalar.iter_mut().zip(&mats) {
                        apply_matrix_on_bits(s, u.as_slice(), &[q], m, conj);
                    }
                    let (mut re, mut im) = pack(&states);
                    let mut u_re = vec![0.0f64; 4 * width];
                    let mut u_im = vec![0.0f64; 4 * width];
                    for (c, u) in mats.iter().enumerate() {
                        for (e, z) in u.as_slice().iter().enumerate() {
                            u_re[e * width + c] = z.re;
                            u_im[e * width + c] = z.im;
                        }
                    }
                    batch_apply_1q_per_cell(
                        &mut re,
                        &mut im,
                        width,
                        &u_re,
                        &u_im,
                        q,
                        conj,
                        Observed::ALL,
                    );
                    assert_cell_bitwise(
                        &re,
                        &im,
                        width,
                        &scalar,
                        &format!("per-cell u on q{q} conj={conj} width={width}"),
                    );
                }
            }
        }
    }
}
