//! Output probability distributions and finite-shot sampling.
//!
//! The paper runs every (faulty) circuit 1024 times on Qiskit/IBM-Q and
//! derives the QVF from the resulting histogram. Our density-matrix engine
//! produces the *exact* distribution, which equals the expectation of that
//! histogram; [`ProbDist::sample`] reproduces the finite-shot behaviour when
//! hardware realism is wanted (e.g. the Fig. 11 experiment).

use rand::Rng;

/// An exact probability distribution over `2^n_bits` classical outcomes.
///
/// Bit `i` of an outcome index is classical bit `i`; rendered bitstrings are
/// most-significant-bit first (Qiskit convention).
///
/// # Example
///
/// ```
/// use qufi_sim::ProbDist;
///
/// let d = ProbDist::from_probs(vec![0.25, 0.75], 1);
/// assert_eq!(d.prob_of("1"), 0.75);
/// assert_eq!(d.most_probable().0, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProbDist {
    probs: Vec<f64>,
    n_bits: usize,
}

impl ProbDist {
    /// Builds a distribution from raw probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n_bits` or any probability is negative
    /// beyond numerical noise.
    pub fn from_probs(probs: Vec<f64>, n_bits: usize) -> Self {
        assert_eq!(probs.len(), 1 << n_bits, "length must be 2^n_bits");
        assert!(
            probs.iter().all(|&p| p >= -1e-9),
            "negative probability in distribution"
        );
        ProbDist {
            probs: probs.iter().map(|&p| p.max(0.0)).collect(),
            n_bits,
        }
    }

    /// The uniform distribution.
    pub fn uniform(n_bits: usize) -> Self {
        let n = 1usize << n_bits;
        ProbDist::from_probs(vec![1.0 / n as f64; n], n_bits)
    }

    /// A point mass on `index`.
    pub fn delta(index: usize, n_bits: usize) -> Self {
        let mut probs = vec![0.0; 1 << n_bits];
        probs[index] = 1.0;
        ProbDist::from_probs(probs, n_bits)
    }

    /// Number of classical bits.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of outcomes (`2^n_bits`).
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when the distribution has zero bits (single trivial outcome).
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Probability of outcome `index`.
    #[inline]
    pub fn prob(&self, index: usize) -> f64 {
        self.probs[index]
    }

    /// Probabilities slice, indexed by outcome.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Probability of the outcome written as a bitstring (MSB first).
    ///
    /// # Panics
    ///
    /// Panics if the string length differs from `num_bits` or contains
    /// characters other than `0`/`1`.
    pub fn prob_of(&self, bits: &str) -> f64 {
        self.probs[Self::index_of(bits, self.n_bits)]
    }

    /// Parses a MSB-first bitstring into an outcome index.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or non-binary characters.
    pub fn index_of(bits: &str, n_bits: usize) -> usize {
        assert_eq!(bits.len(), n_bits, "bitstring length mismatch");
        bits.chars().fold(0usize, |acc, c| match c {
            '0' => acc << 1,
            '1' => (acc << 1) | 1,
            other => panic!("invalid bit character {other:?}"),
        })
    }

    /// Renders an outcome index as a MSB-first bitstring.
    pub fn bitstring(&self, index: usize) -> String {
        render_bits(index, self.n_bits)
    }

    /// Sum of all probabilities (≈1 for a trace-preserving simulation).
    pub fn total(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// The most probable outcome `(index, probability)`; ties resolve to the
    /// lowest index.
    pub fn most_probable(&self) -> (usize, f64) {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, &p) in self.probs.iter().enumerate() {
            if p > best.1 {
                best = (i, p);
            }
        }
        best
    }

    /// The most probable outcome **excluding** the given set of indices;
    /// this is `P(B)` of the QVF: the strongest *incorrect* state.
    /// Returns `None` when every outcome is excluded.
    pub fn most_probable_excluding(&self, excluded: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in self.probs.iter().enumerate() {
            if excluded.contains(&i) {
                continue;
            }
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((i, p));
            }
        }
        best
    }

    /// Total-variation distance `½ Σ |p−q|`.
    ///
    /// # Panics
    ///
    /// Panics if the distributions have different widths.
    pub fn tv_distance(&self, other: &ProbDist) -> f64 {
        assert_eq!(self.n_bits, other.n_bits, "width mismatch");
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(&p, &q)| (p - q).abs())
            .sum::<f64>()
    }

    /// Marginalizes a distribution over *qubits* into one over *classical
    /// bits* through a measurement map `(qubit → clbit)`.
    ///
    /// Unmeasured qubits are traced out. This matches Qiskit, where e.g. the
    /// Bernstein-Vazirani circuit measures only the input qubits and not the
    /// ancilla.
    ///
    /// # Panics
    ///
    /// Panics if a map entry is out of range.
    pub fn marginalize(&self, map: &[(usize, usize)], n_clbits: usize) -> ProbDist {
        let mut out = vec![0.0f64; 1 << n_clbits];
        for (idx, &p) in self.probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let mut c = 0usize;
            for &(q, cb) in map {
                assert!(q < self.n_bits, "qubit {q} out of range");
                assert!(cb < n_clbits, "clbit {cb} out of range");
                if (idx >> q) & 1 == 1 {
                    c |= 1 << cb;
                }
            }
            out[c] += p;
        }
        ProbDist::from_probs(out, n_clbits)
    }

    /// Samples `shots` outcomes, returning a histogram.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, shots: u64) -> Counts {
        // Build the CDF once.
        let mut cdf = Vec::with_capacity(self.probs.len());
        let mut acc = 0.0;
        for &p in &self.probs {
            acc += p;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut counts = vec![0u64; self.probs.len()];
        for _ in 0..shots {
            let x: f64 = rng.gen::<f64>() * total;
            // Binary search for the first cdf entry >= x.
            let idx = cdf.partition_point(|&c| c < x).min(self.probs.len() - 1);
            counts[idx] += 1;
        }
        Counts {
            counts,
            n_bits: self.n_bits,
            shots,
        }
    }

    /// Iterates `(bitstring, probability)` pairs for nonzero outcomes.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (String, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 1e-15)
            .map(|(i, &p)| (self.bitstring(i), p))
    }
}

/// A finite-shot measurement histogram (the Qiskit `Counts` analogue).
///
/// # Example
///
/// ```
/// use qufi_sim::ProbDist;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let d = ProbDist::from_probs(vec![0.5, 0.5], 1);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let counts = d.sample(&mut rng, 1024);
/// assert_eq!(counts.shots(), 1024);
/// assert_eq!(counts.get("0") + counts.get("1"), 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    counts: Vec<u64>,
    n_bits: usize,
    shots: u64,
}

impl Counts {
    /// Builds counts from a raw histogram.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != 2^n_bits`.
    pub fn from_vec(counts: Vec<u64>, n_bits: usize) -> Self {
        assert_eq!(counts.len(), 1 << n_bits, "length must be 2^n_bits");
        let shots = counts.iter().sum();
        Counts {
            counts,
            n_bits,
            shots,
        }
    }

    /// Total number of shots.
    #[inline]
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Count for a bitstring outcome.
    ///
    /// # Panics
    ///
    /// Panics on malformed bitstrings.
    pub fn get(&self, bits: &str) -> u64 {
        self.counts[ProbDist::index_of(bits, self.n_bits)]
    }

    /// Converts to an empirical probability distribution.
    ///
    /// # Panics
    ///
    /// Panics if there are zero shots.
    pub fn to_prob_dist(&self) -> ProbDist {
        assert!(self.shots > 0, "no shots recorded");
        ProbDist::from_probs(
            self.counts
                .iter()
                .map(|&c| c as f64 / self.shots as f64)
                .collect(),
            self.n_bits,
        )
    }
}

/// Renders `index` as a MSB-first bitstring of width `n_bits`.
pub fn render_bits(index: usize, n_bits: usize) -> String {
    (0..n_bits)
        .rev()
        .map(|b| if (index >> b) & 1 == 1 { '1' } else { '0' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bitstring_roundtrip() {
        let d = ProbDist::uniform(3);
        for i in 0..8 {
            let s = d.bitstring(i);
            assert_eq!(ProbDist::index_of(&s, 3), i);
        }
        assert_eq!(d.bitstring(5), "101");
    }

    #[test]
    fn marginalize_traces_out_ancilla() {
        // 2-qubit state: P(|10>) = 1 (qubit1=1, qubit0=0). Measure only
        // qubit 1 into clbit 0.
        let d = ProbDist::delta(0b10, 2);
        let m = d.marginalize(&[(1, 0)], 1);
        assert_eq!(m.prob_of("1"), 1.0);
        // Measure only qubit 0:
        let m0 = d.marginalize(&[(0, 0)], 1);
        assert_eq!(m0.prob_of("0"), 1.0);
    }

    #[test]
    fn marginalize_preserves_total() {
        let d = ProbDist::from_probs(vec![0.1, 0.2, 0.3, 0.4], 2);
        let m = d.marginalize(&[(0, 0), (1, 1)], 2);
        assert!((m.total() - 1.0).abs() < 1e-12);
        // Identity map keeps the distribution.
        assert!(m.tv_distance(&d) < 1e-12);
    }

    #[test]
    fn most_probable_excluding_skips_correct_states() {
        let d = ProbDist::from_probs(vec![0.7, 0.2, 0.08, 0.02], 2);
        let (idx, p) = d.most_probable_excluding(&[0]).unwrap();
        assert_eq!(idx, 1);
        assert!((p - 0.2).abs() < 1e-12);
        assert!(d.most_probable_excluding(&[0, 1, 2, 3]).is_none());
    }

    #[test]
    fn sampling_concentrates_on_mass() {
        let d = ProbDist::from_probs(vec![0.9, 0.1], 1);
        let mut rng = SmallRng::seed_from_u64(42);
        let counts = d.sample(&mut rng, 10_000);
        let p0 = counts.get("0") as f64 / 10_000.0;
        assert!((p0 - 0.9).abs() < 0.02, "sampled {p0}");
    }

    #[test]
    fn sample_handles_delta() {
        let d = ProbDist::delta(2, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let c = d.sample(&mut rng, 100);
        assert_eq!(c.get("10"), 100);
    }

    #[test]
    fn counts_to_dist_roundtrip() {
        let c = Counts::from_vec(vec![256, 768], 1);
        let d = c.to_prob_dist();
        assert!((d.prob_of("1") - 0.75).abs() < 1e-12);
        assert_eq!(c.shots(), 1024);
    }

    #[test]
    fn tv_distance_bounds() {
        let a = ProbDist::delta(0, 1);
        let b = ProbDist::delta(1, 1);
        assert!((a.tv_distance(&b) - 1.0).abs() < 1e-12);
        assert!(a.tv_distance(&a) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length must be 2^n_bits")]
    fn wrong_length_panics() {
        let _ = ProbDist::from_probs(vec![1.0; 3], 2);
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let d = ProbDist::delta(1, 2);
        let items: Vec<_> = d.iter_nonzero().collect();
        assert_eq!(items, vec![("01".to_string(), 1.0)]);
    }
}
