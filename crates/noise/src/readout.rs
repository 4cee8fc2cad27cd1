//! Measurement (readout) errors.
//!
//! IBM devices misreport qubit states with probabilities published in their
//! calibration data (typically 1–4% on Falcon processors). We model readout
//! error as a per-qubit 2×2 confusion matrix applied to the output
//! distribution — exactly what Qiskit Aer's `ReadoutError` does.

use qufi_sim::ProbDist;

/// A per-qubit readout confusion matrix.
///
/// `p01` is the probability of reading `1` when the qubit is `0`;
/// `p10` of reading `0` when the qubit is `1`.
///
/// # Example
///
/// ```
/// use qufi_noise::ReadoutError;
/// use qufi_sim::ProbDist;
///
/// let ro = ReadoutError::new(0.02, 0.05);
/// let d = ProbDist::delta(1, 1); // qubit surely |1>
/// let noisy = ro.apply_to_qubit(d, 0);
/// assert!((noisy.prob(0) - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    p01: f64,
    p10: f64,
}

impl ReadoutError {
    /// Creates a readout error from the two flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p01: f64, p10: f64) -> Self {
        assert!((0.0..=1.0).contains(&p01), "p01 out of range");
        assert!((0.0..=1.0).contains(&p10), "p10 out of range");
        ReadoutError { p01, p10 }
    }

    /// The ideal (error-free) readout.
    pub fn ideal() -> Self {
        ReadoutError { p01: 0.0, p10: 0.0 }
    }

    /// `true` when both flip probabilities are zero.
    pub fn is_ideal(&self) -> bool {
        self.p01 == 0.0 && self.p10 == 0.0
    }

    /// Applies the confusion matrix to bit `bit` of a distribution, in
    /// place in its buffer.
    pub fn apply_to_qubit(&self, dist: ProbDist, bit: usize) -> ProbDist {
        assert!(bit < dist.num_bits(), "bit out of range");
        let n_bits = dist.num_bits();
        let mut probs = dist.into_probs();
        let mask = 1usize << bit;
        for idx in 0..probs.len() {
            if idx & mask != 0 {
                continue; // handle each (0,1) pair once, from the 0 side
            }
            let p0 = probs[idx];
            let p1 = probs[idx | mask];
            probs[idx] = p0 * (1.0 - self.p01) + p1 * self.p10;
            probs[idx | mask] = p0 * self.p01 + p1 * (1.0 - self.p10);
        }
        ProbDist::from_probs(probs, n_bits)
    }
}

/// Applies per-qubit readout errors to a distribution over qubit outcomes.
/// Entry `i` of `errors` applies to bit `i`; `None` means ideal readout.
/// Without an error that applies, `dist` comes back as it went in.
pub fn apply_readout_errors(mut dist: ProbDist, errors: &[Option<ReadoutError>]) -> ProbDist {
    for (bit, err) in errors.iter().enumerate() {
        if bit >= dist.num_bits() {
            break;
        }
        if let Some(e) = err {
            if !e.is_ideal() {
                dist = e.apply_to_qubit(dist, bit);
            }
        }
    }
    dist
}

/// Finishes a run's qubit distribution into the one a program reads:
/// readout confusion ([`apply_readout_errors`]), then marginalization
/// through `map`, a circuit's `measurement_map`, onto its `num_clbits`
/// classical bits. A circuit without measurements (`map` empty) reads the
/// confused qubit distribution. The one readout finish of the density,
/// trajectory and batched replay paths.
pub fn finish_readout(
    dist: ProbDist,
    errors: &[Option<ReadoutError>],
    map: &[(usize, usize)],
    num_clbits: usize,
) -> ProbDist {
    let confused = apply_readout_errors(dist, errors);
    if map.is_empty() {
        confused
    } else {
        confused.marginalize(map, num_clbits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_mixes_both_directions() {
        let ro = ReadoutError::new(0.1, 0.2);
        let d = ProbDist::from_probs(vec![0.5, 0.5], 1);
        let out = ro.apply_to_qubit(d, 0);
        // P(read 0) = 0.5*0.9 + 0.5*0.2 = 0.55
        assert!((out.prob(0) - 0.55).abs() < 1e-12);
        assert!((out.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn applies_to_selected_bit_only() {
        let ro = ReadoutError::new(1.0, 0.0); // always read 1 when 0
        let d = ProbDist::delta(0b00, 2);
        let out = ro.apply_to_qubit(d, 1);
        assert!((out.prob(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_qubit_list_application() {
        let errs = vec![
            Some(ReadoutError::new(0.5, 0.5)),
            None,
            Some(ReadoutError::ideal()),
        ];
        let d = ProbDist::delta(0b000, 3);
        let out = apply_readout_errors(d, &errs);
        // Only bit 0 is scrambled.
        assert!((out.prob(0b000) - 0.5).abs() < 1e-12);
        assert!((out.prob(0b001) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn total_probability_preserved() {
        let ro = ReadoutError::new(0.03, 0.07);
        let d = ProbDist::from_probs(vec![0.1, 0.2, 0.3, 0.4], 2);
        let out = ro.apply_to_qubit(ro.apply_to_qubit(d, 0), 1);
        assert!((out.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p01 out of range")]
    fn invalid_probability_rejected() {
        let _ = ReadoutError::new(1.5, 0.0);
    }
}
