//! The Quantum Vulnerability Factor (paper §IV-A).
//!
//! Quantum outputs are probability distributions, so "did the fault corrupt
//! the output?" is a question about how confidently the correct state can
//! still be selected. The paper answers it with the Michelson contrast
//! between the correct state's probability `P(A)` and the strongest
//! incorrect state's probability `P(B)`:
//!
//! ```text
//! Contrast = (P(A) − P(B)) / (P(A) + P(B))       ∈ [−1, 1]
//! QVF      = 1 − (Contrast + 1) / 2              ∈ [0, 1]
//! ```
//!
//! `QVF < 0.45` → the fault is **masked**; `0.45–0.55` → the output is
//! **dubious** (a detectable error); `> 0.55` → a **silent data corruption**
//! (an incorrect state is now the most probable).

use qufi_sim::ProbDist;

/// Lower QVF bound of the "dubious" band (paper §V-B).
pub const DUBIOUS_LOW: f64 = 0.45;
/// Upper QVF bound of the "dubious" band.
pub const DUBIOUS_HIGH: f64 = 0.55;

/// Michelson contrast between the correct-state probability `pa` and the
/// strongest incorrect-state probability `pb`.
///
/// Returns 0 when both probabilities vanish (completely ambiguous output).
///
/// # Panics
///
/// Panics on negative inputs.
pub fn michelson_contrast(pa: f64, pb: f64) -> f64 {
    assert!(pa >= 0.0 && pb >= 0.0, "probabilities must be nonnegative");
    let denom = pa + pb;
    if denom <= 0.0 {
        0.0
    } else {
        (pa - pb) / denom
    }
}

/// QVF from the two contrast probabilities: `1 − (contrast + 1)/2`.
///
/// # Example
///
/// ```
/// use qufi_core::metrics::qvf;
///
/// assert_eq!(qvf(1.0, 0.0), 0.0); // perfectly correct
/// assert_eq!(qvf(0.0, 1.0), 1.0); // perfectly wrong
/// assert_eq!(qvf(0.3, 0.3), 0.5); // dubious
/// ```
pub fn qvf(pa: f64, pb: f64) -> f64 {
    1.0 - (michelson_contrast(pa, pb) + 1.0) / 2.0
}

/// QVF of a measured distribution given the set of correct outcome indices:
/// `P(A)` aggregates all golden states (multi-state circuits supported,
/// §IV-A), `P(B)` is the strongest non-golden state.
///
/// # Panics
///
/// Panics if `golden` is empty or covers every outcome.
pub fn qvf_from_dist(dist: &ProbDist, golden: &[usize]) -> f64 {
    assert!(!golden.is_empty(), "need at least one golden state");
    let pa: f64 = golden.iter().map(|&g| dist.prob(g)).sum();
    let (_, pb) = dist
        .most_probable_excluding(golden)
        .expect("golden states cover the whole outcome space");
    qvf(pa, pb)
}

/// Fault-severity classes derived from QVF (paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// QVF < 0.45: the correct output still clearly wins — a masked fault.
    Masked,
    /// 0.45 ≤ QVF ≤ 0.55: correct and incorrect states are comparably
    /// probable — a detectable error.
    Dubious,
    /// QVF > 0.55: an incorrect state is the likely readout — a silent
    /// data corruption.
    Sdc,
}

impl Severity {
    /// Classifies a QVF value.
    pub fn classify(qvf: f64) -> Severity {
        if qvf < DUBIOUS_LOW {
            Severity::Masked
        } else if qvf <= DUBIOUS_HIGH {
            Severity::Dubious
        } else {
            Severity::Sdc
        }
    }

    /// The class's name in exported records: `masked`, `dubious` or `sdc`.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Masked => "masked",
            Severity::Dubious => "dubious",
            Severity::Sdc => "sdc",
        }
    }
}

/// Decimal places a checkpoint keeps of each record's QVF: the `qvf`
/// column of [`records_to_csv`](crate::report::records_to_csv).
pub const QVF_DECIMALS: usize = 6;

/// `qvf` as a checkpoint stores it: rendered to [`QVF_DECIMALS`] places
/// and parsed back. A value read from a checkpoint maps to itself.
pub fn checkpoint_qvf(qvf: f64) -> f64 {
    format!("{qvf:.QVF_DECIMALS$}")
        .parse()
        .expect("a rendered f64 parses")
}

/// The class of a record's QVF as a checkpoint stores it
/// ([`checkpoint_qvf`]), so a record classifies the same live and re-read
/// from a checkpoint. Rounding to [`QVF_DECIMALS`] moves a value by at
/// most half a unit in the last place kept, so only values within 1e-6 of
/// a class threshold are rendered; the rest classify directly.
pub fn record_severity(qvf: f64) -> Severity {
    let near = |threshold: f64| (qvf - threshold).abs() <= 1e-6;
    if near(DUBIOUS_LOW) || near(DUBIOUS_HIGH) {
        Severity::classify(checkpoint_qvf(qvf))
    } else {
        Severity::classify(qvf)
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contrast_extremes() {
        assert_eq!(michelson_contrast(1.0, 0.0), 1.0);
        assert_eq!(michelson_contrast(0.0, 1.0), -1.0);
        assert_eq!(michelson_contrast(0.5, 0.5), 0.0);
        assert_eq!(michelson_contrast(0.0, 0.0), 0.0);
    }

    #[test]
    fn qvf_range_and_monotonicity() {
        // QVF decreases as the correct state gains probability.
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let pa = i as f64 / 10.0;
            let v = qvf(pa, 1.0 - pa);
            assert!((0.0..=1.0).contains(&v));
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn fig4_worked_example() {
        // Fig. 4 right panel: faulty P(101)=0.763 (A), strongest wrong
        // state P(100)=0.169 (B). Contrast = 0.637…, QVF ≈ 0.181.
        let c = michelson_contrast(0.763, 0.169);
        assert!((c - 0.637339).abs() < 1e-4);
        let v = qvf(0.763, 0.169);
        assert!((v - (1.0 - (c + 1.0) / 2.0)).abs() < 1e-12);
        assert_eq!(Severity::classify(v), Severity::Masked);
    }

    #[test]
    fn qvf_from_dist_single_golden() {
        let d = ProbDist::from_probs(vec![0.1, 0.7, 0.15, 0.05], 2);
        // golden = state 1; strongest wrong = state 2 (0.15).
        let v = qvf_from_dist(&d, &[1]);
        assert!((v - qvf(0.7, 0.15)).abs() < 1e-12);
    }

    #[test]
    fn qvf_from_dist_aggregates_multiple_golden() {
        // GHZ-like: both all-zeros and all-ones are correct.
        let d = ProbDist::from_probs(vec![0.45, 0.05, 0.05, 0.45], 2);
        let v = qvf_from_dist(&d, &[0, 3]);
        assert!((v - qvf(0.9, 0.05)).abs() < 1e-12);
        assert_eq!(Severity::classify(v), Severity::Masked);
    }

    #[test]
    fn severity_thresholds() {
        assert_eq!(Severity::classify(0.0), Severity::Masked);
        assert_eq!(Severity::classify(0.4499), Severity::Masked);
        assert_eq!(Severity::classify(0.45), Severity::Dubious);
        assert_eq!(Severity::classify(0.5), Severity::Dubious);
        assert_eq!(Severity::classify(0.55), Severity::Dubious);
        assert_eq!(Severity::classify(0.5501), Severity::Sdc);
        assert_eq!(Severity::classify(1.0), Severity::Sdc);
    }

    #[test]
    fn checkpoint_rounding_is_idempotent() {
        for q in [0.0, 0.0720640412, 0.1666666, 0.3333335, 0.99999951, 1.0] {
            let once = checkpoint_qvf(q);
            assert_eq!(once.to_bits(), checkpoint_qvf(once).to_bits(), "{q}");
            assert_eq!(format!("{once:.6}"), format!("{q:.6}"));
        }
    }

    #[test]
    fn record_severity_follows_the_checkpointed_value() {
        // Both round onto a threshold, which is dubious.
        assert_eq!(Severity::classify(0.4499996), Severity::Masked);
        assert_eq!(record_severity(0.4499996), Severity::Dubious);
        assert_eq!(Severity::classify(0.5500004), Severity::Sdc);
        assert_eq!(record_severity(0.5500004), Severity::Dubious);
        // Values that round away from a threshold keep their class.
        for q in [
            0.0, 0.4499994, 0.449999, 0.45, 0.55, 0.5500006, 0.550001, 1.0,
        ] {
            assert_eq!(record_severity(q), Severity::classify(q), "{q}");
            assert_eq!(
                record_severity(q),
                Severity::classify(checkpoint_qvf(q)),
                "{q}"
            );
        }
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "golden states cover")]
    fn all_golden_panics() {
        let d = ProbDist::uniform(1);
        let _ = qvf_from_dist(&d, &[0, 1]);
    }
}
