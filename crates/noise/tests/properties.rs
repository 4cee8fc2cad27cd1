//! Property-based tests of the noise layer: every constructible channel is
//! CPTP, channel application preserves density-matrix invariants, and
//! readout confusion keeps distributions stochastic.

use proptest::prelude::*;
use qufi_noise::{KrausChannel, ReadoutError};
use qufi_sim::{DensityMatrix, Gate, ProbDist, QuantumCircuit};

fn arb_prob() -> impl Strategy<Value = f64> {
    0.0f64..=1.0
}

fn arb_channel() -> impl Strategy<Value = KrausChannel> {
    prop_oneof![
        arb_prob().prop_map(|p| KrausChannel::depolarizing(p, 1)),
        arb_prob().prop_map(|p| KrausChannel::depolarizing(p, 2)),
        arb_prob().prop_map(KrausChannel::amplitude_damping),
        arb_prob().prop_map(KrausChannel::phase_damping),
        ((1e-6f64..1e-3), (0.1f64..2.0), (0.0f64..1e-4)).prop_map(|(t1, ratio, time)| {
            // T2 = ratio·2·T1 with ratio ≤ 1 keeps the channel physical.
            KrausChannel::thermal_relaxation(t1, 2.0 * t1 * ratio.clamp(0.05, 1.0), time)
        }),
        (arb_prob(), arb_prob(), arb_prob()).prop_map(|(a, b, c)| {
            let total = (a + b + c).max(1e-12);
            let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
            KrausChannel::pauli(a * scale, b * scale, c * scale)
        }),
    ]
}

/// A small random pure state to test channels against.
fn arb_state() -> impl Strategy<Value = DensityMatrix> {
    ((0.0f64..3.1), (-3.1f64..3.1), (-3.1f64..3.1), any::<bool>()).prop_map(
        |(t, p, l, entangle)| {
            let mut qc = QuantumCircuit::new(2, 0);
            qc.u(t, p, l, 0);
            if entangle {
                qc.h(1).cx(1, 0);
            }
            let mut rho = DensityMatrix::new(2).expect("fits");
            rho.run_circuit(&qc);
            rho
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn constructed_channels_are_cptp(ch in arb_channel()) {
        prop_assert!(ch.is_cptp(1e-8));
    }

    #[test]
    fn channels_preserve_trace_and_hermiticity(ch in arb_channel(), mut rho in arb_state()) {
        let targets: Vec<usize> = (0..ch.num_qubits()).collect();
        rho.apply_kraus(ch.kraus_operators(), &targets);
        prop_assert!((rho.trace().re - 1.0).abs() < 1e-8);
        prop_assert!(rho.trace().im.abs() < 1e-10);
        prop_assert!(rho.is_hermitian(1e-8));
        // Diagonal entries are probabilities.
        for i in 0..rho.dim() {
            prop_assert!(rho.entry(i, i).re >= -1e-10);
        }
    }

    #[test]
    fn channels_never_increase_purity(ch in arb_channel(), mut rho in arb_state()) {
        let before = rho.purity();
        let targets: Vec<usize> = (0..ch.num_qubits()).collect();
        rho.apply_kraus(ch.kraus_operators(), &targets);
        prop_assert!(rho.purity() <= before + 1e-8);
    }

    #[test]
    fn superoperator_equals_kraus(ch in arb_channel(), base in arb_state()) {
        let targets: Vec<usize> = (0..ch.num_qubits()).collect();
        let mut a = base.clone();
        let mut b = base;
        a.apply_kraus(ch.kraus_operators(), &targets);
        b.apply_superoperator(ch.superoperator(), &targets);
        for i in 0..a.dim() {
            for j in 0..a.dim() {
                prop_assert!(a.entry(i, j).approx_eq(b.entry(i, j), 1e-9));
            }
        }
    }

    #[test]
    fn readout_confusion_is_stochastic(
        p01 in 0.0f64..0.49, p10 in 0.0f64..0.49,
        raw in prop::collection::vec(0.0f64..1.0, 4),
    ) {
        let total: f64 = raw.iter().sum();
        prop_assume!(total > 1e-9);
        let dist = ProbDist::from_probs(raw.iter().map(|p| p / total).collect(), 2);
        let ro = ReadoutError::new(p01, p10);
        let out = ro.apply_to_qubit(&ro.apply_to_qubit(&dist, 0), 1);
        prop_assert!((out.total() - 1.0).abs() < 1e-9);
        for i in 0..4 {
            prop_assert!(out.prob(i) >= 0.0);
        }
    }

    #[test]
    fn depolarizing_interpolates_toward_maximally_mixed(p in arb_prob()) {
        let mut rho = DensityMatrix::new(1).expect("fits");
        rho.apply_gate(Gate::H, &[0]);
        rho.apply_kraus(KrausChannel::depolarizing(p, 1).kraus_operators(), &[0]);
        // Off-diagonal coherence shrinks exactly by (1 − p).
        let coherence = rho.entry(0, 1).norm();
        prop_assert!((coherence - 0.5 * (1.0 - p)).abs() < 1e-9);
    }
}
