//! The lanes against the scalar cursor: under the same seeds, every lane's
//! state and every [`ShotAccumulator`] mean must be bit-identical to shots
//! run one at a time through [`TrajectoryCursor`].
//!
//! The cases cover random 2–5-qubit circuits under calibrated models, with
//! hand-made channels appended to every step: one whose branch 0 is not
//! diagonal (every lane takes the scalar code), one whose branch 0 is light
//! enough that most lanes reject it (the continuation from branch 1), one
//! with a zero diagonal entry, one with a complex diagonal and one with a
//! complex entry whose real part is exactly `1`. A second set appends
//! chains of diagonal channels instead, each committing into the next
//! one's weight pass: calibrated relaxations around a branch 0 that most
//! lanes reject and around that complex unit-real entry. Lane counts 1, 3
//! and 16 run with shot counts that leave a ragged last batch. Gates leave
//! no `−0` amplitude behind, so the channels are also applied directly to
//! states with signed-zero amplitudes.

use super::*;
use crate::backend::BackendCalibration;
use crate::channel::KrausChannel;
use proptest::prelude::*;

/// A channel on `targets` whose diagonal branch 0 has a complex entry with
/// real part exactly `1`: a lane pass that took it for a unit entry would
/// drop its imaginary part.
fn complex_unit_real(targets: &[usize]) -> TrajChannel {
    let c = |re: f64, im: f64| Complex::new(re, im);
    TrajChannel::new(
        vec![
            CMatrix::from_2x2(c(1.0, 0.25), c(0.0, 0.0), c(0.0, 0.0), c(0.6, 0.0)),
            CMatrix::pauli_x().scale_real(0.5),
        ],
        targets.to_vec(),
    )
}

/// Hand-made channels on `targets` (one or two qubits), appended after
/// plan steps to reach every branch of the lane code.
fn hand_made(targets: &[usize]) -> Vec<TrajChannel> {
    let ch = |ops: Vec<CMatrix>| TrajChannel::new(ops, targets.to_vec());
    let c = |re: f64, im: f64| Complex::new(re, im);
    match targets.len() {
        1 => vec![
            // Branch 0 not diagonal.
            ch(vec![
                CMatrix::pauli_x().scale_real(0.6f64.sqrt()),
                CMatrix::pauli_z().scale_real(0.4f64.sqrt()),
            ]),
            // Branch 0 of weight 1/4: most lanes continue from branch 1.
            ch(KrausChannel::depolarizing(1.0, 1)
                .kraus_operators()
                .to_vec()),
            // diag(1, 0): a zero diagonal entry.
            ch(KrausChannel::amplitude_damping(1.0)
                .kraus_operators()
                .to_vec()),
            // A complex diagonal branch 0.
            ch(vec![
                CMatrix::from_2x2(c(0.6, 0.8), c(0.0, 0.0), c(0.0, -0.0), c(-0.0, 1.0))
                    .scale_real(0.9f64.sqrt()),
                CMatrix::pauli_y().scale_real(0.1f64.sqrt()),
            ]),
            complex_unit_real(targets),
        ],
        _ => vec![ch(KrausChannel::depolarizing(1.0, 2)
            .kraus_operators()
            .to_vec())],
    }
}

/// Back-to-back diagonal channels on `targets` (one or two qubits), so
/// each commit is applied in the next channel's weight pass: `model`'s
/// calibrated relaxation on the first target, a branch 0 of weight 1/4
/// (one target) or 1/16 (two) that most lanes reject, the relaxation on
/// the last target, [`complex_unit_real`] and the first relaxation again.
fn chained(targets: &[usize], model: &NoiseModel) -> Vec<TrajChannel> {
    let relax = |q: usize| {
        let other = (q + 1) % model.num_qubits();
        let (ch, t) = model
            .channels_after(Gate::Cx, &[q, other])
            .into_iter()
            .find(|(_, t)| t == &[q])
            .expect("a calibrated relaxation on every qubit");
        TrajChannel::new(ch.kraus_operators().to_vec(), t)
    };
    let (first, last) = (targets[0], targets[targets.len() - 1]);
    let rejected = KrausChannel::depolarizing(1.0, targets.len());
    vec![
        relax(first),
        TrajChannel::new(rejected.kraus_operators().to_vec(), targets.to_vec()),
        relax(last),
        complex_unit_real(&[first]),
        relax(first),
    ]
}

/// `qc` compiled under `model`, with `extra(targets)` channels after every
/// step and on every injector.
fn plan_with(
    qc: &QuantumCircuit,
    model: &NoiseModel,
    extra: impl Fn(&[usize]) -> Vec<TrajChannel>,
) -> TrajPlan {
    let mut plan = TrajPlan::compile(qc, model);
    for step in plan.steps.iter_mut().flatten() {
        step.channels
            .extend(extra(&step.qubits[..step.qubits.len().min(2)]));
    }
    for (q, channels) in plan.injector_channels.iter_mut().enumerate() {
        channels.extend(extra(&[q]));
    }
    plan
}

/// A random state of `n` qubits (not normalized) in which about a third
/// of the parts are `+0` or `−0`.
fn signed_zero_state(n: usize, rng: &mut SmallRng) -> Statevector {
    let part = |rng: &mut SmallRng| match rng.gen_index(6) {
        0 => 0.0,
        1 => -0.0,
        _ => 2.0 * rng.gen::<f64>() - 1.0,
    };
    Statevector::from_amplitudes(
        (0..1 << n)
            .map(|_| Complex::new(part(rng), part(rng)))
            .collect(),
    )
}

fn assert_states_bitwise(lane: &Statevector, scalar: &Statevector, what: &str) {
    for (a, (x, y)) in lane
        .amplitudes()
        .iter()
        .zip(scalar.amplitudes())
        .enumerate()
    {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {a}: lane {x:?} vs scalar {y:?}"
        );
    }
}

fn assert_means_bitwise(lane: &[f64], scalar: &[f64], what: &str) {
    for (i, (x, y)) in lane.iter().zip(scalar).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: mean entry {i}: {x} vs {y}"
        );
    }
}

fn shot_rng(seed: u64, shot: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ shot.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The whole plan for `shots` shots, `lanes` at a time, then through the
/// injector: every shot's final state and the accumulator mean.
fn run_lanes(plan: &TrajPlan, shots: u64, lanes: usize, seed: u64) -> (Vec<Statevector>, Vec<f64>) {
    let mut ws = TrajWorkspace::new();
    let mut acc = ShotAccumulator::new(plan.num_qubits(), shots);
    let mut cursor = LaneCursor::start(plan, lanes).unwrap();
    let mut states = Vec::new();
    for first in (0..shots).step_by(lanes) {
        let width = (shots - first).min(lanes as u64);
        cursor.restart(width as usize);
        let mut rngs: Vec<SmallRng> = (first..first + width).map(|s| shot_rng(seed, s)).collect();
        let half = plan.size() / 2;
        cursor.advance_planned(plan, half, &mut rngs, &mut ws);
        cursor.apply_planned_injector(plan, Gate::U(0.9, 0.4, 0.0), 0, &mut rngs, &mut ws);
        cursor.advance_planned(plan, plan.size(), &mut rngs, &mut ws);
        for lane in 0..width as usize {
            let mut sv = Statevector::new(0).unwrap();
            cursor.block.extract_cell(lane, &mut sv);
            states.push(sv);
        }
        cursor.accumulate(&mut acc, first);
    }
    (states, acc.mean())
}

/// [`run_lanes`] one shot at a time through the scalar cursor.
fn run_scalar(plan: &TrajPlan, shots: u64, seed: u64) -> (Vec<Statevector>, Vec<f64>) {
    let mut ws = TrajWorkspace::new();
    let mut acc = ShotAccumulator::new(plan.num_qubits(), shots);
    let mut states = Vec::new();
    for shot in 0..shots {
        let mut rng = shot_rng(seed, shot);
        let mut cursor = TrajectoryCursor::start(plan).unwrap();
        let half = plan.size() / 2;
        cursor.advance_planned(plan, half, &mut rng, &mut ws);
        cursor.apply_planned_injector(plan, Gate::U(0.9, 0.4, 0.0), 0, &mut rng, &mut ws);
        cursor.advance_planned(plan, plan.size(), &mut rng, &mut ws);
        acc.add_shot(shot, cursor.state());
        states.push(cursor.into_state());
    }
    (states, acc.mean())
}

/// A random circuit of `gates` over `n` qubits: `(kind, a, b, angle)`.
fn circuit(n: usize, gates: &[(u8, usize, usize, f64)]) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n, n);
    for &(kind, a, b, t) in gates {
        let (a, b) = (a % n, b % n);
        match kind % 6 {
            0 => qc.h(a),
            1 => qc.sx(a),
            2 => qc.rz(t, a),
            3 => qc.u(t, 0.3 * t, -t, a),
            _ if a != b => qc.cx(a, b),
            _ => qc.x(a),
        };
    }
    qc.measure_all();
    qc
}

const LANES: [usize; 3] = [1, 3, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits under calibrated models, alone, with the hand-made
    /// channels and with the chained ones: lanes against one scalar shot
    /// at a time.
    #[test]
    fn lanes_match_scalar_shots_on_random_circuits(
        n in 2usize..=5,
        gates in prop::collection::vec((0u8..6, 0usize..5, 0usize..5, -3.1f64..3.1), 1..10),
        backend in 0usize..3,
        lane_pick in 0usize..3,
        shots in 1u64..40,
        seed in 0u64..u64::MAX,
    ) {
        let cal = [
            BackendCalibration::lima(),
            BackendCalibration::jakarta(),
            BackendCalibration::guadalupe(),
        ][backend]
            .restrict(&(0..n).collect::<Vec<_>>());
        let qc = circuit(n, &gates);
        let lanes = LANES[lane_pick];
        let model = cal.noise_model();
        for plan in [
            TrajPlan::compile(&qc, &model),
            plan_with(&qc, &model, hand_made),
            plan_with(&qc, &model, |targets| chained(targets, &model)),
        ] {
            let (lane_states, lane_mean) = run_lanes(&plan, shots, lanes, seed);
            let (scalar_states, scalar_mean) = run_scalar(&plan, shots, seed);
            for (shot, (l, s)) in lane_states.iter().zip(&scalar_states).enumerate() {
                assert_states_bitwise(l, s, &format!("{lanes} lanes, shot {shot}"));
            }
            assert_means_bitwise(&lane_mean, &scalar_mean, &format!("{lanes} lanes"));
        }
    }

    /// Every channel, hand-made, chained and calibrated, applied straight
    /// to states with signed-zero amplitudes: each lane against the scalar
    /// channel code after every application (the lanes' pending commit
    /// flushed first), or, back to back, only after the last one.
    #[test]
    fn lane_channels_match_scalar_on_signed_zeros(
        n in 2usize..=4,
        picks in prop::collection::vec((0usize..16, 0usize..4, 0usize..4), 1..8),
        lane_pick in 0usize..3,
        back_to_back in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        let lanes = LANES[lane_pick];
        let model = BackendCalibration::jakarta()
            .restrict(&(0..n).collect::<Vec<_>>())
            .noise_model();
        let plan = TrajPlan::compile(&QuantumCircuit::new(n, 0), &model);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut lane_cursor = LaneCursor::start(&plan, lanes).unwrap();
        let mut scalar: Vec<TrajectoryCursor> = (0..lanes)
            .map(|lane| {
                let sv = signed_zero_state(n, &mut rng);
                lane_cursor.block.store_cell(lane, &sv);
                TrajectoryCursor::resume(sv, 0)
            })
            .collect();
        let mut lane_rngs: Vec<SmallRng> = (0..lanes as u64).map(|s| shot_rng(seed, s)).collect();
        let mut scalar_rngs = lane_rngs.clone();
        let mut ws = TrajWorkspace::new();
        for (i, &(which, a, b)) in picks.iter().enumerate() {
            let (a, b) = (a % n, b % n);
            let targets = if which % 2 == 1 && a != b { vec![a, b] } else { vec![a] };
            let mut channels = hand_made(&targets);
            channels.extend(chained(&targets, &model));
            if let Some((ch, t)) = model.channels_after(
                if targets.len() == 2 { Gate::Cx } else { Gate::Sx },
                &targets,
            ).first() {
                channels.push(TrajChannel::new(ch.kraus_operators().to_vec(), t.clone()));
            }
            let ch = &channels[which % channels.len()];
            lane_cursor.apply_channel(ch, &mut lane_rngs, &mut ws);
            for (cursor, rng) in scalar.iter_mut().zip(&mut scalar_rngs) {
                cursor.apply_channel(ch, rng, &mut ws);
            }
            if back_to_back && i + 1 < picks.len() {
                continue;
            }
            lane_cursor.flush();
            for (lane, cursor) in scalar.iter().enumerate() {
                let mut sv = Statevector::new(0).unwrap();
                lane_cursor.block.extract_cell(lane, &mut sv);
                assert_states_bitwise(&sv, cursor.state(), &format!("channel {i}, lane {lane}"));
            }
        }
    }
}

#[test]
fn hand_made_channels_take_the_paths_they_name() {
    let one = hand_made(&[0]);
    assert!(one[0].diagonal.is_none(), "non-diagonal branch 0");
    assert!(one[1..].iter().all(|ch| ch.diagonal.is_some()));
    let zero_entry = one[2].diagonal.as_ref().unwrap();
    assert_eq!((zero_entry[1].re, zero_entry[1].im), (0.0, 0.0));
    assert!(one[3]
        .diagonal
        .as_ref()
        .unwrap()
        .iter()
        .any(|d| d.im != 0.0));
    assert!(one[4]
        .diagonal
        .as_ref()
        .unwrap()
        .iter()
        .any(|d| d.re == 1.0 && d.im != 0.0));
    // Calibrated channels all have a diagonal branch 0.
    let model = BackendCalibration::guadalupe().noise_model();
    for (gate, qubits) in [(Gate::Sx, vec![3]), (Gate::Cx, vec![1, 2])] {
        for (ch, targets) in model.channels_after(gate, &qubits) {
            let ch = TrajChannel::new(ch.kraus_operators().to_vec(), targets);
            assert!(ch.diagonal.is_some(), "{gate:?} on {qubits:?}");
        }
    }
}
