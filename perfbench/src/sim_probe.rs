//! `sim` kernel probes: the batched density kernels the noisy replay runs
//! (width 16, at 4 and 5 qubits) and the statevector gate the trajectory
//! replay runs (at 10 qubits). Flops and bytes per call are computed from
//! the operand shapes — a dense `2^k × 2^k` complex matrix applied over a
//! flat state costs 8 flops per amplitude per matrix column, and each pass
//! reads and writes the split re/im state once — so they are labelled
//! "computed": cache misses and the kernels' own shortcuts are not seen.

use qufi_math::CMatrix;
use qufi_sim::{BatchedDensity, DensityMatrix, Gate, Statevector};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batch width the noisy replay uses by default.
pub const WIDTH: usize = 16;
const STATEVECTOR_QUBITS: usize = 10;
/// Wall time spent timing each probe.
const PROBE_TIME: Duration = Duration::from_millis(40);

pub struct Probe {
    pub name: String,
    pub qubits: usize,
    pub cells: usize,
    pub ns_per_call: f64,
    pub flops: f64,
    pub bytes: f64,
}

/// Median ns per call of `f`, from timed rounds filling [`PROBE_TIME`].
fn time_calls(mut f: impl FnMut()) -> f64 {
    for _ in 0..8 {
        f();
    }
    let calls_per_round = 32;
    let mut rounds = Vec::new();
    let started = Instant::now();
    while started.elapsed() < PROBE_TIME || rounds.len() < 5 {
        let t = Instant::now();
        for _ in 0..calls_per_round {
            f();
        }
        rounds.push(t.elapsed().as_nanos() as f64 / calls_per_round as f64);
    }
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

/// Computed cost of applying a dense `2^k`-column matrix over `amps`
/// amplitudes in `passes` passes: (flops, bytes).
fn dense_cost(amps: usize, k: usize, passes: usize) -> (f64, f64) {
    let flops = 8.0 * amps as f64 * (1u64 << k) as f64 * passes as f64;
    let bytes = 32.0 * amps as f64 * passes as f64;
    (flops, bytes)
}

pub fn run() -> Vec<Probe> {
    let u1 = CMatrix::u_gate(0.7, 0.3, 0.1);
    let u2 = u1.kron(&u1);
    let s1 = u1.kron(&u1);
    let s2 = s1.kron(&s1);
    let mut probes = Vec::new();
    for n in [4, 5] {
        let rho = DensityMatrix::new(n).expect("probe register fits");
        let mut batch = BatchedDensity::broadcast(&rho, WIDTH);
        let amps = (1usize << (2 * n)) * WIDTH;
        let mut probe = |name: &str, k: usize, passes: usize, ns: f64| {
            let (flops, bytes) = dense_cost(amps, k, passes);
            probes.push(Probe {
                name: name.to_string(),
                qubits: n,
                cells: WIDTH,
                ns_per_call: ns,
                flops,
                bytes,
            });
        };
        // ρ ↦ UρU† is a row pass and a column pass of a 2^k matrix; a
        // channel superoperator is one pass of a 4^k matrix.
        let ns = time_calls(|| batch.apply_unitary(black_box(&u1), &[1]));
        probe("u1", 1, 2, ns);
        let ns = time_calls(|| batch.apply_unitary(black_box(&u2), &[0, 2]));
        probe("u2", 2, 2, ns);
        let ns = time_calls(|| batch.apply_superoperator(black_box(&s1), &[1]));
        probe("superop1", 2, 1, ns);
        let ns = time_calls(|| batch.apply_superoperator(black_box(&s2), &[0, 2]));
        probe("superop2", 4, 1, ns);
        black_box(&batch);
    }
    let mut sv = Statevector::new(STATEVECTOR_QUBITS).expect("probe register fits");
    let amps = 1usize << STATEVECTOR_QUBITS;
    for (name, gate, qubits) in [
        ("statevector.u1", Gate::U(0.7, 0.3, 0.1), &[3usize][..]),
        ("statevector.u2", Gate::Cx, &[2, 7][..]),
    ] {
        let ns = time_calls(|| sv.apply_gate(black_box(gate), qubits));
        let (flops, bytes) = dense_cost(amps, qubits.len(), 1);
        probes.push(Probe {
            name: name.to_string(),
            qubits: STATEVECTOR_QUBITS,
            cells: 1,
            ns_per_call: ns,
            flops,
            bytes,
        });
    }
    black_box(&sv);
    probes
}

pub fn probes_json(probes: &[Probe]) -> String {
    let mut out = String::from("[");
    for (i, p) in probes.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"qubits\":{},\"cells\":{},\"ns_per_call\":{:.3},\
             \"flops\":{},\"bytes\":{}}}",
            if i == 0 { "" } else { "," },
            p.name,
            p.qubits,
            p.cells,
            p.ns_per_call,
            p.flops,
            p.bytes
        );
    }
    out.push(']');
    out
}
