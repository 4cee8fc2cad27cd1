//! Ablation benches for the execution-scenario design choices (PAPER.md,
//! "Execution scenarios (§IV-B)"):
//!
//! * exact density-matrix probabilities vs 1024-shot sampling — cost of the
//!   shot-based QVF estimate the paper uses;
//! * statevector vs density-matrix evolution of the same circuit — the
//!   price of supporting noise.
//!
//! The transpiler has one pipeline, the paper's `optimization_level=3`, so
//! it has no ablation here; BENCHMARKS.md keeps the optimization-level and
//! routing-strategy groups' last numbers as history.

use criterion::{criterion_group, criterion_main, Criterion};
use qufi_algos::bernstein_vazirani;
use qufi_core::executor::{Executor, HardwareExecutor, NoisyExecutor};
use qufi_noise::BackendCalibration;
use qufi_sim::{DensityMatrix, Statevector};

fn bench_exact_vs_shots(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_exact_vs_shots");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();
    group.bench_function("exact_probabilities", |b| {
        let ex = NoisyExecutor::new(cal.clone());
        b.iter(|| ex.execute(&w.circuit).expect("runs"))
    });
    group.bench_function("sampled_1024_shots", |b| {
        let ex = HardwareExecutor::with_config(cal.clone(), 7, 1024, 0.0);
        b.iter(|| ex.execute(&w.circuit).expect("runs"))
    });
    group.finish();
}

fn bench_sv_vs_dm(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_statevector_vs_density");
    group.sample_size(20);
    let w = bernstein_vazirani(0b10101, 5); // 6 qubits
    group.bench_function("statevector_6q", |b| {
        b.iter(|| Statevector::from_circuit(&w.circuit).expect("fits"))
    });
    group.bench_function("density_matrix_6q", |b| {
        b.iter(|| {
            let mut rho = DensityMatrix::new(w.circuit.num_qubits()).expect("fits");
            rho.run_circuit(&w.circuit);
            rho
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_exact_vs_shots, bench_sv_vs_dm
}
criterion_main!(benches);
