//! Ablation benches for the execution-scenario design choices (PAPER.md,
//! "Execution scenarios (§IV-B)"):
//!
//! * exact density-matrix probabilities vs 1024-shot sampling — cost of the
//!   shot-based QVF estimate the paper uses;
//! * transpiler optimization level 0 vs 3 — how much level 3 buys in
//!   downstream simulation cost;
//! * statevector vs density-matrix evolution of the same circuit — the
//!   price of supporting noise.

use criterion::{criterion_group, criterion_main, Criterion};
use qufi_algos::bernstein_vazirani;
use qufi_core::executor::{Executor, HardwareExecutor, NoisyExecutor};
use qufi_noise::BackendCalibration;
use qufi_sim::{DensityMatrix, Statevector};
use qufi_transpile::{CouplingMap, Layout, OptimizationLevel, RoutingStrategy, Transpiler};

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

fn bench_opt_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_opt_levels");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();
    for (name, level) in [
        ("level0", OptimizationLevel::Level0),
        ("level1", OptimizationLevel::Level1),
        ("level3", OptimizationLevel::Level3),
    ] {
        group.bench_function(format!("noisy_exec_{name}"), |b| {
            let ex = NoisyExecutor::with_level(cal.clone(), level);
            b.iter(|| ex.execute(&w.circuit).expect("runs"))
        });
    }
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

fn bench_routing_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_routing");
    group.sample_size(20);
    // A routing-heavy circuit: long-range CX pairs on a line device.
    let mut qc = qufi_sim::QuantumCircuit::new(6, 6);
    qc.h(0);
    for (a, b) in [(0, 5), (1, 4), (0, 3), (2, 5), (0, 5)] {
        qc.cx(a, b);
    }
    qc.measure_all();
    let _ = Layout::trivial(6, 6); // routing-only comparison uses the transpiler
    for (name, strategy) in [
        ("shortest_path", RoutingStrategy::ShortestPath),
        ("lookahead_w4", RoutingStrategy::Lookahead { window: 4 }),
        ("lookahead_w8", RoutingStrategy::Lookahead { window: 8 }),
    ] {
        group.bench_function(name, |b| {
            let t = Transpiler::new(CouplingMap::line(6), OptimizationLevel::Level1)
                .with_routing(strategy);
            b.iter(|| t.run(&qc).expect("routes"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_exact_vs_shots, bench_opt_levels, bench_sv_vs_dm, bench_routing_strategies
}
criterion_main!(benches);
