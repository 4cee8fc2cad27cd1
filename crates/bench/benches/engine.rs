//! Microbenchmarks of the simulation and transpilation engines — the
//! substrate costs underneath every campaign number in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qufi_algos::bernstein_vazirani;
use qufi_core::campaign::{golden_outputs, run_point_sweep, run_point_sweep_naive};
use qufi_core::engine::SweepExecutor;
use qufi_core::executor::{Executor, NoisyExecutor};
use qufi_core::fault::{enumerate_injection_points, FaultGrid, FaultParams};
use qufi_math::{CMatrix, Complex};
use qufi_noise::{simulate, BackendCalibration, KrausChannel};
use qufi_sim::{BatchedDensity, BatchedStatevector, DensityMatrix, Gate, Statevector};
use qufi_transpile::{CouplingMap, Transpiler};

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for n in [4usize, 7, 10] {
        group.bench_function(format!("h_layer_{n}q"), |b| {
            b.iter_batched(
                || Statevector::new(n).expect("fits"),
                |mut sv| {
                    for q in 0..n {
                        sv.apply_gate(Gate::H, &[q]);
                    }
                    sv
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("cx_chain_{n}q"), |b| {
            b.iter_batched(
                || Statevector::new(n).expect("fits"),
                |mut sv| {
                    for q in 0..n - 1 {
                        sv.apply_gate(Gate::Cx, &[q, q + 1]);
                    }
                    sv
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    let channel = KrausChannel::thermal_relaxation(120e-6, 80e-6, 400e-9);
    for n in [4usize, 7] {
        group.bench_function(format!("unitary_gate_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::new(n).expect("fits"),
                |mut rho| {
                    rho.apply_gate(Gate::H, &[0]);
                    rho
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("kraus_channel_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::new(n).expect("fits"),
                |mut rho| {
                    rho.apply_kraus(channel.kraus_operators(), &[0]);
                    rho
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("superop_channel_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::new(n).expect("fits"),
                |mut rho| {
                    rho.apply_superoperator(channel.superoperator(), &[0]);
                    rho
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// An evolution-kernel operand: a unitary (`ρ ↦ UρU†` on density states) or
/// a channel superoperator.
enum Operand {
    Unitary(CMatrix),
    Superop(CMatrix),
}

/// The evolution kernels on the calibrated `jakarta` matrices noisy replay
/// applies (rz, sx, CX, the 1q depolarizing∘relaxation superoperator after
/// sx, the 2q depolarizing superoperator after CX), each next to a fully
/// dense operand of the same shape (`*_dense`, `U(0.7, 0.3, 0.1)` and its
/// Kronecker powers). The real operands show where skipping exact-zero
/// entries pays; the dense rows show the no-zero path holds its speed.
///
/// Rows run on a width-16 batched density block (the replay engine's
/// default width), the scalar density matrix, both at 4 qubits, and a
/// 10-qubit statevector (the scalar trajectory kernels; the 1q unitaries
/// also at bit 0, `*_bit0`). The 1q operands and the per-cell injector also
/// run at widths 8 (a paper grid's last block) and 15. Each iteration
/// applies the operand once to a fresh copy of a generic state, so repeated
/// channels never decay it into subnormals.
///
/// The `lanes16_10q_*` rows are the passes of a routed CX step in the
/// trajectory lanes (16 shots of 10 qubits, the `jakarta` CX channels): the
/// CX, the weight pass of the two-qubit depolarizing branch 0 and of a
/// relaxation branch 0 (`diag(1, c)`), a relaxation commit into every lane,
/// and a depolarizing commit fused with the next relaxation weight pass.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(200);
    let model = BackendCalibration::jakarta().noise_model();
    let superop1 = model.channels_after(Gate::Sx, &[1])[0]
        .0
        .superoperator()
        .clone();
    let superop2 = model.channels_after(Gate::Cx, &[0, 1])[0]
        .0
        .superoperator()
        .clone();
    let u1 = CMatrix::u_gate(0.7, 0.3, 0.1);
    let u2 = u1.kron(&u1);
    let cases = [
        ("u1_dense", Operand::Unitary(u1.clone()), &[1usize][..]),
        ("rz", Operand::Unitary(Gate::Rz(0.4).matrix()), &[1]),
        ("sx", Operand::Unitary(Gate::Sx.matrix()), &[1]),
        ("u2_dense", Operand::Unitary(u2.clone()), &[0, 2]),
        ("cx", Operand::Unitary(Gate::Cx.matrix()), &[0, 1]),
        ("superop1_dense", Operand::Superop(u2.clone()), &[1]),
        ("superop1_depol_relax", Operand::Superop(superop1), &[1]),
        ("superop2_dense", Operand::Superop(u2.kron(&u2)), &[0, 1]),
        ("superop2_depol", Operand::Superop(superop2), &[0, 1]),
    ];

    let generic_state = |n: usize| {
        let mut sv = Statevector::new(n).expect("fits");
        for q in 0..n {
            sv.apply_gate(Gate::U(0.3 + 0.4 * q as f64, 0.2 * q as f64, 0.1), &[q]);
        }
        for q in 0..n - 1 {
            sv.apply_gate(Gate::Cx, &[q, q + 1]);
        }
        sv
    };
    let rho = DensityMatrix::from_statevector(&generic_state(4));
    let batch = BatchedDensity::broadcast(&rho, 16);
    let sv = generic_state(10);

    for width in [8usize, 15, 16] {
        let block = BatchedDensity::broadcast(&rho, width);
        let injectors: Vec<CMatrix> = (0..width)
            .map(|c| CMatrix::u_gate(0.3 + 0.1 * c as f64, 0.2, 0.0))
            .collect();
        group.bench_function(format!("batch{width}_4q_injector"), |b| {
            b.iter_batched(
                || block.clone(),
                |mut state| {
                    state.apply_unitary_per_cell(&injectors, 1);
                    state
                },
                BatchSize::SmallInput,
            )
        });
        if width == 16 {
            continue;
        }
        for (name, op, qubits) in cases.iter().take(3) {
            let Operand::Unitary(u) = op else {
                unreachable!("the first cases are 1q unitaries")
            };
            group.bench_function(format!("batch{width}_4q_{name}"), |b| {
                b.iter_batched(
                    || block.clone(),
                    |mut state| {
                        state.apply_unitary(u, qubits);
                        state
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }

    for (name, op, qubits) in &cases {
        group.bench_function(format!("batch16_4q_{name}"), |b| {
            b.iter_batched(
                || batch.clone(),
                |mut state| {
                    match op {
                        Operand::Unitary(u) => state.apply_unitary(u, qubits),
                        Operand::Superop(s) => state.apply_superoperator(s, qubits),
                    }
                    state
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("density_4q_{name}"), |b| {
            b.iter_batched(
                || rho.clone(),
                |mut state| {
                    match op {
                        Operand::Unitary(u) => state.apply_unitary(u, qubits),
                        Operand::Superop(s) => state.apply_superoperator(s, qubits),
                    }
                    state
                },
                BatchSize::SmallInput,
            )
        });
        if let Operand::Unitary(u) = op {
            let bit0 = [0usize];
            let placements = if qubits.len() == 1 {
                vec![(String::new(), *qubits), ("_bit0".to_owned(), &bit0[..])]
            } else {
                vec![(String::new(), *qubits)]
            };
            for (suffix, qubits) in placements {
                group.bench_function(format!("statevector_10q_{name}{suffix}"), |b| {
                    b.iter_batched(
                        || sv.clone(),
                        |mut state| {
                            state.apply_matrix(u, qubits);
                            state
                        },
                        BatchSize::SmallInput,
                    )
                });
            }
        }
    }

    let lanes = BatchedStatevector::broadcast(&sv, 16);
    let channels = model.channels_after(Gate::Cx, &[0, 1]);
    let branch0 = |i: usize| -> Vec<Complex> {
        let k0 = &channels[i].0.kraus_operators()[0];
        (0..k0.rows()).map(|d| k0[(d, d)]).collect()
    };
    let (depol, relax) = (branch0(0), branch0(2));
    let scale = [Some(1.01f64); 16];
    let mut weights = [0.0f64; 16];
    let lane_passes: [(&str, LanePass); 5] = [
        ("cx", &|state, _| state.apply_gate(Gate::Cx, &[0, 1])),
        ("weigh_depol", &|state, w| {
            state.diagonal_weights(&depol, &[0, 1], w)
        }),
        ("weigh_relax", &|state, w| {
            state.diagonal_weights(&relax, &[1], w)
        }),
        ("commit", &|state, _| {
            state.apply_diagonal_scaled(&relax, &[1], &scale)
        }),
        ("commit_and_weigh", &|state, w| {
            state.apply_diagonal_scaled_and_weigh((&depol, &[0, 1]), &scale, (&relax, &[0]), w)
        }),
    ];
    for (name, pass) in lane_passes {
        group.bench_function(format!("lanes16_10q_{name}"), |b| {
            b.iter_batched(
                || lanes.clone(),
                |mut state| {
                    pass(&mut state, &mut weights);
                    state
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// One trajectory lane pass over a block, writing any weights it forms.
type LanePass<'a> = &'a dyn Fn(&mut BatchedStatevector, &mut [f64]);

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    let w = bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();

    group.bench_function("transpile_bv4_level3", |b| {
        let t = Transpiler::new(CouplingMap::ibm_h7());
        b.iter(|| t.run(&w.circuit).expect("transpiles"))
    });
    group.bench_function("noisy_run_bv4_raw", |b| {
        let model = cal.noise_model();
        let t = Transpiler::new(CouplingMap::ibm_h7());
        let routed = t.run(&w.circuit).expect("transpiles");
        b.iter(|| simulate::run_noisy(routed.circuit(), &model).expect("runs"))
    });
    group.bench_function("noisy_executor_bv4_end_to_end", |b| {
        let ex = NoisyExecutor::new(cal.clone());
        b.iter(|| ex.execute(&w.circuit).expect("runs"))
    });
    group.finish();
}

/// Forked-state sweep engine vs the naive per-configuration oracle on the
/// paper's bv-4/jakarta baseline — the BENCHMARKS.md before/after numbers.
/// Per-iteration work is one injection point's full grid sweep.
fn bench_sweep_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_engine");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let golden = golden_outputs(&w.circuit).expect("golden");
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    // A mid-circuit point: representative prefix/suffix balance.
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];

    for (label, grid) in [
        ("coarse", FaultGrid::coarse()),
        ("paper312", FaultGrid::paper()),
    ] {
        group.bench_function(format!("forked_point_sweep_bv4_{label}"), |b| {
            b.iter(|| run_point_sweep(&w.circuit, &golden, &ex, point, &grid).expect("sweep"))
        });
        group.bench_function(format!("naive_point_sweep_bv4_{label}"), |b| {
            b.iter(|| run_point_sweep_naive(&w.circuit, &golden, &ex, point, &grid).expect("sweep"))
        });
    }
    group.finish();
}

/// Grid-parallel replay on one prepared point — the BENCHMARKS.md
/// per-point numbers for the two-level thread model. Per iteration: all
/// 312 paper configurations of one bv-4/jakarta injection point, replayed
/// from the parked snapshot across 1/2/4 grid threads.
fn bench_replay_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_grid");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).expect("prepare");
    let grid = FaultGrid::paper();
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("bv4_paper312_t{threads}"), |b| {
            b.iter(|| prepared.replay_grid(&grid, threads).expect("grid replay"))
        });
    }
    group.finish();
}

/// Block grid replay vs a per-cell `replay` loop on the same prepared
/// bv-4/jakarta point — the BENCHMARKS.md "batched grid replay" numbers.
/// `per_cell` replays every cell through the scalar path on the identical
/// prepared snapshot, so the ratio isolates the cell-major blocks. Both
/// paths are bit-identical; only the wall clock moves.
fn bench_replay_grid_vs_per_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_grid_vs_per_cell");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).expect("prepare");
    for (label, grid) in [
        ("coarse", FaultGrid::coarse()),
        ("paper312", FaultGrid::paper()),
    ] {
        group.bench_function(format!("bv4_{label}_per_cell_t1"), |b| {
            b.iter(|| {
                grid.iter()
                    .map(|(theta, phi)| prepared.replay(FaultParams::shift(theta, phi)))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("per-cell replay")
            })
        });
        group.bench_function(format!("bv4_{label}_grid_t1"), |b| {
            b.iter(|| prepared.replay_grid(&grid, 1).expect("grid replay"))
        });
    }
    group.finish();
}

/// Telemetry overhead on the hot replay path (BENCHMARKS.md "phase
/// attribution"). `disabled` is the default campaign configuration —
/// every record call is one relaxed atomic load — and must match PR 5's
/// recorded `replay_grid` numbers; `enabled` pays one `Instant::now()`
/// pair per phase (never per cell) and should sit within noise of it.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).expect("prepare");
    let grid = FaultGrid::paper();

    qufi_obs::disable();
    group.bench_function("replay_bv4_paper312_t1_disabled", |b| {
        b.iter(|| prepared.replay_grid(&grid, 1).expect("grid replay"))
    });
    qufi_obs::reset();
    qufi_obs::enable();
    group.bench_function("replay_bv4_paper312_t1_enabled", |b| {
        b.iter(|| prepared.replay_grid(&grid, 1).expect("grid replay"))
    });
    qufi_obs::disable();
    qufi_obs::reset();
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_statevector, bench_density, bench_kernels, bench_pipeline, bench_sweep_engine,
        bench_replay_grid, bench_replay_grid_vs_per_cell, bench_obs_overhead
}
criterion_main!(benches);
