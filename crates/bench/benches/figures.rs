//! Benchmarks of the library figure drivers, on reduced grids so `cargo
//! bench` stays interactive. The `fig*` binaries regenerate the full-grid
//! numbers; the single-fault figures run as `qufi run` campaigns, whose
//! point sweep `benches/engine.rs` times.

use criterion::{criterion_group, criterion_main, Criterion};
use qufi_bench::experiments::{
    default_executor, fig10_distributions, fig4_worked_example, fig7_trajectory_extension,
    fig8_double, fig9_delta,
};
use qufi_core::fault::FaultGrid;
use std::f64::consts::PI;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    // Benches time the campaign pipeline, not the figure: a 2×2 shift grid
    // exercises the same code per injection point at interactive speed.
    // The fig* binaries run the real grids.
    let grid = FaultGrid::custom(vec![0.0, PI], vec![0.0, PI]);

    group.bench_function("fig4_worked_example", |b| b.iter(fig4_worked_example));
    group.bench_function("fig8_to_10_double_tiny", |b| {
        let ex = default_executor();
        b.iter(|| {
            let f8 = fig8_double(&grid, &ex);
            let delta = fig9_delta(&f8);
            let f10 = fig10_distributions(&f8);
            (delta.mean(), f10.double_stats)
        })
    });
    // Fig. 7 extension: per-point trajectory sweeps past the density wall.
    // 64 shots on the 2×2 grid keeps each width interactive; BENCHMARKS.md
    // records the production shot counts.
    for width in [10usize, 12, 14] {
        group.bench_function(format!("fig7_trajectory_ext_{width}q"), |b| {
            b.iter(|| fig7_trajectory_extension(&grid, 64, &[width]))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_figures
}
criterion_main!(benches);
