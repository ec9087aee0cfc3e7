//! Criterion bench for experiment T6: raw simulator primitives.
//!
//! Measures the host cost of single machine instructions (broadcast,
//! wired-OR, ALU map) across array sizes — the steps/second denominator
//! of the T6 table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppa_machine::{Direction, Machine, Plane};
use std::hint::black_box;

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_broadcast");
    group.sample_size(20);
    for &n in &[64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut m = Machine::square(n);
            let src = Plane::from_fn(m.dim(), |c| (c.row * 31 + c.col) as i64);
            let open = Plane::from_fn(m.dim(), |c| c.row == 0);
            b.iter(|| {
                black_box(
                    m.broadcast(black_box(&src), Direction::South, &open)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_alu_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_alu_map");
    group.sample_size(20);
    let mut m = Machine::square(256);
    let src = Plane::from_fn(m.dim(), |c| (c.row ^ c.col) as i64);
    group.bench_function("n256", |b| {
        b.iter(|| black_box(m.map(black_box(&src), |&v| v.wrapping_mul(31) + 7).unwrap()))
    });
    group.finish();
}

fn bench_bus_or(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_bus_or");
    group.sample_size(20);
    let n = 128;
    let mut m = Machine::square(n);
    let vals = Plane::from_fn(m.dim(), |c| (c.row + c.col) % 7 == 0);
    let open = Plane::from_fn(m.dim(), |c| c.col % 4 == 0);
    group.bench_function("n128", |b| {
        b.iter(|| black_box(m.bus_or(black_box(&vals), Direction::East, &open).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_broadcast, bench_alu_map, bench_bus_or);
criterion_main!(benches);
