//! Ablation A1 — the union-find choice (the paper's central design
//! decision): the same two-line scan over RemSP, link-by-rank+PC and
//! He's equivalence table, on a merge-heavy noise image and a
//! region-heavy landcover image.
//!
//! Expected shape: RemSP fastest (the paper's claim, after
//! Patwary–Blair–Manne); He's table competitive on few-merge inputs but
//! degrading with merge rate; rank paying for the extra array.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ccl_core::seq::{two_pass_with, ScanStrategy};
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};
use ccl_datasets::synth::noise::bernoulli;
use ccl_unionfind::{HeEquivalence, RankUF, RemSP};

fn bench_unionfind(c: &mut Criterion) {
    let images = vec![
        ("noise-d45", bernoulli(768, 768, 0.45, 21)),
        ("noise-d70", bernoulli(768, 768, 0.70, 22)),
        (
            "landcover",
            landcover(768, 768, LandcoverParams::default(), 23),
        ),
    ];
    let mut group = c.benchmark_group("ablation_unionfind");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for (name, img) in &images {
        group.throughput(Throughput::Bytes(img.raster_bytes() as u64));
        group.bench_with_input(BenchmarkId::new("remsp", name), img, |b, img| {
            b.iter(|| black_box(two_pass_with::<RemSP>(img, ScanStrategy::TwoLine)))
        });
        group.bench_with_input(BenchmarkId::new("rank-pc", name), img, |b, img| {
            b.iter(|| black_box(two_pass_with::<RankUF>(img, ScanStrategy::TwoLine)))
        });
        group.bench_with_input(BenchmarkId::new("he-table", name), img, |b, img| {
            b.iter(|| black_box(two_pass_with::<HeEquivalence>(img, ScanStrategy::TwoLine)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_unionfind);
criterion_main!(benches);
