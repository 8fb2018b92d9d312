//! Apriori mining cost, with and without computing the unpruned rule
//! universe (the §IV pruning ablation).

use hpm_bench::setup::{paper_discovery, paper_mining};
use hpm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpm_core::eval::training_slice;
use hpm_datagen::{paper_dataset, PaperDataset, PERIOD};
use hpm_patterns::{discover, mine, prune_statistics};

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("mining");
    group.sample_size(10);
    for dataset in [PaperDataset::Car, PaperDataset::Airplane] {
        let traj = paper_dataset(dataset, 42).generate_subs(40);
        let train = training_slice(&traj, PERIOD, 40);
        let out = discover(&train, &paper_discovery(30.0, 4));
        group.bench_with_input(
            BenchmarkId::new("pruned", dataset.name()),
            &out,
            |b, out| {
                b.iter(|| std::hint::black_box(mine(&out.regions, &out.visits, &paper_mining(0.3))))
            },
        );
        // Only the small airplane set is cheap enough for the full
        // unpruned enumeration inside a benchmark loop.
        if dataset == PaperDataset::Airplane {
            group.bench_with_input(
                BenchmarkId::new("with_unpruned_count", dataset.name()),
                &out,
                |b, out| {
                    b.iter(|| {
                        std::hint::black_box(prune_statistics(
                            &out.regions,
                            &out.visits,
                            &paper_mining(0.3),
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery");
    group.sample_size(10);
    let traj = paper_dataset(PaperDataset::Cow, 42).generate_subs(60);
    let train = training_slice(&traj, PERIOD, 60);
    group.bench_function("cow_60subs", |b| {
        b.iter(|| std::hint::black_box(discover(&train, &paper_discovery(30.0, 4))))
    });
    group.finish();
}

criterion_group!(benches, bench_mining, bench_discovery);
criterion_main!(benches);
