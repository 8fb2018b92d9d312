//! Pattern mining cost, with and without computing the unpruned rule
//! universe (the §IV pruning ablation).

use hpm_bench::setup::{paper_discovery, paper_mining};
use hpm_bench::Bench;
use hpm_core::eval::training_slice;
use hpm_datagen::{paper_dataset, PaperDataset, PERIOD};
use hpm_patterns::{discover, mine, prune_statistics};

fn main() {
    let mut bench = Bench::from_args();
    for dataset in [PaperDataset::Car, PaperDataset::Airplane] {
        let traj = paper_dataset(dataset, 42).generate_subs(40);
        let train = training_slice(&traj, PERIOD, 40);
        let out = discover(&train, &paper_discovery(30.0, 4));
        bench.run(&format!("mining/pruned/{}", dataset.name()), None, || {
            mine(&out.regions, &out.visits, &paper_mining(0.3))
        });
        // Only the small airplane set is cheap enough for the full
        // unpruned enumeration inside a benchmark loop.
        if dataset == PaperDataset::Airplane {
            let label = format!("mining/with_unpruned_count/{}", dataset.name());
            bench.run(&label, None, || {
                prune_statistics(&out.regions, &out.visits, &paper_mining(0.3))
            });
        }
    }
    let traj = paper_dataset(PaperDataset::Cow, 42).generate_subs(60);
    let train = training_slice(&traj, PERIOD, 60);
    bench.run("discovery/cow_60subs", None, || {
        discover(&train, &paper_discovery(30.0, 4))
    });
    bench.summary();
}
