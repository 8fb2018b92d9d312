//! Per-query cost of the Hybrid Prediction Model vs a standalone RMF
//! (Fig. 10's microbenchmark form).

use hpm_bench::setup::Experiment;
use hpm_bench::Bench;
use hpm_core::eval::rmf_or_last;
use hpm_datagen::PaperDataset;

fn main() {
    let mut bench = Bench::from_args();
    for &subs in &[20usize, 60, 100] {
        let exp = Experiment::new(PaperDataset::Bike, subs);
        let predictor = exp.build();
        let queries = exp.workload_with_recent(50, 60, 30);
        bench.run(&format!("query_cost_bike/hpm/{subs}"), None, || {
            for q in &queries {
                std::hint::black_box(predictor.predict(&q.as_query()));
            }
        });
        bench.run(&format!("query_cost_bike/rmf/{subs}"), None, || {
            for q in &queries {
                std::hint::black_box(rmf_or_last(&q.as_query(), 3));
            }
        });
    }
    bench.summary();
}
