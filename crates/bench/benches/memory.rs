//! Memory benchmark: bytes per object at fleet scale, chunked vs raw.
//!
//! Two questions, answered with real allocations rather than
//! projections:
//!
//! 1. **Footprint** — what does one object's movement history cost
//!    resident, compressed ([`ChunkedHistory`]) vs the raw
//!    `Vec<Point>` layout it replaced, at fleets of 10k / 100k / 1M
//!    objects? Every fleet row actually materializes that many
//!    histories (1M objects is the point: the accounting must stay
//!    cheap enough to *measure* a store that big, which is why
//!    `MemUse` walks capacities instead of traversing samples).
//! 2. **Throughput** — what do the compressed paths cost in time:
//!    appends/second through the seal pipeline, and points/second
//!    streamed back out of a [`DecodeCursor`]? The hot read path
//!    (`hot_window`) is a slice borrow and needs no benchmark.
//!
//! A store-level row reports `memory_use()` on a live
//! [`MovingObjectStore`] (10k objects), i.e. the same figure the
//! `store.mem.bytes` gauge exports — history plus predictor, trainer
//! and index overheads, not just history payload.
//!
//! A trained row answers the other half: what a *trained* object
//! keeps resident — predictor, trainer, history, split the way the
//! `store.mem.*_bytes` gauges split it, and the trainer further into
//! its clusterings, open visit sequence and support counts — and what
//! one mined rule costs in predictor bytes, over a small fleet of
//! forked commuters. Its twin trains the same fleet under a cadence
//! no fold will serve, so the store keeps no trainer: what such an
//! object costs in all.
//!
//! Run with `cargo bench --bench memory`; writes `BENCH_memory.json`
//! at the workspace root (`HPM_BENCH_OUT` overrides the directory).
//! Under `cargo test` it runs a small smoke pass, renders and parses
//! the report, and writes nothing.
//!
//! Caveat: single small container core; throughput numbers are floors
//! and the portable signal is the compression ratio and the shape of
//! bytes/object across fleet sizes (flat = no super-linear overhead).

use hpm_bench::report::{num, obj, write_json};
use hpm_bench::synth::FORKED_PERIODS;
use hpm_bench::{best_of, forked_commuter, forked_params, Bench};
use hpm_core::{HpmConfig, TrainPass, TrainerState};
use hpm_geo::{MemUse, Point};
use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig};
use hpm_obs::json::Json;
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_trajectory::{ChunkParams, ChunkedHistory};
use std::time::Instant;

/// One fleet-scale footprint row.
struct FleetRow {
    objects: usize,
    samples_per_object: usize,
    chunked_bytes_per_object: usize,
    raw_bytes_per_object: usize,
    history_ratio: f64,
}

/// Paper-like smooth walk for object `id`: small bounded steps.
#[inline]
fn step(id: u64, i: u64, x: &mut f64, y: &mut f64) -> Point {
    *x += ((i % 7) as f64 - 3.0) * 0.5;
    *y += (((i + id) % 5) as f64 - 2.0) * 0.5;
    Point::new(*x, *y)
}

fn build_history(id: u64, samples: usize) -> ChunkedHistory {
    let mut h = ChunkedHistory::new(0, ChunkParams::default());
    let (mut x, mut y) = (5000.0 + id as f64 * 3.0, 5000.0 - id as f64);
    for i in 0..samples as u64 {
        h.push(step(id, i, &mut x, &mut y));
    }
    h
}

/// Materializes `objects` compressed histories and accounts them.
/// Raw baseline is the *most charitable* raw layout (len, not
/// capacity, ×16 bytes) so the quoted ratio never flatters the codec.
fn fleet_row(objects: usize, samples_per_object: usize) -> FleetRow {
    let fleet: Vec<ChunkedHistory> = (0..objects as u64)
        .map(|id| build_history(id, samples_per_object))
        .collect();
    let chunked: usize = fleet.iter().map(MemUse::mem_bytes).sum();
    let raw: usize = fleet.iter().map(ChunkedHistory::raw_baseline_bytes).sum();
    let history: usize = fleet.iter().map(ChunkedHistory::history_bytes).sum();
    FleetRow {
        objects,
        samples_per_object,
        chunked_bytes_per_object: chunked / objects,
        raw_bytes_per_object: raw / objects,
        history_ratio: raw as f64 / history.max(1) as f64,
    }
}

/// Append + decode throughput over one long history, each the best of
/// `reps` passes.
struct Throughput {
    samples: usize,
    reps: usize,
    append_per_s: f64,
    decode_per_s: f64,
}

fn throughput(samples: usize, reps: usize) -> Throughput {
    let append = best_of(reps, || build_history(7, samples));
    let h = build_history(7, samples);
    let decode = best_of(reps, || h.iter().fold(0.0f64, |acc, p| acc + p.x));
    Throughput {
        samples,
        reps,
        append_per_s: samples as f64 / append.as_secs_f64(),
        decode_per_s: samples as f64 / decode.as_secs_f64(),
    }
}

/// Store-level bytes/object: the figure the `store.mem.bytes` gauges
/// export, over a live untrained fleet (training state is measured by
/// the retrain bench; this row isolates per-object bookkeeping +
/// history + index).
struct StoreRow {
    objects: usize,
    samples_per_object: usize,
    bytes_per_object: usize,
    history_ratio: f64,
    measure_ms: f64,
}

fn store_row(objects: u64, samples_per_object: usize) -> StoreRow {
    let config = StoreConfig {
        discovery: DiscoveryParams {
            period: 300,
            eps: 30.0,
            min_pts: 4,
        },
        mining: MiningParams::paper_defaults(),
        hpm: HpmConfig::default(),
        min_train_subs: usize::MAX >> 1, // footprint row: no training
        retrain_every_subs: usize::MAX >> 1,
        recent_len: 20,
        shards: 16,
        threads: 1,
        index: hpm_objectstore::IndexConfig::default(),
    };
    let store = MovingObjectStore::new(config);
    let mut pos: Vec<(f64, f64)> = (0..objects)
        .map(|id| (5000.0 + id as f64 * 3.0, 5000.0 - id as f64))
        .collect();
    let mut batch: Vec<(ObjectId, u64, Point)> = Vec::with_capacity(4096);
    for t in 0..samples_per_object as u64 {
        for id in 0..objects {
            let (x, y) = &mut pos[id as usize];
            batch.push((ObjectId(id), t, step(id, t, x, y)));
            if batch.len() == batch.capacity() {
                for r in store.report_many(&batch) {
                    r.expect("contiguous synthetic stream");
                }
                batch.clear();
            }
        }
    }
    for r in store.report_many(&batch) {
        r.expect("contiguous synthetic stream");
    }
    let start = Instant::now();
    let mem = store.memory_use();
    let measure_ms = start.elapsed().as_secs_f64() * 1e3;
    StoreRow {
        objects: objects as usize,
        samples_per_object,
        bytes_per_object: mem.bytes_per_object(),
        history_ratio: mem.history_compression_ratio(),
        measure_ms,
    }
}

/// Cadence of the `trained` row: below its trained periods, so the
/// store holds each object's trainer for the fold that would come next.
const HELD_CADENCE: usize = 1;

/// Cadence of the `trained_without_trainer` row, predict_point's: no
/// fold will run, so the store drops each trainer after its pass.
const DROPPED_CADENCE: usize = 1_000_000;

/// Trained-state bytes over a fleet of forked commuters: the
/// per-object shares `memory_use()` reports, the trainer's three parts
/// ([`TrainerState::mem_shares`]) and the predictor's cost per mined
/// rule.
struct TrainedRow {
    objects: usize,
    retrain_every_subs: usize,
    bytes_per_object: usize,
    rules_per_object: usize,
    predictor_bytes_per_object: usize,
    trainer_bytes_per_object: usize,
    /// Clusterings, open visit sequence, support counts.
    trainer_shares_per_object: [usize; 3],
    history_bytes_per_object: usize,
    predictor_bytes_per_rule: f64,
}

fn trained_row(objects: u64, retrain_every_subs: usize) -> TrainedRow {
    let (discovery, mining) = forked_params();
    let store = MovingObjectStore::new(StoreConfig {
        discovery,
        mining,
        hpm: HpmConfig::default(),
        min_train_subs: FORKED_PERIODS,
        retrain_every_subs,
        recent_len: 20,
        shards: 16,
        threads: 1,
        index: hpm_objectstore::IndexConfig::default(),
    });
    let mut rules = 0;
    let (mut trainer_bytes, mut shares) = (0, [0; 3]);
    for id in 0..objects {
        let path = forked_commuter(id);
        store
            .report_batch(ObjectId(id), 0, path.points())
            .expect("contiguous synthetic stream");
        rules += store.stats(ObjectId(id)).expect("just reported").patterns;
        if retrain_every_subs >= FORKED_PERIODS {
            continue; // no fold is due, so the store holds no trainer
        }
        // The store keeps its trainer to itself: seed the same one
        // beside it to read the parts.
        let mut trainer: Option<TrainerState> = None;
        let hpm = HpmConfig::default();
        let (_, pass) = TrainerState::retrain(&mut trainer, None, &path, &discovery, &mining, hpm);
        assert_eq!(pass, TrainPass::Seeded);
        let trainer = trainer.expect("a seed fills the slot");
        trainer_bytes += trainer.mem_bytes();
        for (sum, part) in shares.iter_mut().zip(trainer.mem_shares()) {
            *sum += part;
        }
    }
    let mem = store.memory_use();
    assert_eq!(
        trainer_bytes, mem.trainer_bytes,
        "the store holds other trainers than those seeded beside it"
    );
    let n = objects as usize;
    TrainedRow {
        objects: n,
        retrain_every_subs,
        bytes_per_object: mem.bytes_per_object(),
        rules_per_object: rules / n,
        predictor_bytes_per_object: mem.predictor_bytes / n,
        trainer_bytes_per_object: mem.trainer_bytes / n,
        trainer_shares_per_object: shares.map(|b| b / n),
        history_bytes_per_object: mem.history_bytes / n,
        predictor_bytes_per_rule: mem.predictor_bytes as f64 / rules.max(1) as f64,
    }
}

const METHODOLOGY: &str = "fleet rows materialize N real ChunkedHistory values (default \
    geometry: 256-sample sealed chunks, the open chunk being written, and a raw window of 16 \
    to 48 samples) filled with a paper-like smooth walk and account them via MemUse \
    (capacity-walk, no sample traversal); raw baseline is len*16 bytes, the most charitable \
    uncompressed layout, so ratios never flatter the codec. history_compression_ratio compares \
    payload bytes (sealed and open chunk words + raw window) to that baseline; \
    bytes_per_object additionally carries struct headers and chunk-vec capacity. Throughput \
    pushes one long history through the seal pipeline and then streams it back through a \
    DecodeCursor, each the best of 5 passes. The store row reports memory_use() on a live MovingObjectStore (16 shards, \
    untrained fleet) — the same figure the store.mem.bytes gauge exports — and times the \
    accounting walk itself to show measuring a large store is cheap. Container caveat: one \
    small core, so throughputs are floors; the portable signals are the compression ratio and \
    the flat bytes/object across fleet sizes";

const TRAINED_METHODOLOGY: &str = "a live MovingObjectStore of forked commuters in sysbench's \
    predict_point shape (period 32, 12 trained periods, two routes that share a first leg, \
    per-object geometry and seed; Eps 2 / MinPts 3, min_support 3, premises of up to 2 \
    regions), each loaded in one batch so it trains once at its last sample, under a cadence \
    (retrain_every_subs 1) that keeps its trainer for the next fold; bytes_per_object is \
    memory_use()'s per-object figure and the other per-object figures its predictor / trainer \
    / history shares (the store.mem.*_bytes gauges) over the fleet; the trainer's clustering / visits / support-count parts come from a \
    TrainerState seeded beside each object over the same path (TrainerState::mem_shares, each \
    part with its inline size; their fleet total is asserted equal to the store's trainer share); predictor_bytes_per_rule is the predictor share over the rules \
    it indexes — regions, pattern table, key table, packed TPT image (internal signatures \
    only; its leaves are the pattern table's rows, stored in key order) and weight table \
    together. Capacity-based MemUse figures, held to the allocator's live bytes within 20% by \
    objectstore/tests/mem_growth.rs";

const UNHELD_METHODOLOGY: &str = "the trained row's fleet under predict_point's cadence \
    (retrain_every_subs 1,000,000, at least the 12 trained periods): no retrain would fold, so \
    the store drops each trainer after its pass and the object keeps its predictor and history \
    alone";

fn run(
    bench: &Bench,
    fleets: &[(usize, usize)],
    tp_samples: usize,
    store_objects: u64,
    trained_objects: u64,
) {
    let rows: Vec<FleetRow> = fleets
        .iter()
        .map(|&(objects, samples)| {
            let row = fleet_row(objects, samples);
            println!(
                "  fleet {:>9} objs x {:>5} samples: {:>5} B/obj chunked vs {:>6} B/obj raw \
                 (history {:.2}x)",
                row.objects,
                row.samples_per_object,
                row.chunked_bytes_per_object,
                row.raw_bytes_per_object,
                row.history_ratio
            );
            row
        })
        .collect();
    let tp = throughput(tp_samples, if bench.measuring() { 5 } else { 1 });
    println!(
        "  throughput over {} samples, best of {}: append {:.1} M/s, decode {:.1} M/s",
        tp.samples,
        tp.reps,
        tp.append_per_s / 1e6,
        tp.decode_per_s / 1e6
    );
    let st = store_row(store_objects, 600);
    println!(
        "  store {} objs x {} samples: {} B/obj total, history {:.2}x, measured in {:.1} ms",
        st.objects, st.samples_per_object, st.bytes_per_object, st.history_ratio, st.measure_ms
    );

    let tr = trained_row(trained_objects, HELD_CADENCE);
    let un = trained_row(trained_objects, DROPPED_CADENCE);
    let [clustering, visits, counts] = tr.trainer_shares_per_object;
    for r in [&tr, &un] {
        println!(
            "  trained {} objs x {} rules, retrain every {}: {} B/obj in all, predictor {} B/obj \
             ({:.1} B/rule), trainer {} B/obj, history {} B/obj",
            r.objects,
            r.rules_per_object,
            r.retrain_every_subs,
            r.bytes_per_object,
            r.predictor_bytes_per_object,
            r.predictor_bytes_per_rule,
            r.trainer_bytes_per_object,
            r.history_bytes_per_object
        );
    }
    println!(
        "  held trainer: clustering {clustering}, visits {visits}, support counts {counts} B/obj"
    );

    let count = |n: usize| num(n as f64, 0);
    let fleet_rows = rows
        .iter()
        .map(|r| {
            obj([
                ("objects", count(r.objects)),
                ("samples_per_object", count(r.samples_per_object)),
                (
                    "chunked_bytes_per_object",
                    count(r.chunked_bytes_per_object),
                ),
                ("raw_bytes_per_object", count(r.raw_bytes_per_object)),
                ("history_compression_ratio", num(r.history_ratio, 2)),
            ])
        })
        .collect();
    let store = obj([
        ("objects", count(st.objects)),
        ("samples_per_object", count(st.samples_per_object)),
        ("bytes_per_object", count(st.bytes_per_object)),
        ("history_compression_ratio", num(st.history_ratio, 2)),
        ("memory_use_ms", num(st.measure_ms, 1)),
    ]);
    let trained = obj([
        ("methodology", Json::String(TRAINED_METHODOLOGY.into())),
        ("objects", count(tr.objects)),
        ("retrain_every_subs", count(tr.retrain_every_subs)),
        ("bytes_per_object", count(tr.bytes_per_object)),
        ("rules_per_object", count(tr.rules_per_object)),
        (
            "predictor_bytes_per_object",
            count(tr.predictor_bytes_per_object),
        ),
        (
            "trainer_bytes_per_object",
            count(tr.trainer_bytes_per_object),
        ),
        ("trainer_clustering_bytes_per_object", count(clustering)),
        ("trainer_visits_bytes_per_object", count(visits)),
        ("trainer_support_counts_bytes_per_object", count(counts)),
        (
            "history_bytes_per_object",
            count(tr.history_bytes_per_object),
        ),
        (
            "predictor_bytes_per_rule",
            num(tr.predictor_bytes_per_rule, 1),
        ),
    ]);
    let unheld = obj([
        ("methodology", Json::String(UNHELD_METHODOLOGY.into())),
        ("objects", count(un.objects)),
        ("retrain_every_subs", count(un.retrain_every_subs)),
        ("bytes_per_object", count(un.bytes_per_object)),
        (
            "predictor_bytes_per_object",
            count(un.predictor_bytes_per_object),
        ),
        (
            "trainer_bytes_per_object",
            count(un.trainer_bytes_per_object),
        ),
        (
            "history_bytes_per_object",
            count(un.history_bytes_per_object),
        ),
    ]);
    let fields = [
        ("fleets", Json::Array(fleet_rows)),
        ("append_samples", count(tp.samples)),
        ("append_per_s", num(tp.append_per_s, 0)),
        ("decode_per_s", num(tp.decode_per_s, 0)),
        ("store", store),
        ("trained", trained),
        ("trained_without_trainer", unheld),
    ];
    write_json(bench, "memory", METHODOLOGY, &fields);

    // The tentpole claim, enforced wherever the bench runs: ≥3x
    // history reduction on the paper-like workload at depth. Short
    // histories (≤ a few hundred samples) pay the raw window of up to
    // `min_tail + seal_len / 8` = 48 samples and each chunk's 128-bit
    // raw first sample, and legitimately ratio lower.
    for r in &rows {
        if r.samples_per_object >= 2048 {
            assert!(
                r.history_ratio >= 3.0,
                "history compression ratio {:.2} < 3.0 at {} objects",
                r.history_ratio,
                r.objects
            );
        }
    }
}

/// Committed bytes/object budget for the verify.sh memory smoke: a
/// 10k-object store (600-sample smooth-walk histories, untrained) must
/// stay under this. Measured 2,695 B/object; the 2x headroom absorbs
/// allocator and shard-map noise while still catching a regression
/// that, say, reverts history compression (raw histories alone would
/// add ~9.6 KB/object here) or reserves a raw tail of 272 samples
/// again (~+3.6 KB/object).
const MEMSMOKE_BUDGET_BYTES_PER_OBJECT: usize = 5_390;

/// Committed predictor-bytes-per-rule budget for the same smoke: a
/// trained forked commuter's whole predictor share over the rules it
/// indexes. Measured 31.7 B/rule on the committed 256-object row
/// (pattern table ~26, regions ~4, the image most of the rest: its
/// leaves are the table's rows); 34.9 is 10% headroom, so neither a
/// leaf id arena back in the image (+4 B/rule) nor a second resident
/// copy of the rules' keys (leaf signature words are +16 B/rule, a
/// pattern-key side array +80) fits.
const MEMSMOKE_BUDGET_PREDICTOR_BYTES_PER_RULE: f64 = 34.9;

/// Committed trainer-bytes-per-object budget for the same smoke: the
/// same commuters' trainer share. Measured 23,573 B/object on the
/// committed 256-object row (clustering 12,818, visits 248, support
/// counts 10,506); 10% headroom over the row, so a regrowth of ~2.3 KB
/// fails it — the cluster folds back beside the regions they copy
/// together with a clustering state per offset (~+2.8 KB), an index
/// table back beside the support-count trie (~+4.6 KB), member lists in
/// the cluster folds with a full visit table (~+5 KB), or a second copy
/// of the clustered points (~+6 KB) beside the samples. Either half of
/// the first alone — the folds (~+1.8 KB) or the per-offset headers
/// (~+1 KB) — fits under it; the `trained` row shows those.
const MEMSMOKE_BUDGET_TRAINER_BYTES_PER_OBJECT: usize = 25_930;

/// Committed history-bytes-per-object budget for the same smoke: the
/// same commuters' history share (384 samples each). Measured 5,998
/// B/object on the committed 256-object row; 10% headroom, so a raw
/// tail reserved back to 272 samples after the first seal (8,185
/// B/object before histories were compressed as they arrive, ~+2.2 KB)
/// fails it.
const MEMSMOKE_BUDGET_HISTORY_BYTES_PER_OBJECT: usize = 6_598;

fn main() {
    if std::env::args().any(|a| a == "--memsmoke") {
        let tr = trained_row(64, HELD_CADENCE);
        assert!(
            tr.predictor_bytes_per_rule < MEMSMOKE_BUDGET_PREDICTOR_BYTES_PER_RULE,
            "{:.1} predictor B/rule exceeds the committed budget of {} B",
            tr.predictor_bytes_per_rule,
            MEMSMOKE_BUDGET_PREDICTOR_BYTES_PER_RULE
        );
        assert!(
            tr.trainer_bytes_per_object < MEMSMOKE_BUDGET_TRAINER_BYTES_PER_OBJECT,
            "{} trainer B/object ({:?} by part) exceeds the committed budget of {} B",
            tr.trainer_bytes_per_object,
            tr.trainer_shares_per_object,
            MEMSMOKE_BUDGET_TRAINER_BYTES_PER_OBJECT
        );
        assert!(
            tr.history_bytes_per_object < MEMSMOKE_BUDGET_HISTORY_BYTES_PER_OBJECT,
            "{} history B/object exceeds the committed budget of {} B",
            tr.history_bytes_per_object,
            MEMSMOKE_BUDGET_HISTORY_BYTES_PER_OBJECT
        );
        println!(
            "MEMSMOKE ok trained_objects={} rules_per_object={} predictor_bytes_per_rule={:.1} \
             budget={} trainer_bytes_per_object={} trainer_budget={} history_bytes_per_object={} \
             history_budget={}",
            tr.objects,
            tr.rules_per_object,
            tr.predictor_bytes_per_rule,
            MEMSMOKE_BUDGET_PREDICTOR_BYTES_PER_RULE,
            tr.trainer_bytes_per_object,
            MEMSMOKE_BUDGET_TRAINER_BYTES_PER_OBJECT,
            tr.history_bytes_per_object,
            MEMSMOKE_BUDGET_HISTORY_BYTES_PER_OBJECT
        );
        let st = store_row(10_000, 600);
        assert!(
            st.bytes_per_object < MEMSMOKE_BUDGET_BYTES_PER_OBJECT,
            "{} B/object exceeds the committed budget of {} B",
            st.bytes_per_object,
            MEMSMOKE_BUDGET_BYTES_PER_OBJECT
        );
        assert!(
            st.history_ratio > 1.0,
            "history compression ratio {:.2} <= 1.0",
            st.history_ratio
        );
        println!(
            "MEMSMOKE ok objects={} bytes_per_object={} budget={} history_ratio={:.2} \
             measure_ms={:.1}",
            st.objects,
            st.bytes_per_object,
            MEMSMOKE_BUDGET_BYTES_PER_OBJECT,
            st.history_ratio,
            st.measure_ms
        );
        return;
    }
    let bench = Bench::from_args();
    if bench.measuring() {
        run(
            &bench,
            &[(10_000, 8192), (100_000, 2048), (1_000_000, 512)],
            4_000_000,
            10_000,
            256,
        );
    } else {
        // Smoke (cargo test): tiny fleet, same code paths — including
        // the ≥3x gate on the deep-history row.
        run(&bench, &[(100, 2048), (200, 256)], 100_000, 50, 4);
        println!("memory benchmark smoke test passed");
    }
}
