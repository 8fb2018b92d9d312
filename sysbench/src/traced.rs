//! The traced run of each workload: first the timed run itself, with
//! `hpm-obs` off, for the end-to-end metrics the driver does not bound;
//! then, instrumentation on, the ladder of [`crate::trace`] replayed on
//! a prefix of the workload's own seeded op list, and the single-layer
//! measurements that sit beside it. The difference between a pipelined
//! pass with instrumentation off and the same pass with it on is
//! reported as `obs.overhead.share`.

use crate::drive::{closed_loop, Timed};
use crate::host::{self, Hosted, ScratchDir};
use crate::ops::{result_rows, Kind, Op};
use crate::run::{
    bulk_load, open_loaded, samples_by_kind, window_rate, History, Outcome, RunError, Scale,
};
use crate::trace::{self, ladder, rungs, Subject, Tracer};
use crate::workloads::{
    self, mixed_live, Workload, INGEST_WINDOW, PREDICT_WINDOW, QUERY_FRAME, REPORT_FRAME,
};
use crate::{catalog, pipeline};
use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig};
use hpm_server::Client;
use hpm_store::{decode_snapshot, encode_snapshot, scan_wal_file, WalOptions};
use hpm_trajectory::{ChunkParams, DEFAULT_MIN_TAIL, DEFAULT_SEAL_LEN};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs the traced pass of `workload`, writes its spans to
/// `trace-<workload>.jsonl` under the output directory, and returns
/// every per-layer metric (0 for layers the workload never enters).
pub fn run(workload: Workload, seed: u64, scale: Scale) -> Result<Outcome, RunError> {
    hpm_obs::disable();
    let mut out = pipeline::run(workload, seed, scale)?;
    for layer in catalog::per_layer() {
        if !out.metrics.contains_key(&layer.name) {
            out.put(&layer.name, 0.0, layer.unit);
        }
    }
    let mut tracer = Tracer::default();
    let result = match workload {
        Workload::IngestDurable => ingest(&mut tracer, &mut out, seed, scale),
        Workload::PredictPoint => predict(&mut tracer, &mut out, seed, scale),
        Workload::FleetQuery => fleet(&mut tracer, &mut out, seed, scale),
        Workload::MixedLive => live(&mut tracer, &mut out, seed, scale),
    };
    hpm_obs::disable();
    result?;
    let path = host::out_dir().join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&path)?;
    out.note(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    put_ladder(&mut out, &tracer);
    Ok(out)
}

/// Records the four rungs of every op kind and explains them in notes:
/// ns per op and share of the wire, which sum to it by construction.
fn put_ladder(out: &mut Outcome, tracer: &Tracer) {
    for kind in Kind::ALL {
        let r = rungs(tracer, kind);
        let k = kind.name();
        out.put_sampled(&format!("wire.{k}.ns"), r.wire, "ns", r.ops);
        out.put_sampled(&format!("server.proto.{k}.ns"), r.proto, "ns", r.ops);
        out.put_sampled(&format!("objectstore.{k}.ns"), r.store, "ns", r.ops);
        out.put_sampled(
            &format!("server.transport.{k}.ns"),
            r.transport,
            "ns",
            r.ops,
        );
        if r.ops > 0 {
            let share = |v: f64| 100.0 * v / r.wire;
            out.note(format!(
                "ladder {k:<13} wire {:>10.0} ns = proto {:>9.0} ({:>4.1}%) + objectstore {:>10.0} \
                 ({:>4.1}%) + transport {:>9.0} ({:>4.1}%)  [{} ops, one in flight]",
                r.wire,
                r.proto,
                share(r.proto),
                r.store,
                share(r.store),
                r.transport,
                share(r.transport),
                r.ops
            ));
        }
    }
}

/// Units (reports, queries) of the ops whose reply was not of the
/// shape the op had to get.
fn count_bad(ops: &[Op], replies: &[hpm_server::ResponseBody]) -> u64 {
    ops.iter()
        .zip(replies)
        .filter(|(op, reply)| !op.answered_by(reply))
        .map(|(op, _)| op.units())
        .sum()
}

/// A pipelined closed-loop pass; returns its timings.
fn pass(client: &mut Client, ops: &[Op], window: usize) -> Result<Vec<Timed>, RunError> {
    Ok(closed_loop(client, ops, window, |_, _| {})?)
}

/// Median-of-windows rate of a pass whose ops all carry `units`.
fn rate(timings: &[Timed], units: u64) -> f64 {
    window_rate(timings, units).unwrap_or(0.0)
}

/// `(off − on) / off`: the share of throughput instrumentation costs.
fn put_overhead(out: &mut Outcome, off: f64, on: f64) {
    if off > 0.0 {
        out.put("obs.overhead.share", (off - on) / off, "share");
    }
}

fn chunk_params() -> ChunkParams {
    ChunkParams {
        seal_len: DEFAULT_SEAL_LEN,
        min_tail: DEFAULT_MIN_TAIL.max(workloads::RECENT_LEN),
    }
}

fn wal_options() -> WalOptions {
    WalOptions {
        group_commit: host::GROUP_COMMIT,
        fsync: hpm_objectstore::FsyncPolicy::Never,
    }
}

/// Up to 64 trained histories that are one report short of their next
/// retrain cadence, each with that report's position (the object's
/// first in `feed`).
fn cadence_crossings<'a>(
    histories: &'a [History],
    feed: &[Op],
    config: &StoreConfig,
) -> Vec<(&'a History, hpm_geo::Point)> {
    let cycle = config.retrain_every_subs * config.discovery.period as usize;
    histories
        .iter()
        .filter(|h| h.train_at > 0 && h.points.len() + 1 == h.train_at + cycle)
        .filter_map(|h| {
            let next = feed.iter().find_map(|op| match op {
                Op::ReportMany(r) => r.iter().find(|(id, _, _)| *id == h.id).map(|r| r.2),
                _ => None,
            })?;
            Some((h, next))
        })
        .take(64)
        .collect()
}

/// The one report that crosses a retrain cadence for each history in
/// `crossing` (an incremental pass each), then `force_retrain` on the
/// same objects (a full rebuild each), on a store of their own.
fn train_rungs(
    tracer: &mut Tracer,
    out: &mut Outcome,
    config: StoreConfig,
    crossing: &[(&History, hpm_geo::Point)],
) {
    let store = MovingObjectStore::new(config);
    let histories: Vec<History> = crossing
        .iter()
        .map(|(h, _)| History {
            id: h.id,
            start: h.start,
            points: h.points.clone(),
            train_at: h.train_at,
        })
        .collect();
    bulk_load(&store, &histories);
    // Every crossing must retrain; whether a pass stays incremental or
    // falls back to a full rebuild on drift is the trainer's call.
    let retrains = hpm_obs::registry().counter(hpm_objectstore::metrics::RETRAINS);
    let before = retrains.value();
    for (i, (h, next)) in crossing.iter().enumerate() {
        let at = h.start + h.points.len() as u64;
        tracer.time("core.train.incremental", i, None, || {
            black_box(store.report(h.id, at, *next)).ok()
        });
    }
    let crossed = retrains.value() - before;
    out.check(
        crossed as usize == crossing.len(),
        format!(
            "{crossed} of {} cadence-crossing reports retrained",
            crossing.len()
        ),
    );
    for (i, (h, _)) in crossing.iter().enumerate() {
        tracer.time("core.train.full", i, None, || {
            black_box(store.force_retrain(h.id)).ok()
        });
    }
    out.put_sampled(
        "core.train.incremental.ns",
        tracer.mean_ns("core.train.incremental"),
        "ns",
        crossing.len(),
    );
    out.put_sampled(
        "core.train.full.ns",
        tracer.mean_ns("core.train.full"),
        "ns",
        crossing.len(),
    );
}

/// The write-path layers on their own: WAL append and history append
/// of the same reports.
fn write_rungs(tracer: &mut Tracer, out: &mut Outcome, ops: &[Op]) -> Result<(), RunError> {
    let reports = trace::reports_of(ops);
    let dir = ScratchDir::new("trace-wal")?;
    let (ns, bytes) = trace::wal_rung(tracer, &reports, dir.path(), wal_options())?;
    out.put_sampled("store.wal.append.ns", ns, "ns", reports.len());
    out.put("store.wal.bytes_per_record", bytes, "B");
    let ns = trace::trajectory_rung(tracer, &reports, chunk_params());
    out.put_sampled("trajectory.append.ns", ns, "ns", reports.len());
    Ok(())
}

fn ingest(tracer: &mut Tracer, out: &mut Outcome, seed: u64, scale: Scale) -> Result<(), RunError> {
    let plan = Workload::IngestDurable.plan(seed, scale)?;
    let feed = &plan.ingest;
    let build = |label: &str| open_loaded(label, plan.config.clone(), &plan.load);
    let (dir, store) = build("trace-ingest")?;
    let hosted = Hosted::start(Arc::new(store))?;
    let mut client = hosted.connect()?;
    let (twin_dir, twin) = build("trace-ingest-twin")?;

    // The feed, in consecutive stretches: warm-up, a pipelined pass
    // with instrumentation off, the same with it on, a snapshot, then
    // the ladder. The twin is brought to the state the served store is
    // in when the ladder starts by applying the same frames in-process.
    let stretch = (feed.timed.len() / 5).max(1);
    let (off_ops, rest) = feed.timed.split_at(stretch);
    let (on_ops, rest) = rest.split_at(stretch.min(rest.len()));
    let ladder_ops = &rest[..stretch.min(rest.len())];
    pass(&mut client, &feed.warm, INGEST_WINDOW)?;
    let off = pass(&mut client, off_ops, INGEST_WINDOW)?;
    hpm_obs::enable();
    let retrains = hpm_obs::registry().counter(hpm_objectstore::metrics::RETRAINS);
    let retrains_before = retrains.value();
    let on = pass(&mut client, on_ops, INGEST_WINDOW)?;
    let on_reports: u64 = on_ops.iter().map(Op::units).sum();
    out.put(
        "objectstore.retrains.per_kreport",
        (retrains.value() - retrains_before) as f64 * 1_000.0 / on_reports.max(1) as f64,
        "count",
    );
    let frame = REPORT_FRAME as u64;
    put_overhead(out, rate(&off, frame), rate(&on, frame));
    out.check(
        client.snapshot()? == Ok(true),
        "snapshot before the ladder failed",
    );
    hpm_obs::disable();
    for op in feed.warm.iter().chain(off_ops).chain(on_ops) {
        op.apply(&twin);
    }
    hpm_obs::enable();
    let replies = ladder(tracer, ladder_ops, &mut client, &twin)?;
    out.tally.add(
        ladder_ops.iter().map(Op::units).sum(),
        count_bad(ladder_ops, &replies),
    );
    drop(twin);
    drop(twin_dir);

    write_rungs(tracer, out, ladder_ops)?;
    let config = plan.config.clone();
    let crossing = cadence_crossings(&plan.load, &feed.warm, &config);
    train_rungs(tracer, out, config, &crossing);

    // Recovery, layer by layer, on the files this run left behind.
    drop(client);
    drop(hosted.stop()?);
    let mut snapshot = None;
    let mut wals = Vec::new();
    for entry in std::fs::read_dir(dir.path())? {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("snap") => snapshot = Some(path),
            Some("log") => wals.push(path),
            _ => {}
        }
    }
    wals.sort();
    for (i, wal) in wals.iter().enumerate() {
        let (scan, _) = tracer.time("store.wal.scan", i, None, || scan_wal_file(wal));
        black_box(scan?);
    }
    let scan_ns = tracer.total_ns("store.wal.scan").0 as f64;
    let mut decode_ns = 0.0;
    if let Some(path) = &snapshot {
        let bytes = std::fs::read(path)?;
        let (objects, _) =
            tracer.time("store.snapshot.decode", 0, None, || decode_snapshot(&bytes));
        let objects = objects.map_err(|e| RunError(format!("snapshot decode: {e}")))?;
        decode_ns = tracer.total_ns("store.snapshot.decode").0 as f64;
        tracer.time("store.snapshot.encode", 0, None, || {
            black_box(encode_snapshot(&objects).len())
        });
    }
    let copy = dir.duplicate("trace-reopen")?;
    let (reopened, _) = tracer.time("objectstore.open", 0, None, || {
        MovingObjectStore::open(plan.config.clone(), host::durability(copy.path()))
    });
    drop(reopened?);
    let open_ns = tracer.total_ns("objectstore.open").0 as f64;
    out.put_sampled("store.wal.scan.ns", scan_ns, "ns", wals.len());
    out.put("store.snapshot.decode.ns", decode_ns, "ns");
    out.put(
        "store.snapshot.encode.ns",
        tracer.total_ns("store.snapshot.encode").0 as f64,
        "ns",
    );
    out.put(
        "objectstore.open.rebuild.ns",
        open_ns - scan_ns - decode_ns,
        "ns",
    );
    out.note(format!(
        "recovery {:.3} s = wal scan {:.3} + snapshot decode {:.3} + rebuild {:.3}",
        open_ns / 1e9,
        scan_ns / 1e9,
        decode_ns / 1e9,
        (open_ns - scan_ns - decode_ns) / 1e9
    ));
    Ok(())
}

fn predict(
    tracer: &mut Tracer,
    out: &mut Outcome,
    seed: u64,
    scale: Scale,
) -> Result<(), RunError> {
    let plan = Workload::PredictPoint.plan(seed, scale)?;
    let asked = &plan.predict;
    let store = MovingObjectStore::new(plan.config.clone());
    bulk_load(&store, &plan.load);
    let hosted = Hosted::start(Arc::new(store))?;
    let mut client = hosted.connect()?;

    let stretch = (asked.timed.len() / 5).max(1);
    let pass_ops = &asked.timed[..stretch];
    pass(&mut client, &asked.warm, PREDICT_WINDOW)?;
    let off = pass(&mut client, pass_ops, PREDICT_WINDOW)?;
    hpm_obs::enable();
    let on = pass(&mut client, pass_ops, PREDICT_WINDOW)?;
    let frame = QUERY_FRAME as u64;
    put_overhead(out, rate(&off, frame), rate(&on, frame));

    let ladder_ops = &asked.timed[..(stretch / 4).max(1)];
    let replies = ladder(tracer, ladder_ops, &mut client, hosted.store())?;
    out.tally.add(
        ladder_ops.iter().map(Op::units).sum(),
        count_bad(ladder_ops, &replies),
    );

    // Bare predictors for a slice of the fleet, asked the ladder's own
    // queries about those objects.
    let slice = (plan.timeline.fleet.objects / 5).max(1);
    let subjects: HashMap<u64, Subject> = plan
        .load
        .iter()
        .filter(|h| h.id.0 < slice)
        .map(|h| {
            (
                h.id.0,
                Subject {
                    start: h.start,
                    points: h.points.clone(),
                },
            )
        })
        .collect();
    let queries: Vec<(ObjectId, u64)> = ladder_ops
        .iter()
        .filter_map(|op| match op {
            Op::PredictBatch(q) => Some(q.iter().copied()),
            _ => None,
        })
        .flatten()
        .filter(|(id, _)| id.0 < slice)
        .collect();
    let config = plan.config.clone();
    let rung = trace::predictor_rung(
        tracer,
        &subjects,
        &queries,
        &config.discovery,
        &config.mining,
        config.hpm,
        config.recent_len,
    );
    let answered: usize = rung.answered.iter().sum();
    let mut core_ns_per_query = 0.0;
    for (i, source) in ["fqp", "bqp", "fallback"].iter().enumerate() {
        let ns = tracer.mean_ns(trace::CORE_PREDICT[i]);
        let share = rung.answered[i] as f64 / answered.max(1) as f64;
        out.put_sampled(
            &format!("core.predict.{source}.ns"),
            ns,
            "ns",
            rung.answered[i],
        );
        out.put(&format!("core.predict.{source}.share"), share, "share");
        core_ns_per_query += share * ns;
    }
    let searches = tracer.total_ns(trace::TPT_SEARCH).1;
    out.put_sampled(
        "tpt.search.ns",
        tracer.mean_ns(trace::TPT_SEARCH),
        "ns",
        searches,
    );
    out.put("tpt.search.nodes_per_query", rung.nodes_per_search, "count");
    let store_ns_per_query = rungs(tracer, Kind::PredictBatch).store / frame as f64;
    out.put(
        "objectstore.predict.overhead.ns",
        store_ns_per_query - core_ns_per_query,
        "ns",
    );
    out.note(format!(
        "predict: objectstore {store_ns_per_query:.0} ns/query = core {core_ns_per_query:.0} \
         (share-weighted over {answered} bare-predictor queries) + overhead {:.0}",
        store_ns_per_query - core_ns_per_query
    ));
    drop(client);
    hosted.stop()?;
    Ok(())
}

/// Index work per result, by kind, from the store's own histograms:
/// one client and one op at a time, so the counts repeat exactly.
fn index_counts(out: &mut Outcome, store: &MovingObjectStore, ops: &[Op], objects: u64) {
    let candidates = hpm_obs::registry().histogram(
        hpm_objectstore::metrics::INDEX_CANDIDATES,
        hpm_obs::Unit::Count,
    );
    let (mut examined, mut queries) = (0u64, 0u64);
    for kind in [Kind::Range, Kind::Knn, Kind::Within] {
        let before = candidates.snapshot().sum;
        let (mut rows, mut n) = (0usize, 0u64);
        for op in ops.iter().filter(|op| op.kind() == kind) {
            rows += result_rows(&op.apply(store));
            n += 1;
        }
        let seen = candidates.snapshot().sum - before;
        examined += seen;
        queries += n;
        out.put_sampled(
            &format!("objectstore.index.candidates_per_result.{}", kind.name()),
            seen as f64 / rows.max(1) as f64,
            "count",
            n as usize,
        );
    }
    out.put(
        "objectstore.index.pruned_share",
        1.0 - examined as f64 / (objects * queries.max(1)) as f64,
        "share",
    );
}

fn fleet(tracer: &mut Tracer, out: &mut Outcome, seed: u64, scale: Scale) -> Result<(), RunError> {
    let plan = Workload::FleetQuery.plan(seed, scale)?;
    let asked = &plan.queries;
    let objects = plan.timeline.fleet.objects;
    let store = MovingObjectStore::new(plan.config.clone());
    bulk_load(&store, &plan.load);
    let hosted = Hosted::start(Arc::new(store))?;
    let mut client = hosted.connect()?;
    let began = Instant::now();
    client.call(asked.warm[0].request())?;
    let first_flush_ns = began.elapsed().as_nanos() as f64;

    pass(&mut client, &asked.warm[1..], 1)?;
    let off = pass(&mut client, &asked.timed, 1)?;
    let steady_ns = samples_by_kind(&off)[Kind::Range.index()]
        .percentile(50.0)
        .unwrap_or(0) as f64;
    out.put(
        "objectstore.index.flush.ns_per_object",
        (first_flush_ns - steady_ns) / objects as f64,
        "ns",
    );

    let stretch = (asked.timed.len() / 8).max(1);
    let ladder_ops = &asked.timed[..stretch];
    hpm_obs::enable();
    let on = pass(&mut client, ladder_ops, 1)?;
    put_overhead(out, rate(&off[..stretch], 1), rate(&on, 1));
    let replies = ladder(tracer, ladder_ops, &mut client, hosted.store())?;
    out.tally
        .add(ladder_ops.len() as u64, count_bad(ladder_ops, &replies));
    index_counts(out, hosted.store(), ladder_ops, objects);
    drop(client);
    hosted.stop()?;
    Ok(())
}

fn live(tracer: &mut Tracer, out: &mut Outcome, seed: u64, scale: Scale) -> Result<(), RunError> {
    let plan = Workload::MixedLive.plan(seed, scale)?;
    let schedule = plan.live.as_ref().expect("mixed_live has a live phase");
    let objects = plan.timeline.fleet.objects;
    let build = |label: &str| open_loaded(label, plan.config.clone(), &plan.load);

    // One live pass, instrumentation off: a span per op from its due
    // time.
    let (_dir, store) = build("trace-live")?;
    let hosted = Hosted::start(Arc::new(store))?;
    let mut feed = hosted.connect()?;
    let mut query = hosted.connect()?;
    let began = Instant::now();
    query.call(schedule.queries.ops[0].request())?;
    let first_flush_ns = began.elapsed().as_nanos() as f64;
    let base = tracer.now();
    let live = mixed_live::live_phase(&mut feed, &mut query, schedule)?;
    let by_kind = samples_by_kind(&live.timings);
    out.put(
        "objectstore.index.dirty_per_query",
        schedule.dirty_per_query(),
        "count",
    );
    for (i, t) in live.timings.iter().enumerate() {
        tracer.record(trace::Span {
            name: match t.kind {
                Kind::ReportMany => "live.report_many",
                Kind::PredictBatch => "live.predict_batch",
                Kind::Range => "live.range",
                Kind::Knn => "live.knn",
                Kind::Within => "live.within",
            },
            start_ns: base + t.due_ns,
            end_ns: base + t.done_ns,
            parent: None,
            op: i as u32,
            thread: if t.kind == Kind::ReportMany { 1 } else { 2 },
        });
    }
    let (attempted, failed) = live.units();
    out.tally.add(attempted, failed);
    let steady_ns = by_kind[Kind::Range.index()].percentile(50.0).unwrap_or(0) as f64;
    out.put(
        "objectstore.index.flush.ns_per_object",
        (first_flush_ns - steady_ns).max(0.0) / objects as f64,
        "ns",
    );
    drop(feed);
    drop(query);
    drop(hosted.stop()?);

    // The ladder: the first seconds of both lanes merged by due time
    // and replayed one at a time, served store against a twin.
    let horizon = 3_000_000_000u64.min(schedule.seconds * 1_000_000_000);
    let mut merged: Vec<(u64, &Op)> = schedule
        .feed
        .due_ns
        .iter()
        .zip(&schedule.feed.ops)
        .chain(schedule.queries.due_ns.iter().zip(&schedule.queries.ops))
        .filter(|(due, _)| **due < horizon)
        .map(|(due, op)| (*due, op))
        .collect();
    merged.sort_by_key(|(due, _)| *due);
    let ladder_ops: Vec<Op> = merged.into_iter().map(|(_, op)| op.clone()).collect();
    let (_dir, store) = build("trace-live-wire")?;
    let (_twin_dir, twin) = build("trace-live-twin")?;
    let hosted = Hosted::start(Arc::new(store))?;
    let mut client = hosted.connect()?;
    hpm_obs::enable();
    let replies = ladder(tracer, &ladder_ops, &mut client, &twin)?;
    out.check(
        count_bad(&ladder_ops, &replies) == 0,
        "the live ladder got unacceptable replies",
    );
    let fleet_ops: Vec<Op> = ladder_ops
        .iter()
        .filter(|op| !matches!(op, Op::ReportMany(_) | Op::PredictBatch(_)))
        .cloned()
        .collect();
    index_counts(out, &twin, &fleet_ops, objects);
    write_rungs(tracer, out, &ladder_ops)?;
    let config = plan.config.clone();
    let crossing = cadence_crossings(&plan.load, &schedule.feed.ops, &config);
    train_rungs(tracer, out, config, &crossing);
    drop(client);
    hosted.stop()?;
    Ok(())
}
