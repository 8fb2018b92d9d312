//! The run every workload makes: set a seeded fleet up in a durable
//! store three times over, serve the last one on loopback, drive the
//! workload's own traffic — the open-loop phase, fleet queries, point
//! predictions or the feed, whichever its [`Plan`] holds — then ask
//! the fixed checked queries at rest, and restart. What each phase
//! measures and checks is the same whichever workload runs it.

use crate::drive::{closed_loop, Timed};
use crate::host::{self, Hosted, ScratchDir};
use crate::ops::{same_bits, square, Kind, Op, KNN_K};
use crate::run::{
    mem_bytes_per_object, open_loaded, repeat_setup, samples_by_kind, window_rate, Outcome,
    RunError, Scale,
};
use crate::stats;
use crate::workloads::mixed_live::{self, Live};
use crate::workloads::{
    Plan, Workload, EXTENTS, INGEST_WINDOW, LOOKAHEAD, PREDICT_WINDOW, QUERY_FRAME, REPORT_FRAME,
};
use hpm_core::PredictionSource;
use hpm_geo::Point;
use hpm_objectstore::{MovingObjectStore, ObjectId, ObjectStats, QueryError};
use hpm_server::{Client, ResponseBody};
use std::sync::Arc;
use std::time::Instant;

/// Frames (and objects) in every fixed correctness sample.
pub const SAMPLE: usize = 256;
/// Checked fleet queries of each kind that are also compared with their
/// brute-force scan twin (a scan re-predicts the whole fleet, ~50 ms
/// at 100,000 objects).
const SCAN_SAMPLE: usize = 8;

/// A loaded, served durable store and the client driving it.
struct Rig {
    dir: ScratchDir,
    hosted: Hosted,
    client: Client,
    /// Round trip of the first indexed query after the load, seconds.
    first_flush_s: f64,
}

/// One set-up: generate the plan, bulk-load the fleet into a fresh
/// durable store (commuters train), serve it, connect, and pay the
/// cold index flush with a first query.
fn set_up(workload: Workload, seed: u64, scale: Scale) -> Result<(Plan, Rig), RunError> {
    let plan = workload.plan(seed, scale)?;
    let (dir, store) = open_loaded(workload.name(), plan.config.clone(), &plan.load)?;
    let hosted = Hosted::start(Arc::new(store))?;
    let mut client = hosted.connect()?;
    let first = Op::Range {
        region: square(Point::new(0.0, 0.0), EXTENTS[0]),
        at: plan.now + LOOKAHEAD,
    };
    let began = Instant::now();
    client.call(first.request())?;
    let first_flush_s = began.elapsed().as_secs_f64();
    Ok((
        plan,
        Rig {
            dir,
            hosted,
            client,
            first_flush_s,
        },
    ))
}

/// Stops a rig's server and drops its store, leaving the directory.
fn tear_down(rig: Rig) -> Result<ScratchDir, RunError> {
    drop(rig.client);
    drop(rig.hosted.stop()?);
    Ok(rig.dir)
}

/// Runs `workload` once: every end-to-end metric, every check.
pub fn run(workload: Workload, seed: u64, scale: Scale) -> Result<Outcome, RunError> {
    let mut out = Outcome::default();

    // Set-up, three times over. The first rig doubles as the oracle of
    // the feed's wire check: everything the last rig will be fed over
    // the wire is applied to it in-process, and its acknowledgements of
    // the first frames of the closed feed are kept.
    let mut flush_secs = Vec::new();
    let mut oracle_acks: Vec<ResponseBody> = Vec::new();
    let ((plan, mut rig), setup_secs) = repeat_setup(
        |_| set_up(workload, seed, scale),
        |rep, (plan, rig): (Plan, Rig)| {
            flush_secs.push(rig.first_flush_s);
            if rep == 0 {
                let store = rig.hosted.store();
                for op in plan.live.iter().flat_map(|l| &l.feed.ops) {
                    op.apply(store);
                }
                let feed = plan.ingest.warm.iter().chain(&plan.ingest.timed);
                oracle_acks = feed.take(SAMPLE).map(|op| op.apply(store)).collect();
            }
            tear_down(rig).map(drop)
        },
    )?;
    flush_secs.push(rig.first_flush_s);
    out.put_median("setup_s", &setup_secs, "s");
    out.put_median("index_first_flush_s", &flush_secs, "s");
    out.note(format!(
        "{} objects ({} commuters); set-ups {setup_secs:.3?} s, first flushes {flush_secs:.4?} s",
        plan.timeline.fleet.objects,
        plan.timeline.fleet.commuter_ids().count(),
    ));

    if let Some(live) = &plan.live {
        live_stage(&mut out, &mut rig, live, scale)?;
    }
    if !plan.queries.timed.is_empty() {
        query_stage(&mut out, &mut rig, &plan, scale)?;
    }
    if !plan.predict.timed.is_empty() {
        predict_stage(&mut out, &mut rig, &plan)?;
    }
    if !plan.ingest.timed.is_empty() {
        ingest_stage(&mut out, &mut rig, &plan, &oracle_acks)?;
    }
    at_rest_stage(&mut out, &mut rig, &plan)?;
    restart_stage(&mut out, rig, &plan)?;
    Ok(out)
}

/// The open-loop phase: feed beside queries, every op timed from its
/// due time. A fixed-rate phase reports latencies, never a rate.
fn live_stage(out: &mut Outcome, rig: &mut Rig, live: &Live, scale: Scale) -> Result<(), RunError> {
    let mut query = rig.hosted.connect()?;
    let run = mixed_live::live_phase(&mut rig.client, &mut query, live)?;
    let (attempted, failed) = run.units();
    out.tally.add(attempted, failed);
    let by_kind = samples_by_kind(&run.timings);
    for (kind, stem) in [
        (Kind::PredictBatch, "live_predict"),
        (Kind::Range, "live_range"),
        (Kind::ReportMany, "live_ingest_ack"),
    ] {
        out.put_tails(stem, &by_kind[kind.index()], scale);
    }
    let quality = mixed_live::live_quality(&run);
    if let Some(late) = quality.late_p95_ms {
        out.put_sampled("gen.late_p95_ms", late, "ms", run.timings.len());
        // A late generator makes the live latencies worthless, not the
        // answers wrong: the phase is marked, the run stays correct.
        if late > mixed_live::MAX_LATE_P95_MS {
            out.note(format!(
                "LIVE PHASE INVALID: the generator ran {late:.3} ms late at p95 (limit {} ms)",
                mixed_live::MAX_LATE_P95_MS
            ));
        }
    }
    out.put("gen.backlog_max", run.backlog_max as f64, "count");
    out.put("live.over_limit_share", quality.over_limit_share, "share");
    out.note(format!(
        "live phase {} s (+{} s warm-up), feed frames of {} and {} queries/s: {} predict_batch({}), \
         {} range, {} kNN, {} within, {} feed frames sampled; {:.1} reports dirty per fleet query",
        live.seconds - mixed_live::WARM_SECONDS,
        mixed_live::WARM_SECONDS,
        mixed_live::FRAME,
        mixed_live::QUERIES_PER_SECOND,
        by_kind[Kind::PredictBatch.index()].len(),
        mixed_live::BATCH,
        by_kind[Kind::Range.index()].len(),
        by_kind[Kind::Knn.index()].len(),
        by_kind[Kind::Within.index()].len(),
        by_kind[Kind::ReportMany.index()].len(),
        live.dirty_per_query(),
    ));
    Ok(())
}

/// Fleet queries, one in flight: per-kind latencies.
fn query_stage(
    out: &mut Outcome,
    rig: &mut Rig,
    plan: &Plan,
    scale: Scale,
) -> Result<(), RunError> {
    let phase = &plan.queries;
    let mut malformed = 0u64;
    closed_loop(&mut rig.client, &phase.warm, 1, |i, reply| {
        malformed += u64::from(!phase.warm[i].answered_by(&reply));
    })?;
    out.check(
        malformed == 0,
        format!("{malformed} warm-up fleet queries got the wrong shape of reply"),
    );

    let mut failed = 0u64;
    let began = Instant::now();
    let timings = closed_loop(&mut rig.client, &phase.timed, 1, |i, reply| {
        failed += u64::from(!answered_in_full(&phase.timed[i], &reply));
    })?;
    let secs = began.elapsed().as_secs_f64();
    out.tally.add(phase.timed.len() as u64, failed);

    let by_kind = samples_by_kind(&timings);
    for (kind, stem) in [
        (Kind::Range, "range"),
        (Kind::Knn, "knn"),
        (Kind::Within, "within"),
    ] {
        let s = &by_kind[kind.index()];
        if let Some(p50) = s.p50_ms() {
            out.put_sampled(&format!("{stem}_p50_ms"), p50, "ms", s.len());
        }
        out.put_tails(stem, s, scale);
    }
    out.note(format!(
        "fleet queries {secs:.2} s: {} range, {} within, {} kNN, one in flight",
        by_kind[Kind::Range.index()].len(),
        by_kind[Kind::Within.index()].len(),
        by_kind[Kind::Knn.index()].len(),
    ));

    Ok(())
}

/// Whether a fleet query got its kind of answer, a kNN all [`KNN_K`]
/// of its neighbours.
fn answered_in_full(op: &Op, reply: &ResponseBody) -> bool {
    let short = matches!(reply, ResponseBody::Nearest(hits) if hits.len() != KNN_K);
    op.answered_by(reply) && !short
}

/// Point answers by source, rows that were not what they had to be,
/// and the distance from each top answer to the truth.
#[derive(Debug, Default)]
struct Answers {
    fqp: u64,
    bqp: u64,
    fallback: u64,
    typed_errors: u64,
    wrong: u64,
    err_sum: f64,
    err_n: u64,
}

impl Answers {
    /// Checks one frame's reply row by row: a known id must be
    /// answered, an unknown one must get exactly `UnknownObject`.
    fn take(&mut self, op: &Op, reply: &ResponseBody, plan: &Plan) {
        let known = plan.timeline.fleet.objects;
        let (Op::PredictBatch(queries), ResponseBody::Predictions(rows)) = (op, reply) else {
            self.wrong += op.units();
            return;
        };
        if rows.len() != queries.len() {
            self.wrong += op.units();
            return;
        }
        for ((id, at), row) in queries.iter().zip(rows) {
            match row {
                Ok(p) if id.0 < known => {
                    match p.source {
                        PredictionSource::ForwardPatterns => self.fqp += 1,
                        PredictionSource::BackwardPatterns => self.bqp += 1,
                        PredictionSource::MotionFunction => self.fallback += 1,
                    }
                    if let Some(best) = p.try_best() {
                        self.err_sum += best.distance(&plan.truth(id.0, *at));
                        self.err_n += 1;
                    }
                }
                Err(QueryError::UnknownObject(got)) if id.0 >= known && got == id => {
                    self.typed_errors += 1
                }
                _ => self.wrong += 1,
            }
        }
    }

    fn answered(&self) -> u64 {
        self.fqp + self.bqp + self.fallback
    }
}

/// Point predictions, pipelined: the rate and the answer mix.
fn predict_stage(out: &mut Outcome, rig: &mut Rig, plan: &Plan) -> Result<(), RunError> {
    let phase = &plan.predict;
    let mut warm = Answers::default();
    closed_loop(&mut rig.client, &phase.warm, PREDICT_WINDOW, |i, reply| {
        warm.take(&phase.warm[i], &reply, plan);
    })?;
    out.check(
        warm.wrong == 0,
        format!("{} warm-up prediction rows were wrong", warm.wrong),
    );

    let mut answers = Answers::default();
    let began = Instant::now();
    let timings = closed_loop(&mut rig.client, &phase.timed, PREDICT_WINDOW, |i, reply| {
        answers.take(&phase.timed[i], &reply, plan);
    })?;
    let secs = began.elapsed().as_secs_f64();
    out.tally
        .add(phase.timed.iter().map(Op::units).sum(), answers.wrong);

    if let Some(qps) = window_rate(&timings, QUERY_FRAME as u64) {
        out.put_sampled("predict_qps", qps, "1/s", stats::WINDOWS);
    }
    let frames = &samples_by_kind(&timings)[Kind::PredictBatch.index()];
    if let Ok(p99) = frames.tail_ms(99.0) {
        out.put_sampled("predict_frame_p99_ms", p99, "ms", frames.len());
    }
    let answered = answers.answered();
    let share = |n: u64| n as f64 / answered.max(1) as f64;
    let shares = [
        ("forward patterns", share(answers.fqp)),
        ("backward patterns", share(answers.bqp)),
        ("motion function", share(answers.fallback)),
    ];
    // The hybrid must stay a hybrid.
    for ((source, got), floor) in shares.iter().zip(plan.min_shares.iter().flatten()) {
        out.check(
            got >= floor,
            format!("{source} supplied {got:.3} of answers, below {floor}"),
        );
    }
    out.note(format!(
        "point predictions {secs:.2} s: {} frames of {QUERY_FRAME}, {PREDICT_WINDOW} in flight; \
         answers fqp {:.3} / bqp {:.3} / fallback {:.3}, {} typed errors",
        phase.timed.len(),
        shares[0].1,
        shares[1].1,
        shares[2].1,
        answers.typed_errors,
    ));

    Ok(())
}

/// The fixed questions every workload is asked once its own traffic
/// has ended and the store is at rest: fleet queries of each kind,
/// which must equal the same calls made in-process (and, for a few,
/// their brute-force scan twins), and point queries, which must equal
/// the in-process answers too and whose distance to the held-out truth
/// is the paper's error.
fn at_rest_stage(out: &mut Outcome, rig: &mut Rig, plan: &Plan) -> Result<(), RunError> {
    let mut failed = 0u64;
    let mut replies = Vec::with_capacity(plan.checked.len());
    closed_loop(&mut rig.client, &plan.checked, 1, |i, reply| {
        failed += u64::from(!answered_in_full(&plan.checked[i], &reply));
        replies.push(reply);
    })?;
    out.tally.add(plan.checked.len() as u64, failed);
    let store = rig.hosted.store();
    let wire_mismatch = plan
        .checked
        .iter()
        .zip(&replies)
        .filter(|(op, wire)| !same_bits(wire, &op.apply(store)))
        .count();
    out.check(
        wire_mismatch == 0,
        format!(
            "wire != in-process on {wire_mismatch} of {} fleet queries",
            replies.len()
        ),
    );
    let mut scanned = [0usize; 5];
    let mut scan_mismatch = 0;
    for (op, wire) in plan.checked.iter().zip(&replies) {
        let seen = &mut scanned[op.kind().index()];
        if *seen == SCAN_SAMPLE {
            continue;
        }
        *seen += 1;
        let scan = op.apply_scan(store).expect("fleet queries have scan twins");
        scan_mismatch += usize::from(!same_bits(wire, &scan));
    }
    out.check(
        scan_mismatch == 0,
        format!("index != scan on {scan_mismatch} fleet queries"),
    );

    let mut answers = Answers::default();
    let mut first_replies: Vec<ResponseBody> = Vec::with_capacity(SAMPLE);
    closed_loop(&mut rig.client, &plan.sample, PREDICT_WINDOW, |i, reply| {
        answers.take(&plan.sample[i], &reply, plan);
        if first_replies.len() < SAMPLE {
            first_replies.push(reply);
        }
    })?;
    out.tally
        .add(plan.sample.iter().map(Op::units).sum(), answers.wrong);
    let answered = answers.answered();
    out.note(format!(
        "point sample at rest: {answered} answers, fqp {} / bqp {} / fallback {}, {} typed errors",
        answers.fqp, answers.bqp, answers.fallback, answers.typed_errors
    ));
    out.check(
        answers.err_n == answered && answered > 0,
        format!(
            "{} of {answered} point answers could be scored",
            answers.err_n
        ),
    );
    if answers.err_n > 0 {
        out.put_sampled(
            "predict_err_mean",
            answers.err_sum / answers.err_n as f64,
            "units",
            answers.err_n as usize,
        );
    }
    let same = plan
        .sample
        .iter()
        .zip(&first_replies)
        .all(|(op, wire)| same_bits(wire, &op.apply(rig.hosted.store())));
    out.check(
        same,
        format!(
            "wire != in-process on the first {} predict_batch frames",
            first_replies.len()
        ),
    );
    Ok(())
}

/// Counts the rows of an ingest reply that were not accepted.
fn rejected(reply: &ResponseBody, expected_rows: usize) -> u64 {
    match reply {
        ResponseBody::Ingested(rows) if rows.len() == expected_rows => {
            rows.iter().filter(|r| r.is_err()).count() as u64
        }
        _ => expected_rows as u64,
    }
}

/// The feed, pipelined: the rate, and the first acknowledgements
/// against the in-process oracle's.
fn ingest_stage(
    out: &mut Outcome,
    rig: &mut Rig,
    plan: &Plan,
    oracle_acks: &[ResponseBody],
) -> Result<(), RunError> {
    let phase = &plan.ingest;
    let mut wire_acks: Vec<ResponseBody> = Vec::with_capacity(SAMPLE);
    let mut keep = |reply: ResponseBody| {
        if wire_acks.len() < SAMPLE {
            wire_acks.push(reply);
        }
    };
    let mut warm_rejected = 0u64;
    closed_loop(&mut rig.client, &phase.warm, INGEST_WINDOW, |i, reply| {
        warm_rejected += rejected(&reply, phase.warm[i].units() as usize);
        keep(reply);
    })?;
    out.check(
        warm_rejected == 0,
        format!("{warm_rejected} warm-up reports were rejected"),
    );

    // With a midpoint snapshot the feed runs as two halves on one clock.
    let split = if plan.snapshot_midway {
        phase.timed.len() / 2
    } else {
        phase.timed.len()
    };
    let (first_half, second_half) = phase.timed.split_at(split);
    let mut failed = 0u64;
    let began = Instant::now();
    let mut timings: Vec<Timed> =
        closed_loop(&mut rig.client, first_half, INGEST_WINDOW, |i, reply| {
            failed += rejected(&reply, first_half[i].units() as usize);
            keep(reply);
        })?;
    let mut snapshot_note = String::new();
    if plan.snapshot_midway {
        let snapshot_began = Instant::now();
        let snapshotted = rig.client.snapshot()?;
        snapshot_note = format!(
            ", midpoint snapshot {:.3} s",
            snapshot_began.elapsed().as_secs_f64()
        );
        out.check(
            snapshotted == Ok(true),
            format!("midpoint snapshot answered {snapshotted:?}"),
        );
        let offset = began.elapsed().as_nanos() as u64;
        let second = closed_loop(&mut rig.client, second_half, INGEST_WINDOW, |i, reply| {
            failed += rejected(&reply, second_half[i].units() as usize);
            keep(reply);
        })?;
        timings.extend(second.into_iter().map(|t| Timed {
            due_ns: t.due_ns + offset,
            sent_ns: t.sent_ns + offset,
            done_ns: t.done_ns + offset,
            ..t
        }));
    }
    let secs = began.elapsed().as_secs_f64();
    out.tally
        .add(phase.timed.iter().map(Op::units).sum(), failed);

    if let Some(rate) = window_rate(&timings, REPORT_FRAME as u64) {
        out.put_sampled("ingest_reports_per_s", rate, "1/s", stats::WINDOWS);
    }
    let frames = &samples_by_kind(&timings)[Kind::ReportMany.index()];
    if let Ok(p99) = frames.tail_ms(99.0) {
        out.put_sampled("ingest_frame_p99_ms", p99, "ms", frames.len());
    }
    out.note(format!(
        "feed {secs:.2} s: {} frames of {REPORT_FRAME} reports, {INGEST_WINDOW} in flight{snapshot_note}; \
         {} warm-up frames",
        phase.timed.len(),
        phase.warm.len(),
    ));

    let same = wire_acks.len() == oracle_acks.len()
        && wire_acks
            .iter()
            .zip(oracle_acks)
            .all(|(w, o)| same_bits(w, o));
    out.check(
        same,
        format!(
            "wire != in-process on the first {} report_many frames",
            oracle_acks.len()
        ),
    );
    Ok(())
}

/// What the store says about itself before it is dropped, to be
/// compared with what a reopened copy says.
struct Observed {
    objects: usize,
    stats: Vec<ObjectStats>,
    predictions: ResponseBody,
}

/// The restart: memory and disk at rest, then the store is dropped
/// without a final snapshot — the directory is what a crash after the
/// last acknowledged frame would leave — and copies of the directory
/// are reopened (open rotates the WAL epoch, so a second open of one
/// directory is not the same work).
fn restart_stage(out: &mut Outcome, mut rig: Rig, plan: &Plan) -> Result<(), RunError> {
    let fleet = &plan.timeline.fleet;
    out.put(
        "mem_bytes_per_object",
        mem_bytes_per_object(&mut rig.client)?,
        "B",
    );
    // Past every timestamp the sample asked about, so in every
    // object's future.
    let last = match plan.sample.last() {
        Some(Op::PredictBatch(queries)) => queries.iter().map(|q| q.1).max(),
        _ => None,
    }
    .unwrap_or(plan.now);
    let stride = (fleet.objects / SAMPLE as u64).max(1);
    let sample_ids: Vec<ObjectId> = (0..fleet.objects)
        .step_by(stride as usize)
        .take(SAMPLE)
        .map(ObjectId)
        .collect();
    let sample_queries = Op::PredictBatch(
        sample_ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, last + 1 + (i % 6) as u64))
            .collect(),
    );
    let mut stats_before = Vec::with_capacity(sample_ids.len());
    for id in &sample_ids {
        match rig.client.stats(*id)? {
            Ok(s) => stats_before.push(s),
            Err(e) => out.problem(format!("stats({id}) before the drop: {e}")),
        }
    }
    let before = Observed {
        objects: rig.hosted.store().object_count(),
        stats: stats_before,
        predictions: rig.client.call(sample_queries.request())?,
    };
    out.check(
        before.objects as u64 == fleet.objects,
        format!(
            "store tracks {} objects, fleet has {}",
            before.objects, fleet.objects
        ),
    );
    let patterns: Vec<usize> = before.stats.iter().map(|s| s.patterns).collect();
    if let (Some(min), Some(max)) = (
        patterns.iter().filter(|&&p| p > 0).min(),
        patterns.iter().max(),
    ) {
        out.note(format!(
            "sampled trained objects hold {min}..{max} patterns"
        ));
    }

    let acknowledged = plan.reports();
    let config = plan.config.clone();
    let dir = tear_down(rig)?;
    let disk = dir.bytes()?;
    out.put(
        "disk_bytes_per_report",
        disk as f64 / acknowledged as f64,
        "B",
    );
    out.note(format!(
        "data dir {disk} B after {acknowledged} acknowledged reports"
    ));

    let mut recover_secs = Vec::new();
    for rep in 0..plan.reopens {
        let copy = dir.duplicate(&format!("reopen{rep}"))?;
        let began = Instant::now();
        let reopened = MovingObjectStore::open(config.clone(), host::durability(copy.path()))?;
        recover_secs.push(began.elapsed().as_secs_f64());
        let after = Observed {
            objects: reopened.object_count(),
            stats: sample_ids
                .iter()
                .filter_map(|id| reopened.stats(*id).ok())
                .collect(),
            predictions: sample_queries.apply(&reopened),
        };
        // `approx_bytes` counts allocator capacity, which replay is
        // free to grow differently; everything else must match.
        let same_stats = after.stats.len() == before.stats.len()
            && after.stats.iter().zip(&before.stats).all(|(a, b)| {
                ObjectStats {
                    approx_bytes: 0,
                    ..*a
                } == ObjectStats {
                    approx_bytes: 0,
                    ..*b
                }
            });
        out.check(
            after.objects == before.objects,
            format!(
                "reopen {rep}: {} objects, {} before the drop",
                after.objects, before.objects
            ),
        );
        out.check(
            same_stats,
            format!("reopen {rep}: per-object stats differ from before the drop"),
        );
        out.check(
            same_bits(&after.predictions, &before.predictions),
            format!("reopen {rep}: predictions differ from before the drop"),
        );
    }
    out.put_median("recover_s", &recover_secs, "s");
    out.note(format!("reopens {recover_secs:.3?} s"));
    Ok(())
}
