//! What every workload shares: how big a run is, what it reports, how
//! operations are tallied, and the bulk loader set-up uses.

use crate::drive::Timed;
use crate::host;
use crate::stats::{self, Samples};
use hpm_geo::Point;
use hpm_objectstore::{MovingObjectStore, ObjectId};
use hpm_trajectory::Timestamp;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// How often a workload sets itself up from scratch; `setup_s` and
/// `index_first_flush_s` are the medians over these.
pub const SETUPS: usize = 3;

/// How large a run is. Every count in a workload is a fixed number per
/// second of `seconds`, sized so the timed phase lasts about that long
/// on the 2-core container the benchmark was defined on; the same
/// `seconds` therefore always means the same work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Length the timed phase is sized for.
    pub seconds: u64,
    /// Divisor applied to fleets and op counts (`1` = full size;
    /// `--smoke` uses [`Scale::SMOKE_SHRINK`]).
    pub shrink: u64,
}

impl Scale {
    /// Divisor of `--smoke`: every workload at 1/50 size.
    pub const SMOKE_SHRINK: u64 = 50;

    /// `per_second × seconds / shrink`, at least `floor`.
    pub fn count(&self, per_second: u64, floor: u64) -> usize {
        (per_second * self.seconds / self.shrink).max(floor) as usize
    }

    /// A count that does not depend on `seconds` (warm-ups, samples):
    /// `n / shrink`, at least `floor`.
    pub fn fixed(&self, n: u64, floor: u64) -> usize {
        (n / self.shrink).max(floor) as usize
    }

    /// A fleet of `objects` at full size, shrunk for smoke runs but
    /// never below `floor`.
    pub fn fleet(&self, objects: u64, floor: u64) -> u64 {
        (objects / self.shrink).max(floor)
    }

    /// Whether tail percentiles are expected to have their samples.
    pub fn is_full(&self) -> bool {
        self.shrink == 1
    }
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples it was computed from, where that is meaningful.
    pub samples: Option<usize>,
}

/// Operations attempted and failed. An unknown-id query answered with
/// the expected typed error is a success; a transport error, a wrong
/// answer or an oracle mismatch is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and failed in the timed phase.
    pub tally: Tally,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, Value>,
    /// Correctness checks that did not hold (empty = all passed).
    pub problems: Vec<String>,
    /// Context a reader needs next to the numbers: phase lengths,
    /// sample counts, answer mix.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(
            name.to_string(),
            Value {
                value,
                unit,
                samples: None,
            },
        );
    }

    /// Records a metric computed from `samples` samples.
    pub fn put_sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Value {
                value,
                unit,
                samples: Some(samples),
            },
        );
    }

    /// Records the median of a one-shot measured several times.
    pub fn put_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if let Some(median) = stats::median(values) {
            self.put_sampled(name, median, unit, values.len());
        }
    }

    /// Records the p95 and p99 of `samples` as `<stem>_p95_ms` and
    /// `<stem>_p99_ms`. A phase too short for a tail is a failed check
    /// at full size and silently tail-less in a smoke run.
    pub fn put_tails(&mut self, stem: &str, samples: &Samples, scale: Scale) {
        for (p, tag) in [(95.0, "p95"), (99.0, "p99")] {
            match samples.tail_ms(p) {
                Ok(v) => self.put_sampled(&format!("{stem}_{tag}_ms"), v, "ms", samples.len()),
                Err(e) if scale.is_full() => self.problem(format!("{stem}_{tag}_ms: {e}")),
                Err(_) => {}
            }
        }
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: impl fmt::Display) {
        self.problems.push(what.to_string());
    }

    /// Records `what` as a problem unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl fmt::Display) {
        if !ok {
            self.problem(what);
        }
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl fmt::Display) {
        self.notes.push(line.to_string());
    }

    /// Whether every answer checked was right and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.tally.failed == 0
    }
}

/// A workload could not run to completion (transport, I/O); distinct
/// from a run that completed with wrong answers.
#[derive(Debug)]
pub struct RunError(pub String);

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError(format!("i/o: {e}"))
    }
}

impl From<hpm_server::ClientError> for RunError {
    fn from(e: hpm_server::ClientError) -> Self {
        RunError(format!("client: {e}"))
    }
}

impl From<hpm_objectstore::RecoverError> for RunError {
    fn from(e: hpm_objectstore::RecoverError) -> Self {
        RunError(format!("recover: {e}"))
    }
}

/// Latency samples of a phase, split by op kind (indexed by
/// [`Kind::index`]), measured from each op's due time.
pub fn samples_by_kind(timings: &[Timed]) -> [Samples; 5] {
    let mut raw: [Vec<u64>; 5] = Default::default();
    for t in timings {
        raw[t.kind.index()].push(t.latency_ns());
    }
    raw.map(Samples::new)
}

/// Closed-loop throughput of a phase whose ops each carry `units` of
/// work: [`stats::median_window_rate`] over their completion times.
pub fn window_rate(timings: &[Timed], units: u64) -> Option<f64> {
    let done: Vec<u64> = timings.iter().map(|t| t.done_ns).collect();
    stats::median_window_rate(&done, units)
}

/// Opens a fresh durable store in a scratch directory of its own, with
/// the benchmark's durability settings, and bulk-loads `histories`.
pub fn open_loaded(
    label: &str,
    config: hpm_objectstore::StoreConfig,
    histories: &[History],
) -> Result<(host::ScratchDir, MovingObjectStore), RunError> {
    let dir = host::ScratchDir::new(label)?;
    let store = MovingObjectStore::open(config, host::durability(dir.path()))?;
    bulk_load(&store, histories);
    Ok((dir, store))
}

/// One object's history to bulk-load: contiguous positions from `start`.
#[derive(Debug, Clone)]
pub struct History {
    /// The object.
    pub id: ObjectId,
    /// Timestamp of the first position.
    pub start: Timestamp,
    /// One position per timestamp.
    pub points: Vec<Point>,
    /// Load the first `train_at` positions as their own batch, so a
    /// training cadence is crossed there and not at the end of the
    /// history (0 = one batch).
    pub train_at: usize,
}

/// Bulk-loads histories in-process, split across the store's worker
/// count. Objects are independent, so the result does not depend on
/// how they are split.
pub fn bulk_load(store: &MovingObjectStore, histories: &[History]) {
    let threads = host::store_threads().max(1);
    let per = histories.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for slice in histories.chunks(per) {
            scope.spawn(move || {
                for h in slice {
                    let (head, tail) = h.points.split_at(h.train_at.min(h.points.len()));
                    if !head.is_empty() {
                        store
                            .report_batch(h.id, h.start, head)
                            .expect("generated histories are contiguous and finite");
                    }
                    if !tail.is_empty() {
                        store
                            .report_batch(h.id, h.start + head.len() as Timestamp, tail)
                            .expect("generated histories are contiguous and finite");
                    }
                }
            });
        }
    });
}

/// Runs `setup` [`SETUPS`] times and keeps the last result; earlier
/// ones are handed to `discard` (outside the timing) so each set-up
/// starts from nothing. Returns the kept result and every duration in
/// seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, RunError>,
    mut discard: impl FnMut(usize, T) -> Result<(), RunError>,
) -> Result<(T, Vec<f64>), RunError> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for rep in 0..SETUPS {
        if let Some(previous) = kept.take() {
            discard(rep - 1, previous)?;
        }
        let began = Instant::now();
        let built = setup(rep)?;
        secs.push(began.elapsed().as_secs_f64());
        kept = Some(built);
    }
    Ok((kept.expect("SETUPS >= 1"), secs))
}

/// Pulls one gauge out of the server's metrics JSON.
pub fn gauge_from_json(json: &str, name: &str) -> Option<f64> {
    hpm_obs::json::parse(json)
        .ok()?
        .get("gauges")?
        .get(name)?
        .as_f64()
}

/// Reads `store.mem.bytes_per_object` over the Metrics verb. The gauge
/// only moves while instrumentation is on, so it is switched on for
/// this one call; the store must be quiescent.
pub fn mem_bytes_per_object(client: &mut hpm_server::Client) -> Result<f64, RunError> {
    hpm_obs::enable();
    let json = client.metrics_json();
    hpm_obs::disable();
    gauge_from_json(&json?, "store.mem.bytes_per_object")
        .ok_or_else(|| RunError("metrics JSON lacks store.mem.bytes_per_object".into()))
}
