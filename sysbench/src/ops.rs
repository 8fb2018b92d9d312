//! The operations a workload sends, and the two ways to execute one:
//! as a wire request, or directly against a store (the oracle).

use hpm_core::PredictScratch;
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{MovingObjectStore, ObjectId};
use hpm_server::proto::encode_response;
use hpm_server::{RequestBody, Response, ResponseBody};
use hpm_trajectory::Timestamp;

/// Neighbours a kNN query asks for.
pub const KNN_K: usize = 10;
/// Probability mass a `within` query asks for.
pub const WITHIN_TAU: f64 = 0.5;

/// The kinds of operation the benchmark times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `report_many` frame.
    ReportMany,
    /// One `predict_batch` frame.
    PredictBatch,
    /// One `predict_range` query.
    Range,
    /// One `predict_nearest` query.
    Knn,
    /// One `predict_within` query.
    Within,
}

impl Kind {
    /// Every kind, in the order tables print them.
    pub const ALL: [Kind; 5] = [
        Kind::ReportMany,
        Kind::PredictBatch,
        Kind::Range,
        Kind::Knn,
        Kind::Within,
    ];

    /// The kind's name inside metric names (`wire.<name>.ns`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::ReportMany => "report_many",
            Kind::PredictBatch => "predict_batch",
            Kind::Range => "range",
            Kind::Knn => "knn",
            Kind::Within => "within",
        }
    }

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A frame of location reports.
    ReportMany(Vec<(ObjectId, Timestamp, Point)>),
    /// A frame of per-object predictive queries.
    PredictBatch(Vec<(ObjectId, Timestamp)>),
    /// Who will be inside `region` at `at`?
    Range {
        /// The region asked about.
        region: BoundingBox,
        /// The future timestamp asked about.
        at: Timestamp,
    },
    /// Which [`KNN_K`] objects will be nearest `focus` at `at`?
    Knn {
        /// The focus point.
        focus: Point,
        /// The future timestamp asked about.
        at: Timestamp,
    },
    /// Who puts at least [`WITHIN_TAU`] of their mass inside `region`?
    Within {
        /// The region asked about.
        region: BoundingBox,
        /// The future timestamp asked about.
        at: Timestamp,
    },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::ReportMany(_) => Kind::ReportMany,
            Op::PredictBatch(_) => Kind::PredictBatch,
            Op::Range { .. } => Kind::Range,
            Op::Knn { .. } => Kind::Knn,
            Op::Within { .. } => Kind::Within,
        }
    }

    /// Units of user work the op carries: reports or queries in a
    /// frame, 1 for a fleet query.
    pub fn units(&self) -> u64 {
        match self {
            Op::ReportMany(r) => r.len() as u64,
            Op::PredictBatch(q) => q.len() as u64,
            _ => 1,
        }
    }

    /// The wire request for this op.
    pub fn request(&self) -> RequestBody {
        match self {
            Op::ReportMany(r) => RequestBody::ReportMany(r.clone()),
            Op::PredictBatch(q) => RequestBody::PredictBatch(q.clone()),
            Op::Range { region, at } => RequestBody::PredictRange {
                region: *region,
                query_time: *at,
            },
            Op::Knn { focus, at } => RequestBody::PredictNearest {
                focus: *focus,
                query_time: *at,
                k: KNN_K as u64,
            },
            Op::Within { region, at } => RequestBody::PredictWithin {
                region: *region,
                query_time: *at,
                tau: WITHIN_TAU,
            },
        }
    }

    /// Executes the op directly against `store` and wraps the result
    /// the way the server would — the in-process oracle a wire answer
    /// must equal.
    pub fn apply(&self, store: &MovingObjectStore) -> ResponseBody {
        self.apply_with(store, &mut PredictScratch::new())
    }

    /// [`apply`](Self::apply) through caller-owned predict scratch,
    /// which is how the server answers a batch: one query after the
    /// other on the connection's own scratch, not through the pool.
    pub fn apply_with(
        &self,
        store: &MovingObjectStore,
        scratch: &mut PredictScratch,
    ) -> ResponseBody {
        match self {
            Op::ReportMany(r) => ResponseBody::Ingested(store.report_many(r)),
            Op::PredictBatch(q) => ResponseBody::Predictions(
                q.iter()
                    .map(|&(id, at)| store.predict_with_scratch(id, at, scratch))
                    .collect(),
            ),
            Op::Range { region, at } => ResponseBody::Range(store.predict_range(region, *at)),
            Op::Knn { focus, at } => {
                ResponseBody::Nearest(store.predict_nearest(focus, *at, KNN_K))
            }
            Op::Within { region, at } => {
                ResponseBody::Within(store.predict_within(region, *at, WITHIN_TAU))
            }
        }
    }

    /// Whether `reply` is the kind of answer this op gets, with one row
    /// per report or query and every report accepted. (Whether each
    /// prediction row had to be an answer or a typed error is the
    /// workload's to say.)
    pub fn answered_by(&self, reply: &ResponseBody) -> bool {
        match (self, reply) {
            (Op::ReportMany(r), ResponseBody::Ingested(rows)) => {
                rows.len() == r.len() && rows.iter().all(Result::is_ok)
            }
            (Op::PredictBatch(q), ResponseBody::Predictions(rows)) => rows.len() == q.len(),
            (Op::Range { .. }, ResponseBody::Range(_))
            | (Op::Within { .. }, ResponseBody::Within(_)) => true,
            (Op::Knn { .. }, ResponseBody::Nearest(hits)) => hits.len() <= KNN_K,
            _ => false,
        }
    }

    /// The brute-force `_scan` twin of an indexed fleet query; `None`
    /// for the per-object kinds, which never touch the index.
    pub fn apply_scan(&self, store: &MovingObjectStore) -> Option<ResponseBody> {
        match self {
            Op::Range { region, at } => {
                Some(ResponseBody::Range(store.predict_range_scan(region, *at)))
            }
            Op::Knn { focus, at } => Some(ResponseBody::Nearest(
                store.predict_nearest_scan(focus, *at, KNN_K),
            )),
            Op::Within { region, at } => Some(ResponseBody::Within(
                store.predict_within_scan(region, *at, WITHIN_TAU),
            )),
            Op::ReportMany(_) | Op::PredictBatch(_) => None,
        }
    }
}

/// Whether two answers are the same to the bit: compared through their
/// wire encoding, so `-0.0` vs `0.0` or two NaN payloads cannot hide
/// behind `f64`'s `==`.
pub fn same_bits(a: &ResponseBody, b: &ResponseBody) -> bool {
    let encode = |body: &ResponseBody| {
        let mut out = Vec::new();
        encode_response(
            &Response {
                correlation: 0,
                body: body.clone(),
            },
            &mut out,
        );
        out
    };
    encode(a) == encode(b)
}

/// Results a response carries: rows of a batched verb, hits of a
/// fleet query.
pub fn result_rows(body: &ResponseBody) -> usize {
    match body {
        ResponseBody::Ingested(r) => r.len(),
        ResponseBody::Predictions(p) => p.len(),
        ResponseBody::Range(h) => h.len(),
        ResponseBody::Nearest(h) | ResponseBody::Within(h) | ResponseBody::NearestProb(h) => {
            h.len()
        }
        _ => 0,
    }
}

/// A square box of side `extent` centred on `c`.
pub fn square(c: Point, extent: f64) -> BoundingBox {
    let h = extent / 2.0;
    BoundingBox {
        min: Point::new(c.x - h, c.y - h),
        max: Point::new(c.x + h, c.y + h),
    }
}
