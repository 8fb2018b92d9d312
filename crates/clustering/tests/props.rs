//! Property-based invariants for DBSCAN, run on a freshly seeded
//! one-offset [`IncrementalDbscan`] — the crate's one entry point — and
//! the labels and cluster folds its seed leaves in [`SeedScratch`], and
//! held to its brute-force `validate` sweep.

use hpm_check::prelude::*;
use hpm_clustering::{
    ClusterFold, DbscanParams, IncrementalDbscan, InsertOutcome, Label, SeedScratch,
};
use hpm_geo::Point;

fn arb_params() -> Gen<DbscanParams> {
    tuple((float(0.5..8.0), int(2usize..6))).map(|(eps, min_pts)| DbscanParams::new(eps, min_pts))
}

/// One point to place: a `kind` and the raw material each kind draws
/// on (a free position, an earlier point, two small integers).
type Spec = (u32, (f64, f64), Index, (i32, i32));

/// Places `spec` given the points so far. Most points are free; the
/// rest sit where a neighbour grid can go wrong: exact duplicates,
/// pairs exactly `eps` apart, cell boundaries (multiples of `eps`,
/// `±0.0`, negative), finite coordinates whose cell index saturates,
/// and points around the `i32` edge of the cell key (±2³¹ cells, where
/// neighbours straddle the clamp) and past it (±2⁴⁰ cells, far apart
/// but in one clamped cell).
fn place((kind, (x, y), earlier, (k, m)): Spec, eps: f64, so_far: &[Point]) -> Point {
    let anchor = (!so_far.is_empty()).then(|| so_far[earlier.index(so_far.len())]);
    let past_edge = |cells: u32| {
        let edge = f64::from(2u32).powi(cells as i32) * eps;
        Point::new(
            edge.copysign(m as f64) + k as f64 * 0.5 * eps,
            (m % 3) as f64 * 0.5 * eps,
        )
    };
    match (kind, anchor) {
        (10 | 11, Some(a)) => a,
        (12, Some(a)) => match k.rem_euclid(4) {
            0 => Point::new(a.x + eps, a.y),
            1 => Point::new(a.x - eps, a.y),
            2 => Point::new(a.x, a.y + eps),
            _ => Point::new(a.x, a.y - eps),
        },
        (13, _) => Point::new(k as f64 * eps, m as f64 * eps),
        (14, _) => Point::new(if k < 0 { -0.0 } else { 0.0 }, m as f64 * eps),
        (15, _) => Point::new(1e300_f64.copysign(k as f64), 1e300_f64.copysign(m as f64)),
        (16, _) => past_edge(31),
        (17, _) => past_edge(40),
        _ => Point::new(x, y),
    }
}

/// A point set with its parameters (the adversarial placements depend
/// on `eps`).
fn arb_case() -> Gen<(Vec<Point>, DbscanParams)> {
    arb_case_of(18)
}

/// [`arb_case`] without the points of 2³¹ cells and more, for the
/// property whose tolerance is absolute.
fn arb_bounded_case() -> Gen<(Vec<Point>, DbscanParams)> {
    arb_case_of(15)
}

fn arb_case_of(kinds: u32) -> Gen<(Vec<Point>, DbscanParams)> {
    let spec = tuple((
        int(0..kinds),
        tuple((float(-50.0..50.0), float(-50.0..50.0))),
        index(),
        tuple((int(-6i32..7), int(-6i32..7))),
    ));
    tuple((vec(spec, 0..80), arb_params())).map(|(specs, params)| {
        let mut pts = Vec::with_capacity(specs.len());
        for spec in specs {
            pts.push(place(spec, params.eps, &pts));
        }
        (pts, params)
    })
}

/// A state seeded over `pts` (one offset) with fresh scratch, and the
/// seed's labels in input order and cluster folds in id order.
fn seed(pts: &[Point], params: DbscanParams) -> (IncrementalDbscan, Vec<Label>, Vec<ClusterFold>) {
    let mut scratch = SeedScratch::default();
    let state = IncrementalDbscan::seed(&[pts.to_vec()], params, &mut scratch, |_, _| {});
    let labels = scratch.labels().collect();
    (state, labels, scratch.folds().to_vec())
}

/// The input indices `labels` puts in cluster `c`.
fn members(labels: &[Label], c: u32) -> impl Iterator<Item = usize> + '_ {
    (0..labels.len()).filter(move |&i| labels[i] == Label::Cluster(c))
}

/// The state's own brute-force consistency check over the point
/// sequence it holds, with `folds` as its clusters' summaries, as a
/// case result.
fn valid(
    state: &IncrementalDbscan,
    pts: &[Point],
    params: &DbscanParams,
    folds: &[ClusterFold],
) -> CaseResult {
    state
        .validate(0, pts, params, folds)
        .map_err(CaseError::Fail)
}

/// The grid-indexed sweep is exactly equivalent to the naive O(n²)
/// one: every count, assignment and fold, and the cell table.
fn grid_equals_naive_on(pts: &[Point], params: DbscanParams) -> CaseResult {
    let (state, _, folds) = seed(pts, params);
    valid(&state, pts, &params, &folds)
}

/// Every cluster contains at least one core point — a member with at
/// least MinPts dataset neighbours within eps. (The cluster itself can
/// hold *fewer* than MinPts members: border points in a core point's
/// neighbourhood may already have been claimed by an earlier cluster,
/// the classic DBSCAN order-dependence — a counterexample found by this
/// suite's earlier, stricter version.)
fn clusters_have_a_core_point_on(pts: &[Point], params: DbscanParams) -> CaseResult {
    let (_, labels, folds) = seed(pts, params);
    let eps2 = params.eps * params.eps;
    for c in 0..folds.len() as u32 {
        let has_core = members(&labels, c).any(|m| {
            pts.iter()
                .filter(|q| q.distance_sq(&pts[m]) <= eps2)
                .count()
                >= params.min_pts
        });
        require!(has_core, "cluster {c} has no core point");
    }
    Ok(())
}

/// Labels partition the points: ids are dense (the state numbers as
/// many clusters as the seed folded), each cluster's size is the number
/// of points labelled with it (so no cluster is empty), and every other
/// point is noise.
fn partition_invariants_on(pts: &[Point], params: DbscanParams) -> CaseResult {
    let (state, labels, folds) = seed(pts, params);
    require_eq!(labels.len(), pts.len());
    require_eq!(state.cluster_range(0), 0..folds.len() as u32);
    for (cid, c) in (0..).zip(&folds) {
        require!(c.len > 0, "cluster {cid} is empty");
        require_eq!(members(&labels, cid).count(), c.len as usize);
    }
    // With the sizes above, no label names a cluster that is not there.
    let clustered: u32 = folds.iter().map(|c| c.len).sum();
    let noise = labels.iter().filter(|l| **l == Label::Noise).count();
    require_eq!(clustered as usize + noise, pts.len());
    Ok(())
}

/// Cluster geometry: centroid and all members inside the bbox.
fn summaries_are_tight_on(pts: &[Point], params: DbscanParams) -> CaseResult {
    let (_, labels, folds) = seed(pts, params);
    for (cid, c) in (0..).zip(&folds) {
        require!(c.bbox.contains_within(&c.mean(), 1e-9));
        for m in members(&labels, cid) {
            require!(c.bbox.contains(&pts[m]));
        }
    }
    Ok(())
}

/// Noise points really are sparse: a noise point has fewer than MinPts
/// neighbours (it can never be a core point).
fn noise_is_never_core_on(pts: &[Point], params: DbscanParams) -> CaseResult {
    let (_, labels, _) = seed(pts, params);
    let eps2 = params.eps * params.eps;
    for (i, l) in labels.iter().enumerate() {
        if *l == Label::Noise {
            let n = pts
                .iter()
                .filter(|q| q.distance_sq(&pts[i]) <= eps2)
                .count();
            require!(n < params.min_pts);
        }
    }
    Ok(())
}

/// Incremental insertion with reseed-on-drift is *exactly* the batch
/// algorithm at every prefix: seeded on `pts[..cut]`, after each
/// further safe insert the state equals, as a whole, a fresh seed over
/// the same point sequence, and so do the cluster folds the test keeps
/// the way a trainer does — the seed's, each extended by the point of
/// every [`InsertOutcome::Member`] that names it. Inserted or reseeded,
/// `validate` re-derives every `|N_Eps|` count, assignment and cluster
/// fold by a brute-force sweep over that sequence and checks the
/// samples' filing in the cell table. This simultaneously checks that
/// the safe path changes nothing it should not, that an insert names
/// the cluster whose fold the batch extends, and that every
/// structure-changing insertion is caught as drift.
fn incremental_equals_batch_on(pts: &[Point], params: DbscanParams, cut: usize) -> CaseResult {
    // One seed scratch for every reseed, as a trainer keeps one.
    let mut seeds = SeedScratch::default();
    let reseed = |pts: &[Point], seeds: &mut SeedScratch| {
        let state = IncrementalDbscan::seed(&[pts.to_vec()], params, seeds, |_, _| {});
        (state, seeds.folds().to_vec())
    };
    let (mut state, mut folds) = reseed(&pts[..cut], &mut seeds);
    valid(&state, &pts[..cut], &params, &folds)?;
    let mut scratch = Vec::new();
    for (extra, &p) in pts[cut..].iter().enumerate() {
        let n = cut + extra + 1;
        match state.insert(0, p, &params, &mut scratch) {
            InsertOutcome::Drift(_) => {
                require_eq!(state.len(), n - 1, "a drifting point is not inserted");
                (state, folds) = reseed(&pts[..n], &mut seeds);
            }
            joined => {
                if let InsertOutcome::Member(c) = joined {
                    folds[c as usize].push(p);
                }
                let (batch, _, batch_folds) = seed(&pts[..n], params);
                require_eq!(state, batch, "insert differs from a reseed");
                require_eq!(folds, batch_folds, "folded summaries differ from a reseed");
            }
        }
        valid(&state, &pts[..n], &params, &folds)?;
    }
    Ok(())
}

props! {
    fn grid_equals_naive((pts, params) in arb_case()) {
        grid_equals_naive_on(&pts, params)?;
    }

    fn clusters_have_a_core_point((pts, params) in arb_case()) {
        clusters_have_a_core_point_on(&pts, params)?;
    }

    fn partition_invariants((pts, params) in arb_case()) {
        partition_invariants_on(&pts, params)?;
    }

    fn summaries_are_tight((pts, params) in arb_bounded_case()) {
        summaries_are_tight_on(&pts, params)?;
    }

    fn noise_is_never_core((pts, params) in arb_case()) {
        noise_is_never_core_on(&pts, params)?;
    }

    #[cases(96)]
    fn incremental_equals_batch_at_every_prefix(
        (pts, params) in arb_case(),
        split in float(0.0..1.0),
    ) {
        incremental_equals_batch_on(&pts, params, (pts.len() as f64 * split) as usize)?;
    }
}

/// The one failure the `proptest` suite this file replaced recorded
/// (as a shrunk input in a regression-seed file): nine points in a
/// 13 × 20 patch with eps ≈ 6.8 and MinPts 5. It runs through every
/// property above, the incremental one at every split.
#[test]
fn recorded_proptest_failure() {
    let pts = [
        (-19.92055850610582, 28.804711307678772),
        (-23.24099432354212, 14.422211691999443),
        (-21.585849166020886, 19.110416227986708),
        (-29.100363318253876, 15.582893594645222),
        (-22.049117712145513, 25.350963246763932),
        (-26.692122883433544, 30.24504568147459),
        (-16.726042955770165, 22.781490577275832),
        (-21.32428657705831, 12.254945756330242),
        (-18.079898446719437, 10.15649790453443),
    ]
    .map(|(x, y)| Point::new(x, y));
    let params = DbscanParams::new(6.8162515272535025, 5);
    for property in [
        grid_equals_naive_on,
        clusters_have_a_core_point_on,
        partition_invariants_on,
        summaries_are_tight_on,
        noise_is_never_core_on,
    ] {
        property(&pts, params).unwrap();
    }
    for cut in 0..=pts.len() {
        incremental_equals_batch_on(&pts, params, cut).unwrap();
    }
}
