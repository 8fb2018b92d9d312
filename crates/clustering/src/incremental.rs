//! Incremental DBSCAN point insertion (IncDBSCAN-style, Ester et al.
//! 1998): classify one new point against the existing density
//! structure and either absorb it *locally* — provably without
//! changing any other point's label — or report **structure drift**
//! and let the caller rebuild.
//!
//! The batch DBSCAN sweep [`IncrementalDbscan::seed`] runs is
//! deterministic in a way the incremental path can replicate exactly:
//!
//! * cluster ids are assigned in ascending order of each cluster's
//!   smallest core-point index (seeds are tried in index order and a
//!   cluster expands fully before the next seed is considered);
//! * a border point belongs to the **lowest-id** cluster with a core
//!   point in its `Eps`-neighbourhood (that cluster expands first and
//!   assigned points are never re-claimed);
//! * cluster summaries fold members in ascending index order.
//!
//! A new point arrives last (at the highest index), so the *safe* cases —
//! noise, border join, core join that reaches only one cluster's
//! members — provably leave every existing label, every cluster id and
//! every summary fold-order unchanged, and the updated state is
//! *identical* to re-seeding over the extended point set
//! (property-tested in `tests/props.rs`). Every other case (a
//! neighbour crossing the `MinPts` core threshold, a merge, a brand
//! new cluster, absorption of non-members) is conservatively reported
//! as [`InsertOutcome::Drift`]: the caller falls back to a batch
//! rebuild. Over-reporting drift costs only time, never correctness.
//!
//! Seeding is that batch sweep and nothing more: the points are sorted
//! by cell once, the sweep queries the cell table over that order once
//! per point, and the state keeps each point once, as a sample — the
//! point, the `|N_Eps|` its query returned, its assignment — in cell
//! order (arrival order within a cell), beside the cell table and the
//! cluster folds. No sample records its input index: a seed's
//! input-order labels are read from its [`SeedScratch`], and `insert`
//! files the new sample at the end of its cell's run. A state holds
//! only what is its own: the parameters (the cell size is `Eps`) and
//! the neighbour scratch are the caller's, so a trainer with one state
//! per time offset keeps one copy of each, and a cluster is a count, a
//! sum and a box — its members are the samples whose assignment names
//! it. The seed is the first train of every object, every drift
//! fallback and every trained object at every reopen, which is why it
//! does each piece of neighbourhood work exactly once (DESIGN.md
//! "Training lifecycle" records what a second cell map, a second fold
//! and a separate counting pass cost, and why the cell table stays).

use crate::dbscan::{label_of, sweep, ClusterFold, SweepBuffers, NOISE};
use crate::grid::{self, Cell, Key};
use crate::{DbscanParams, Label};
use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::{BoundingBox, MemUse, Point};

/// Why an insertion could not be absorbed locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// A neighbour crossed the `MinPts` threshold and became core.
    Promotion,
    /// The new point is core but reaches no existing cluster.
    NewCluster,
    /// The new point is core and connects two or more clusters.
    Merge,
    /// The new point is core and would pull non-members (noise or
    /// other-cluster points) into its cluster.
    Absorption,
}

/// Result of one [`IncrementalDbscan::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The point joined no cluster; no other label changed.
    Noise,
    /// The point joined this cluster (as core or border); no other
    /// label changed.
    Member(u32),
    /// The structure changed: the state is now stale and must be
    /// re-seeded from a batch run.
    Drift(DriftKind),
}

/// Summary of one cluster of an [`IncrementalDbscan`]: its id, member
/// count, centroid and box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterView {
    /// Dense 0-based id, consistent with [`Label::Cluster`].
    pub id: u32,
    /// Number of members.
    pub size: u32,
    /// Arithmetic mean of the members.
    pub centroid: Point,
    /// Tight bounding box of the members.
    pub bbox: BoundingBox,
}

/// The buffers a seed works in — the grid's sort buffer, the sweep's
/// assignments, counts, frontier and neighbour list — so that a caller
/// seeding many states (one per offset of a period) allocates them
/// once. The state keeps samples in cell order, not input order, so the
/// last seed's input-order [`labels`](Self::labels) are read here.
#[derive(Debug, Default)]
pub struct SeedScratch {
    keyed: Vec<(Key, u32)>,
    sweep: SweepBuffers,
}

impl SeedScratch {
    /// The last seed's label of every input point, in input order.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = Label> + '_ {
        self.sweep.assign.iter().map(|&a| label_of(a))
    }
}

/// One clustered point: where it is, `|N_Eps|` including itself, and
/// its cluster id ([`NOISE`] outside every cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    p: Point,
    count: u32,
    assign: u32,
}

/// Persistent per-group clustering state supporting single-point
/// insertion with exact batch equivalence on the safe path. The
/// [`DbscanParams`] it was seeded under are passed to every later call.
///
/// Equality is equality of the whole state: a state grown by safe
/// inserts equals the one a seed over the same point sequence builds.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalDbscan {
    /// Every point with its count and assignment, grouped by `Eps`-cell
    /// in `cells` order and by arrival within a cell.
    samples: Vec<Sample>,
    /// The occupied cells, ascending by key, with their runs' ends in
    /// `samples`.
    cells: Vec<Cell>,
    /// Running folds, so emitted summaries are bit-identical to the
    /// batch fold (members in arrival order). The safe path never adds
    /// a cluster.
    clusters: Box<[ClusterFold]>,
}

impl IncrementalDbscan {
    /// Seeds the state with the batch DBSCAN sweep over `points`,
    /// against the grid a sort of the points by cell builds; the sweep
    /// works in `scratch` and leaves the input-order labels there
    /// ([`SeedScratch::labels`]). The state keeps the grid's cell table
    /// and gathers each point, with the neighbourhood size the sweep saw
    /// for it and its assignment, into one sample in cell order.
    pub fn seed(points: Vec<Point>, params: DbscanParams, scratch: &mut SeedScratch) -> Self {
        let SeedScratch { keyed, sweep: bufs } = scratch;
        let cells = grid::build(&points, params.eps, keyed);
        let r2 = params.eps * params.eps;
        let clusters = sweep(&points, params.min_pts, bufs, |p, out| {
            grid::block_runs(&cells, grid::key_of(p, params.eps), |run| {
                for &(_, i) in &keyed[run] {
                    if points[i as usize].distance_sq(p) <= r2 {
                        out.push(i);
                    }
                }
            })
        });
        Self::gather(&points, keyed, bufs, cells, clusters)
    }

    /// The state over `points` whose sweep left `bufs`: the points in
    /// `keyed` (cell) order, each with its count and assignment.
    fn gather(
        points: &[Point],
        keyed: &[(Key, u32)],
        bufs: &SweepBuffers,
        cells: Vec<Cell>,
        clusters: Box<[ClusterFold]>,
    ) -> Self {
        let samples = keyed
            .iter()
            .map(|&(_, i)| {
                let i = i as usize;
                Sample {
                    p: points[i],
                    count: bufs.counts[i],
                    assign: bufs.assign[i],
                }
            })
            .collect();
        IncrementalDbscan {
            samples,
            cells,
            clusters,
        }
    }

    /// Inserts one point (the newest arrival) under the `params` the
    /// state was seeded with, and reports how it was absorbed.
    /// `neighbors` is scratch: it is overwritten, and a caller folding
    /// many states keeps one for all of them so that a fold does not
    /// allocate per point. On [`InsertOutcome::Drift`] the point is
    /// *not* inserted and the state is stale with respect to it: only
    /// [`IncrementalDbscan::seed`] over the extended point set produces
    /// a fresh one, and the caller must not insert again.
    pub fn insert(
        &mut self,
        p: Point,
        params: &DbscanParams,
        neighbors: &mut Vec<u32>,
    ) -> InsertOutcome {
        neighbors.clear();
        let key = grid::key_of(&p, params.eps);
        let r2 = params.eps * params.eps;
        grid::block_runs(&self.cells, key, |run| {
            for (s, j) in self.samples[run.clone()].iter().zip(run.start as u32..) {
                if s.p.distance_sq(&p) <= r2 {
                    neighbors.push(j);
                }
            }
        });
        self.absorb(p, key, neighbors, params.min_pts)
    }

    /// Classifies `p` against its `neighbors` (positions in `samples`
    /// within `Eps`, any order) and commits it when that is safe.
    fn absorb(&mut self, p: Point, key: Key, neighbors: &[u32], min_pts: usize) -> InsertOutcome {
        let sample = |j: u32| self.samples[j as usize];
        let is_core = |j: u32| sample(j).count as usize >= min_pts;
        // Any neighbour crossing the core threshold can re-route
        // borders, absorb noise, or merge clusters: bail out first.
        if neighbors
            .iter()
            .any(|&j| sample(j).count as usize + 1 == min_pts)
        {
            return InsertOutcome::Drift(DriftKind::Promotion);
        }

        let count_q = neighbors.len() + 1; // neighbourhood includes self
        if count_q >= min_pts {
            // The new point is core: it may only join a cluster whose
            // members already cover its whole neighbourhood.
            let mut target: Option<u32> = None;
            for &j in neighbors.iter().filter(|&&j| is_core(j)) {
                match (target, sample(j).assign) {
                    (_, NOISE) => unreachable!("core points are always clustered"),
                    (None, c) => target = Some(c),
                    (Some(t), c) if c != t => return InsertOutcome::Drift(DriftKind::Merge),
                    _ => {}
                }
            }
            let Some(c) = target else {
                return InsertOutcome::Drift(DriftKind::NewCluster);
            };
            if neighbors.iter().any(|&j| sample(j).assign != c) {
                return InsertOutcome::Drift(DriftKind::Absorption);
            }
            self.commit(p, key, neighbors, c);
            InsertOutcome::Member(c)
        } else {
            // Border or noise: joins the lowest-id cluster with a core
            // neighbour — exactly the cluster the batch sweep (which
            // expands clusters in id order) would hand it to.
            let joined = neighbors
                .iter()
                .filter(|&&j| is_core(j))
                .map(|&j| sample(j).assign)
                .filter(|&c| c != NOISE)
                .min();
            self.commit(p, key, neighbors, joined.unwrap_or(NOISE));
            joined.map_or(InsertOutcome::Noise, InsertOutcome::Member)
        }
    }

    /// Applies a safe insertion: bumps neighbour counts, files the point
    /// at the end of its cell's run, and extends the joined cluster's
    /// running fold (`cluster` is [`NOISE`] when it joins none).
    fn commit(&mut self, p: Point, key: Key, neighbors: &[u32], cluster: u32) {
        // Neighbours are positions, so they are bumped before the
        // insert below shifts the samples behind it.
        for &j in neighbors {
            self.samples[j as usize].count += 1;
        }
        let at = grid::file(&mut self.cells, key);
        let count = neighbors.len() as u32 + 1;
        self.samples.insert(
            at,
            Sample {
                p,
                count,
                assign: cluster,
            },
        );
        if cluster != NOISE {
            self.clusters[cluster as usize].push(p);
        }
    }

    /// Number of points in the state.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the state holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster summaries in id order — bit-identical to what a fresh
    /// [`seed`](Self::seed) over the same point sequence holds (same
    /// fold order).
    pub fn cluster_views(&self) -> impl Iterator<Item = ClusterView> + '_ {
        self.clusters.iter().zip(0..).map(|(c, id)| ClusterView {
            id,
            size: c.len,
            centroid: c.centroid(),
            bbox: c.bbox,
        })
    }

    /// Test support, and the crate's one `O(n²)` oracle: re-derives the
    /// whole state over `points` — the sequence it was seeded over and
    /// grown by, in arrival order — under `params` by brute force: a
    /// fresh sweep whose neighbourhoods are full scans, so every
    /// `|N_Eps|`, every assignment and every cluster's size, `sum` and
    /// `bbox` fold is recomputed without the grid. Reports which part
    /// of the state differs from it, the cell table and the samples'
    /// filing included.
    #[doc(hidden)]
    pub fn validate(&self, points: &[Point], params: &DbscanParams) -> Result<(), String> {
        let eps2 = params.eps * params.eps;
        let mut bufs = SweepBuffers::default();
        let clusters = sweep(points, params.min_pts, &mut bufs, |p, out| {
            let within = points.iter().zip(0..);
            out.extend(
                within
                    .filter(|(q, _)| q.distance_sq(p) <= eps2)
                    .map(|(_, i)| i),
            )
        });
        let mut keyed = Vec::new();
        let cells = grid::build(points, params.eps, &mut keyed);
        let naive = Self::gather(points, &keyed, &bufs, cells, clusters);
        for (what, same) in [
            ("cell table", naive.cells == self.cells),
            ("samples", naive.samples == self.samples),
            ("cluster folds", naive.clusters == self.clusters),
        ] {
            if !same {
                return Err(format!("{what} differ from a brute-force sweep"));
            }
        }
        Ok(())
    }
}

impl MemUse for IncrementalDbscan {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_cap_bytes(&self.samples)
            + vec_cap_bytes(&self.cells)
            + std::mem::size_of_val::<[ClusterFold]>(&self.clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_blob(cx: f64, n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(cx + i as f64 * 0.01, 0.0))
            .collect()
    }

    fn params() -> DbscanParams {
        DbscanParams::new(1.0, 3)
    }

    /// Seeds a state over `points` under [`params`].
    fn seed(points: &[Point]) -> IncrementalDbscan {
        IncrementalDbscan::seed(points.to_vec(), params(), &mut SeedScratch::default())
    }

    /// Inserts `p` under [`params`] with a fresh neighbour scratch.
    fn insert(state: &mut IncrementalDbscan, p: Point) -> InsertOutcome {
        state.insert(p, &params(), &mut Vec::new())
    }

    #[test]
    fn seed_matches_brute_force() {
        let mut pts = dense_blob(0.0, 5);
        pts.extend(dense_blob(50.0, 4));
        pts.push(Point::new(25.0, 25.0));
        let mut scratch = SeedScratch::default();
        let state = IncrementalDbscan::seed(pts.clone(), params(), &mut scratch);
        state.validate(&pts, &params()).unwrap();
        assert_eq!(state.cluster_count(), 2);
        assert_eq!(scratch.labels().nth(9), Some(Label::Noise));
    }

    #[test]
    fn safe_core_join_matches_batch() {
        let mut pts = dense_blob(0.0, 5);
        pts.extend(dense_blob(50.0, 4));
        let mut state = seed(&pts);
        // Inside the first blob: all neighbours are blob-0 members.
        let p = Point::new(0.02, 0.0);
        assert_eq!(insert(&mut state, p), InsertOutcome::Member(0));
        pts.push(p);
        state.validate(&pts, &params()).unwrap();
        assert_eq!(state, seed(&pts));
    }

    #[test]
    fn far_point_is_noise() {
        let mut pts = dense_blob(0.0, 5);
        let mut state = seed(&pts);
        let far = Point::new(100.0, 100.0);
        assert_eq!(insert(&mut state, far), InsertOutcome::Noise);
        assert_eq!(state.cluster_count(), 1);
        pts.push(far);
        assert_eq!(state, seed(&pts));
    }

    #[test]
    fn second_blob_appearing_reports_drift() {
        // Two isolated points, then a third making them dense: the
        // closing point first promotes its neighbours.
        let mut pts = dense_blob(0.0, 5);
        pts.push(Point::new(50.0, 0.0));
        pts.push(Point::new(50.3, 0.0));
        let mut state = seed(&pts);
        let out = insert(&mut state, Point::new(50.6, 0.0));
        assert_eq!(out, InsertOutcome::Drift(DriftKind::Promotion));
        assert_eq!(state, seed(&pts), "a drifting point is not inserted");
    }

    #[test]
    fn isolated_core_reports_new_cluster_drift() {
        // min_pts = 1: every point is core on arrival.
        let p = DbscanParams::new(1.0, 1);
        let mut state =
            IncrementalDbscan::seed(vec![Point::new(0.0, 0.0)], p, &mut SeedScratch::default());
        assert_eq!(
            state.insert(Point::new(10.0, 0.0), &p, &mut Vec::new()),
            InsertOutcome::Drift(DriftKind::NewCluster)
        );
    }

    #[test]
    fn bridging_point_reports_merge_or_absorption() {
        // Two dense blobs 2.4 apart; a point in between reaches cores
        // of both.
        let mut pts: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 0.01, 0.0)).collect();
        pts.extend((0..4).map(|i| Point::new(1.6 + i as f64 * 0.01, 0.0)));
        let mut state = seed(&pts);
        assert_eq!(state.cluster_count(), 2);
        match insert(&mut state, Point::new(0.8, 0.0)) {
            InsertOutcome::Drift(DriftKind::Merge | DriftKind::Promotion) => {}
            other => panic!("expected merge-ish drift, got {other:?}"),
        }
    }

    /// Saturated cell indices: the clipped walk must neither overflow
    /// nor count the edge cell's points twice.
    #[test]
    fn inserts_at_the_edge_of_the_key_space() {
        let mut pts = dense_blob(0.0, 5);
        let mut state = seed(&pts);
        let corner = Point::new(f64::MAX, f64::MAX);
        for p in [corner, Point::new(-f64::MAX, 1e300), corner] {
            assert_eq!(insert(&mut state, p), InsertOutcome::Noise);
            pts.push(p);
        }
        state.validate(&pts, &params()).unwrap();
        // The third duplicate sees the other two exactly once each,
        // which lifts both to MinPts = 3.
        assert_eq!(
            insert(&mut state, corner),
            InsertOutcome::Drift(DriftKind::Promotion)
        );
    }
}
