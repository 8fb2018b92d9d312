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
//! A new point is appended at the highest index, so the *safe* cases —
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
//! Seeding is that batch sweep and nothing more: one grid is built over
//! the points, the sweep queries it once per point, and the grid, the
//! assignment vector, the `|N_Eps|` each query returned and the cluster
//! folds move into the state as they are; `insert` queries and appends
//! to the same grid. A state holds only what is its own: the
//! parameters and the neighbour scratch are the caller's, so a trainer
//! with one state per time offset keeps one copy of each, and a cluster
//! is a count, a sum and a box — its members are the points whose
//! assignment names it. The seed is the first train of every object, every
//! drift fallback and every trained object at every reopen, which is
//! why it does each piece of neighbourhood work exactly once (DESIGN.md
//! "Training lifecycle" records what a second cell map, a second fold
//! and a separate counting pass used to cost).

use crate::dbscan::{label_of, sweep, ClusterFold, Sweep, NOISE};
use crate::grid::GridIndex;
use crate::{Cluster, DbscanParams, Label};
use hpm_geo::grid::CellKey;
use hpm_geo::mem::{heap_bytes, vec_cap_bytes};
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

/// Summary of one cluster of an [`IncrementalDbscan`]: what
/// [`Cluster`] carries, with the member count in place of the list.
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

/// The buffers a seed works in and keeps nothing of — the grid's sort
/// buffer, the sweep's frontier and neighbour list — so that a caller
/// seeding many states (one per offset of a period) allocates them
/// once.
#[derive(Debug, Default)]
pub struct SeedScratch {
    keyed: Vec<(CellKey, u32)>,
    frontier: Vec<u32>,
    neighbors: Vec<u32>,
}

/// Persistent per-group clustering state supporting single-point
/// insertion with exact batch equivalence on the safe path. The
/// [`DbscanParams`] it was seeded under are passed to every later call.
#[derive(Debug, Clone)]
pub struct IncrementalDbscan {
    points: Vec<Point>,
    /// `Eps`-sized neighbour grid over `points`.
    grid: GridIndex,
    /// `|N_Eps(p)|` including the point itself.
    counts: Vec<u32>,
    /// Cluster id per point, [`NOISE`] outside every cluster — the
    /// sweep's own assignment vector (half the size of `Vec<Label>`).
    assign: Vec<u32>,
    /// Running folds, so emitted summaries are bit-identical to the
    /// batch fold (members ascending).
    clusters: Vec<ClusterFold>,
}

impl IncrementalDbscan {
    /// Seeds the state with the batch DBSCAN sweep over `points`: the
    /// grid it was run against, the neighbourhood size it saw for each
    /// point and the cluster folds it produced all move into the state,
    /// and `points` with them. The sweep works in `scratch`.
    pub fn seed(points: Vec<Point>, params: DbscanParams, scratch: &mut SeedScratch) -> Self {
        let cell = params.eps.max(f64::MIN_POSITIVE);
        let grid = GridIndex::build(&points, cell, &mut scratch.keyed);
        let (frontier, neighbors) = (&mut scratch.frontier, &mut scratch.neighbors);
        let Sweep {
            assign,
            counts,
            clusters,
        } = sweep(&points, params.min_pts, frontier, neighbors, |p, out| {
            grid.neighbors_into(&points, p, params.eps, out)
        });
        IncrementalDbscan {
            points,
            grid,
            counts,
            assign,
            clusters,
        }
    }

    /// Inserts one point (appended at the highest index) under the
    /// `params` the state was seeded with, and reports how it was
    /// absorbed. `neighbors` is scratch: it is overwritten, and a
    /// caller folding many states keeps one for all of them so that a
    /// fold does not allocate per point. On [`InsertOutcome::Drift`]
    /// the point is *not* inserted and the state is stale with respect
    /// to it: only [`IncrementalDbscan::seed`] over the extended point
    /// set produces a fresh one, and the caller must not insert again.
    pub fn insert(
        &mut self,
        p: Point,
        params: &DbscanParams,
        neighbors: &mut Vec<u32>,
    ) -> InsertOutcome {
        neighbors.clear();
        self.grid
            .neighbors_into(&self.points, &p, params.eps, neighbors);
        self.absorb(p, neighbors, params.min_pts)
    }

    /// Classifies `p` against its `neighbors` (existing points within
    /// `Eps`, any order) and commits it when that is safe.
    fn absorb(&mut self, p: Point, neighbors: &[u32], min_pts: usize) -> InsertOutcome {
        let is_core = |i: u32| self.counts[i as usize] as usize >= min_pts;
        // Any neighbour crossing the core threshold can re-route
        // borders, absorb noise, or merge clusters: bail out first.
        if neighbors
            .iter()
            .any(|&i| self.counts[i as usize] as usize + 1 == min_pts)
        {
            return InsertOutcome::Drift(DriftKind::Promotion);
        }

        let count_q = neighbors.len() + 1; // neighbourhood includes self
        if count_q >= min_pts {
            // The new point is core: it may only join a cluster whose
            // members already cover its whole neighbourhood.
            let mut target: Option<u32> = None;
            for &i in neighbors.iter().filter(|&&i| is_core(i)) {
                match (target, self.assign[i as usize]) {
                    (_, NOISE) => unreachable!("core points are always clustered"),
                    (None, c) => target = Some(c),
                    (Some(t), c) if c != t => return InsertOutcome::Drift(DriftKind::Merge),
                    _ => {}
                }
            }
            let Some(c) = target else {
                return InsertOutcome::Drift(DriftKind::NewCluster);
            };
            if neighbors.iter().any(|&i| self.assign[i as usize] != c) {
                return InsertOutcome::Drift(DriftKind::Absorption);
            }
            self.commit(p, neighbors, c);
            InsertOutcome::Member(c)
        } else {
            // Border or noise: joins the lowest-id cluster with a core
            // neighbour — exactly the cluster the batch sweep (which
            // expands clusters in id order) would hand it to.
            let joined = neighbors
                .iter()
                .filter(|&&i| is_core(i))
                .map(|&i| self.assign[i as usize])
                .filter(|&c| c != NOISE)
                .min();
            self.commit(p, neighbors, joined.unwrap_or(NOISE));
            joined.map_or(InsertOutcome::Noise, InsertOutcome::Member)
        }
    }

    /// Applies a safe insertion: appends the point, bumps neighbour
    /// counts, and extends the joined cluster's running fold (`cluster`
    /// is [`NOISE`] when it joins none).
    fn commit(&mut self, p: Point, neighbors: &[u32], cluster: u32) {
        let idx = self.points.len() as u32;
        for &i in neighbors {
            self.counts[i as usize] += 1;
        }
        self.counts.push(neighbors.len() as u32 + 1);
        self.points.push(p);
        self.grid.push(idx, &p);
        self.assign.push(cluster);
        if cluster != NOISE {
            self.clusters[cluster as usize].push(p);
        }
    }

    /// Number of points in the state.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the state holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Per-point labels, batch-identical on the safe path.
    pub fn labels(&self) -> Vec<Label> {
        self.assign.iter().map(|&a| label_of(a)).collect()
    }

    /// Every clustered point as `(point index, cluster id)`, in
    /// ascending point index — the member lists, read off the
    /// assignments.
    pub fn memberships(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.assign
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a != NOISE)
            .map(|(i, &a)| (i, a))
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

    /// [`cluster_views`](Self::cluster_views) as owned [`Cluster`]s,
    /// member lists derived from [`memberships`](Self::memberships)
    /// (for tests and one-off inspection). With
    /// [`labels`](Self::labels), what batch DBSCAN over the seeded
    /// points returns.
    pub fn clusters(&self) -> Vec<Cluster> {
        let mut out: Vec<Cluster> = self
            .cluster_views()
            .map(|v| Cluster {
                id: v.id,
                members: Vec::with_capacity(v.size as usize),
                centroid: v.centroid,
                bbox: v.bbox,
            })
            .collect();
        for (i, c) in self.memberships() {
            out[c as usize].members.push(i as u32);
        }
        out
    }

    /// Test support, and the crate's one `O(n²)` oracle: re-derives the
    /// whole state under `params` by brute force — a fresh sweep whose
    /// neighbourhoods are full scans, so every `|N_Eps|`, every
    /// assignment and every cluster's size, `sum` and `bbox` fold is
    /// recomputed without the grid — and reports what disagrees; the
    /// grid itself is checked against a fresh build.
    #[doc(hidden)]
    pub fn validate(&self, params: &DbscanParams) -> Result<(), String> {
        self.grid.validate(&self.points)?;
        let eps2 = params.eps * params.eps;
        let (frontier, neighbors) = (&mut Vec::new(), &mut Vec::new());
        let naive = sweep(
            &self.points,
            params.min_pts,
            frontier,
            neighbors,
            |p, out| {
                let within = self.points.iter().zip(0..);
                out.extend(
                    within
                        .filter(|(q, _)| q.distance_sq(p) <= eps2)
                        .map(|(_, i)| i),
                )
            },
        );
        for (what, same) in [
            ("|N_Eps| counts", naive.counts == self.counts),
            ("assignments", naive.assign == self.assign),
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
            + vec_cap_bytes(&self.points)
            + heap_bytes(&self.grid)
            + vec_cap_bytes(&self.counts)
            + vec_cap_bytes(&self.assign)
            + vec_cap_bytes(&self.clusters)
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
    fn seed(points: Vec<Point>) -> IncrementalDbscan {
        IncrementalDbscan::seed(points, params(), &mut SeedScratch::default())
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
        let state = seed(pts);
        state.validate(&params()).unwrap();
        assert_eq!(state.cluster_count(), 2);
        assert_eq!(state.labels()[9], Label::Noise);
    }

    #[test]
    fn safe_core_join_matches_batch() {
        let mut pts = dense_blob(0.0, 5);
        pts.extend(dense_blob(50.0, 4));
        let mut state = seed(pts.clone());
        // Inside the first blob: all neighbours are blob-0 members.
        let p = Point::new(0.02, 0.0);
        assert_eq!(insert(&mut state, p), InsertOutcome::Member(0));
        pts.push(p);
        state.validate(&params()).unwrap();
        let reseeded = seed(pts);
        assert_eq!(state.labels(), reseeded.labels());
        assert_eq!(state.clusters(), reseeded.clusters());
    }

    #[test]
    fn far_point_is_noise() {
        let mut state = seed(dense_blob(0.0, 5));
        assert_eq!(
            insert(&mut state, Point::new(100.0, 100.0)),
            InsertOutcome::Noise
        );
        assert_eq!(state.cluster_count(), 1);
        assert_eq!(*state.labels().last().unwrap(), Label::Noise);
    }

    #[test]
    fn second_blob_appearing_reports_drift() {
        // Two isolated points, then a third making them dense: the
        // closing point first promotes its neighbours.
        let mut pts = dense_blob(0.0, 5);
        pts.push(Point::new(50.0, 0.0));
        pts.push(Point::new(50.3, 0.0));
        let mut state = seed(pts);
        let out = insert(&mut state, Point::new(50.6, 0.0));
        assert_eq!(out, InsertOutcome::Drift(DriftKind::Promotion));
        assert_eq!(state.len(), 7, "a drifting point is not inserted");
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
        let mut state = seed(pts);
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
        let mut state = seed(dense_blob(0.0, 5));
        let corner = Point::new(f64::MAX, f64::MAX);
        assert_eq!(insert(&mut state, corner), InsertOutcome::Noise);
        assert_eq!(
            insert(&mut state, Point::new(-f64::MAX, 1e300)),
            InsertOutcome::Noise
        );
        assert_eq!(insert(&mut state, corner), InsertOutcome::Noise);
        state.validate(&params()).unwrap();
        // The third duplicate sees the other two exactly once each,
        // which lifts both to MinPts = 3.
        assert_eq!(
            insert(&mut state, corner),
            InsertOutcome::Drift(DriftKind::Promotion)
        );
    }
}
