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
//! One state clusters every offset group `Gₜ` of a period, each on its
//! own: a neighbourhood never crosses offsets. Seeding is the batch
//! sweep and nothing more: each group's points are sorted by cell once,
//! the sweep queries that group's cell table over that order once per
//! point, and the state keeps each point once, as a sample — the point,
//! the `|N_Eps|` its query returned, its assignment — in cell order
//! (arrival order within a cell). Each offset keeps its samples in a
//! `Vec` of its own, so an insert moves only its own offset's samples;
//! the offsets' cell tables are runs of one shared table, and their
//! cluster ids one numbering, in offset order. No sample records its
//! input index: a seed's input-order labels are read from its
//! [`SeedScratch`], and `insert` files the new sample at the end of its
//! cell's run. A state holds only what is its own: the parameters (the
//! cell size is `Eps`) and the neighbour scratch are the caller's, and
//! so are the cluster summaries — a seed leaves them in its scratch
//! ([`SeedScratch::folds`]) and an insert names the cluster it joined,
//! so the caller folds them where it keeps them. A cluster's members
//! are the samples whose assignment names it. The seed is the first
//! train of every object, every drift fallback and every trained object
//! at every reopen, which is why it does each piece of neighbourhood
//! work exactly once (DESIGN.md "Training lifecycle" records what a
//! second cell map, a second fold and a separate counting pass cost,
//! and why the cell table stays).

use crate::dbscan::{label_of, sweep, ClusterFold, SweepBuffers, NOISE};
use crate::grid::{self, Cell, Key};
use crate::{DbscanParams, Label};
use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::{MemUse, Point};
use std::ops::Range;

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
    /// The point joined the cluster with this id (as core or border);
    /// no other label changed. Ids are the state's, numbered across
    /// offsets ([`IncrementalDbscan::cluster_range`]).
    Member(u32),
    /// The structure changed: the state is now stale and must be
    /// re-seeded from a batch run.
    Drift(DriftKind),
}

/// The buffers a seed works in — the grid's sort buffer, the sweep's
/// per-point records, cluster folds, frontier and neighbour list — so
/// that a caller seeding many states allocates them once. The state
/// keeps samples in cell order, not input order, so a seed's
/// input-order [`labels`](Self::labels) are read here, and so are its
/// cluster summaries, which the state does not keep.
#[derive(Debug, Default)]
pub struct SeedScratch {
    keyed: Vec<(Key, u32)>,
    sweep: SweepBuffers,
}

impl SeedScratch {
    /// The label of every point of the offset seeded last — inside a
    /// seed's callback, the offset just swept — in input order.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = Label> + '_ {
        self.sweep.swept.iter().map(|s| label_of(s.assign))
    }

    /// The last seed's cluster folds, every offset's, in id order: the
    /// cluster summaries of the state it built.
    pub fn folds(&self) -> &[ClusterFold] {
        &self.sweep.folds
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

/// One offset's part of an [`IncrementalDbscan`]: its samples, and
/// where its runs of the shared cell table and of the cluster ids end
/// (each starts where the previous offset's ends, the first at 0).
#[derive(Debug, Clone, PartialEq)]
struct Group {
    /// Every point with its count and assignment, grouped by `Eps`-cell
    /// in cell-table order and by arrival within a cell.
    samples: Vec<Sample>,
    cells_end: u32,
    clusters_end: u32,
}

/// Persistent clustering state of the offset groups of one period,
/// supporting single-point insertion with exact batch equivalence on
/// the safe path. The [`DbscanParams`] it was seeded under are passed
/// to every later call.
///
/// Equality is equality of the whole state: a state grown by safe
/// inserts equals the one a seed over the same point sequences builds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalDbscan {
    /// One entry per offset of the period.
    groups: Box<[Group]>,
    /// The occupied cells, offset by offset and ascending by key within
    /// an offset, with their runs' ends in that offset's samples.
    cells: Vec<Cell>,
}

impl IncrementalDbscan {
    /// Seeds the state with the batch DBSCAN sweep over each of
    /// `groups`, offset `t` the `t`-th, against the grid a sort of its
    /// points by cell builds. Cluster ids run on across offsets, in
    /// offset order. Every offset's points are sorted first, so the one
    /// cell table is sized before it fills. The sweeps work in
    /// `scratch`; after each one `seeded(t, scratch)` is called, with
    /// that offset's input-order [`labels`](SeedScratch::labels) in
    /// `scratch`, and the state keeps the offset's cell table and
    /// gathers each point, with the neighbourhood size the sweep saw for
    /// it and its assignment, into one sample in cell order. The folds
    /// of every cluster are left in `scratch` ([`SeedScratch::folds`]).
    pub fn seed(
        groups: &[Vec<Point>],
        params: DbscanParams,
        scratch: &mut SeedScratch,
        mut seeded: impl FnMut(u32, &SeedScratch),
    ) -> Self {
        let SeedScratch { keyed, sweep: bufs } = scratch;
        keyed.clear();
        keyed.reserve(groups.iter().map(Vec::len).sum());
        let occupied = groups
            .iter()
            .map(|g| grid::sort(g, params.eps, keyed))
            .sum();
        let (mut cells, mut sorted) = (Vec::with_capacity(occupied), 0);
        let mut seeded_groups = Vec::with_capacity(groups.len());
        let r2 = params.eps * params.eps;
        bufs.folds.clear();
        for (t, points) in (0..).zip(groups) {
            let SeedScratch { keyed, sweep: bufs } = &mut *scratch;
            let keyed = &keyed[sorted..sorted + points.len()];
            sorted += points.len();
            let from = cells.len();
            grid::append(keyed, &mut cells);
            let table = &cells[from..];
            sweep(points, params.min_pts, bufs, |p, out| {
                grid::block_runs(table, grid::key_of(p, params.eps), |run| {
                    for &(_, i) in &keyed[run] {
                        if points[i as usize].distance_sq(p) <= r2 {
                            out.push(i);
                        }
                    }
                })
            });
            seeded_groups.push(Group {
                samples: gather(points, keyed, bufs),
                cells_end: cells.len() as u32,
                clusters_end: bufs.folds.len() as u32,
            });
            seeded(t, scratch);
        }
        IncrementalDbscan {
            groups: seeded_groups.into_boxed_slice(),
            cells,
        }
    }

    /// Inserts one point (the newest arrival) at offset `t` under the
    /// `params` the state was seeded with, and reports how it was
    /// absorbed. `neighbors` is scratch: it is overwritten, and a caller
    /// folding many points keeps one for all of them so that a fold
    /// does not allocate per point. On [`InsertOutcome::Drift`] the
    /// point is *not* inserted and the state is stale with respect to
    /// it: only [`IncrementalDbscan::seed`] over the extended point sets
    /// produces a fresh one, and the caller must not insert again.
    ///
    /// # Panics
    /// Panics when `t` is not an offset of the state.
    pub fn insert(
        &mut self,
        t: u32,
        p: Point,
        params: &DbscanParams,
        neighbors: &mut Vec<u32>,
    ) -> InsertOutcome {
        neighbors.clear();
        let t = t as usize;
        let key = grid::key_of(&p, params.eps);
        let r2 = params.eps * params.eps;
        let samples = &self.groups[t].samples;
        grid::block_runs(&self.cells[self.cell_range(t)], key, |run| {
            for (s, j) in samples[run.clone()].iter().zip(run.start as u32..) {
                if s.p.distance_sq(&p) <= r2 {
                    neighbors.push(j);
                }
            }
        });
        self.absorb(t, p, key, neighbors, params.min_pts)
    }

    /// Classifies `p` against its `neighbors` (positions in offset `t`'s
    /// samples within `Eps`, any order) and commits it when that is
    /// safe.
    fn absorb(
        &mut self,
        t: usize,
        p: Point,
        key: Key,
        neighbors: &[u32],
        min_pts: usize,
    ) -> InsertOutcome {
        let samples = &self.groups[t].samples;
        let sample = |j: u32| samples[j as usize];
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
                    (Some(a), c) if c != a => return InsertOutcome::Drift(DriftKind::Merge),
                    _ => {}
                }
            }
            let Some(c) = target else {
                return InsertOutcome::Drift(DriftKind::NewCluster);
            };
            if neighbors.iter().any(|&j| sample(j).assign != c) {
                return InsertOutcome::Drift(DriftKind::Absorption);
            }
            self.commit(t, p, key, neighbors, c);
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
            self.commit(t, p, key, neighbors, joined.unwrap_or(NOISE));
            joined.map_or(InsertOutcome::Noise, InsertOutcome::Member)
        }
    }

    /// Applies a safe insertion at offset `t`: bumps neighbour counts,
    /// files the point at the end of its cell's run (`cluster` is
    /// [`NOISE`] when it joins none).
    fn commit(&mut self, t: usize, p: Point, key: Key, neighbors: &[u32], cluster: u32) {
        let span = self.cell_range(t);
        let (at, added) = grid::file(&mut self.cells, span, key);
        for group in &mut self.groups[t..] {
            group.cells_end += u32::from(added);
        }
        let samples = &mut self.groups[t].samples;
        // Neighbours are positions, so they are bumped before the
        // insert below shifts the samples behind it.
        for &j in neighbors {
            samples[j as usize].count += 1;
        }
        let count = neighbors.len() as u32 + 1;
        samples.insert(
            at,
            Sample {
                p,
                count,
                assign: cluster,
            },
        );
    }

    /// Number of offsets: the period.
    pub fn period(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Number of points in the state, over every offset.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.samples.len()).sum()
    }

    /// Whether the state holds no points.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|g| g.samples.is_empty())
    }

    /// The ids of offset `t`'s clusters: one run, since ids are
    /// numbered in offset order.
    pub fn cluster_range(&self, t: u32) -> Range<u32> {
        self.run(t as usize, |g| g.clusters_end)
    }

    /// Offset `t`'s run of the cell table.
    fn cell_range(&self, t: usize) -> Range<usize> {
        let run = self.run(t, |g| g.cells_end);
        run.start as usize..run.end as usize
    }

    /// Offset `t`'s run of a sequence laid out offset by offset, whose
    /// per-offset ends `end` reads.
    fn run(&self, t: usize, end: impl Fn(&Group) -> u32) -> Range<u32> {
        let start = t.checked_sub(1).map_or(0, |prev| end(&self.groups[prev]));
        start..end(&self.groups[t])
    }

    /// Test support, and the crate's one `O(n²)` oracle: re-derives
    /// offset `t` of the state over `points` — the sequence it was
    /// seeded over and grown by, in arrival order — under `params` by
    /// brute force: a fresh sweep whose neighbourhoods are full scans,
    /// so every `|N_Eps|`, every assignment and every cluster's size,
    /// `sum` and `bbox` fold is recomputed without the grid. `folds` are
    /// the caller's summaries of the offset's clusters, in id order.
    /// Reports which part differs from the sweep: the offset's run of
    /// the cell table and the samples' filing in it, its samples, its
    /// cluster ids, or `folds`.
    #[doc(hidden)]
    pub fn validate(
        &self,
        t: u32,
        points: &[Point],
        params: &DbscanParams,
        folds: &[ClusterFold],
    ) -> Result<(), String> {
        let (eps2, ids, t) = (params.eps * params.eps, self.cluster_range(t), t as usize);
        let mut bufs = SweepBuffers::default();
        // Ids run on from the offsets before `t`.
        bufs.folds.resize(ids.start as usize, ClusterFold::EMPTY);
        sweep(points, params.min_pts, &mut bufs, |p, out| {
            let within = points.iter().zip(0..);
            out.extend(
                within
                    .filter(|(q, _)| q.distance_sq(p) <= eps2)
                    .map(|(_, i)| i),
            )
        });
        let mut keyed = Vec::new();
        let mut cells = Vec::with_capacity(grid::sort(points, params.eps, &mut keyed));
        grid::append(&keyed, &mut cells);
        let naive = gather(points, &keyed, &bufs);
        let swept = &bufs.folds[ids.start as usize..];
        for (what, same) in [
            ("cell table", cells[..] == self.cells[self.cell_range(t)]),
            ("samples", naive == self.groups[t].samples),
            ("cluster ids", swept.len() == ids.len()),
            ("cluster folds", swept == folds),
        ] {
            if !same {
                return Err(format!("{what} differ from a brute-force sweep"));
            }
        }
        Ok(())
    }
}

/// The samples of `points`, whose sweep left `bufs`: the points in
/// `keyed` (cell) order, each with its count and assignment, in a
/// vector sized exactly.
fn gather(points: &[Point], keyed: &[(Key, u32)], bufs: &SweepBuffers) -> Vec<Sample> {
    keyed
        .iter()
        .map(|&(_, i)| {
            let i = i as usize;
            Sample {
                p: points[i],
                count: bufs.swept[i].count,
                assign: bufs.swept[i].assign,
            }
        })
        .collect()
}

impl MemUse for IncrementalDbscan {
    fn mem_bytes(&self) -> usize {
        let samples: usize = self.groups.iter().map(|g| vec_cap_bytes(&g.samples)).sum();
        std::mem::size_of::<Self>()
            + std::mem::size_of_val::<[Group]>(&self.groups)
            + samples
            + vec_cap_bytes(&self.cells)
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

    /// Seeds a state over `groups` under [`params`], with the folds of
    /// its clusters.
    fn seed_groups(groups: &[&[Point]]) -> (IncrementalDbscan, Vec<ClusterFold>) {
        let mut scratch = SeedScratch::default();
        let groups: Vec<_> = groups.iter().map(|g| g.to_vec()).collect();
        let state = IncrementalDbscan::seed(&groups, params(), &mut scratch, |_, _| {});
        (state, scratch.folds().to_vec())
    }

    /// Seeds a one-offset state over `points` under [`params`].
    fn seed(points: &[Point]) -> IncrementalDbscan {
        seed_groups(&[points]).0
    }

    /// Inserts `p` at offset 0 under [`params`] with a fresh neighbour
    /// scratch.
    fn insert(state: &mut IncrementalDbscan, p: Point) -> InsertOutcome {
        state.insert(0, p, &params(), &mut Vec::new())
    }

    /// Holds offset 0 of `state` to the brute-force sweep over `pts`,
    /// with `folds` its cluster summaries.
    fn validate(state: &IncrementalDbscan, pts: &[Point], folds: &[ClusterFold]) {
        state.validate(0, pts, &params(), folds).unwrap();
    }

    #[test]
    fn seed_matches_brute_force() {
        let mut pts = dense_blob(0.0, 5);
        pts.extend(dense_blob(50.0, 4));
        pts.push(Point::new(25.0, 25.0));
        let mut scratch = SeedScratch::default();
        let state = IncrementalDbscan::seed(&[pts.clone()], params(), &mut scratch, |_, _| {});
        validate(&state, &pts, scratch.folds());
        assert_eq!(scratch.folds().len(), 2);
        assert_eq!(scratch.labels().nth(9), Some(Label::Noise));
    }

    #[test]
    fn safe_core_join_matches_batch() {
        let mut pts = dense_blob(0.0, 5);
        pts.extend(dense_blob(50.0, 4));
        let (mut state, mut folds) = seed_groups(&[&pts]);
        // Inside the first blob: all neighbours are blob-0 members.
        let p = Point::new(0.02, 0.0);
        assert_eq!(insert(&mut state, p), InsertOutcome::Member(0));
        folds[0].push(p);
        pts.push(p);
        validate(&state, &pts, &folds);
        assert_eq!((state, folds), seed_groups(&[&pts]));
    }

    #[test]
    fn far_point_is_noise() {
        let mut pts = dense_blob(0.0, 5);
        let mut state = seed(&pts);
        let far = Point::new(100.0, 100.0);
        assert_eq!(insert(&mut state, far), InsertOutcome::Noise);
        assert_eq!(state.cluster_range(0), 0..1);
        pts.push(far);
        assert_eq!(state, seed(&pts));
    }

    /// Offsets are clustered apart and numbered on: an insert at one
    /// offset names the state's id, files a new cell in that offset's
    /// run only, and leaves the other offsets as a seed builds them.
    #[test]
    fn offsets_share_one_numbering_and_one_cell_table() {
        let (a, mut b, c) = (dense_blob(0.0, 5), dense_blob(0.0, 4), dense_blob(9.0, 3));
        b.extend(dense_blob(20.0, 3));
        let (mut state, mut folds) = seed_groups(&[&a, &b, &c]);
        assert_eq!(state.period(), 3);
        assert_eq!(
            (0..3).map(|t| state.cluster_range(t)).collect::<Vec<_>>(),
            [0..1, 1..3, 3..4]
        );
        let p = Point::new(20.015, 0.0);
        let joined = state.insert(1, p, &params(), &mut Vec::new());
        assert_eq!(joined, InsertOutcome::Member(2));
        folds[2].push(p);
        b.push(p);
        let far = Point::new(-40.0, 0.0);
        assert_eq!(
            state.insert(1, far, &params(), &mut Vec::new()),
            InsertOutcome::Noise
        );
        b.push(far);
        assert_eq!((state.clone(), folds.clone()), seed_groups(&[&a, &b, &c]));
        for (t, pts) in (0..).zip([&a, &b, &c]) {
            let ids = state.cluster_range(t);
            let folds = &folds[ids.start as usize..ids.end as usize];
            state.validate(t, pts, &params(), folds).unwrap();
        }
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
        let mut state = IncrementalDbscan::seed(
            &[vec![Point::new(0.0, 0.0)]],
            p,
            &mut SeedScratch::default(),
            |_, _| {},
        );
        assert_eq!(
            state.insert(0, Point::new(10.0, 0.0), &p, &mut Vec::new()),
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
        assert_eq!(state.cluster_range(0), 0..2);
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
        let (mut state, folds) = seed_groups(&[&pts]);
        let corner = Point::new(f64::MAX, f64::MAX);
        for p in [corner, Point::new(-f64::MAX, 1e300), corner] {
            assert_eq!(insert(&mut state, p), InsertOutcome::Noise);
            pts.push(p);
        }
        validate(&state, &pts, &folds);
        // The third duplicate sees the other two exactly once each,
        // which lifts both to MinPts = 3.
        assert_eq!(
            insert(&mut state, corner),
            InsertOutcome::Drift(DriftKind::Promotion)
        );
    }
}
