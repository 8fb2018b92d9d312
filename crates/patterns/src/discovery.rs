//! Frequent-region discovery (§IV, first component).
//!
//! Streams the history into its periodic offset groups `Gₜ`, clusters
//! every group with DBSCAN, and numbers the dense clusters as frequent
//! regions `Rₜʲ` in ascending `(offset, cluster)` order. Alongside the
//! [`RegionSet`] it produces the [`VisitTable`]: for every
//! sub-trajectory, the ordered sequence of frequent regions it passed
//! through — the "transactions" [`SupportCounts`](crate::SupportCounts)
//! counts.
//!
//! [`cluster_offsets`] clusters a history and turns the clusters into
//! regions, whoever trains: [`discover`] drops the clusterings, the
//! trainer in `hpm-core` keeps them so that it can insert into them
//! ([`OffsetClusters::insert`]). The clusterings hold each sample once,
//! grouped by cell, and not which sub-trajectory it came from: a fold
//! only ever appends the newest. They keep one number per region, its
//! running coordinate sum; the rest of a region's fold — its support
//! and box — is the region itself, so an insert extends the live
//! [`RegionSet`] it is handed and there is one copy of each region.

use crate::{FrequentRegion, RegionId, RegionSet};
use hpm_clustering::{
    ClusterFold, DbscanParams, DriftKind, IncrementalDbscan, InsertOutcome, Label, SeedScratch,
};
use hpm_geo::{MemUse, Point};
use hpm_trajectory::{History, Placement, TimeOffset};

/// Knobs of the discovery stage (§VII.B: `Eps`, `MinPts`, and the
/// period `T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveryParams {
    /// The period `T` (timestamps per sub-trajectory).
    pub period: u32,
    /// DBSCAN `Eps`: maximum neighbour distance.
    pub eps: f64,
    /// DBSCAN `MinPts`: minimum neighbourhood size of a core point.
    pub min_pts: usize,
}

impl DiscoveryParams {
    /// The paper's default evaluation setting (§VII.A): `T = 300`,
    /// `Eps = 30`, `MinPts = 4`.
    pub fn paper_defaults() -> Self {
        DiscoveryParams {
            period: 300,
            eps: 30.0,
            min_pts: 4,
        }
    }
}

/// One region visit: the region and its time offset.
pub type Visit = (RegionId, TimeOffset);

/// Per-sub-trajectory region visits.
///
/// `sequence(s)` is the ordered list of frequent regions sub-trajectory
/// `s` visited, each with its time offset. Offsets ascend strictly — a
/// sub-trajectory occupies at most one cluster per offset — and so do
/// the region ids (assigned in offset order), so each sequence is
/// already a strictly-increasing-in-time itemset.
#[derive(Debug, Clone, Default)]
pub struct VisitTable {
    visits: Vec<Vec<Visit>>,
}

impl VisitTable {
    /// Builds a table with `sub_count` empty sequences.
    pub fn with_subs(sub_count: usize) -> Self {
        VisitTable {
            visits: vec![Vec::new(); sub_count],
        }
    }

    /// Number of sub-trajectories covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Whether the table covers no sub-trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// The visit sequence of sub-trajectory `s` (ascending in offset
    /// and region id).
    #[inline]
    pub fn sequence(&self, s: usize) -> &[Visit] {
        &self.visits[s]
    }

    /// Iterates all visit sequences in sub-trajectory order.
    pub fn iter(&self) -> impl Iterator<Item = &[Visit]> {
        self.visits.iter().map(Vec::as_slice)
    }

    /// Records that sub-trajectory `s` visited `region` at `offset`,
    /// growing the table when `s` is a sub-trajectory it has not seen,
    /// and returns `s`'s sequence — the new visit last.
    ///
    /// # Panics
    /// Panics (debug) when visits are appended out of time order.
    pub fn record(&mut self, s: usize, region: RegionId, offset: TimeOffset) -> &[Visit] {
        if self.visits.len() <= s {
            self.visits.resize(s + 1, Vec::new());
        }
        let seq = &mut self.visits[s];
        debug_assert!(
            seq.last()
                .is_none_or(|last| last.0 < region && last.1 < offset),
            "visits must be recorded in ascending offset and region-id order"
        );
        seq.push((region, offset));
        seq
    }

    /// The newest sub-trajectory's sequence, consuming the table
    /// (empty when the table covers none).
    pub fn into_last(mut self) -> Vec<Visit> {
        self.visits.pop().unwrap_or_default()
    }
}

/// Result of the discovery stage.
#[derive(Debug, Clone)]
pub struct DiscoveryOutput {
    /// The frequent regions `Rₜʲ`, id-ordered.
    pub regions: RegionSet,
    /// Which regions each sub-trajectory visited.
    pub visits: VisitTable,
}

/// A history clustered offset by offset (see [`cluster_offsets`]),
/// with the DBSCAN parameters inserting into the clusterings shares and
/// each region's running coordinate sum.
#[derive(Debug, Clone)]
pub struct OffsetClusters {
    params: DbscanParams,
    /// The clustering of every `Gₜ` of the period — offsets the history
    /// never covered hold no sample. Cluster ids are region ids. Empty
    /// once a drift has poisoned it: it is stale then, and only a new
    /// [`cluster_offsets`] replaces it.
    clusters: IncrementalDbscan,
    /// `sums[r]` = the coordinate sum of region `r`'s members, folded
    /// in arrival order.
    sums: Box<[Point]>,
}

impl OffsetClusters {
    /// The period: one clustering per offset.
    #[inline]
    pub fn period(&self) -> u32 {
        self.clusters.period()
    }

    /// Samples clustered: every sample of the history, noise included,
    /// is a point of its offset's clustering.
    pub fn samples(&self) -> usize {
        self.clusters.len()
    }

    /// Whether `regions` numbers its regions offset by offset as these
    /// clusterings number their clusters — the same count at every
    /// offset of the same period — so that [`insert`](Self::insert) can
    /// fold into it.
    pub fn numbers(&self, regions: &RegionSet) -> bool {
        regions.period() == self.period()
            && (0..self.period())
                .all(|t| regions.id_range(t..t + 1) == self.clusters.cluster_range(t))
    }

    /// Inserts a sample at offset `t` of the period into that offset's
    /// clustering: the region it joined, `None` for noise, or the drift
    /// that stopped it — which poisons the clusterings and drops them.
    /// A joined region's support, box and centroid in `regions` absorb
    /// the sample — the fold a seed over the extended history makes, so
    /// the region stays bit-identical to that seed's. `regions` is the
    /// table these clusterings last produced ([`cluster_offsets`], then
    /// every insert since), or one equal to it; `neighbors` is scratch.
    /// The safe path never creates, merges or renumbers clusters, so
    /// region ids stay what [`cluster_offsets`] numbered them.
    ///
    /// # Panics
    /// Panics when a drift has poisoned the clusterings.
    pub fn insert(
        &mut self,
        t: TimeOffset,
        p: Point,
        regions: &mut RegionSet,
        neighbors: &mut Vec<u32>,
    ) -> Result<Option<RegionId>, DriftKind> {
        assert!(self.period() > 0, "insert into drifted clusterings");
        match self.clusters.insert(t, p, &self.params, neighbors) {
            InsertOutcome::Noise => Ok(None),
            InsertOutcome::Member(r) => {
                let (region, sum) = (regions.get_mut(RegionId(r)), &mut self.sums[r as usize]);
                let mut fold = ClusterFold {
                    len: region.support,
                    sum: *sum,
                    bbox: region.bbox,
                };
                fold.push(p);
                (*sum, region.support, region.bbox) = (fold.sum, fold.len, fold.bbox);
                region.centroid = fold.mean();
                Ok(Some(RegionId(r)))
            }
            InsertOutcome::Drift(kind) => {
                self.clusters = IncrementalDbscan::default();
                self.sums = Box::default();
                Err(kind)
            }
        }
    }
}

impl MemUse for OffsetClusters {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + hpm_geo::mem::heap_bytes(&self.clusters)
            + std::mem::size_of_val::<[Point]>(&self.sums)
    }
}

/// Discovers the frequent regions of `hist` and the per-sub-trajectory
/// visit sequences: [`cluster_offsets`] without the clusterings.
///
/// # Panics
/// Panics when `params.period == 0` (propagated from the decomposition).
pub fn discover(hist: &impl History, params: &DiscoveryParams) -> DiscoveryOutput {
    cluster_offsets(hist, params).1
}

/// Streams `hist` once into its periodic offset groups and clusters
/// the locations of every `Gₜ` with DBSCAN(`eps`, `min_pts`). Each
/// cluster is a frequent region — its centroid, bounding box and member
/// count as its `support` — and ids are assigned in ascending
/// `(offset, cluster-id)` order, the numbering §V.A's region keys and
/// Property 1 depend on; every cluster member is a visit of its
/// sub-trajectory to that region. Returns the clusterings, with each
/// region's coordinate sum, beside the regions, in a table sized
/// exactly, and the visits. Each group is sized exactly before it fills
/// and is read by the seed, which keeps each sample once, in cell
/// order; the sweeps share one [`SeedScratch`], the visits are read
/// from the input-order labels each sweep leaves there, and the regions
/// from the cluster folds the seed leaves there.
///
/// # Panics
/// Panics when `params.period == 0` (propagated from the decomposition).
pub fn cluster_offsets(
    hist: &impl History,
    params: &DiscoveryParams,
) -> (OffsetClusters, DiscoveryOutput) {
    let _span = hpm_obs::span!(crate::metrics::DISCOVER_SPAN);
    let db = DbscanParams::new(params.eps, params.min_pts);
    let place = Placement::new(hist.start(), params.period);
    let n = hist.len();
    let mut groups: Vec<Vec<Point>> = (0..params.period)
        .map(|t| Vec::with_capacity(place.count(n, t)))
        .collect();
    for (i, p) in hist.iter_from(0).enumerate() {
        groups[place.place(i).1 as usize].push(p);
    }
    let mut visits = VisitTable::with_subs(place.subs(n));
    let mut scratch = SeedScratch::default();
    let clusters = IncrementalDbscan::seed(&groups, db, &mut scratch, |t, seeded| {
        for (m, label) in seeded.labels().enumerate() {
            if let Label::Cluster(r) = label {
                visits.record(place.sub(t, m), RegionId(r), t);
            }
        }
    });
    let folds = scratch.folds();
    hpm_obs::counter!(crate::metrics::DISCOVER_REGIONS).add(folds.len() as u64);
    let mut regions = Vec::with_capacity(folds.len());
    for t in 0..params.period {
        let ids = clusters.cluster_range(t);
        for (r, j) in ids.clone().zip(0..) {
            let fold = &folds[r as usize];
            regions.push(FrequentRegion {
                id: RegionId(r),
                offset: t,
                local_index: j,
                centroid: fold.mean(),
                bbox: fold.bbox,
                support: fold.len,
            });
        }
    }
    let clusters = OffsetClusters {
        params: db,
        clusters,
        sums: folds.iter().map(|f| f.sum).collect(),
    };
    let regions = RegionSet::new(regions, params.period);
    (clusters, DiscoveryOutput { regions, visits })
}

/// Maps a history onto an *existing* region vocabulary: for every
/// sample, the frequent region (if any) containing it at its time
/// offset, collected into per-sub-trajectory visit sequences.
///
/// Mining these visits yields rules over the region ids a live
/// predictor already uses, so they can be compared with its pattern
/// list or joined to it; a predictor over the joined list is
/// assembled afresh (`HybridPredictor::from_parts`), the index has no
/// insertion path.
///
/// `margin` plays the same role as the predictor's query-matching
/// margin: a sample within `margin` of a region's bounding box counts
/// as visiting it (the closest-centroid region wins when several
/// match).
pub fn visits_against(hist: &impl History, regions: &RegionSet, margin: f64) -> VisitTable {
    let place = Placement::new(hist.start(), regions.period());
    let mut visits = VisitTable::with_subs(place.subs(hist.len()));
    for (i, p) in hist.iter_from(0).enumerate() {
        let (sub, t) = place.place(i);
        if let Some(id) = regions.region_at(t, &p, margin) {
            visits.record(sub, id, t);
        }
    }
    visits
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_trajectory::Trajectory;

    /// A toy commuter: 10 "days" of period 4. Offsets 0..2 are always
    /// near fixed spots (home, road, work); offset 3 alternates between
    /// two spots (pub, gym) — two frequent regions at one offset.
    fn commuter() -> Trajectory {
        let mut pts = Vec::new();
        for day in 0..10 {
            let jitter = (day % 3) as f64 * 0.2;
            pts.push(Point::new(0.0 + jitter, 0.0)); // home
            pts.push(Point::new(50.0 + jitter, 0.0)); // road
            pts.push(Point::new(100.0 + jitter, 0.0)); // work
            if day % 2 == 0 {
                pts.push(Point::new(100.0 + jitter, 50.0)); // pub
            } else {
                pts.push(Point::new(0.0 + jitter, 50.0)); // gym
            }
        }
        Trajectory::from_points(pts)
    }

    fn params() -> DiscoveryParams {
        DiscoveryParams {
            period: 4,
            eps: 2.0,
            min_pts: 3,
        }
    }

    #[test]
    fn finds_expected_regions() {
        let out = discover(&commuter(), &params());
        // 3 single-spot offsets + 2 regions at offset 3.
        assert_eq!(out.regions.len(), 5);
        assert_eq!(out.regions.at_offset(0).len(), 1);
        assert_eq!(out.regions.at_offset(1).len(), 1);
        assert_eq!(out.regions.at_offset(2).len(), 1);
        assert_eq!(out.regions.at_offset(3).len(), 2);
    }

    #[test]
    fn region_ids_sorted_by_offset() {
        let out = discover(&commuter(), &params());
        let mut prev = 0;
        for r in out.regions.all() {
            assert!(r.offset >= prev);
            prev = r.offset;
        }
    }

    #[test]
    fn supports_count_members() {
        let out = discover(&commuter(), &params());
        // Every day visits home/road/work; alternation splits offset 3.
        assert_eq!(out.regions.get(RegionId(0)).support, 10);
        let s3: u32 = out.regions.at_offset(3).iter().map(|r| r.support).sum();
        assert_eq!(s3, 10);
    }

    #[test]
    fn visits_are_ascending_and_complete() {
        let out = discover(&commuter(), &params());
        assert_eq!(out.visits.len(), 10);
        for seq in out.visits.iter() {
            assert_eq!(seq.len(), 4, "each day visits 4 regions");
            assert!(seq.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn alternating_days_visit_different_offset3_regions() {
        let out = discover(&commuter(), &params());
        let even = out.visits.sequence(0).last().copied().unwrap();
        let odd = out.visits.sequence(1).last().copied().unwrap();
        assert_ne!(even, odd);
        assert_eq!(out.visits.sequence(2).last(), Some(&even));
        assert_eq!(out.visits.sequence(3).last(), Some(&odd));
    }

    #[test]
    fn sparse_offsets_yield_no_regions() {
        // Only 2 points per offset with min_pts = 3: everything noise.
        let t = Trajectory::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(10.1, 0.0),
        ]);
        let out = discover(
            &t,
            &DiscoveryParams {
                period: 2,
                eps: 1.0,
                min_pts: 3,
            },
        );
        assert!(out.regions.is_empty());
        assert!(out.visits.iter().all(<[Visit]>::is_empty));
    }

    #[test]
    fn tighter_eps_splits_regions() {
        // Two loose sub-blobs at one offset: merged with large eps,
        // split with small eps.
        let mut pts = Vec::new();
        for i in 0..8 {
            let x = if i % 2 == 0 { 0.0 } else { 4.0 };
            pts.push(Point::new(x + (i / 2) as f64 * 0.1, 0.0));
        }
        let t = Trajectory::from_points(pts);
        let loose = discover(
            &t,
            &DiscoveryParams {
                period: 1,
                eps: 5.0,
                min_pts: 3,
            },
        );
        let tight = discover(
            &t,
            &DiscoveryParams {
                period: 1,
                eps: 1.0,
                min_pts: 3,
            },
        );
        assert_eq!(loose.regions.len(), 1);
        assert_eq!(tight.regions.len(), 2);
    }

    #[test]
    #[should_panic(expected = "drifted")]
    fn drifted_clusterings_reject_inserts() {
        let every_point_core = DiscoveryParams {
            min_pts: 1,
            ..params()
        };
        let (mut clusters, mut out) = cluster_offsets(&commuter(), &every_point_core);
        let (far, scratch) = (Point::new(500.0, 500.0), &mut Vec::new());
        let drift = clusters.insert(0, far, &mut out.regions, scratch);
        assert_eq!(drift, Err(DriftKind::NewCluster));
        let _ = clusters.insert(1, far, &mut out.regions, scratch);
    }

    /// An insert extends the region it joins the way a seed over the
    /// longer history folds it, and touches no other region.
    #[test]
    fn inserts_fold_into_the_regions_a_seed_derives() {
        let mut pts = commuter().points().to_vec();
        let (mut clusters, mut out) = cluster_offsets(&commuter(), &params());
        assert!(clusters.numbers(&out.regions));
        let scratch = &mut Vec::new();
        for (t, p) in (0..).zip([Point::new(0.3, 0.0), Point::new(50.1, 0.1)]) {
            let joined = clusters.insert(t, p, &mut out.regions, scratch);
            assert_eq!(joined, Ok(Some(RegionId(t))));
            pts.push(p);
        }
        let (_, seeded) = cluster_offsets(&Trajectory::from_points(pts), &params());
        assert_eq!(out.regions.all(), seeded.regions.all());
        assert!(!clusters.numbers(&RegionSet::new(Vec::new(), 4)));
    }

    #[test]
    fn paper_defaults_match_section_vii() {
        let p = DiscoveryParams::paper_defaults();
        assert_eq!(p.period, 300);
        assert_eq!(p.eps, 30.0);
        assert_eq!(p.min_pts, 4);
    }

    #[test]
    fn visits_against_matches_original_discovery() {
        // Re-mapping the same trajectory onto its own discovered
        // regions reproduces the original visit table.
        let t = commuter();
        let out = discover(&t, &params());
        let remapped = visits_against(&t, &out.regions, 0.0);
        assert_eq!(remapped.len(), out.visits.len());
        for s in 0..remapped.len() {
            assert_eq!(remapped.sequence(s), out.visits.sequence(s), "sub {s}");
        }
    }

    #[test]
    fn visits_against_new_data_uses_existing_ids() {
        let out = discover(&commuter(), &params());
        // Five new days following the even-day route exactly.
        let mut pts = Vec::new();
        for _ in 0..5 {
            pts.push(Point::new(0.1, 0.0));
            pts.push(Point::new(50.1, 0.0));
            pts.push(Point::new(100.1, 0.0));
            pts.push(Point::new(100.1, 50.0)); // pub
        }
        let fresh = Trajectory::from_points(pts);
        let visits = visits_against(&fresh, &out.regions, 1.0);
        assert_eq!(visits.len(), 5);
        for s in 0..5 {
            assert_eq!(visits.sequence(s).len(), 4);
            // Ids come from the existing vocabulary.
            assert!(visits
                .sequence(s)
                .iter()
                .all(|(id, _)| id.index() < out.regions.len()));
        }
    }

    #[test]
    fn visits_against_far_samples_unmatched() {
        let out = discover(&commuter(), &params());
        let fresh = Trajectory::from_points(vec![Point::new(5000.0, 5000.0); 8]);
        let visits = visits_against(&fresh, &out.regions, 1.0);
        assert!(visits.iter().all(<[Visit]>::is_empty));
    }
}
