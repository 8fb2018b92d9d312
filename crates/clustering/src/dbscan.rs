//! The DBSCAN algorithm proper: the one sweep behind
//! [`IncrementalDbscan::seed`](crate::IncrementalDbscan::seed) (against
//! the neighbour grid, once per offset) and
//! [`IncrementalDbscan::validate`](crate::IncrementalDbscan::validate)
//! (against brute-force scans), and the cluster fold both produce.

use hpm_geo::{BoundingBox, Point};

/// DBSCAN parameters: the paper's frequent-region knobs (§IV, §VII.B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Maximum neighbour distance (`Eps`).
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a
    /// core point (`MinPts`).
    pub min_pts: usize,
}

impl DbscanParams {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics when `eps` is not positive/finite or `min_pts == 0`.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(min_pts > 0, "min_pts must be positive");
        DbscanParams { eps, min_pts }
    }
}

/// Per-point cluster assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Sparse point belonging to no cluster.
    Noise,
    /// Member of the cluster with this id (0-based, dense ids).
    Cluster(u32),
}

/// Running aggregate of one cluster: its member count, coordinate sum
/// and tight box, folded in ascending member-index order. A seed's
/// folds ([`SeedScratch::folds`](crate::SeedScratch::folds)) and every
/// later append a caller makes for an
/// [`InsertOutcome::Member`](crate::InsertOutcome::Member) extend this
/// same fold, which is what keeps them bit-identical. The members
/// themselves are the points whose assignment names the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFold {
    /// Number of members.
    pub len: u32,
    /// Coordinate sum of the members.
    pub sum: Point,
    /// Tight bounding box of the members.
    pub bbox: BoundingBox,
}

impl ClusterFold {
    pub(crate) const EMPTY: ClusterFold = ClusterFold {
        len: 0,
        sum: Point::ORIGIN,
        bbox: BoundingBox {
            min: Point::ORIGIN,
            max: Point::ORIGIN,
        },
    };

    /// Folds in the next member at `p`; callers push in ascending
    /// member index (arrival order).
    pub fn push(&mut self, p: Point) {
        if self.len == 0 {
            self.bbox = BoundingBox::from_point(p);
        } else {
            self.bbox.expand(p);
        }
        self.len += 1;
        self.sum += p;
    }

    /// Arithmetic mean of the members: the centroid a region reports.
    #[inline]
    pub fn mean(&self) -> Point {
        self.sum / self.len as f64
    }
}

/// What the sweep records for one point: its cluster id ([`NOISE`]
/// outside every cluster) and `|N_Eps|` including the point itself, the
/// size seen at the single neighbourhood query the sweep makes for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Swept {
    pub(crate) assign: u32,
    pub(crate) count: u32,
}

/// The buffers one DBSCAN sweep fills and works in, kept by a caller
/// that sweeps many point sets: its per-point outputs `swept`, read
/// after the sweep, the cluster folds it appends to, and its frontier
/// and neighbour list.
#[derive(Debug, Default)]
pub(crate) struct SweepBuffers {
    /// One entry per point of the last sweep, in input order.
    pub(crate) swept: Vec<Swept>,
    /// One fold per cluster, in id order: a sweep numbers its clusters
    /// on from `folds.len()` and appends theirs.
    pub(crate) folds: Vec<ClusterFold>,
    frontier: Vec<u32>,
    neighbors: Vec<u32>,
}

/// `UNCLASSIFIED` sentinel used during the sweep.
const UNVISITED: u32 = u32::MAX;
/// Noise sentinel (during the sweep it may still be upgraded to a
/// border point).
pub(crate) const NOISE: u32 = u32::MAX - 1;

/// The public [`Label`] of a swept point's assignment.
#[inline]
pub(crate) fn label_of(assign: u32) -> Label {
    if assign < NOISE {
        Label::Cluster(assign)
    } else {
        Label::Noise
    }
}

/// The DBSCAN sweep: fills `bufs.swept` for every point and appends
/// the folds of the clusters it finds to `bufs.folds`, numbering them
/// on from the folds already there. `neighbors_of(p, out)` appends the
/// index of every point within `Eps` of `p` to `out` (any order) and is
/// called exactly once per point: for an unvisited seed, or when a
/// point first claimed by a cluster is popped off the frontier.
pub(crate) fn sweep(
    points: &[Point],
    min_pts: usize,
    bufs: &mut SweepBuffers,
    mut neighbors_of: impl FnMut(&Point, &mut Vec<u32>),
) {
    let n = points.len();
    let SweepBuffers {
        swept,
        folds,
        frontier,
        neighbors: scratch,
    } = bufs;
    swept.clear();
    swept.resize(
        n,
        Swept {
            assign: UNVISITED,
            count: 0,
        },
    );
    let mut next_cluster = folds.len() as u32;
    // Sized for the worst case up front (every point on the frontier,
    // every point a neighbour), so the sweep never regrows a buffer.
    for buffer in [&mut *frontier, &mut *scratch] {
        buffer.clear();
        buffer.reserve(n);
    }

    for seed in 0..n {
        if swept[seed].assign != UNVISITED {
            continue;
        }
        scratch.clear();
        neighbors_of(&points[seed], scratch);
        swept[seed].count = scratch.len() as u32;
        if scratch.len() < min_pts {
            swept[seed].assign = NOISE;
            continue;
        }
        // New cluster seeded at a core point; expand breadth-first.
        let cid = next_cluster;
        next_cluster += 1;
        swept[seed].assign = cid;
        frontier.clear();
        for &i in scratch.iter() {
            let a = &mut swept[i as usize].assign;
            if *a == UNVISITED || *a == NOISE {
                let was_unvisited = *a == UNVISITED;
                *a = cid;
                if was_unvisited {
                    frontier.push(i);
                }
            }
        }
        while let Some(p) = frontier.pop() {
            scratch.clear();
            neighbors_of(&points[p as usize], scratch);
            swept[p as usize].count = scratch.len() as u32;
            if scratch.len() < min_pts {
                continue; // border point: keeps membership, no expansion
            }
            for &i in scratch.iter() {
                let a = &mut swept[i as usize].assign;
                if *a == UNVISITED {
                    *a = cid;
                    frontier.push(i);
                } else if *a == NOISE {
                    *a = cid; // border point claimed by this cluster
                }
            }
        }
    }

    // Summaries: one fold per cluster, members ascending.
    folds.resize(next_cluster as usize, ClusterFold::EMPTY);
    for (s, &p) in swept.iter().zip(points) {
        if s.assign < NOISE {
            folds[s.assign as usize].push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IncrementalDbscan, SeedScratch};

    /// Labels and cluster folds of a seeded one-offset state, checked
    /// against the brute-force sweep first.
    fn dbscan(points: &[Point], params: DbscanParams) -> (Vec<Label>, Vec<ClusterFold>) {
        let mut scratch = SeedScratch::default();
        let state = IncrementalDbscan::seed(&[points.to_vec()], params, &mut scratch, |_, _| {});
        state.validate(0, points, &params, scratch.folds()).unwrap();
        (scratch.labels().collect(), scratch.folds().to_vec())
    }

    /// The input indices `labels` puts in cluster `c`.
    fn members(labels: &[Label], c: u32) -> Vec<usize> {
        (0..labels.len())
            .filter(|&i| labels[i] == Label::Cluster(c))
            .collect()
    }

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Point> {
        // Deterministic pseudo-random-ish blob on a small spiral.
        (0..n)
            .map(|i| {
                let a = i as f64 * 2.399963; // golden angle
                let r = spread * (i as f64 / n as f64).sqrt();
                Point::new(cx + r * a.cos(), cy + r * a.sin())
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut pts = blob(0.0, 0.0, 30, 1.0);
        pts.extend(blob(100.0, 100.0, 30, 1.0));
        let (labels, clusters) = dbscan(&pts, DbscanParams::new(1.0, 4));
        assert_eq!(clusters.len(), 2);
        // All points clustered (dense blobs, no noise).
        assert!(labels.iter().all(|l| matches!(l, Label::Cluster(_))));
        // Points of the same blob share a label.
        assert!(labels[..30].iter().all(|l| *l == labels[0]));
        assert!(labels[30..].iter().all(|l| *l == labels[30]));
        assert_ne!(labels[0], labels[30]);
    }

    #[test]
    fn isolated_points_are_noise() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(0.0, 50.0),
        ];
        let (labels, clusters) = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert!(clusters.is_empty());
        assert!(labels.iter().all(|l| *l == Label::Noise));
    }

    #[test]
    fn min_pts_includes_self() {
        // Two points within eps: neighbourhood size 2 each.
        let pts = [Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
        let (_, c2) = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert_eq!(c2.len(), 1);
        let (_, c3) = dbscan(&pts, DbscanParams::new(1.0, 3));
        assert!(c3.is_empty());
    }

    #[test]
    fn border_point_joins_cluster() {
        // A chain: p0..p3 dense, p4 only reachable from p3 (border).
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(0.4, 0.0),
            Point::new(0.8, 0.0),
            Point::new(1.2, 0.0),
            Point::new(2.1, 0.0),
        ];
        let (labels, clusters) = dbscan(&pts, DbscanParams::new(1.0, 3));
        assert_eq!(clusters.len(), 1);
        assert_eq!(labels[4], Label::Cluster(0));
    }

    #[test]
    fn cluster_summary_fields() {
        let pts = blob(10.0, 20.0, 40, 0.5);
        let (labels, clusters) = dbscan(&pts, DbscanParams::new(0.5, 3));
        assert_eq!(clusters.len(), 1);
        let c = &clusters[0];
        assert_eq!(c.len, 40);
        assert!(c.mean().distance(&Point::new(10.0, 20.0)) < 0.2);
        for m in members(&labels, 0) {
            assert!(c.bbox.contains(&pts[m]));
        }
    }

    #[test]
    fn touching_blobs_match_the_brute_force_sweep() {
        let mut pts = blob(0.0, 0.0, 25, 2.0);
        pts.extend(blob(6.0, 1.0, 25, 2.0));
        pts.push(Point::new(-30.0, -30.0));
        let (labels, _) = dbscan(&pts, DbscanParams::new(1.2, 4));
        assert_eq!(labels[50], Label::Noise);
    }

    /// `|x / Eps| ≥ 2³¹` clamps the cell key to the edge cell; the 3×3
    /// walk must not step past it (the walk once computed `MAX + 1`
    /// there: a panic with overflow checks on, a wrap to the opposite
    /// edge with them off).
    #[test]
    fn huge_finite_coordinates_do_not_overflow_the_walk() {
        let pts = [
            Point::new(1e300, 0.0),
            Point::new(1e300, 0.0),
            Point::new(-1e300, -1e300),
            Point::new(f64::MAX, -f64::MAX),
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
        ];
        let (_, clusters) = dbscan(&pts, DbscanParams::new(2.0, 2));
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn empty_input() {
        let (labels, clusters) = dbscan(&[], DbscanParams::new(1.0, 3));
        assert!(labels.is_empty());
        assert!(clusters.is_empty());
    }

    #[test]
    fn sizes_count_the_labels() {
        let pts = blob(0.0, 0.0, 20, 1.0);
        let (labels, clusters) = dbscan(&pts, DbscanParams::new(1.0, 4));
        for (id, c) in (0..).zip(&clusters) {
            assert_eq!(members(&labels, id).len(), c.len as usize);
        }
    }
}
