//! DBSCAN density-based clustering (Ester, Kriegel, Sander, Xu —
//! SIGKDD 1996), the algorithm the paper uses to find *frequent
//! regions* in each per-offset group `Gₜ` (§IV).
//!
//! `Eps` and `MinPts` play the role that *support* plays in frequent
//! item-set mining: a location is dense (a *core point*) when at least
//! `MinPts` locations fall within distance `Eps` of it, and clusters
//! grow transitively from core points.
//!
//! Neighbourhood queries use one uniform grid with `Eps`-sized cells
//! (the crate-private cell table of `grid.rs`: occupied cells sorted by
//! an `i32`-clamped key, each with the end of its run in a sequence kept
//! sorted by cell, no hashing), giving the expected `O(n · k)` behaviour
//! instead of the naive `O(n²)` scan. There is one entry point:
//! [`IncrementalDbscan::seed`] clusters every offset group of a period,
//! one after the other: it sorts a group's points by cell once and runs
//! the batch sweep over its table, then keeps each point once — a
//! sample holding the point, the `|N_Eps|` the sweep saw at its one
//! query for it and its assignment, in cell order — with the cell table,
//! so that [`IncrementalDbscan::insert`] can file a new sample into the
//! same table. The state numbers clusters across offsets and keeps no
//! summary of them: a seed leaves each cluster's [`ClusterFold`] —
//! count, sum, box — in its [`SeedScratch`], and an insert names the
//! cluster it joined, so the caller keeps the summaries where it reads
//! them and extends them there. Batch DBSCAN is a seed read back
//! through [`SeedScratch::labels`] (input order) and
//! [`SeedScratch::folds`]; the brute-force re-sweep behind
//! [`IncrementalDbscan::validate`] is the differential-testing oracle.

//! # Example
//!
//! ```
//! use hpm_clustering::{DbscanParams, IncrementalDbscan, InsertOutcome, Label, SeedScratch};
//! use hpm_geo::Point;
//!
//! // Offset 0: two tight groups of 4 points and one straggler.
//! let mut pts: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
//! pts.extend((0..4).map(|i| Point::new(50.0 + i as f64 * 0.1, 0.0)));
//! pts.push(Point::new(25.0, 25.0));
//! // Offset 1: one group, numbered after offset 0's.
//! let later: Vec<Point> = (0..3).map(|i| Point::new(9.0, i as f64 * 0.1)).collect();
//!
//! let params = DbscanParams::new(1.0, 3);
//! let mut scratch = SeedScratch::default();
//! let mut noise = Vec::new();
//! let mut state = IncrementalDbscan::seed(&[pts, later], params, &mut scratch, |_, seeded| {
//!     noise.push(seeded.labels().filter(|l| *l == Label::Noise).count());
//! });
//! assert_eq!(noise, [1, 0]);
//! assert_eq!(state.cluster_range(1), 2..3);
//! let mut folds = scratch.folds().to_vec();
//!
//! // A fifth point inside offset 0's first group joins it in place; the
//! // caller extends that cluster's fold.
//! let p = Point::new(0.15, 0.0);
//! let joined = state.insert(0, p, &params, &mut Vec::new());
//! assert_eq!(joined, InsertOutcome::Member(0));
//! folds[0].push(p);
//! assert_eq!(folds[0].len, 5);
//! ```

#![forbid(unsafe_code)]

mod dbscan;
mod grid;
mod incremental;

pub use dbscan::{ClusterFold, DbscanParams, Label};

pub use incremental::{DriftKind, IncrementalDbscan, InsertOutcome, SeedScratch};
