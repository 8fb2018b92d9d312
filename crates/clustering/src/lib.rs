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
//! [`IncrementalDbscan::seed`] sorts the points by cell once and runs
//! the batch sweep over the table, then keeps each point once — a
//! sample holding the point, the `|N_Eps|` the sweep saw at its one
//! query for it and its assignment, in cell order — with the cell table
//! and the cluster folds, so that [`IncrementalDbscan::insert`] can file
//! a new sample into the same table. Batch DBSCAN is a seed read back
//! through [`SeedScratch::labels`] (input order) and
//! [`cluster_views`](IncrementalDbscan::cluster_views); the brute-force
//! re-sweep behind [`IncrementalDbscan::validate`] is the
//! differential-testing oracle.

//! # Example
//!
//! ```
//! use hpm_clustering::{DbscanParams, IncrementalDbscan, InsertOutcome, Label, SeedScratch};
//! use hpm_geo::Point;
//!
//! // Two tight groups of 4 points and one straggler.
//! let mut pts: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
//! pts.extend((0..4).map(|i| Point::new(50.0 + i as f64 * 0.1, 0.0)));
//! pts.push(Point::new(25.0, 25.0));
//!
//! let params = DbscanParams::new(1.0, 3);
//! let mut scratch = SeedScratch::default();
//! let mut state = IncrementalDbscan::seed(pts, params, &mut scratch);
//! assert_eq!(state.cluster_count(), 2);
//! assert_eq!(scratch.labels().last(), Some(Label::Noise));
//!
//! // A fifth point inside the first group joins it in place.
//! let mut neighbors = Vec::new();
//! let joined = state.insert(Point::new(0.15, 0.0), &params, &mut neighbors);
//! assert_eq!(joined, InsertOutcome::Member(0));
//! assert_eq!(state.cluster_views().next().unwrap().size, 5);
//! ```

#![forbid(unsafe_code)]

mod dbscan;
mod grid;
mod incremental;

pub use dbscan::{DbscanParams, Label};

pub use incremental::{ClusterView, DriftKind, IncrementalDbscan, InsertOutcome, SeedScratch};
