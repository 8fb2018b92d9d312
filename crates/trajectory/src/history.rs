//! The [`History`] abstraction: anything that stores a regularly
//! sampled movement history and can stream its samples in timestamp
//! order.
//!
//! Both the raw [`Trajectory`](crate::Trajectory) and the compressed
//! [`ChunkedHistory`](crate::ChunkedHistory) implement it, so the
//! periodic-decomposition machinery (and, downstream, training) can
//! consume either representation without materializing a full
//! `Vec<Point>` first.

use crate::traj::Timestamp;
use crate::Trajectory;
use hpm_geo::Point;

/// A regularly sampled movement history whose sample `i` is the
/// location at timestamp `start() + i`.
pub trait History {
    /// First timestamp covered.
    fn start(&self) -> Timestamp;

    /// Number of samples.
    fn len(&self) -> usize;

    /// Streams samples in timestamp order starting at index `from`
    /// (clamped to the end). Implementations yield samples by value so
    /// compressed storage can decode on the fly.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = Point> + '_;

    /// Timestamp one past the last sample.
    #[inline]
    fn end(&self) -> Timestamp {
        self.start() + self.len() as Timestamp
    }

    /// Whether the history has no samples.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl History for Trajectory {
    #[inline]
    fn start(&self) -> Timestamp {
        Trajectory::start(self)
    }

    #[inline]
    fn len(&self) -> usize {
        Trajectory::len(self)
    }

    #[inline]
    fn iter_from(&self, from: usize) -> impl Iterator<Item = Point> + '_ {
        self.points()[from.min(self.points().len())..]
            .iter()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(n: usize) -> Trajectory {
        Trajectory::new(5, (0..n).map(|i| Point::new(i as f64, 1.0)).collect())
    }

    #[test]
    fn trajectory_streams_suffixes() {
        let t = traj(6);
        assert_eq!(History::start(&t), 5);
        assert_eq!(History::end(&t), 11);
        let tail: Vec<Point> = t.iter_from(4).collect();
        assert_eq!(tail, t.points()[4..].to_vec());
        assert_eq!(t.iter_from(99).count(), 0);
    }
}
