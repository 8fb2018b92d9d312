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

/// The first samples of a history, viewed as a history of its own —
/// what a retrain reads when it must not see the samples reported
/// after its cadence crossing.
#[derive(Debug, Clone, Copy)]
pub struct Prefix<'a, H> {
    hist: &'a H,
    len: usize,
}

impl<'a, H: History> Prefix<'a, H> {
    /// The first `len` samples of `hist` (all when it is shorter).
    pub fn new(hist: &'a H, len: usize) -> Self {
        Prefix {
            hist,
            len: len.min(hist.len()),
        }
    }
}

impl<H: History> History for Prefix<'_, H> {
    #[inline]
    fn start(&self) -> Timestamp {
        self.hist.start()
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn iter_from(&self, from: usize) -> impl Iterator<Item = Point> + '_ {
        self.hist
            .iter_from(from)
            .take(self.len.saturating_sub(from))
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

    #[test]
    fn prefix_ends_early() {
        let t = traj(6);
        let p = Prefix::new(&t, 4);
        assert_eq!((History::start(&p), History::end(&p)), (5, 9));
        let tail: Vec<Point> = p.iter_from(1).collect();
        assert_eq!(tail, t.points()[1..4].to_vec());
        assert_eq!(p.iter_from(5).count(), 0);
        assert_eq!(Prefix::new(&t, 99).len(), 6);
    }
}
