use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::{MemUse, Point};

/// Discrete timestamp of a sample (unit sampling interval).
pub type Timestamp = u64;

/// A position within the period: `timestamp mod T`, in `0..T`.
pub type TimeOffset = u32;

/// A regularly sampled movement history.
///
/// The sample at index `i` is the object's location at timestamp
/// `start + i`. The paper's datasets sample one location per time unit
/// (`T = 300` positions per "day").
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    start: Timestamp,
    points: Vec<Point>,
}

impl Trajectory {
    /// Creates a trajectory beginning at timestamp `start`.
    pub fn new(start: Timestamp, points: Vec<Point>) -> Self {
        Trajectory { start, points }
    }

    /// A trajectory starting at timestamp 0.
    pub fn from_points(points: Vec<Point>) -> Self {
        Trajectory { start: 0, points }
    }

    /// First timestamp covered.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Timestamp one past the last sample.
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.start + self.points.len() as Timestamp
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All samples in timestamp order.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Location at absolute timestamp `t`, if sampled.
    pub fn at(&self, t: Timestamp) -> Option<Point> {
        if t < self.start {
            return None;
        }
        self.points.get((t - self.start) as usize).copied()
    }

    /// The most recent `len` samples together with the timestamp of the
    /// first returned sample. Returns all samples when `len` exceeds
    /// the trajectory length.
    pub fn recent_window(&self, len: usize) -> (&[Point], Timestamp) {
        let n = self.points.len();
        let take = len.min(n);
        let first_idx = n - take;
        (
            &self.points[first_idx..],
            self.start + first_idx as Timestamp,
        )
    }

    /// Appends a sample at the next timestamp.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Extends with the samples of `other`, which must start exactly
    /// where this trajectory ends.
    ///
    /// # Panics
    /// Panics when the timestamps do not line up.
    pub fn append(&mut self, other: &Trajectory) {
        assert_eq!(
            self.end(),
            other.start(),
            "appended trajectory must be contiguous"
        );
        self.points.extend_from_slice(&other.points);
    }
}

impl MemUse for Trajectory {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_cap_bytes(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(n: usize) -> Trajectory {
        Trajectory::from_points((0..n).map(|i| Point::new(i as f64, 0.0)).collect())
    }

    #[test]
    fn at_respects_start_offset() {
        let t = Trajectory::new(100, vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
        assert_eq!(t.at(99), None);
        assert_eq!(t.at(100), Some(Point::new(1.0, 1.0)));
        assert_eq!(t.at(101), Some(Point::new(2.0, 2.0)));
        assert_eq!(t.at(102), None);
        assert_eq!(t.end(), 102);
    }

    #[test]
    fn recent_window_returns_tail() {
        let t = traj(10);
        let (w, first_ts) = t.recent_window(3);
        assert_eq!(first_ts, 7);
        assert_eq!(
            w,
            &[
                Point::new(7.0, 0.0),
                Point::new(8.0, 0.0),
                Point::new(9.0, 0.0)
            ]
        );
    }

    #[test]
    fn recent_window_clamps_to_len() {
        let t = traj(2);
        let (w, first_ts) = t.recent_window(10);
        assert_eq!(first_ts, 0);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn append_contiguous() {
        let mut a = traj(3);
        let b = Trajectory::new(3, vec![Point::new(30.0, 0.0)]);
        a.append(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.at(3), Some(Point::new(30.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn append_gap_panics() {
        let mut a = traj(3);
        let b = Trajectory::new(5, vec![Point::new(0.0, 0.0)]);
        a.append(&b);
    }
}
