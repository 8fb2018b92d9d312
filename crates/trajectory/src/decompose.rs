//! Periodic decomposition (§III, Fig. 2), in closed form.
//!
//! A history with period `T` splits into sub-trajectories of `T`
//! timestamps; group `Gₜ` collects, across sub-trajectories, the
//! locations whose time offset is `t`. Nothing here stores a group:
//! where a sample lands is arithmetic on its index, so every trainer
//! streams its [`History`](crate::History) once and places each sample
//! as it passes.

use crate::{TimeOffset, Timestamp};

/// The periodic decomposition of a history starting at `s` with period
/// `T`: sample `i` lands at offset `(s+i) mod T` of sub-trajectory
/// `(s+i)/T − s/T`. The first sub-trajectory starts mid-period when `s`
/// is not a multiple of `T`; the last may be shorter than `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// `s mod T`: the offset of sample 0.
    phase: usize,
    period: usize,
}

impl Placement {
    /// The decomposition of a history starting at `start`.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn new(start: Timestamp, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        Placement {
            phase: (start % Timestamp::from(period)) as usize,
            period: period as usize,
        }
    }

    /// `(sub-trajectory, offset)` of sample `i`.
    #[inline]
    pub fn place(self, i: usize) -> (usize, TimeOffset) {
        let k = self.phase + i;
        (k / self.period, (k % self.period) as TimeOffset)
    }

    /// Sub-trajectory of the `j`-th sample at offset `t`: `j`, plus one
    /// when the first sub-trajectory starts after `t`.
    #[inline]
    pub fn sub(self, t: TimeOffset, j: usize) -> usize {
        j + usize::from((t as usize) < self.phase)
    }

    /// How many of the first `n` samples land at offset `t`.
    pub fn count(self, n: usize, t: TimeOffset) -> usize {
        let first = (t as usize + self.period - self.phase) % self.period;
        (n + self.period - 1 - first) / self.period
    }

    /// How many sub-trajectories the first `n` samples touch.
    pub fn subs(self, n: usize) -> usize {
        n.checked_sub(1).map_or(0, |last| self.place(last).0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derived forms agree with placing every sample one by one —
    /// whole periods, partial tails, unaligned starts and empty
    /// histories alike.
    #[test]
    fn counts_and_subs_agree_with_placing_each_sample() {
        for (start, n) in [
            (0u64, 0usize),
            (0, 9),
            (0, 7),
            (2, 4),
            (2, 8),
            (7, 40),
            (13, 1),
        ] {
            let place = Placement::new(start, 5);
            let placed: Vec<_> = (0..n).map(|i| place.place(i)).collect();
            for (i, &(sub, t)) in placed.iter().enumerate() {
                let abs = start + i as Timestamp;
                assert_eq!(sub as u64, abs / 5 - start / 5, "start {start}, sample {i}");
                assert_eq!(u64::from(t), abs % 5, "start {start}, sample {i}");
            }
            for t in 0..5 {
                let subs: Vec<usize> = (placed.iter().filter(|p| p.1 == t)).map(|p| p.0).collect();
                assert_eq!(place.count(n, t), subs.len(), "start {start}, n {n}, t {t}");
                for (j, &sub) in subs.iter().enumerate() {
                    assert_eq!(place.sub(t, j), sub, "start {start}, t {t}, j {j}");
                }
            }
            let subs = placed.last().map_or(0, |p| p.0 + 1);
            assert_eq!(place.subs(n), subs, "start {start}, n {n}");
        }
    }

    #[test]
    fn unaligned_start_begins_mid_period() {
        // Timestamps 2..6 with T = 3: sub-trajectory 0 is [2] at offset
        // 2, sub-trajectory 1 is [3, 4, 5] from offset 0.
        let place = Placement::new(2, 3);
        let placed: Vec<_> = (0..4).map(|i| place.place(i)).collect();
        assert_eq!(placed, [(0, 2), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(place.subs(4), 2);
        assert_eq!([0, 1, 2].map(|t| place.count(4, t)), [1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        Placement::new(3, 0);
    }
}
