//! Periodic decomposition (§III, Fig. 2).
//!
//! A trajectory of `n` samples with period `T` splits into `⌈n/T⌉`
//! sub-trajectories; group `Gₜ` collects, across sub-trajectories, the
//! locations whose time offset is `t`.
//!
//! Grouping and the incremental cursor take any [`History`] — a raw
//! [`Trajectory`](crate::Trajectory) is one, a compressed
//! [`ChunkedHistory`](crate::ChunkedHistory) another — and stream its
//! samples, so there is one entry point per verb and compressed
//! storage decodes on the fly instead of materializing a point slice.

use crate::{History, TimeOffset, Timestamp};
use hpm_geo::Point;

/// Per-offset location groups `G₀ … G_{T−1}` (§III, Fig. 2(b)).
///
/// `groups[t]` holds one entry per sub-trajectory that covers offset
/// `t`: the location plus the index of the contributing
/// sub-trajectory. Keeping the sub-trajectory index lets the pattern
/// miner reconstruct, per sub-trajectory, which frequent region was
/// visited at each offset.
#[derive(Debug, Clone)]
pub struct OffsetGroups {
    period: u32,
    /// `groups[t][k] = (sub_trajectory_index, location)`.
    groups: Vec<Vec<(usize, Point)>>,
    /// Number of sub-trajectories that contributed.
    sub_count: usize,
}

impl OffsetGroups {
    /// Builds the groups for `hist` with the given period by streaming
    /// its samples: sample `i` of a history starting at `s` lands in
    /// `G_{(s + i) mod T}` tagged with sub-trajectory `(s + i)/T − s/T`,
    /// so each `Gₜ` fills in sub-trajectory order. The first
    /// sub-trajectory starts mid-period when `s` is not a multiple of
    /// `T`; the last may be shorter than `T`.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn build(hist: &impl History, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        let t = period as Timestamp;
        let start = hist.start();
        let base = (start / t) as usize;
        let mut groups = OffsetGroups {
            period,
            groups: vec![Vec::new(); period as usize],
            sub_count: 0,
        };
        for (i, p) in hist.iter_from(0).enumerate() {
            let abs = start + i as Timestamp;
            groups.append((abs / t) as usize - base, (abs % t) as TimeOffset, p);
        }
        groups
    }

    /// The period `T`.
    #[inline]
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Number of contributing sub-trajectories.
    #[inline]
    pub fn sub_count(&self) -> usize {
        self.sub_count
    }

    /// Group `Gₜ`: `(sub_trajectory_index, location)` pairs at offset `t`.
    #[inline]
    pub fn group(&self, t: TimeOffset) -> &[(usize, Point)] {
        &self.groups[t as usize]
    }

    /// Iterates `(offset, group)` over all non-empty groups.
    pub fn iter(&self) -> impl Iterator<Item = (TimeOffset, &[(usize, Point)])> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(t, g)| (t as TimeOffset, g.as_slice()))
    }

    /// Appends one sample of sub-trajectory `sub` at offset `t` —
    /// the delta form of [`OffsetGroups::build`]: building groups over
    /// a prefix and appending the remaining samples in timestamp order
    /// yields exactly the groups built over the whole trajectory,
    /// because `build` also fills each `Gₜ` in sub-trajectory order.
    ///
    /// # Panics
    /// Panics when `t` is outside the period.
    pub fn append(&mut self, sub: usize, t: TimeOffset, p: Point) {
        assert!((t as usize) < self.groups.len(), "offset outside period");
        self.groups[t as usize].push((sub, p));
        self.sub_count = self.sub_count.max(sub + 1);
    }
}

/// One trajectory sample placed within the periodic decomposition: the
/// unit an incremental trainer consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaSample {
    /// 0-based sub-trajectory (period) index the sample belongs to.
    pub sub: usize,
    /// Time offset of the sample within the period.
    pub offset: TimeOffset,
    /// The sampled location.
    pub point: Point,
}

/// Incremental decomposition cursor (§III in delta form): remembers how
/// many samples of a growing trajectory have been consumed and yields
/// only the new ones, already placed into `(sub, offset)` coordinates —
/// the information a full [`OffsetGroups::build`] would recompute from
/// scratch.
///
/// The placement is [`OffsetGroups::build`]'s exactly (including
/// unaligned starts and partial tails): sample `i` of a trajectory
/// starting at `s` has `sub = (s + i)/T − s/T` and
/// `offset = (s + i) mod T`.
#[derive(Debug, Clone)]
pub struct DecomposeCursor {
    period: u32,
    consumed: usize,
}

impl DecomposeCursor {
    /// A cursor that has consumed nothing.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn new(period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        DecomposeCursor {
            period,
            consumed: 0,
        }
    }

    /// The period `T`.
    #[inline]
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Samples consumed so far.
    #[inline]
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Yields the samples of `hist` not yet consumed, in timestamp
    /// order, and marks them consumed. Histories only grow (truncation
    /// must reset the cursor), so a shrunken `hist` is a caller bug.
    ///
    /// # Panics
    /// Panics when `hist` has fewer samples than already consumed.
    pub fn advance(&mut self, hist: &impl History) -> Vec<DeltaSample> {
        assert!(
            hist.len() >= self.consumed,
            "trajectory shrank under the cursor"
        );
        let t = self.period as Timestamp;
        let start = hist.start();
        let base = (start / t) as usize;
        let out = hist
            .iter_from(self.consumed)
            .enumerate()
            .map(|(i, p)| {
                let abs = start + (self.consumed + i) as Timestamp;
                DeltaSample {
                    sub: (abs / t) as usize - base,
                    offset: (abs % t) as TimeOffset,
                    point: p,
                }
            })
            .collect();
        self.consumed = hist.len();
        out
    }

    /// Marks every sample of `hist` consumed without yielding them —
    /// used after a full (non-incremental) rebuild already processed
    /// the whole history.
    pub fn catch_up(&mut self, hist: &impl History) {
        self.consumed = hist.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChunkParams, ChunkedHistory, Trajectory};

    fn seq(n: usize) -> Trajectory {
        Trajectory::from_points((0..n).map(|i| Point::new(i as f64, 0.0)).collect())
    }

    /// `traj` as a store holds it: pushed sample by sample into chunks.
    fn chunked(traj: &Trajectory, seal_len: usize, min_tail: usize) -> ChunkedHistory {
        let mut h = ChunkedHistory::new(traj.start(), ChunkParams { seal_len, min_tail });
        traj.points().iter().for_each(|&p| h.push(p));
        h
    }

    /// The placement both entry points document: sample `i` of a
    /// history starting at `s` lands in sub-trajectory `(s+i)/T − s/T`
    /// at offset `(s+i) mod T` — whole periods, partial tails, unaligned
    /// starts and empty histories alike, over raw and chunked storage.
    #[test]
    fn groups_and_cursor_place_samples_in_closed_form() {
        for (start, n) in [(0u64, 0usize), (0, 9), (0, 7), (2, 4), (2, 8), (7, 40)] {
            let traj = Trajectory::new(start, (0..n).map(|i| Point::new(i as f64, 1.0)).collect());
            let deltas: Vec<DeltaSample> = (0..n)
                .map(|i| {
                    let abs = start + i as Timestamp;
                    DeltaSample {
                        sub: (abs / 5 - start / 5) as usize,
                        offset: (abs % 5) as TimeOffset,
                        point: traj.points()[i],
                    }
                })
                .collect();
            let mut expected = vec![Vec::new(); 5];
            for d in &deltas {
                expected[d.offset as usize].push((d.sub, d.point));
            }
            let subs = deltas.last().map_or(0, |d| d.sub + 1);
            let compressed = chunked(&traj, 4, 2);
            let ctx = format!("start {start}, {n} samples");
            for groups in [
                OffsetGroups::build(&traj, 5),
                OffsetGroups::build(&compressed, 5),
            ] {
                assert_eq!(groups.sub_count(), subs, "{ctx}");
                for t in 0..5 {
                    assert_eq!(groups.group(t), expected[t as usize], "{ctx}, offset {t}");
                }
            }
            assert_eq!(DecomposeCursor::new(5).advance(&traj), deltas, "{ctx}");
            assert_eq!(
                DecomposeCursor::new(5).advance(&compressed),
                deltas,
                "{ctx}"
            );
        }
    }

    #[test]
    fn unaligned_start_begins_mid_period() {
        // Timestamps 2..6 with T = 3: sub-trajectory 0 is [2] at offset
        // 2, sub-trajectory 1 is [3, 4, 5] from offset 0.
        let t = Trajectory::new(2, (0..4).map(|i| Point::new(i as f64, 0.0)).collect());
        let g = OffsetGroups::build(&t, 3);
        assert_eq!(g.sub_count(), 2);
        assert_eq!(g.group(0), [(1, Point::new(1.0, 0.0))]);
        assert_eq!(g.group(1), [(1, Point::new(2.0, 0.0))]);
        assert_eq!(
            g.group(2),
            [(0, Point::new(0.0, 0.0)), (1, Point::new(3.0, 0.0))]
        );
    }

    #[test]
    fn groups_collect_same_offsets() {
        let t = seq(9);
        let g = OffsetGroups::build(&t, 3);
        assert_eq!(g.sub_count(), 3);
        assert_eq!(g.period(), 3);
        let g1 = g.group(1);
        assert_eq!(g1.len(), 3);
        assert_eq!(g1[0], (0, Point::new(1.0, 0.0)));
        assert_eq!(g1[1], (1, Point::new(4.0, 0.0)));
        assert_eq!(g1[2], (2, Point::new(7.0, 0.0)));
    }

    #[test]
    fn iter_skips_empty_groups() {
        let t = seq(2);
        let g = OffsetGroups::build(&t, 5);
        let offsets: Vec<_> = g.iter().map(|(t, _)| t).collect();
        assert_eq!(offsets, vec![0, 1]);
    }

    #[test]
    fn total_points_preserved() {
        let t = seq(17);
        let g = OffsetGroups::build(&t, 5);
        let total: usize = (0..5).map(|o| g.group(o).len()).sum();
        assert_eq!(total, 17);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        OffsetGroups::build(&seq(3), 0);
    }

    fn groups_eq(a: &OffsetGroups, b: &OffsetGroups) -> bool {
        a.period() == b.period()
            && a.sub_count() == b.sub_count()
            && (0..a.period()).all(|t| a.group(t) == b.group(t))
    }

    #[test]
    fn cursor_yields_each_sample_once_in_order() {
        let t = seq(7);
        let mut cur = DecomposeCursor::new(3);
        let first = cur.advance(&t);
        assert_eq!(first.len(), 7);
        assert_eq!(cur.consumed(), 7);
        assert_eq!(
            first[3],
            DeltaSample {
                sub: 1,
                offset: 0,
                point: Point::new(3.0, 0.0)
            }
        );
        // Nothing new: nothing yielded.
        assert!(cur.advance(&t).is_empty());
    }

    #[test]
    fn cursor_appends_complete_the_groups_of_a_prefix() {
        // Unaligned start and a partial tail, consumed in two chunks.
        let traj = Trajectory::new(2, (0..8).map(|i| Point::new(i as f64, 1.0)).collect());
        let prefix = Trajectory::new(2, traj.points()[..3].to_vec());
        let mut cur = DecomposeCursor::new(3);

        let mut incremental = OffsetGroups::build(&prefix, 3);
        cur.catch_up(&prefix);
        for s in cur.advance(&traj) {
            incremental.append(s.sub, s.offset, s.point);
        }
        let full = OffsetGroups::build(&traj, 3);
        assert!(groups_eq(&incremental, &full));
        assert_eq!(cur.consumed(), traj.len());
    }

    #[test]
    fn cursor_chunked_appends_equal_full_regroup() {
        let traj = seq(17);
        let mut cur = DecomposeCursor::new(5);
        let mut groups = OffsetGroups::build(&Trajectory::from_points(vec![]), 5);
        for chunk_end in [1usize, 4, 5, 11, 17] {
            let prefix = Trajectory::from_points(traj.points()[..chunk_end].to_vec());
            for s in cur.advance(&prefix) {
                groups.append(s.sub, s.offset, s.point);
            }
            assert!(groups_eq(&groups, &OffsetGroups::build(&prefix, 5)));
        }
    }

    #[test]
    fn cursor_advances_alike_over_raw_and_chunked_histories() {
        let traj = Trajectory::new(2, (0..23).map(|i| Point::new(i as f64, 0.5)).collect());
        let chunked = chunked(&traj, 8, 3);
        let mut a = DecomposeCursor::new(5);
        let mut b = DecomposeCursor::new(5);
        // Consume a prefix first, then the rest, comparing deltas.
        let prefix = Trajectory::new(2, traj.points()[..9].to_vec());
        assert_eq!(a.advance(&prefix), {
            b.consumed = 0;
            let d = b.advance(&chunked);
            d[..9].to_vec()
        });
        b.consumed = 9;
        assert_eq!(a.advance(&traj), b.advance(&chunked));
    }

    #[test]
    #[should_panic(expected = "shrank")]
    fn cursor_rejects_shrunk_trajectory() {
        let mut cur = DecomposeCursor::new(3);
        cur.advance(&seq(5));
        cur.advance(&seq(4));
    }
}
