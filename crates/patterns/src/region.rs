//! Frequent regions `Rₜʲ` and the region table.

use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::{BoundingBox, MemUse, Point};
use hpm_trajectory::TimeOffset;
use std::ops::Range;

/// Dense id of a frequent region.
///
/// Ids are assigned in ascending `(time offset, cluster index)` order —
/// the paper sorts "all the frequent regions by the time offset" before
/// numbering them (§V.A), which is what gives premise keys Property 1
/// (higher bit position ⇒ closer to the consequence in time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense cluster of an offset group `Gₜ`: somewhere the object
/// frequently is at time offset `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequentRegion {
    /// Dense id (also this region's bit in premise keys).
    pub id: RegionId,
    /// Time offset `t` of `Rₜʲ`.
    pub offset: TimeOffset,
    /// `j`: index among the regions sharing offset `t`.
    pub local_index: u32,
    /// Mean of the member locations — what predictive queries return.
    pub centroid: Point,
    /// Tight bounding box of the member locations.
    pub bbox: BoundingBox,
    /// Number of sub-trajectories whose offset-`t` location fell in
    /// this cluster.
    pub support: u32,
}

/// All frequent regions of one discovery run, with offset lookup.
#[derive(Debug, Clone, Default)]
pub struct RegionSet {
    /// Id-ordered, hence offset-sorted.
    regions: Vec<FrequentRegion>,
    /// Offset `t`'s regions are `regions[offset_starts[t]..offset_starts[t + 1]]`
    /// (`period + 1` entries).
    offset_starts: Box<[u32]>,
}

impl MemUse for RegionSet {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_cap_bytes(&self.regions)
            + std::mem::size_of_val::<[u32]>(&self.offset_starts)
    }
}

impl RegionSet {
    /// Builds the set from regions already in id order.
    ///
    /// # Panics
    /// Panics if ids are not dense/ascending, offsets are not
    /// non-decreasing with id, or any offset `≥ period`.
    pub fn new(regions: Vec<FrequentRegion>, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        let mut offset_starts = Vec::with_capacity(period as usize + 1);
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.id.index(), i, "region ids must be dense and ascending");
            assert!(r.offset < period, "region offset out of period");
            let t = r.offset as usize;
            assert!(
                t + 1 >= offset_starts.len(),
                "regions must be offset-sorted"
            );
            // Offsets after the last one seen, up to this one, start here.
            offset_starts.resize(t + 1, i as u32);
        }
        offset_starts.resize(period as usize + 1, regions.len() as u32);
        RegionSet {
            regions,
            offset_starts: offset_starts.into_boxed_slice(),
        }
    }

    /// Number of frequent regions (the premise-key length `l_p`).
    #[inline]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when no regions were discovered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The period `T` used at discovery time.
    #[inline]
    pub fn period(&self) -> u32 {
        self.offset_starts.len().saturating_sub(1) as u32
    }

    /// The region with this id.
    #[inline]
    pub fn get(&self, id: RegionId) -> &FrequentRegion {
        &self.regions[id.index()]
    }

    /// The region with this id, to fold a member into.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: RegionId) -> &mut FrequentRegion {
        &mut self.regions[id.index()]
    }

    /// All regions in id order.
    #[inline]
    pub fn all(&self) -> &[FrequentRegion] {
        &self.regions
    }

    /// The regions at time offset `t`, in id order.
    #[inline]
    pub fn at_offset(&self, t: TimeOffset) -> &[FrequentRegion] {
        let ids = self.id_range(t..t + 1);
        &self.regions[ids.start as usize..ids.end as usize]
    }

    /// The ids of the regions at time offsets `offsets`: one run,
    /// since ids are offset-sorted.
    #[inline]
    pub fn id_range(&self, offsets: Range<TimeOffset>) -> Range<u32> {
        self.offset_starts[offsets.start as usize]..self.offset_starts[offsets.end as usize]
    }

    /// The region at offset `t` containing `p` (within `margin` of its
    /// bounding box); when several match, the one whose centroid is
    /// closest. This is how a query's recent movements are matched to
    /// premise regions (§V.C).
    pub fn region_at(&self, t: TimeOffset, p: &Point, margin: f64) -> Option<RegionId> {
        self.at_offset(t)
            .iter()
            .filter(|r| r.bbox.contains_within(p, margin))
            .min_by(|a, b| {
                let da = a.centroid.distance_sq(p);
                let db = b.centroid.distance_sq(p);
                da.partial_cmp(&db).expect("finite distances")
            })
            .map(|r| r.id)
    }
}

#[cfg(test)]
pub(crate) use tests::region as test_region;

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn region(id: u32, offset: TimeOffset, j: u32, cx: f64, cy: f64) -> FrequentRegion {
        let c = Point::new(cx, cy);
        let mut bbox = BoundingBox::from_point(c);
        bbox.expand(Point::new(cx + 2.0, cy + 2.0));
        bbox.expand(Point::new(cx - 2.0, cy - 2.0));
        FrequentRegion {
            id: RegionId(id),
            offset,
            local_index: j,
            centroid: c,
            bbox,
            support: 10,
        }
    }

    fn sample_set() -> RegionSet {
        // Fig. 3's five regions: R0^0, R1^0, R1^1, R2^0, R2^1.
        RegionSet::new(
            vec![
                region(0, 0, 0, 0.0, 0.0),
                region(1, 1, 0, 10.0, 0.0),
                region(2, 1, 1, 0.0, 10.0),
                region(3, 2, 0, 20.0, 0.0),
                region(4, 2, 1, 0.0, 20.0),
            ],
            3,
        )
    }

    #[test]
    fn lookup_by_offset() {
        let s = sample_set();
        let ids = |t| s.at_offset(t).iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(0), [RegionId(0)]);
        assert_eq!(ids(1), [RegionId(1), RegionId(2)]);
        assert_eq!(ids(2), [RegionId(3), RegionId(4)]);
        assert_eq!(s.id_range(1..3), 1..5);
        assert_eq!(s.id_range(0..3), 0..5);
        assert_eq!(s.id_range(2..2), 3..3);
        assert_eq!(s.len(), 5);
        assert_eq!(s.period(), 3);
    }

    #[test]
    fn region_at_picks_containing() {
        let s = sample_set();
        assert_eq!(
            s.region_at(1, &Point::new(10.5, 0.5), 0.0),
            Some(RegionId(1))
        );
        assert_eq!(s.region_at(1, &Point::new(50.0, 50.0), 0.0), None);
    }

    #[test]
    fn region_at_margin_extends_match() {
        let s = sample_set();
        let p = Point::new(13.0, 0.0); // 1.0 outside R1^0's bbox
        assert_eq!(s.region_at(1, &p, 0.5), None);
        assert_eq!(s.region_at(1, &p, 2.0), Some(RegionId(1)));
    }

    #[test]
    fn region_at_prefers_closest_centroid() {
        // Two overlapping regions at the same offset.
        let s = RegionSet::new(
            vec![region(0, 0, 0, 0.0, 0.0), region(1, 0, 1, 3.0, 0.0)],
            1,
        );
        let p = Point::new(2.4, 0.0); // inside both (margin 0, boxes ±2)
        assert_eq!(s.region_at(0, &p, 1.0), Some(RegionId(1)));
    }

    #[test]
    #[should_panic(expected = "dense and ascending")]
    fn non_dense_ids_panic() {
        RegionSet::new(vec![region(1, 0, 0, 0.0, 0.0)], 3);
    }

    #[test]
    #[should_panic(expected = "offset-sorted")]
    fn unsorted_offsets_panic() {
        RegionSet::new(
            vec![region(0, 2, 0, 0.0, 0.0), region(1, 1, 0, 0.0, 0.0)],
            3,
        );
    }
}
