//! Pattern keys (§V.A): the bitmap symbolization of trajectory
//! patterns.
//!
//! A pattern key has two parts. The **premise key** has one bit per
//! frequent region (region ids are assigned in time-offset order, the
//! hash `2^id` of the paper is exactly "set bit `id`"); the premise of
//! a pattern ORs the region keys of its premise regions. The
//! **consequence key** has one bit per *distinct consequence time
//! offset* across all discovered patterns; a pattern sets the bit of
//! its consequence's offset. The paper stores them concatenated
//! (consequence key first); here they are two fields of [`PatternKey`]
//! and `Intersect` applies to both parts.

use crate::Bitmap;
use hpm_geo::MemUse;
use hpm_patterns::{RegionId, RegionSet, TrajectoryPattern};
use hpm_trajectory::TimeOffset;
use std::fmt;

/// The symbolization of a trajectory pattern (or of a query). Keys
/// order as bulk loading sorts them (§V.B): by consequence part, then
/// premise part, each read as a number.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct PatternKey {
    /// One bit per distinct consequence time offset.
    pub consequence: Bitmap,
    /// One bit per frequent region.
    pub premise: Bitmap,
}

impl PatternKey {
    /// All-zero key for a table with the given part lengths.
    pub fn zeros(consequence_len: usize, premise_len: usize) -> Self {
        PatternKey {
            consequence: Bitmap::zeros(consequence_len),
            premise: Bitmap::zeros(premise_len),
        }
    }

    /// The paper's `Intersect`: common set bits on the consequence part
    /// **and** on the premise part.
    pub fn intersects(&self, other: &PatternKey) -> bool {
        self.consequence.intersects(&other.consequence) && self.premise.intersects(&other.premise)
    }
}

impl fmt::Debug for PatternKey {
    /// Concatenated rendering as in Table III: consequence key first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:?}", self.consequence, self.premise)
    }
}

/// The region-key and consequence-key tables (Tables I and II) of one
/// discovery run: everything needed to encode patterns and queries.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// Number of frequent regions (premise-key length `l_p`).
    region_count: usize,
    /// Sorted distinct time offsets appearing as pattern consequences;
    /// index = time id (consequence-key bit).
    consequence_offsets: Box<[TimeOffset]>,
}

impl MemUse for KeyTable {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.consequence_offsets)
    }
}

impl KeyTable {
    /// Builds the tables for a region set and the consequence regions
    /// of its mined patterns (one per pattern; repeats are expected).
    pub fn build(regions: &RegionSet, consequences: impl IntoIterator<Item = RegionId>) -> Self {
        // One bit per offset of the period: reads out sorted and
        // distinct, however many patterns share an offset.
        let mut seen = Bitmap::zeros(regions.period() as usize);
        for c in consequences {
            seen.set(regions.get(c).offset as usize);
        }
        KeyTable {
            region_count: regions.len(),
            consequence_offsets: seen.iter_ones().map(|t| t as TimeOffset).collect(),
        }
    }

    /// Premise-key length: the number of frequent regions.
    #[inline]
    pub fn region_count(&self) -> usize {
        self.region_count
    }

    /// Consequence-key length: distinct consequence time offsets.
    #[inline]
    pub fn consequence_count(&self) -> usize {
        self.consequence_offsets.len()
    }

    /// The sorted consequence offsets (Table II's first column).
    #[inline]
    pub fn consequence_offsets(&self) -> &[TimeOffset] {
        &self.consequence_offsets
    }

    /// Time id of `offset` when some pattern's consequence has it.
    pub fn time_id(&self, offset: TimeOffset) -> Option<usize> {
        self.consequence_offsets.binary_search(&offset).ok()
    }

    /// Encodes a mined pattern into its pattern key.
    ///
    /// # Panics
    /// Panics when the pattern's consequence offset is not in the table
    /// (i.e. the table was built from a different pattern set).
    pub fn encode_pattern(&self, pattern: &TrajectoryPattern, regions: &RegionSet) -> PatternKey {
        let t = pattern.consequence_offset(regions);
        let tid = self
            .time_id(t)
            .expect("pattern consequence offset missing from key table");
        let mut premise = Bitmap::default();
        self.premise_key_into(pattern.premise.iter().copied(), &mut premise);
        PatternKey {
            consequence: Bitmap::from_indices(self.consequence_count(), &[tid]),
            premise,
        }
    }

    /// ORs the region keys of the given regions into a premise key
    /// (§V.A: premise key = `OR` of `2^id`): resizes `out` to the
    /// premise length (recycling its storage) and sets the region bits
    /// — no allocation once `out` has capacity.
    pub fn premise_key_into(&self, regions: impl IntoIterator<Item = RegionId>, out: &mut Bitmap) {
        out.reset(self.region_count);
        for id in regions {
            out.set(id.index());
        }
    }

    /// Consequence key with bits for every listed offset that exists in
    /// the table, into a reusable bitmap (as
    /// [`premise_key_into`](KeyTable::premise_key_into)); offsets no
    /// pattern predicts are skipped (the query then simply cannot
    /// intersect on them).
    fn consequence_key_into(
        &self,
        offsets: impl IntoIterator<Item = TimeOffset>,
        out: &mut Bitmap,
    ) {
        out.reset(self.consequence_count());
        for t in offsets {
            if let Some(tid) = self.time_id(t) {
                out.set(tid);
            }
        }
    }

    /// FQP query key (§V.C): premise from the recently visited regions,
    /// consequence bit at exactly the query's time offset. Both parts
    /// of `out` are reset in place, so a steady-state query loop
    /// encodes without touching the heap.
    pub fn fqp_query_into(
        &self,
        recent_regions: impl IntoIterator<Item = RegionId>,
        query_offset: TimeOffset,
        out: &mut PatternKey,
    ) {
        self.consequence_key_into([query_offset], &mut out.consequence);
        self.premise_key_into(recent_regions, &mut out.premise);
    }
}

#[cfg(test)]
pub(crate) use tests::{fig3_patterns, fig3_regions, fqp_query};

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_geo::{BoundingBox, Point};
    use hpm_patterns::FrequentRegion;

    /// Fig. 3's five regions (Table I) and four patterns (Table III).
    pub(crate) fn fig3_regions() -> RegionSet {
        let mk = |id: u32, offset: TimeOffset, j: u32| FrequentRegion {
            id: RegionId(id),
            offset,
            local_index: j,
            centroid: Point::new(id as f64 * 10.0, 0.0),
            bbox: BoundingBox::from_point(Point::new(id as f64 * 10.0, 0.0)),
            support: 10,
        };
        RegionSet::new(
            vec![
                mk(0, 0, 0),
                mk(1, 1, 0),
                mk(2, 1, 1),
                mk(3, 2, 0),
                mk(4, 2, 1),
            ],
            3,
        )
    }

    pub(crate) fn fig3_patterns() -> Vec<TrajectoryPattern> {
        let p = |premise: &[u32], consequence: u32, confidence: f64| TrajectoryPattern {
            premise: premise.iter().map(|&i| RegionId(i)).collect(),
            consequence: RegionId(consequence),
            confidence,
            support: 5,
        };
        vec![
            p(&[0], 1, 0.9),    // P0: R0^0 -> R1^0
            p(&[0], 2, 0.8),    // P1: R0^0 -> R1^1
            p(&[0, 1], 3, 0.5), // P2: R0^0 ^ R1^0 -> R2^0
            p(&[0, 2], 4, 0.4), // P3: R0^0 ^ R1^1 -> R2^1
        ]
    }

    /// `t`'s FQP query key for the `recent` region ids at offset `tq`,
    /// encoded into fresh scratch.
    pub(crate) fn fqp_query(t: &KeyTable, recent: &[u32], tq: TimeOffset) -> PatternKey {
        let mut q = PatternKey::default();
        t.fqp_query_into(recent.iter().map(|&i| RegionId(i)), tq, &mut q);
        q
    }

    /// `t`'s consequence key over `offsets`, encoded into fresh scratch.
    fn consequence_key(t: &KeyTable, offsets: &[TimeOffset]) -> Bitmap {
        let mut ck = Bitmap::default();
        t.consequence_key_into(offsets.iter().copied(), &mut ck);
        ck
    }

    fn table() -> (RegionSet, Vec<TrajectoryPattern>, KeyTable) {
        let regions = fig3_regions();
        let patterns = fig3_patterns();
        let table = KeyTable::build(&regions, patterns.iter().map(|p| p.consequence));
        (regions, patterns, table)
    }

    #[test]
    fn table_i_region_keys() {
        // Region key of id i is bit i — the paper's hash 2^id.
        let (_, _, t) = table();
        assert_eq!(t.region_count(), 5);
        let mut rk = Bitmap::default();
        t.premise_key_into([RegionId(2)], &mut rk);
        assert_eq!(format!("{rk:?}"), "00100");
    }

    #[test]
    fn table_ii_consequence_keys() {
        let (_, _, t) = table();
        // Consequence offsets of Fig. 3's patterns: {1, 2}.
        assert_eq!(t.consequence_offsets(), &[1, 2]);
        assert_eq!(t.time_id(1), Some(0));
        assert_eq!(t.time_id(2), Some(1));
        assert_eq!(t.time_id(0), None);
        assert_eq!(format!("{:?}", consequence_key(&t, &[1])), "01");
        assert_eq!(format!("{:?}", consequence_key(&t, &[2])), "10");
    }

    #[test]
    fn table_iii_keys_of_fig3_patterns() {
        let (regions, patterns, t) = table();
        let keys: Vec<String> = patterns
            .iter()
            .map(|p| format!("{:?}", t.encode_pattern(p, &regions)))
            .collect();
        assert_eq!(keys, ["0100001", "0100001", "1000011", "1000101"]);
    }

    #[test]
    fn fqp_query_key_of_section_vi() {
        // §VI.B: recent movements R0^0, R1^0 and tq = 2 -> 1000011.
        let (_, _, t) = table();
        let q = fqp_query(&t, &[0, 1], 2);
        assert_eq!(format!("{q:?}"), "1000011");
    }

    #[test]
    fn key_operations_follow_paper() {
        let (regions, patterns, t) = table();
        let q = fqp_query(&t, &[0, 1], 2);
        let pk2 = t.encode_pattern(&patterns[2], &regions); // 1000011
        let pk3 = t.encode_pattern(&patterns[3], &regions); // 1000101
        let pk0 = t.encode_pattern(&patterns[0], &regions); // 0100001
        assert!(pk2.intersects(&q));
        assert!(pk3.intersects(&q)); // shares R0^0 and the tq=2 bit
        assert!(!pk0.intersects(&q)); // consequence offset 1 != 2
    }

    #[test]
    fn into_variants_reset_wrong_sized_scratch() {
        let (_, _, t) = table();
        // Start from deliberately wrong-sized, dirty scratch: reset
        // must fix the geometry and clear the old bits.
        let mut key = PatternKey::zeros(40, 3);
        key.premise.set(2);
        t.fqp_query_into([RegionId(0), RegionId(1)], 2, &mut key);
        assert_eq!(key, fqp_query(&t, &[0, 1], 2));
        let mut rk = Bitmap::from_indices(70, &[0, 69]);
        t.premise_key_into([RegionId(4)], &mut rk);
        assert_eq!(rk, Bitmap::from_indices(5, &[4]));
        let mut ck = Bitmap::zeros(9);
        t.consequence_key_into([1, 2, 7], &mut ck);
        assert_eq!(ck, Bitmap::from_indices(2, &[0, 1]));
    }

    #[test]
    fn unknown_offsets_skipped() {
        let (_, _, t) = table();
        assert!(consequence_key(&t, &[0, 7, 99]).is_zero());
    }

    #[test]
    #[should_panic(expected = "missing from key table")]
    fn encoding_foreign_pattern_panics() {
        let regions = fig3_regions();
        let table = KeyTable::build(&regions, [fig3_patterns()[0].consequence]); // offsets {1}
        let foreign = &fig3_patterns()[2]; // consequence offset 2
        table.encode_pattern(foreign, &regions);
    }

    #[test]
    fn zero_pattern_table() {
        let regions = fig3_regions();
        let t = KeyTable::build(&regions, []);
        assert_eq!(t.consequence_count(), 0);
        assert!(fqp_query(&t, &[0], 1).consequence.is_zero());
    }
}
