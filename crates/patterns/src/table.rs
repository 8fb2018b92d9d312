//! The flat pattern table: every rule of one model, stored once.

use crate::pattern::validate_rule;
use crate::{RegionId, RegionSet, TrajectoryPattern};
use hpm_geo::MemUse;

/// All trajectory patterns of one model in struct-of-arrays form: the
/// premises share one CSR id array and the consequence, confidence and
/// support columns run parallel to it, so a rule costs its ids plus 20
/// bytes and no allocation of its own. Row `i` is pattern id `i`; a
/// predictor stores its rows in [key order](Self::into_key_order), so
/// they are the TPT's leaf level.
///
/// The table is frozen once built (boxed slices: no capacity to carry
/// slack in). [`TrajectoryPattern`] stays the owned value for building
/// or inspecting one rule: a slice or `Vec` of them converts into a
/// table, and [`get`](Self::get) / [`iter`](Self::iter) convert back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternTable {
    /// Row `i`'s premise is `premise_ids[premise_ends[i - 1]..premise_ends[i]]`
    /// (from 0 for the first row).
    premise_ends: Box<[u32]>,
    premise_ids: Box<[RegionId]>,
    consequence: Box<[RegionId]>,
    confidence: Box<[f64]>,
    support: Box<[u32]>,
}

impl PatternTable {
    /// Builds the table from `rules` rows of `(premise, consequence,
    /// confidence, support)` holding `premise_ids` premise regions
    /// between them: counted before they are copied, so the columns are
    /// allocated at their size.
    pub(crate) fn from_rows<P: IntoIterator<Item = RegionId>>(
        rules: usize,
        premise_ids: usize,
        rows: impl IntoIterator<Item = (P, RegionId, f64, u32)>,
    ) -> Self {
        let mut ends = Vec::with_capacity(rules);
        let mut ids = Vec::with_capacity(premise_ids);
        let mut consequences = Vec::with_capacity(rules);
        let mut confidences = Vec::with_capacity(rules);
        let mut supports = Vec::with_capacity(rules);
        for (premise, consequence, confidence, support) in rows {
            ids.extend(premise);
            ends.push(u32::try_from(ids.len()).expect("premise ids fit a u32 offset"));
            consequences.push(consequence);
            confidences.push(confidence);
            supports.push(support);
        }
        PatternTable {
            premise_ends: ends.into(),
            premise_ids: ids.into(),
            consequence: consequences.into(),
            confidence: confidences.into(),
            support: supports.into(),
        }
    }

    /// Number of rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.consequence.len()
    }

    /// True when the table holds no rule.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.consequence.is_empty()
    }

    /// Premise regions of rule `i`, ascending in id (and so in time).
    #[inline]
    pub fn premise(&self, i: usize) -> &[RegionId] {
        let start = if i == 0 { 0 } else { self.premise_ends[i - 1] };
        &self.premise_ids[start as usize..self.premise_ends[i] as usize]
    }

    /// Consequence region of rule `i`.
    #[inline]
    pub fn consequence(&self, i: usize) -> RegionId {
        self.consequence[i]
    }

    /// Confidence of rule `i`.
    #[inline]
    pub fn confidence(&self, i: usize) -> f64 {
        self.confidence[i]
    }

    /// Support of rule `i`.
    #[inline]
    pub fn support(&self, i: usize) -> u32 {
        self.support[i]
    }

    /// The consequence column, by pattern id.
    #[inline]
    pub fn consequences(&self) -> &[RegionId] {
        &self.consequence
    }

    /// Rule `i` as an owned value.
    pub fn get(&self, i: usize) -> TrajectoryPattern {
        TrajectoryPattern {
            premise: self.premise(i).to_vec(),
            consequence: self.consequence[i],
            confidence: self.confidence[i],
            support: self.support[i],
        }
    }

    /// Every rule as an owned value, in pattern-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TrajectoryPattern> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The table as a list of owned rules.
    pub fn to_vec(&self) -> Vec<TrajectoryPattern> {
        self.iter().collect()
    }

    /// Longest premise in the table (0 when empty).
    pub fn max_premise_len(&self) -> usize {
        (0..self.len())
            .map(|i| self.premise(i).len())
            .max()
            .unwrap_or(0)
    }

    /// The table with its rows in key order, the TPT's bulk-load order
    /// (§V.B): by consequence offset, then premise ids compared from the
    /// last (the premise key read as a number), then consequence id.
    /// Rules equal in premise and consequence keep their order.
    ///
    /// # Panics
    /// Panics when a consequence id is not in `regions`.
    pub fn into_key_order(self, regions: &RegionSet) -> PatternTable {
        let premise = |i: usize| self.premise(i).iter().rev();
        // Offset and the last two premise ids (+ 1; 0 for none) place
        // most rows; the rest of the premise, consequence, row break ties.
        let lead = |i: usize| {
            let mut ids = premise(i).map(|r| u64::from(r.0) + 1);
            let (last, before) = (ids.next().unwrap_or(0), ids.next().unwrap_or(0));
            let offset = u64::from(regions.get(self.consequence[i]).offset);
            (offset << 33 | last, before, i)
        };
        let mut order: Vec<_> = (0..self.len()).map(lead).collect();
        order.sort_unstable();
        for run in order.chunk_by_mut(|a, b| a.0 == b.0 && a.1 == b.1) {
            run.sort_by(|&(.., a), &(.., b)| {
                (premise(a).skip(2).cmp(premise(b).skip(2)))
                    .then(self.consequence[a].cmp(&self.consequence[b]))
            });
        }
        let (cons, conf, sup) = (&self.consequence, &self.confidence, &self.support);
        let row = |&(.., i): &(u64, u64, usize)| {
            (self.premise(i).iter().copied(), cons[i], conf[i], sup[i])
        };
        PatternTable::from_rows(self.len(), self.premise_ids.len(), order.iter().map(row))
    }

    /// Whether `other` lists the same `(premise, consequence)` rules in
    /// the same order — confidences and supports may differ.
    pub fn same_rules(&self, other: &PatternTable) -> bool {
        self.premise_ends == other.premise_ends
            && self.premise_ids == other.premise_ids
            && self.consequence == other.consequence
    }

    /// Checks every rule against `regions` as
    /// [`TrajectoryPattern::validate`] does, naming the first rule that
    /// fails.
    pub fn validate(&self, regions: &RegionSet) -> Result<(), String> {
        (0..self.len()).try_for_each(|i| {
            validate_rule(
                self.premise(i),
                self.consequence[i],
                self.confidence[i],
                regions,
            )
            .map_err(|e| format!("pattern {i} invalid: {e}"))
        })
    }
}

impl MemUse for PatternTable {
    fn mem_bytes(&self) -> usize {
        use std::mem::size_of_val;
        std::mem::size_of::<Self>()
            + size_of_val(&*self.premise_ends)
            + size_of_val(&*self.premise_ids)
            + size_of_val(&*self.consequence)
            + size_of_val(&*self.confidence)
            + size_of_val(&*self.support)
    }
}

impl From<&[TrajectoryPattern]> for PatternTable {
    fn from(rules: &[TrajectoryPattern]) -> Self {
        PatternTable::from_rows(
            rules.len(),
            rules.iter().map(|r| r.premise.len()).sum(),
            rules.iter().map(|r| {
                (
                    r.premise.iter().copied(),
                    r.consequence,
                    r.confidence,
                    r.support,
                )
            }),
        )
    }
}

impl From<Vec<TrajectoryPattern>> for PatternTable {
    fn from(rules: Vec<TrajectoryPattern>) -> Self {
        rules.as_slice().into()
    }
}

impl PartialEq<[TrajectoryPattern]> for PatternTable {
    fn eq(&self, other: &[TrajectoryPattern]) -> bool {
        self.len() == other.len()
            && other.iter().enumerate().all(|(i, r)| {
                self.premise(i) == r.premise
                    && self.consequence[i] == r.consequence
                    && self.confidence[i] == r.confidence
                    && self.support[i] == r.support
            })
    }
}

impl PartialEq<Vec<TrajectoryPattern>> for PatternTable {
    fn eq(&self, other: &Vec<TrajectoryPattern>) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::test_region;

    fn rules() -> Vec<TrajectoryPattern> {
        let p =
            |premise: &[u32], consequence: u32, confidence: f64, support: u32| TrajectoryPattern {
                premise: premise.iter().map(|&i| RegionId(i)).collect(),
                consequence: RegionId(consequence),
                confidence,
                support,
            };
        vec![
            p(&[0], 1, 0.9, 9),
            p(&[0], 2, 0.8, 8),
            p(&[0, 1], 3, 0.5, 5),
            p(&[0, 2], 4, 0.4, 4),
        ]
    }

    #[test]
    fn vec_round_trip_is_lossless_and_exact_size() {
        let rules = rules();
        let table = PatternTable::from(rules.clone());
        assert_eq!(table, rules);
        assert_eq!(table.to_vec(), rules);
        assert_eq!(table.len(), 4);
        assert_eq!(table.premise(2), &[RegionId(0), RegionId(1)]);
        assert_eq!(table.consequences()[3], RegionId(4));
        assert_eq!(table.max_premise_len(), 2);
        // 4 rules x 20 B of columns + 6 premise ids x 4 B, no slack.
        assert_eq!(
            table.mem_bytes(),
            std::mem::size_of::<PatternTable>() + 4 * 20 + 6 * 4
        );
    }

    #[test]
    fn same_rules_ignores_confidence_and_support_only() {
        let base = PatternTable::from(rules());
        let mut other = rules();
        other[1].confidence = 0.1;
        other[1].support = 1;
        assert!(base.same_rules(&other.as_slice().into()));
        assert_ne!(base, other);
        other[1].consequence = RegionId(1);
        assert!(!base.same_rules(&other.into()));
        // Same flat id array, different premise boundaries.
        let mut split = rules();
        split[1].premise.push(RegionId(0));
        split[2].premise.remove(0);
        assert!(!base.same_rules(&split.into()));
    }

    #[test]
    fn validate_names_the_first_bad_rule() {
        let regions = RegionSet::new(
            vec![
                test_region(0, 0, 0, 0.0, 0.0),
                test_region(1, 1, 0, 10.0, 0.0),
                test_region(2, 1, 1, 0.0, 10.0),
                test_region(3, 2, 0, 20.0, 0.0),
                test_region(4, 2, 1, 0.0, 20.0),
            ],
            3,
        );
        assert_eq!(PatternTable::from(rules()).validate(&regions), Ok(()));
        assert_eq!(PatternTable::default().validate(&regions), Ok(()));
        let mut bad = rules();
        bad[2].premise = vec![RegionId(1), RegionId(2)]; // both at offset 1
        let err = PatternTable::from(bad).validate(&regions).unwrap_err();
        assert!(err.starts_with("pattern 2 invalid:"), "{err}");
    }
}
