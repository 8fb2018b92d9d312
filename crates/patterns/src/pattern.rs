//! The trajectory-pattern value type (Definition 1 of the paper).

use crate::{RegionId, RegionSet};
use hpm_trajectory::TimeOffset;
use std::fmt;

/// A trajectory pattern: a special association rule
/// `Rt₁ʲ¹ ∧ Rt₂ʲ² ∧ … ∧ Rtₘʲᵐ --c--> Rtₙʲⁿ` with the time constraint
/// `t₁ < t₂ < … < tₘ < tₙ`.
///
/// The paper's two pruning rules are *structural invariants* here:
/// premises are stored in strictly increasing time-offset order (region
/// ids are assigned in offset order, so ascending ids imply ascending
/// offsets) and the consequence is always a single region whose offset
/// exceeds every premise offset. [`TrajectoryPattern::validate`] checks
/// both against a [`RegionSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPattern {
    /// Premise regions in ascending time-offset order.
    pub premise: Vec<RegionId>,
    /// The single consequence region (Theorem 1).
    pub consequence: RegionId,
    /// Rule confidence `c = N(premise, consequence) / N(premise)`.
    pub confidence: f64,
    /// Number of sub-trajectories matching premise *and* consequence.
    pub support: u32,
}

impl TrajectoryPattern {
    /// Length of the premise (the `m` of Definition 1).
    #[inline]
    pub fn premise_len(&self) -> usize {
        self.premise.len()
    }

    /// Time offset `tₙ` of the consequence.
    #[inline]
    pub fn consequence_offset(&self, regions: &RegionSet) -> TimeOffset {
        regions.get(self.consequence).offset
    }

    /// Checks Definition 1's invariants against `regions`: non-empty
    /// premise, strictly increasing premise offsets, consequence offset
    /// strictly after the last premise offset, confidence in `(0, 1]`,
    /// and all ids valid.
    pub fn validate(&self, regions: &RegionSet) -> Result<(), String> {
        validate_rule(&self.premise, self.consequence, self.confidence, regions)
    }

    /// Human-readable rendering in the paper's notation, e.g.
    /// `R0^0 ∧ R1^0 --0.50--> R2^0`.
    pub fn display<'a>(&'a self, regions: &'a RegionSet) -> impl fmt::Display + 'a {
        PatternDisplay {
            pattern: self,
            regions,
        }
    }
}

/// [`TrajectoryPattern::validate`] over a rule's parts, shared with
/// [`PatternTable::validate`](crate::PatternTable::validate).
pub(crate) fn validate_rule(
    premise: &[RegionId],
    consequence: RegionId,
    confidence: f64,
    regions: &RegionSet,
) -> Result<(), String> {
    if premise.is_empty() {
        return Err("empty premise".into());
    }
    let in_range = |id: RegionId| id.index() < regions.len();
    if !premise.iter().all(|&id| in_range(id)) || !in_range(consequence) {
        return Err("region id out of range".into());
    }
    let mut prev: Option<TimeOffset> = None;
    for &id in premise {
        let t = regions.get(id).offset;
        if let Some(p) = prev {
            if t <= p {
                return Err(format!("premise offsets not strictly increasing at {t}"));
            }
        }
        prev = Some(t);
    }
    let tn = regions.get(consequence).offset;
    if tn <= prev.expect("non-empty premise") {
        return Err(format!("consequence offset {tn} not after premise"));
    }
    if !(confidence > 0.0 && confidence <= 1.0) {
        return Err(format!("confidence {confidence} outside (0, 1]"));
    }
    Ok(())
}

struct PatternDisplay<'a> {
    pattern: &'a TrajectoryPattern,
    regions: &'a RegionSet,
}

impl fmt::Display for PatternDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &id) in self.pattern.premise.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            let r = self.regions.get(id);
            write!(f, "R{}^{}", r.offset, r.local_index)?;
        }
        let c = self.regions.get(self.pattern.consequence);
        write!(
            f,
            " --{:.2}--> R{}^{}",
            self.pattern.confidence, c.offset, c.local_index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::test_region;

    fn fig3_regions() -> RegionSet {
        RegionSet::new(
            vec![
                test_region(0, 0, 0, 0.0, 0.0),
                test_region(1, 1, 0, 10.0, 0.0),
                test_region(2, 1, 1, 0.0, 10.0),
                test_region(3, 2, 0, 20.0, 0.0),
                test_region(4, 2, 1, 0.0, 20.0),
            ],
            3,
        )
    }

    fn p3() -> TrajectoryPattern {
        // Fig. 3's P2: R0^0 ∧ R1^0 --0.5--> R2^0.
        TrajectoryPattern {
            premise: vec![RegionId(0), RegionId(1)],
            consequence: RegionId(3),
            confidence: 0.5,
            support: 5,
        }
    }

    #[test]
    fn valid_pattern_passes() {
        let r = fig3_regions();
        assert_eq!(p3().validate(&r), Ok(()));
    }

    #[test]
    fn offsets_accessors() {
        let r = fig3_regions();
        let p = p3();
        assert_eq!(p.consequence_offset(&r), 2);
        assert_eq!(p.premise_len(), 2);
    }

    #[test]
    fn display_matches_paper_notation() {
        let r = fig3_regions();
        assert_eq!(p3().display(&r).to_string(), "R0^0 ∧ R1^0 --0.50--> R2^0");
    }

    #[test]
    fn empty_premise_rejected() {
        let r = fig3_regions();
        let p = TrajectoryPattern {
            premise: vec![],
            consequence: RegionId(3),
            confidence: 0.5,
            support: 1,
        };
        assert!(p.validate(&r).is_err());
    }

    #[test]
    fn non_increasing_offsets_rejected() {
        let r = fig3_regions();
        // R1^0 and R1^1 share offset 1.
        let p = TrajectoryPattern {
            premise: vec![RegionId(1), RegionId(2)],
            consequence: RegionId(3),
            confidence: 0.5,
            support: 1,
        };
        assert!(p.validate(&r).unwrap_err().contains("strictly increasing"));
    }

    #[test]
    fn consequence_must_follow_premise() {
        let r = fig3_regions();
        // Consequence at offset 1 with premise already at offset 1.
        let p = TrajectoryPattern {
            premise: vec![RegionId(0), RegionId(1)],
            consequence: RegionId(2),
            confidence: 0.5,
            support: 1,
        };
        assert!(p.validate(&r).unwrap_err().contains("not after premise"));
    }

    #[test]
    fn confidence_bounds_checked() {
        let r = fig3_regions();
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let mut p = p3();
            p.confidence = bad;
            assert!(p.validate(&r).is_err(), "confidence {bad} accepted");
        }
    }

    #[test]
    fn out_of_range_id_rejected() {
        let r = fig3_regions();
        let mut p = p3();
        p.consequence = RegionId(99);
        assert!(p.validate(&r).unwrap_err().contains("out of range"));
    }
}
