//! Tuning knobs of the Hybrid Prediction Model.

use crate::WeightFunction;

/// Fanout of the Trajectory Pattern Tree every predictor's index is
/// bulk-loaded with (§VII.A).
pub const TPT_FANOUT: usize = 32;

/// Configuration of the hybrid predictor (§VI and §VII.A defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpmConfig {
    /// Number of ranked answers to return (`k`; paper default 1).
    pub k: usize,
    /// Distant-time threshold `d` (Definition 2): queries with
    /// `tq − tc >= d` go to Backward Query Processing. Paper: 60.
    pub distant_threshold: u32,
    /// Time relaxation length `tε` of BQP (§VI.C: best at 1 ≤ tε ≤ 3).
    pub time_relaxation: u32,
    /// Premise weight function (§VI.A: linear/quadratic perform best).
    pub weight_fn: WeightFunction,
    /// Margin around a frequent region's bounding box when matching a
    /// query's recent movements to regions (noisy samples near a region
    /// still count as "in" it). A good default is DBSCAN's `Eps`.
    pub match_margin: f64,
    /// Retrospect `f` of the RMF fallback.
    pub rmf_retrospect: usize,
}

impl Default for HpmConfig {
    /// §VII.A evaluation setting: `k = 1`, `d = 60`, `tε = 2`, linear
    /// weights, margin = `Eps` = 30, RMF retrospect 3.
    fn default() -> Self {
        HpmConfig {
            k: 1,
            distant_threshold: 60,
            time_relaxation: 2,
            weight_fn: WeightFunction::Linear,
            match_margin: 30.0,
            rmf_retrospect: 3,
        }
    }
}

impl HpmConfig {
    /// Checks parameter consistency.
    ///
    /// # Panics
    /// Panics on `k == 0`, `distant_threshold == 0`,
    /// `time_relaxation == 0`, non-finite/negative margin or zero RMF
    /// retrospect.
    pub fn validate(&self) {
        assert!(self.k >= 1, "k must be at least 1");
        assert!(
            self.distant_threshold >= 1,
            "distant_threshold must be >= 1"
        );
        assert!(self.time_relaxation >= 1, "time_relaxation must be >= 1");
        assert!(
            self.match_margin >= 0.0 && self.match_margin.is_finite(),
            "match_margin must be finite and non-negative"
        );
        assert!(self.rmf_retrospect >= 1, "rmf_retrospect must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = HpmConfig::default();
        assert_eq!(c.k, 1);
        assert_eq!(c.distant_threshold, 60);
        assert_eq!(c.time_relaxation, 2);
        assert_eq!(c.weight_fn, WeightFunction::Linear);
        assert_eq!(c.match_margin, 30.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        HpmConfig {
            k: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "time_relaxation")]
    fn zero_relaxation_rejected() {
        HpmConfig {
            time_relaxation: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "match_margin")]
    fn nan_margin_rejected() {
        HpmConfig {
            match_margin: f64::NAN,
            ..Default::default()
        }
        .validate();
    }
}
