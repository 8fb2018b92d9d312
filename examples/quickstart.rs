//! Quickstart: build a Hybrid Prediction Model over a movement history
//! and answer near- and distant-time predictive queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hybrid_prediction_model::core::{HpmConfig, HybridPredictor, PredictiveQuery};
use hybrid_prediction_model::geo::Point;
use hybrid_prediction_model::patterns::{DiscoveryParams, MiningParams};
use hybrid_prediction_model::trajectory::Trajectory;

fn main() {
    // A commuter sampled once per "hour" over an 8-offset day, 120
    // days: home, two road positions, the office for three offsets,
    // then a gym-or-bar split, then home again.
    let day_template = [
        Point::new(100.0, 100.0), // 0: home
        Point::new(400.0, 150.0), // 1: arterial road
        Point::new(700.0, 300.0), // 2: downtown ramp
        Point::new(900.0, 500.0), // 3: office
        Point::new(900.0, 500.0), // 4: office
        Point::new(900.0, 500.0), // 5: office
        Point::new(600.0, 800.0), // 6: gym (odd days: bar, see below)
        Point::new(100.0, 100.0), // 7: home
    ];
    let bar = Point::new(300.0, 900.0);
    let mut samples = Vec::new();
    for day in 0..120usize {
        for (offset, base) in day_template.iter().enumerate() {
            let mut p = *base;
            if offset == 6 && day % 2 == 1 {
                p = bar;
            }
            // A little GPS jitter.
            let jitter = ((day * 31 + offset * 7) % 13) as f64 - 6.0;
            samples.push(p + Point::new(jitter, -jitter));
        }
    }
    let history = Trajectory::from_points(samples);

    // Discover frequent regions and mine trajectory patterns.
    let predictor = HybridPredictor::build(
        &history,
        &DiscoveryParams {
            period: 8, // one "day"
            eps: 20.0, // DBSCAN neighbourhood
            min_pts: 4,
        },
        &MiningParams {
            min_support: 10,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 3,
            max_span: 7,
        },
        HpmConfig {
            k: 3,                 // return the top 3 candidate places
            distant_threshold: 4, // "distant" = more than half a day out
            time_relaxation: 1,
            match_margin: 20.0,
            ..HpmConfig::default()
        },
    );

    println!(
        "discovered {} frequent regions, mined {} trajectory patterns (TPT height {})",
        predictor.regions().len(),
        predictor.patterns().len(),
        predictor.packed_tpt().height(),
    );
    for p in predictor.patterns().iter().take(5) {
        println!("  e.g. {}", p.display(predictor.regions()));
    }

    // It is day 120, offset 1: the object just left home and is on the
    // arterial road.
    let recent = [Point::new(102.0, 98.0), Point::new(398.0, 152.0)];
    let now = 120 * 8 + 1;

    // Near-future query: where at offset 3 (in 2 hours)? FQP matches
    // the home→road premise and predicts the office.
    let near = predictor.predict(&PredictiveQuery {
        recent: &recent,
        current_time: now,
        query_time: now + 2,
    });
    println!(
        "\nnear query (+2h, at the office hours) via {:?}:",
        near.source
    );
    for (rank, a) in near.answers.iter().enumerate() {
        println!("  #{} {} (score {:.3})", rank + 1, a.location, a.score);
    }

    // Distant-time query: where at offset 6 (in 5 hours)? The recent
    // movements say little; BQP finds where the object usually is
    // around that time.
    let distant = predictor.predict(&PredictiveQuery {
        recent: &recent,
        current_time: now,
        query_time: now + 5,
    });
    println!(
        "distant query (+5h, the gym-or-bar hour) via {:?}:",
        distant.source
    );
    for (rank, a) in distant.answers.iter().enumerate() {
        println!("  #{} {} (score {:.3})", rank + 1, a.location, a.score);
    }

    // A query with movements the model has never seen: no pattern
    // matches and the Recursive Motion Function extrapolates instead.
    let strangers = [
        Point::new(50.0, 950.0),
        Point::new(60.0, 940.0),
        Point::new(70.0, 930.0),
        Point::new(80.0, 920.0),
    ];
    let fallback = predictor.predict(&PredictiveQuery {
        recent: &strangers,
        current_time: now,
        query_time: now + 2,
    });
    println!(
        "unseen route (+2h): {} via {:?}",
        fallback.best(),
        fallback.source
    );
}
