//! The commuter store the objectstore suites share: one store config,
//! one commuter day.

#![allow(dead_code)] // each suite uses the slice it needs

use hpm_core::HpmConfig;
use hpm_geo::Point;
use hpm_objectstore::{IndexConfig, StoreConfig};
use hpm_patterns::{DiscoveryParams, MiningParams};

/// Sub-trajectory period (tiny, so objects train within a few dozen
/// samples).
pub const PERIOD: u32 = 4;

/// Small thresholds and fast training: DBSCAN eps 2 / MinPts 3, rules
/// of up to two premise regions over three offsets, `k` 2, RMF
/// retrospect 2; trained from 3 periods, retrained every period, on one
/// shard and a 2-thread pool. A suite overrides the fields it varies.
pub fn config() -> StoreConfig {
    StoreConfig {
        discovery: DiscoveryParams {
            period: PERIOD,
            eps: 2.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 3,
        },
        hpm: HpmConfig {
            k: 2,
            distant_threshold: 3,
            time_relaxation: 1,
            match_margin: 5.0,
            rmf_retrospect: 2,
            ..HpmConfig::default()
        },
        min_train_subs: 3,
        retrain_every_subs: 1,
        recent_len: 2,
        shards: 1,
        threads: 2,
        index: IndexConfig::default(),
    }
}

/// One commuter day: home → road → work → pub (jittered by day).
pub fn day(d: usize) -> Vec<Point> {
    let j = (d % 3) as f64 * 0.2;
    vec![
        Point::new(j, 0.0),
        Point::new(50.0 + j, 0.0),
        Point::new(100.0 + j, 0.0),
        Point::new(100.0 + j, 50.0),
    ]
}
