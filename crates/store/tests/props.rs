//! Property tests: encode/decode is a bijection on valid models, and
//! decode never panics on arbitrary bytes.

use hpm_check::prelude::*;
use hpm_geo::{BoundingBox, Point};
use hpm_patterns::{FrequentRegion, PatternTable, RegionId, RegionSet, TrajectoryPattern};
use hpm_store::wal::{scan_wal, FsyncPolicy, WalOptions, WalRecord, WalWriter};
use hpm_store::{decode_model, encode_model, DecodeError};

/// Random valid model: one region per offset over a random period,
/// random forward-chained patterns.
fn arb_model() -> Gen<(RegionSet, Vec<TrajectoryPattern>)> {
    tuple((
        int(2u32..20),
        vec(
            tuple((float(0.0..1e4), float(0.0..1e4), int(1u32..50))),
            0..40,
        ),
    ))
    .map(|(period, raw_patterns)| {
        let regions: Vec<FrequentRegion> = (0..period)
            .map(|t| {
                let c = Point::new(t as f64 * 11.0, t as f64);
                FrequentRegion {
                    id: RegionId(t),
                    offset: t,
                    local_index: 0,
                    centroid: c,
                    bbox: BoundingBox {
                        min: c - Point::new(1.0, 1.0),
                        max: c + Point::new(1.0, 1.0),
                    },
                    support: 3 + t,
                }
            })
            .collect();
        let set = RegionSet::new(regions, period);
        let patterns: Vec<TrajectoryPattern> = raw_patterns
            .into_iter()
            .map(|(a, conf_raw, support)| {
                let start = (a as u32) % (period - 1);
                let two = start + 2 < period && support % 2 == 0;
                let (premise, consequence) = if two {
                    (
                        vec![RegionId(start), RegionId(start + 1)],
                        RegionId(start + 2),
                    )
                } else {
                    (vec![RegionId(start)], RegionId(start + 1))
                };
                TrajectoryPattern {
                    premise,
                    consequence,
                    confidence: (conf_raw / 1e4).clamp(0.01, 1.0),
                    support,
                }
            })
            .collect();
        (set, patterns)
    })
}

props! {
    /// decode(encode(m)) == m, and the flat table the codec works on
    /// holds exactly the rule list it was built from.
    fn roundtrip(model in arb_model()) {
        let (regions, patterns) = model;
        let table = PatternTable::from(patterns.as_slice());
        require_eq!(table.to_vec(), patterns);
        let blob = encode_model(&regions, &table);
        let model = decode_model(&blob).unwrap();
        require_eq!(model.regions.period(), regions.period());
        require_eq!(model.regions.all(), regions.all());
        require_eq!(model.patterns, patterns);
    }

    /// Encoding is deterministic.
    fn deterministic(model in arb_model()) {
        let (regions, patterns) = model;
        require_eq!(
            encode_model(&regions, &patterns.as_slice().into()),
            encode_model(&regions, &patterns.into())
        );
    }

    /// Decoding arbitrary bytes never panics — it errors cleanly.
    fn decode_total_on_garbage(bytes in vec(int(0u8..=255), 0..600)) {
        // Any result is fine; the property is "no panic, no hang".
        let _ = decode_model(&bytes);
    }

    /// Flipping any single byte of a valid blob is detected.
    fn corruption_detected(model in arb_model(), idx in index(), mask in int(1u8..=255)) {
        let (regions, patterns) = model;
        let blob = encode_model(&regions, &patterns.into());
        let i = idx.index(blob.len());
        let mut bad = blob.clone();
        bad[i] ^= mask;
        require!(bad != blob);
        require!(decode_model(&bad).is_err(), "corruption at byte {i} undetected");
    }

    /// End-to-end: a model mined from a *generated trajectory* (the
    /// full datagen → discover → mine pipeline, varying generator seed
    /// and training length) survives encode/decode exactly.
    fn mined_model_roundtrips_over_generated_trajectories(
        seed in int(0u64..1_000),
        subs in int(6usize..14),
    ) {
        use hpm_datagen::{Archetype, GeneratorConfig, PeriodicGenerator};
        use hpm_patterns::{discover, mine, DiscoveryParams, MiningParams};

        let config = GeneratorConfig {
            period: 40,
            num_subs: subs,
            similarity_prob: 0.9,
            point_noise: 2.0,
            route_noise: 3.0,
            extent: 1_000.0,
            seed,
        };
        let archetypes = vec![
            Archetype::new(vec![Point::new(0.0, 100.0), Point::new(900.0, 100.0)], 2.0),
            Archetype::new(vec![Point::new(0.0, 100.0), Point::new(900.0, 800.0)], 1.0),
        ];
        let traj = PeriodicGenerator::new(config, archetypes).generate();
        let out = discover(
            &traj,
            &DiscoveryParams { period: 40, eps: 12.0, min_pts: 3 },
        );
        let patterns = mine(
            &out.regions,
            &out.visits,
            &MiningParams {
                min_support: 2,
                min_confidence: 0.2,
                max_premise_len: 2,
                max_premise_gap: 4,
                max_span: 16,
            },
        );
        let blob = encode_model(&out.regions, &patterns);
        let model = decode_model(&blob).unwrap();
        require_eq!(model.regions.period(), out.regions.period());
        require_eq!(model.regions.all(), out.regions.all());
        require_eq!(model.patterns, patterns);
    }
}

/// The model frozen into `tests/fixtures/model_v1.bin`: two regions per
/// offset over a period of six, every one- and two-region premise that
/// chains adjacent offsets, confidences that do not round.
fn golden_model() -> (RegionSet, Vec<TrajectoryPattern>) {
    let regions: Vec<FrequentRegion> = (0..12u32)
        .map(|id| {
            let c = Point::new(f64::from(id / 2) * 37.5, f64::from(id % 2) * 81.25 - 3.0);
            FrequentRegion {
                id: RegionId(id),
                offset: id / 2,
                local_index: id % 2,
                centroid: c,
                bbox: BoundingBox {
                    min: c - Point::new(1.5, 0.75),
                    max: c + Point::new(2.25, 1.0),
                },
                support: 7 + id,
            }
        })
        .collect();
    let mut patterns = Vec::new();
    for a in 0..10u32 {
        for b in [2 * (a / 2 + 1), 2 * (a / 2 + 1) + 1] {
            let support = 3 + (a * 5 + b) % 11;
            patterns.push(TrajectoryPattern {
                premise: vec![RegionId(a)],
                consequence: RegionId(b),
                confidence: f64::from(support) / f64::from(support + 1 + a % 4),
                support,
            });
            if b + 2 < 12 {
                patterns.push(TrajectoryPattern {
                    premise: vec![RegionId(a), RegionId(b)],
                    consequence: RegionId(b + 2 - b % 2),
                    confidence: f64::from(support) / f64::from(2 * support + b),
                    support: support - 1,
                });
            }
        }
    }
    (RegionSet::new(regions, 6), patterns)
}

/// `encode_model` still writes, byte for byte, the blob the
/// `Vec<TrajectoryPattern>` encoder wrote for this model before the
/// pattern table existed — model files and snapshot model sections
/// cannot have moved.
#[test]
fn committed_model_fixture_is_reproduced_byte_for_byte() {
    let golden: &[u8] = include_bytes!("fixtures/model_v1.bin");
    let (regions, patterns) = golden_model();
    assert_eq!(encode_model(&regions, &patterns.as_slice().into()), golden);
    let model = decode_model(golden).expect("committed model fixture must decode");
    assert_eq!(model.regions.all(), regions.all());
    assert_eq!(model.patterns, patterns);
}

/// The fixture's rows are not in key order; decoded and assembled,
/// they give the predictor `golden_model()`'s rules give — the stored
/// order is a function of the rules, whatever order a file holds them
/// in.
#[test]
fn a_model_in_any_row_order_assembles_one_predictor() {
    use hpm_core::{HpmConfig, HybridPredictor};
    let model = decode_model(include_bytes!("fixtures/model_v1.bin")).unwrap();
    let (regions, patterns) = golden_model();
    let decoded =
        HybridPredictor::from_parts(model.regions, model.patterns.clone(), HpmConfig::default());
    let built = HybridPredictor::from_parts(regions, patterns, HpmConfig::default());
    assert_ne!(
        &model.patterns,
        decoded.patterns(),
        "the fixture is in key order"
    );
    assert_eq!(decoded.regions().all(), built.regions().all());
    assert_eq!(decoded.patterns(), built.patterns());
    assert_eq!(*decoded.packed_tpt(), *built.packed_tpt());
}

/// A record's fields as bits: `==` on `f64` would hide `-0.0` and
/// every NaN payload.
fn record_bits(r: &WalRecord) -> (u64, u64, u64, u64) {
    match *r {
        WalRecord::Report {
            object,
            timestamp,
            x,
            y,
        } => (object, timestamp, x.to_bits(), y.to_bits()),
        WalRecord::Remove { object } => (object, u64::MAX, 0, 0),
    }
}

fn assert_bit_identical(got: &[WalRecord], want: &[WalRecord]) {
    let bits = |records: &[WalRecord]| records.iter().map(record_bits).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want));
}

/// A WAL written before the run-framed format (`tests/fixtures/
/// wal_v1.bin`, one frame per record) is refused by version: the scan
/// stops at the header with `UnsupportedVersion(1)` and yields nothing,
/// so recovery can refuse the segment instead of misreading it.
#[test]
fn committed_v1_wal_fixture_is_refused() {
    let golden: &[u8] = include_bytes!("fixtures/wal_v1.bin");
    let scan = scan_wal(golden);
    assert!(scan.records.is_empty());
    assert_eq!(scan.valid_len, 0);
    assert_eq!(scan.torn, Some(DecodeError::UnsupportedVersion(1)));
}

/// The records frozen into `tests/fixtures/wal_v2.bin`, appended in
/// this order by a writer committing every four: object 7's five
/// reports are one run split across the first two frames, a remove
/// sits between runs, and the coordinates carry `-0.0`, a subnormal, a
/// sum that does not round and two NaN payloads through the XOR codec;
/// the last frame is a run ending at `u64::MAX` of object `u64::MAX` —
/// a timestamp no history holds since its end would overflow, so the
/// scanner now refuses that frame.
fn v2_fixture_records() -> Vec<WalRecord> {
    let report = |object, timestamp, x, y| WalRecord::Report {
        object,
        timestamp,
        x,
        y,
    };
    vec![
        report(7, 0, 1.5, -2.25),
        report(7, 1, -0.0, -2.25),
        report(7, 2, f64::MIN_POSITIVE / 2.0, 0.1 + 0.2),
        report(7, 3, 1e300, -0.0),
        report(7, 4, 1.5, f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
        WalRecord::Remove { object: 7 },
        report(300, 12_345, 2.0, 3.0),
        report(300, 12_346, 2.5, 3.0),
        report(
            u64::MAX,
            u64::MAX - 1,
            -1.0,
            f64::from_bits(0xFFF0_0000_0000_0001),
        ),
        report(u64::MAX, u64::MAX, -1.0, 0.0),
        WalRecord::Remove { object: u64::MAX },
    ]
}

/// `WalWriter` still writes, byte for byte, the segment it wrote when
/// the run-framed format was introduced, and `scan_wal` reads its first
/// two frames back bit-identically and refuses the third, whose run
/// reaches `u64::MAX`.
#[test]
fn committed_v2_wal_fixture_is_reproduced_byte_for_byte() {
    let golden: &[u8] = include_bytes!("fixtures/wal_v2.bin");
    let records = v2_fixture_records();
    let path = std::env::temp_dir().join(format!("hpm-wal-v2-fixture-{}", std::process::id()));
    let options = WalOptions {
        group_commit: 4,
        fsync: FsyncPolicy::Never,
    };
    let mut writer = WalWriter::create(&path, options).unwrap();
    for r in &records {
        writer.append(r).unwrap();
    }
    writer.flush().unwrap();
    drop(writer);
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(written, golden);

    let scan = scan_wal(golden);
    let past_max = DecodeError::Invalid("WAL run passes the last timestamp".into());
    assert_eq!(scan.torn, Some(past_max));
    assert_bit_identical(&scan.records, &records[..8]);
    let mut frames = scan.offsets.clone();
    frames.dedup();
    assert_eq!(frames.len(), 2, "one frame per commit");
    assert_eq!(scan.valid_len, frames[1]);
    assert_eq!(
        scan.offsets[3], scan.offsets[0],
        "the first four share a frame"
    );
    assert_ne!(scan.offsets[4], scan.offsets[3], "object 7's run is split");
}
