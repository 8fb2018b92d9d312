#!/usr/bin/env bash
# Tier-1 verification, run fully offline to prove the build is hermetic.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test -q --offline (tier-1: root package)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace (all crates)"
cargo test -q --offline --workspace

echo "==> bench smoke: every bench body once, every BENCH_*.json rendered and parsed"
# Bench targets are not test targets, so the workspace run above skips
# them; --benches runs each in smoke mode (seconds) and the five report
# benches hold their render to hpm_obs::json::parse.
cargo test -q --offline -p hpm-bench --benches

echo "==> sysbench: frozen API surface + end-to-end oracles (--smoke)"
# sysbench is a package of its own compiled against the public store,
# server and client API, so building it proves that surface intact;
# --smoke runs every workload at 1/50 size and judges only correctness:
# wire == in-process, index == scan, recovered == pre-drop.
SYSBENCH="--release --offline --manifest-path sysbench/Cargo.toml"
CARGO_TARGET_DIR=target/sysbench cargo test -q $SYSBENCH
CARGO_TARGET_DIR=target/sysbench cargo run --quiet $SYSBENCH -- --smoke

echo "==> concurrent histories + equivalence props, optimized (release)"
# Timing-sensitive paths (shard locking, pool fan-out) get exercised at
# full speed. HPM_STRESS_RUNS=N loops them; the acceptance bar of 100
# consecutive green runs is HPM_STRESS_RUNS=100 (see CONTRIBUTING.md).
STRESS_RUNS="${HPM_STRESS_RUNS:-1}"
for i in $(seq 1 "$STRESS_RUNS"); do
    [ "$STRESS_RUNS" -gt 1 ] && echo "  stress run $i/$STRESS_RUNS"
    cargo test -q --release --offline -p hpm-objectstore \
        --test retrain --test recovery --test failpoints
    # The op-trace model: every path to an answer (index, scans, pool
    # widths, reopen, crash, wire) against one naive reference store,
    # and concurrent histories on three targets checked per object for
    # linearizability against the same store. The first 64 of the 256
    # cases are the default run's.
    HPM_CHECK_CASES=256 cargo test -q --release --offline --test model
    cargo test -q --release --offline -p hpm-server \
        --test proto_props --test faults
    # The neighbour grid's cell arithmetic panics on overflow in the
    # debug pass above and wraps here: the layout's equivalence props
    # have to hold under both.
    cargo test -q --release --offline -p hpm-clustering --test props --test alloc
    # So does the support counting's and the rule derivation's index
    # arithmetic, held to the Definition-1 enumeration.
    cargo test -q --release --offline -p hpm-patterns --test props --test alloc
    cargo test -q --release --offline -p hpm-core --test train_props
    # Likewise the codecs: committed fixtures and the every-cut /
    # bit-flip fuzz, with length arithmetic that wraps instead of
    # panicking.
    cargo test -q --release --offline -p hpm-store --test props --test corruption
    # And the TPT packer: the parent-written image fixture and the
    # brute-force equivalence props, with index arithmetic unchecked.
    cargo test -q --release --offline -p hpm-tpt --test props
done

# The smokes below drive the `hpm` binary; the root build above does
# not build it.
cargo build --release --offline -p hpm-cli
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> calibration smoke (noisy-sensor: claimed mass vs empirical hit rate)"
# The fallback-dominated noisy-sensor scenario is where the residual
# ellipse is the only source of claimed mass; generation is seed-
# deterministic, so the gap is a fixed value (~0.03) well under the
# 0.1 tolerance. A miscalibrated ellipse (wrong sigma scaling, broken
# erf) trips the non-zero exit.
./target/release/hpm generate --dataset noisy-sensor --subs 40 --seed 42 \
    --output "$SMOKE_DIR/noisy.csv" >/dev/null
./target/release/hpm eval --input "$SMOKE_DIR/noisy.csv" --period 300 \
    --train-subs 30 --length 5 --queries 50 \
    --calibration true --tolerance 0.1 > "$SMOKE_DIR/calib.out"
grep -q '^CALIBRATION predicted_mass=' "$SMOKE_DIR/calib.out"

echo "==> crash-recovery smoke (HPM_FAILPOINT tears the WAL mid-write)"
# A twin ingests the same stream without crashing; a crashed ingest is
# torn at a byte offset that varies per stress run, resumed, and must
# answer byte-for-byte like the twin. Loops with HPM_STRESS_RUNS.
./target/release/hpm generate --dataset bike --subs 10 --seed 7 \
    --output "$SMOKE_DIR/crash.csv" >/dev/null
INGEST_FLAGS="--period 300 --eps 30 --min-pts 4 --fsync never"
PREDICT_AT="3050,3100,3299"
./target/release/hpm ingest --input "$SMOKE_DIR/crash.csv" \
    --data-dir "$SMOKE_DIR/twin" $INGEST_FLAGS --predict-at "$PREDICT_AT" \
    | grep -E '^(PREDICT|STATS)' > "$SMOKE_DIR/twin.out"
for i in $(seq 1 "$STRESS_RUNS"); do
    [ "$STRESS_RUNS" -gt 1 ] && echo "  crash run $i/$STRESS_RUNS"
    rm -rf "$SMOKE_DIR/crashed"
    tear=$((512 + (i * 971) % 65536))
    set +e
    HPM_FAILPOINT="wal.append=torn@$tear" ./target/release/hpm ingest \
        --input "$SMOKE_DIR/crash.csv" --data-dir "$SMOKE_DIR/crashed" \
        $INGEST_FLAGS >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 86 ]; then
        echo "ERROR: failpoint ingest should die with exit 86, got $rc" >&2
        exit 1
    fi
    ./target/release/hpm ingest --input "$SMOKE_DIR/crash.csv" \
        --data-dir "$SMOKE_DIR/crashed" $INGEST_FLAGS --predict-at "$PREDICT_AT" \
        | grep -E '^(PREDICT|STATS)' > "$SMOKE_DIR/crashed.out"
    # Recovery must be invisible in the answers.
    diff "$SMOKE_DIR/twin.out" "$SMOKE_DIR/crashed.out"
done

echo "==> server smoke (hpm serve over the recovered twin + hpm stats over loopback)"
# Serve the directory the crash-recovery twin ingested above: the
# STATS line pulled over the wire must equal the one the twin printed
# in process, so this proves recovery + wire, not just liveness.
./target/release/hpm serve --addr 127.0.0.1:0 --data-dir "$SMOKE_DIR/twin" \
    --shards 1 $INGEST_FLAGS > "$SMOKE_DIR/serve.out" &
SERVE_PID=$!
# serve prints `LISTENING HOST:PORT` once bound (after the store has
# reopened, which takes over a second); with port 0 the kernel picks,
# so parse the line instead of assuming.
for _ in $(seq 1 100); do
    grep -q '^LISTENING ' "$SMOKE_DIR/serve.out" 2>/dev/null && break
    sleep 0.1
done
ADDR="$(sed -n 's/^LISTENING //p' "$SMOKE_DIR/serve.out")"
if [ -z "$ADDR" ]; then
    echo "ERROR: hpm serve never printed LISTENING" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# `hpm stats` reads one object's stats (with approx resident bytes) and
# the fleet gauges the Metrics verb refreshes, then sends the Shutdown
# verb so `wait` below proves a clean shutdown.
./target/release/hpm stats --addr "$ADDR" --id 1 --shutdown true \
    > "$SMOKE_DIR/stats.out"
diff <(grep '^STATS' "$SMOKE_DIR/twin.out") <(grep '^STATS' "$SMOKE_DIR/stats.out")
grep -Eq '^MEM approx_bytes=[1-9]' "$SMOKE_DIR/stats.out"
grep -Eq '^MEM store_bytes=[1-9][0-9]* bytes_per_object=[1-9][0-9]* history_bytes=[1-9][0-9]* predictor_bytes=[1-9][0-9]* trainer_bytes=[1-9][0-9]* index_bytes=[0-9]+$' \
    "$SMOKE_DIR/stats.out"
wait "$SERVE_PID"
grep -q '^SHUTDOWN clean' "$SMOKE_DIR/serve.out"

echo "==> memory smoke (10k-object store bytes/object, trained predictor bytes/rule and trainer bytes/object, each under its committed budget)"
cargo bench --offline -q -p hpm-bench --bench memory -- --memsmoke \
    > "$SMOKE_DIR/memsmoke.out"
grep -q '^MEMSMOKE ok objects=' "$SMOKE_DIR/memsmoke.out"
grep -q '^MEMSMOKE ok trained_objects=.* trainer_budget=' "$SMOKE_DIR/memsmoke.out"

echo "==> §VII staleness: the fast experiments rewrite their committed TSVs byte for byte"
# Every TSV but the fig10 / fig11b timing columns is deterministic, so
# a committed table that a rerun changes is one EXPERIMENTS.md can no
# longer quote. These four ids take seconds; `experiments all` checks
# the rest the same way by hand.
for id in tables fig5 prune calibration; do
    cargo run --release --offline --quiet -p hpm-bench --bin experiments -- "$id" >/dev/null
done
if ! git diff --exit-code --stat -- experiments_output/table1-region-keys.tsv \
    experiments_output/table2-consequence-keys.tsv experiments_output/table3-pattern-keys.tsv \
    experiments_output/fig5-prediction-length.tsv experiments_output/prune-effect.tsv \
    experiments_output/calibration.tsv; then
    echo "ERROR: a rerun changed a committed §VII TSV: regenerate, restate EXPERIMENTS.md, commit both" >&2
    exit 1
fi

echo "==> safe code: every crate root but hpm-check forbids unsafe"
# hpm-check owns the one `unsafe` in the workspace (its counting
# allocator, crates/check/src/alloc.rs).
for root in src/lib.rs crates/cli/src/main.rs crates/*/src/lib.rs; do
    [ "$root" = crates/check/src/lib.rs ] && continue
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
        echo "ERROR: $root lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> one checksum: fn fnv1a is defined in wire.rs and hpm-check only"
# hpm-store depends on hpm-check, so hpm-check keeps its own copy (and
# the comment saying why); every other crate calls hpm_store::wire.
FNV_DEFS="$(grep -rl 'fn fnv1a' --include='*.rs' src crates sysbench | sort | xargs)"
if [ "$FNV_DEFS" != "crates/check/src/runner.rs crates/store/src/wire.rs" ]; then
    echo "ERROR: fn fnv1a defined in: $FNV_DEFS" >&2
    exit 1
fi

echo "==> one bench harness: no criterion look-alike, one report directory, no stray TSV directory"
# hpm-bench times through `Bench` / `best_of` and writes reports through
# `report::write_json` into HPM_BENCH_OUT; `Report` resolves
# experiments_output/ against the workspace root, so the test runs
# above must not have left one in the crate directory.
if grep -rniE 'criterion' crates/ || grep -rnoE 'HPM_[A-Z_]+_OUT' crates/ | grep -v 'HPM_BENCH_OUT$'; then
    echo "ERROR: a criterion identifier or a per-bench HPM_*_OUT variable is back under crates/" >&2
    exit 1
fi
if [ -e crates/bench/experiments_output ]; then
    echo "ERROR: cargo test left crates/bench/experiments_output behind" >&2
    exit 1
fi

echo "==> deleted for good: the pointer TPT, threaded mining, QR, the second directory sync, the level-wise miner, the per-record WAL encoder, the v1 WAL and snapshot readers, the batch dbscan / decompose twins, the per-operator client helpers, the hand-picked decoder caps, failure-seed persistence, span capture, the mutex job queue, the per-metric evaluation passes, the unseeded trainer, the stored offset groups and decomposition cursor, the public training stages, the fleet query's scan mode, the probabilistic-kNN scan twin, the mirrored wire encoders / decoders and their tag constants, the second-order Markov baseline, the uncalled durability probe, the TPT image's copy of every confidence, the sampler re-export shim, the stay-point / RDP toolbox with its CLI verbs, its example and the uncalled helpers, BQP's all-ones TPT search key with the bitmap and key helpers only it used, the TPT fanout setting, the image's leaf key words, the bitmap's inline storage, the Algorithm 1 key operations (Contain, Difference, and_count), the BruteForce index, the allocating key encoders and the search twins of the cursor, the cursor's second read of its matches, the image's leaf id arena and its fixture, the leaf words a predictor built its image from, the support counts' index table, the trainer's copy of each region (its cluster views and per-offset region starts), the raw hot tail of a compressed history with its 272-sample capacity clamp, the FxHash-style hasher, and the predictive index's per-object bucket entries, per-bucket member lists and sorted bucket ring"
# Each of these was a second way to do a job (ROADMAP "Quality of
# design"); a match means one has been reintroduced.
GONE='struct Tpt\b|TptConfig|fn compact|choose_subtree|trait PatternIndex|mine_with_threads|build_with_threads|lstsq_qr|fn fsync_dir|fn frequent_itemsets|fn count_level|fn generate_rules|discover_from_groups|type Transaction|MINE_LEVEL_ITEMSETS|fn encode_wal_record|MAX_WAL_PAYLOAD|decode_v1|V1_PAYLOAD_CAP|SNAPSHOT_VERSION_V1|HistorySnapshot::Raw|fn dbscan_naive|pub fn dbscan\(|pub fn decompose\(|struct SubTrajectory|Result<Vec<\(ObjectId, Point(, f64)?\)>, ClientError>|Result<Result<\(\), QueryError>, ClientError>|MAX_REGIONS|MAX_PATTERNS|MAX_PREMISE|MAX_SNAPSHOT_OBJECTS|MAX_SNAPSHOT_SAMPLES|MAX_SNAPSHOT_MODEL_BYTES|MAX_WORDS_PER_SAMPLE|HPM_CHECK_PERSIST|fn read_regression_seeds|fn persist_seed|pub fn capture|struct SpanNode|struct Injector|pub fn avg_error|pub fn error_stats\(|pub fn source_breakdown\(|pub fn pattern_hit_rate\(|pub fn hit_rate_at_k\(|fn calibration\(predictor|TrainerState::new|pub struct OffsetGroups|pub struct DeltaSample|pub struct DecomposeCursor|pub struct NewVisit|pub enum UpdateTier|pub fn stage_decompose|pub fn stage_cluster|pub fn stage_mine|fn cluster_delta|enum Source\b|predict_nearest_prob_scan|const REQ_|const RESP_|fn put_ingest_result|fn get_query_error|fn put_hits|fn get_prediction|SecondOrderMarkov|fn is_durable|fn patch_confidences|UpdateTier::Confidences|packed_image_v1|mod rand_ext|fn stay_points|struct StayPoint|simplify_rdp|point_segment_distance|cmd_staypoints|cmd_simplify|pub fn centroid|fn or_assign|fn from_last_two|fn row_mut|trajectory_analytics|fn bqp_query|fn extend_consequence_key|fn set_all|pub fn ones|pub fn clear\(&mut self\)|tpt_fanout:|packed_image_v2|FromIterator<\(PatternKey, u32\)>|input_pattern|search_packed\(&|INLINE_WORDS|enum WordStore|BruteForce|fn and_count|fn difference|fn contains\(&self, other: &(Bitmap|PatternKey)\)|impl Hash for Bitmap|impl MemUse for (Bitmap|PatternKey)|fn premise_key\(&self|fn consequence_key\(&self|pub fn consequence_key_into|fn fqp_query\(&self|fn search_with_stats|fn search_into|fn matches\(&self\)|packed_image_v3|fn build_image|fn search_impl|fn rehash|MIN_SLOTS|fn probe\(&self, parent|struct ClusterView|fn cluster_views|first_ids|fn tail\(&self\)|cap_target|FxBuildHasher|struct FxHasher|fn bucket_ring|fn bucket_members|struct Entry\b|struct Bucket\b|type BucketKey|fn bucket_key'
if grep -rnE "$GONE" crates/ src/ examples/ tests/; then
    echo "ERROR: a deleted item is back (see the deletion ledgers in CHANGES.md)" >&2
    exit 1
fi

echo "==> mutation catalogue: every mutants/*.patch still applies"
# scripts/mutants.sh runs the kill matrix (an hour or more, so not
# here); a refactor that moves mutated code shows up here at once as a
# stale mutant to re-cut.
for patch in mutants/*.patch; do
    if ! git apply --check "$patch"; then
        echo "ERROR: $patch no longer applies: re-cut it against the tree and rerun scripts/mutants.sh" >&2
        exit 1
    fi
done

echo "==> hermetic manifest scan"
if grep -En '^(proptest|rand|criterion|serde|bytes|crossbeam|parking_lot)' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: registry dependency declared in a manifest" >&2
    exit 1
fi

echo "==> source size: crates/*/src within the budgets committed in scripts/loc.sh"
scripts/loc.sh --check

echo "OK: offline build + tests green, no registry dependencies"
