#!/usr/bin/env bash
# Mutation testing over a committed catalogue, in the manner of
# cargo-mutants (https://mutants.rs): every `mutants/NNN-<name>.patch`
# is one hand-written fault, a unified diff against this tree. Each is
# applied to a scratch copy, the workspace tests run, and the tests
# that fail are the mutant's killers. The matrix goes to
# `mutants/KILLS.tsv`, one row per mutant:
#
#   mutant    001-<name>, the patch's file name without `.patch`
#   kills     how many tests failed (1 for TIMEOUT, 0 for no kill)
#   killed_by the failing tests, `, `-separated, each as
#             `<source of its test binary>::<test path>` (a doc test as
#             cargo names it); or UNKILLED (every test passed),
#             NOT_APPLIED (the patch no longer applies) or NOT_COMPILED
#             (the mutated tree does not build) — the last two are not
#             mutants, the catalogue needs mending
#
# A test binary still running after BINARY_LIMIT seconds is killed
# (the slowest takes about 15 s unmutated) and the tests it reported
# as running for over 60 seconds are its killers; a binary that aborts
# with none is recorded as `<binary>::(aborted)`. A whole run past
# TIMEOUT is recorded as TIMEOUT. All three count as kills.
#
# Usage: scripts/mutants.sh [MUTANT ...]
#   no arguments  every mutant; KILLS.tsv is rewritten in full
#   MUTANT ...    only these (`012-name` or a path to the patch); their
#                 rows are replaced and every other row is kept
# Exit status: 0 when every mutant run is killed, 1 otherwise.
#
# Environment:
#   HPM_MUTANTS_DIR  scratch directory for the copy, its build and the
#                    per-mutant logs (default ${TMPDIR:-/tmp}/hpm-mutants)
#
# Cost: one debug build of the copy, then per mutant a rebuild of the
# mutated crate and its dependents plus one warm workspace test run
# (about 65 s on 2 CPUs) — the full matrix takes one to two hours,
# which is why scripts/verify.sh only checks that every patch applies.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$(pwd)"
WORK="${HPM_MUTANTS_DIR:-${TMPDIR:-/tmp}/hpm-mutants}"
TIMEOUT=1800
BINARY_LIMIT=150
TREE="$WORK/tree"
KILLS="$REPO/mutants/KILLS.tsv"
export CARGO_TARGET_DIR="$WORK/target"
# hpm-check seeds each property from its name, so with no HPM_CHECK_*
# override every run draws the same cases and a kill repeats.
for var in $(compgen -e | grep -E '^HPM_(CHECK_|FAILPOINT)' || true); do
    unset "$var"
done
TEST=(cargo test --workspace --offline --no-fail-fast)

patches=()
if [ "$#" -eq 0 ]; then
    patches=(mutants/*.patch)
else
    for arg in "$@"; do
        name="$(basename "$arg" .patch)"
        [ -f "mutants/$name.patch" ] || { echo "ERROR: no mutants/$name.patch" >&2; exit 1; }
        patches+=("mutants/$name.patch")
    done
fi

# The copy: tracked and untracked-unignored files of the working tree.
# `tar -m` stamps them now, so the first build never trusts artefacts
# of a mutant an interrupted run left behind.
rm -rf "$TREE"
mkdir -p "$TREE" "$WORK/logs"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -cf - -T - 2>/dev/null | tar -xmf - -C "$TREE"

# Prints the failing tests of a `cargo test --no-fail-fast` log, one a
# line. A unit-test binary names its crate (`hpm_store` is
# crates/store, `hpm` the CLI; other names are the root package) and
# the binaries after it belong to the same package.
failures() {
    awk '
        /^     Running / {
            path = ($2 == "unittests") ? $3 : $2
            bin = $NF; sub(/\)$/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
            if ($2 == "unittests" && path ~ /^src\/(lib|main)\.rs$/) {
                dir = (bin == "hpm") ? "crates/cli/" : (bin ~ /^hpm_/) ? "crates/" substr(bin, 5) "/" : ""
            }
            binary = dir path; failed = 0; slow = ""; next
        }
        /^   Doc-tests / { binary = ""; failed = 0; slow = ""; next }
        /^test .* \.\.\. FAILED$/ {
            name = $0; sub(/^test /, "", name); sub(/ \.\.\. FAILED$/, "", name)
            print (binary == "" ? name : binary "::" name); failed = 1; next
        }
        /^test .* has been running for over 60 seconds$/ {
            name = $0; sub(/^test /, "", name); sub(/ has been running .*/, "", name)
            slow = slow binary "::" name "\n"; next
        }
        /^error: test failed, to rerun pass/ && binary != "" {
            printf "%s", (slow != "" || failed ? slow : binary "::(aborted)\n")
        }
    ' "$1" | sort -u
}

# Runs the tests in the copy, SIGKILLing any test binary of this build
# that outlives BINARY_LIMIT: a mutant that makes a test spin must not
# stall the matrix, and --no-fail-fast goes on with the next binary.
# Age is counted in 5-second ticks of `sleep`, not read off the wall
# clock, which a suspended virtual machine sees jump.
run_tests() {
    (
        declare -A ticks=()
        while sleep 5; do
            declare -A seen=()
            for pid in $(ps -eo pid=,args= | awk -v dir="$CARGO_TARGET_DIR/debug/deps/" \
                'index($2, dir) == 1 { print $1 }'); do
                seen[$pid]=$((${ticks[$pid]:-0} + 1))
                [ "${seen[$pid]}" -le $((BINARY_LIMIT / 5)) ] || kill -9 "$pid" 2>/dev/null || true
            done
            ticks=()
            for pid in "${!seen[@]}"; do ticks[$pid]=${seen[$pid]}; done
            unset seen
        done
    ) &
    local watchdog=$! status=0
    (cd "$TREE" && timeout "$TIMEOUT" "${TEST[@]}") || status=$?
    kill "$watchdog"
    return "$status"
}

echo "==> baseline: ${TEST[*]} on the unmutated copy"
if ! run_tests > "$WORK/logs/baseline.log" 2>&1; then
    echo "ERROR: the unmutated tree fails its tests; see $WORK/logs/baseline.log" >&2
    failures "$WORK/logs/baseline.log" >&2
    exit 1
fi

rows="$WORK/rows.tsv"
: > "$rows"
for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    log="$WORK/logs/$name.log"
    start=$SECONDS
    if ! (cd "$TREE" && git apply "$REPO/$patch") 2> "$log"; then
        printf '%s\t0\tNOT_APPLIED\n' "$name" >> "$rows"
        echo "$name: NOT_APPLIED"
        continue
    fi
    status=0
    run_tests >> "$log" 2>&1 || status=$?
    (cd "$TREE" && git apply -R "$REPO/$patch")
    if [ "$status" -eq 124 ]; then
        killed_by=TIMEOUT
    elif grep -qE '^error(\[E[0-9]+\])?: (could not compile|aborting)' "$log"; then
        killed_by=NOT_COMPILED
    elif [ "$status" -eq 0 ]; then
        killed_by=UNKILLED
    else
        killed_by="$(failures "$log" | paste -sd, - | sed 's/,/, /g')"
        [ -n "$killed_by" ] || killed_by="FAILED (exit $status, no test named; see the log)"
    fi
    kills=0
    case "$killed_by" in
        UNKILLED | NOT_*) ;;
        TIMEOUT) kills=1 ;;
        *) kills=$(awk -F', ' '{ print NF }' <<< "$killed_by") ;;
    esac
    printf '%s\t%s\t%s\n' "$name" "$kills" "$killed_by" >> "$rows"
    echo "$name: $kills killer(s) in $((SECONDS - start)) s"
done

# Merge: the rows just run replace their old ones.
{
    printf 'mutant\tkills\tkilled_by\n'
    if [ "$#" -gt 0 ] && [ -f "$KILLS" ]; then
        tail -n +2 "$KILLS" | awk -F'\t' 'NR == FNR { fresh[$1] = 1; next } !($1 in fresh)' "$rows" -
    fi
    cat "$rows"
} > "$WORK/kills.tsv"
{ head -1 "$WORK/kills.tsv"; tail -n +2 "$WORK/kills.tsv" | sort; } > "$KILLS"
echo "==> wrote $KILLS"
! cut -f3 "$rows" | grep -qE '^(UNKILLED|NOT_APPLIED|NOT_COMPILED)$'
