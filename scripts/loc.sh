#!/usr/bin/env bash
# Source size under crates/*/src, per crate and in total — the two
# figures ROADMAP.md and the CHANGES.md deletion ledger quote:
#
#   file lines  every line of every .rs file (ROADMAP's "non-test
#               source under crates/" figure);
#   code-only   non-blank, non-comment lines above the file's first
#               column-0 `#[cfg(test)]` (the ledger's rule: no credit
#               for reformatting, comment deletion or test code).
#
# The whole-workspace run also prints the test-code total: every line
# of every .rs file under tests/ and crates/*/tests/.
#
# Usage: scripts/loc.sh [FILE.rs ...]   (no arguments: whole workspace)
#        scripts/loc.sh --check         (whole workspace; exit 1 when a
#                                        total is above its budget)
set -euo pipefail
cd "$(dirname "$0")/.."

# The totals this tree may not exceed: what the last change to them
# left. A change that needs the room raises them in the same diff and
# says why in CHANGES.md. A test deleted by scripts/mutants.sh's kill
# matrix stays deleted: test code may not grow back unnoticed either.
BUDGET_FILE_LINES=27765
BUDGET_CODE_ONLY=12948
BUDGET_TEST_LINES=10068

# Prints "<file lines> <code-only lines>" for the given files.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        { lines++ }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        END { print lines + 0, code + 0 }
    ' "$@"
}

if [ "$#" -gt 0 ] && [ "$1" != --check ]; then
    for f in "$@"; do
        printf '%-44s %8s %10s\n' "$f" $(count "$f")
    done
    exit 0
fi

tests="$(find tests crates/*/tests -name '*.rs' -exec cat {} + | wc -l)"
printf '%-16s %10s %10s\n' crate file-lines code-only
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    printf '%-16s %10s %10s\n' "$crate" $(count $(find "$dir" -name '*.rs'))
done | awk -v check="$([ "${1:-}" = --check ] && echo 1 || echo 0)" \
    -v max_lines="$BUDGET_FILE_LINES" -v max_code="$BUDGET_CODE_ONLY" \
    -v max_tests="$BUDGET_TEST_LINES" -v tests="$tests" '
    { print; lines += $2; code += $3 }
    END {
        printf "%-16s %10d %10d\n", "total", lines, code
        printf "%-16s %10d\n", "test code", tests
        if (check) {
            printf "%-16s %10d %10d\n", "budget", max_lines, max_code
            printf "%-16s %10d\n", "test budget", max_tests
            exit !(lines <= max_lines && code <= max_code && tests <= max_tests)
        }
    }'
