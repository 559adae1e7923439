#!/usr/bin/env bash
# Non-test line count per crate: the non-blank lines of crates/*/src/**/*.rs
# outside `#[cfg(test)]` items (test modules, test-only functions and
# imports) and outside files marked `#![cfg(test)]`. Integration tests,
# benches and examples live outside src/ and are not counted. Item extents
# are found by brace counting with `//` comments stripped, which holds for
# this codebase's formatting.
#
# Usage:
#   scripts/loc.sh          per-crate counts of the working tree
#   scripts/loc.sh REV      counts at git revision REV, the working tree,
#                           and the difference — a change's net line delta
set -euo pipefail

cd "$(dirname "$0")/.."

# Counts the non-test, non-blank lines of the Rust source on stdin.
count_lines() {
    awk '
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*#!\[cfg\(test\)\]/ { test_file = 1; exit }
        !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            line = $0
            sub(/\/\/.*/, "", line)
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        { n++ }
        END { print test_file ? 0 : n + 0 }
    '
}

# Prints "<crate> <lines>" for every crate, reading files from the working
# tree (no argument) or from git revision $1.
crate_counts() {
    local rev="${1:-}" crate total file
    for crate in $(ls crates); do
        total=0
        if [[ -z "$rev" ]]; then
            while IFS= read -r file; do
                total=$((total + $(count_lines <"$file")))
            done < <(find "crates/$crate/src" -name '*.rs' 2>/dev/null | sort)
        else
            while IFS= read -r file; do
                total=$((total + $(git show "$rev:$file" | count_lines)))
            done < <(git ls-tree -r --name-only "$rev" -- "crates/$crate/src" | grep '\.rs$' || true)
        fi
        echo "$crate $total"
    done
}

if [[ $# -eq 0 ]]; then
    crate_counts | awk '{ printf "%-10s %6d\n", $1, $2; sum += $2 } END { printf "%-10s %6d\n", "total", sum }'
else
    git rev-parse --verify --quiet "$1^{commit}" >/dev/null || { echo "unknown revision: $1" >&2; exit 2; }
    join <(crate_counts "$1") <(crate_counts) | awk -v rev="$1" '
        BEGIN { printf "%-10s %8s %8s %6s\n", "crate", substr(rev, 1, 8), "tree", "delta" }
        { printf "%-10s %8d %8d %+6d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
        END { printf "%-10s %8d %8d %+6d\n", "total", a, b, b - a }
    '
fi
