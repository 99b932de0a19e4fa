#!/usr/bin/env bash
# Line census: non-test, non-blank, non-comment lines of every crate's
# src/, per crate and in total — the "fewer lines" measure of a
# simplification.
#
# A file counts up to its first `#[cfg(test)]` line; after that it is
# test code. A line counts unless it is blank or, with leading
# whitespace stripped, starts with `//` (so `///` and `//!` docs are
# comments too). Block comments and trailing comments are counted as
# code. Informational only: the exit status is 0 whatever the count.
#
# Usage: tools/census.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk 'FNR == 1 { skip = 0 }
         skip { next }
         /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; next }
         { line = $0; sub(/^[[:space:]]+/, "", line) }
         line == "" || line ~ /^\/\// { next }
         { n++ }
         END { print n + 0 }' "$@"
}

total=0
for dir in crates/*/; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    n=$(count "${files[@]}")
    printf '%-16s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
