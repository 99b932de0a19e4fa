#!/usr/bin/env bash
# Line census: non-test, non-blank, non-comment lines of every crate's
# src/, per crate and in total — the "fewer lines" measure of a
# simplification.
#
# Test code is what only a test build compiles: the item after a
# `#[cfg(test)]` line (a `mod tests { … }`, a test-only helper inside an
# `impl`, a `use`), up to where its braces close or, for a braceless
# item, its `;`; and the whole file of a module declared
# `#[cfg(test)] mod name;`. Everything else counts. Braces are counted
# outside `//` comments and `'{'`/`'}'` literals only, so an unbalanced
# brace inside a string would end (or extend) an item early. A line
# counts unless it is blank or, with leading whitespace stripped, starts
# with `//` (so `///` and `//!` docs are comments too). Block comments
# and trailing comments are counted as code.
#
# The second column counts the same files the same way after dropping
# every `#[rustfmt::skip]` line and running each file through `rustfmt
# --edition 2021` on stdin (the tree is not touched): the census under
# rustfmt's default layout, which a table laid out one row to a line
# cannot shrink. Informational only: the exit status is 0 whatever the
# count.
#
# Usage: tools/census.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CFG_TEST='^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$'

count() {
    awk -v cfg="$CFG_TEST" '
         FNR == 1 { skip = 0 }
         skip {
             line = $0
             sub(/\/\/.*/, "", line)
             gsub(/'"'"'[{}]'"'"'/, "", line)
             opens = gsub(/\{/, "", line)
             depth += opens - gsub(/\}/, "", line)
             if (opens) opened = 1
             if (opened ? depth <= 0 : line ~ /;[[:space:]]*$/) skip = 0
             next
         }
         $0 ~ cfg { skip = 1; depth = 0; opened = 0; next }
         { line = $0; sub(/^[[:space:]]+/, "", line) }
         line == "" || line ~ /^\/\// { next }
         { n++ }
         END { print n + 0 }' "$@"
}

# `count` of the files "$@", each with no `#[rustfmt::skip]` line and as
# rustfmt lays it out; file by file, as `count` reads each file afresh.
count_formatted() {
    local f sum=0
    for f in "$@"; do
        sum=$((sum + $(sed '/^[[:space:]]*#\[rustfmt::skip\][[:space:]]*$/d' "$f" |
            rustfmt --edition 2021 | count)))
    done
    echo "$sum"
}

# The files of modules declared `#[cfg(test)] mod name;` in "$@".
test_module_files() {
    awk -v cfg="$CFG_TEST" '
         after && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
             decl = substr($0, RSTART, RLENGTH)
             sub(/;$/, "", decl)
             sub(/.* /, "", decl)
             print FILENAME, decl
         }
         { after = ($0 ~ cfg) }' "$@" |
        while read -r file name; do
            dir=$(dirname "$file")
            base=$(basename "$file" .rs)
            case $base in lib | main | mod) ;; *) dir="$dir/$base" ;; esac
            for f in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                if [ -f "$f" ]; then echo "$f"; fi
            done
        done
}

total=0
total_fmt=0
for dir in crates/*/; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    mapfile -t all < <(find "${dir}src" -name '*.rs' | sort)
    mapfile -t tests < <(test_module_files "${all[@]}")
    mapfile -t files < <(printf '%s\n' "${all[@]}" | grep -vxF -f <(printf '%s\n' "${tests[@]}" ""))
    n=$(count "${files[@]}")
    m=$(count_formatted "${files[@]}")
    printf '%-16s %6d %6d\n' "$name" "$n" "$m"
    total=$((total + n))
    total_fmt=$((total_fmt + m))
done
printf '%-16s %6d %6d\n' total "$total" "$total_fmt"
