#!/usr/bin/env bash
# Every property in the tree under a seed other than the one its name
# picks. `cargo test` runs each property on the 64 cases its own name
# seeds, the same ones every time; this runs PROPTEST_CASES others,
# seeded by PROPTEST_SEED (CI: the run id — 256 cases per push, 4096 in
# the nightly job). A failing case prints its test path, seed and case
# index (`CaseGuard` in vendor/proptest): report it with that seed, and
# reproduce it with PROPTEST_SEED=<seed> PROPTEST_CASES=<case + 1>.
#
# The targets are the files that invoke `proptest!`, found here so the
# next one is not skipped: an integration file runs as `--test <stem>`,
# a `src/` file as `-p <crate> --lib <module>::`.
set -euo pipefail
cd "$(dirname "$0")/.."
: "${PROPTEST_SEED:?set PROPTEST_SEED}" "${PROPTEST_CASES:?set PROPTEST_CASES}"
export PROPTEST_SEED PROPTEST_CASES

files=$(grep -rl 'proptest!' crates tests --include='*.rs' | sort)
tests=$(echo "$files" | grep -v '/src/' | sed -E 's|.*/([^/]+)\.rs$|--test \1|' | sort -u)
libs=$(echo "$files" | grep '/src/' \
  | sed -E 's|^crates/([^/]+)/src/(.*)\.rs$|-p legion-\1 --lib \2::|; s|/mod::$|::|; s|/|::|g' || true)
echo "PROPTEST_SEED=$PROPTEST_SEED PROPTEST_CASES=$PROPTEST_CASES"
echo "integration targets:" $tests
echo "$libs" | sed 's/^/lib target: /'
cargo test --workspace -q $tests
echo "$libs" | while read -r lib; do
  [ -z "$lib" ] || cargo test -q $lib
done
