#!/usr/bin/env bash
# Planted-mutant gate: every bug we fixed stays fixed.
#
# Each `tools/mutants/NN-name.patch` plants one known bug. The script
# exports HEAD with `git archive` into `target/mutants/tree`, checks that
# Tier-1 (`cargo build --release && cargo test -q`) passes there, then,
# for each patch in turn, applies it, runs Tier-1 again and reverts it.
# A mutant is killed when that run fails; the script prints the mutant,
# the first failing test and the seconds taken. It fails when a mutant
# survives, when a patch no longer applies, and when a mutant does not
# build (it would test nothing). All runs share one CARGO_TARGET_DIR,
# `target/mutants/target`, so a mutant rebuilds only what its patch
# touches. A run's full output is kept in `target/mutants/NN-name.log`.
#
# Usage: tools/mutants.sh [tools/mutants/NN-name.patch ...]  (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
# A golden rewritten by the run itself would let every mutant survive.
unset UPDATE_GOLDENS

if [ $# -gt 0 ]; then patches=("$@"); else patches=(tools/mutants/*.patch); fi
for patch in "${patches[@]}"; do
    [ -f "$patch" ] || { echo "no such mutant: $patch" >&2; exit 2; }
done

# Extraction stamps every file with the time of extraction (`tar -m`), so
# cargo cannot take a file from another HEAD for one it has built.
rm -rf "$tree"
mkdir -p "$tree"
git archive HEAD | tar -x -m -C "$tree"

# Git must not find the repository around the tree: `git apply` would
# then take the patch's paths from the repository's root.
export GIT_CEILING_DIRECTORIES=$work

builds() {
    (cd "$tree" && cargo build --release -q && cargo test -q --no-run) >"$1" 2>&1
}

passes() {
    (cd "$tree" && cargo test -q) >>"$1" 2>&1
}

if ! { builds "$work/unmutated.log" && passes "$work/unmutated.log"; }; then
    echo "Tier-1 fails on HEAD without a mutant; see $work/unmutated.log" >&2
    exit 1
fi

failed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    log=$work/$name.log
    if ! git -C "$tree" apply "$root/$patch"; then
        echo "$name: DOES NOT APPLY" >&2
        failed=1
        continue
    fi
    start=$SECONDS
    if ! builds "$log"; then
        echo "$name: DOES NOT BUILD; see $log" >&2
        failed=1
    elif passes "$log"; then
        echo "$name: SURVIVED ($((SECONDS - start)) s)"
        failed=1
    else
        killer=$(sed -n 's/^---- \([^ ]*\) stdout ----$/\1/p' "$log" | head -n 1)
        echo "$name: killed by ${killer:-a failing test binary} ($((SECONDS - start)) s)"
    fi
    git -C "$tree" apply -R "$root/$patch"
done
exit $failed
