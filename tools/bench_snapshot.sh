#!/usr/bin/env bash
# Perf-snapshot pipeline: run the vendored-criterion benches plus the E12
# steady-state allocation measurement and maintain BENCH_CORE.json.
#
#   tools/bench_snapshot.sh                 # full run, rewrite BENCH_CORE.json
#   tools/bench_snapshot.sh --quick         # capped samples (CI smoke)
#   tools/bench_snapshot.sh --quick --check # compare against the committed
#                                           # snapshot instead of rewriting it:
#                                           # fails on >5% allocs/message or
#                                           # >20% tracked-median regression
#
# The committed snapshot keeps its "pre" block (the measurement taken
# before the symbol-interned hot path landed) so the perf trajectory
# stays visible in-repo; pass --pre FILE to seed it when regenerating
# from scratch.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
check=0
pre=""
out=BENCH_CORE.json
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) mode=quick ;;
        --check) check=1 ;;
        --pre) pre="$2"; shift ;;
        --out) out="$2"; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

samples="${LEGION_BENCH_SAMPLES:-}"
if [[ "$mode" == quick && -z "$samples" ]]; then
    samples=10
fi

log="$(mktemp /tmp/legion-bench.XXXXXX.log)"
trap 'rm -f "$log"' EXIT

echo "bench_snapshot: running criterion benches (mode=$mode${samples:+, samples=$samples})" >&2
LEGION_BENCH_SAMPLES="$samples" cargo bench -p legion-bench -q 2>/dev/null \
    | grep '^bench ' > "$log" || {
        echo "bench_snapshot: no bench output captured" >&2
        exit 1
    }

echo "bench_snapshot: building snapshot runner" >&2
cargo build --release -q -p legion-bench --bin bench-snapshot

runner=target/release/bench-snapshot
if [[ "$check" == 1 ]]; then
    echo "bench_snapshot: checking against $out" >&2
    "$runner" check --against "$out" --criterion-log "$log" --mode "$mode"
else
    echo "bench_snapshot: writing $out" >&2
    if [[ -z "$pre" && -f "$out" ]]; then
        # Keep the committed snapshot's pre block across regenerations.
        pre="$(mktemp /tmp/legion-bench-pre.XXXXXX.json)"
        if ! python3 - "$out" "$pre" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
pre = snap.get("pre")
if pre is None:
    sys.exit(3)
json.dump(pre, open(sys.argv[2], "w"))
EOF
        then
            pre=""
        fi
    fi
    "$runner" emit --out "$out" --criterion-log "$log" --mode "$mode" ${pre:+--pre "$pre"}
fi
echo "bench_snapshot: ok" >&2
