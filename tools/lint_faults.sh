#!/usr/bin/env bash
# Fault-accounting lint: adversarial delivery semantics (drop/duplicate/
# reorder/delay verdicts) and the kernel's delivery counters are owned by
# legion-net's fault layer. Everything else configures faults through the
# public API — `FaultPlan` setters and `SimKernel::faults_mut()` — and
# reads accounting through `stats()`/`counters()`, never by poking the
# raw fields or re-deciding verdicts.
#
# Fails the build if kernel-internal stats accounting (`inner.stats`,
# `.stats.sent`-style field access) or fault-verdict construction
# (`Verdict::Duplicate { .. }` etc.) appears outside
# crates/net/src/faults.rs and crates/net/src/sim.rs (plus legion-net's
# own integration tests, which exercise the fault plan directly).
#
# Also fails if the receiver-side dedup window (`DedupState`, or an
# `.admit(` call) is used under crates/*/src outside faults.rs, the kernel
# included: at-most-once delivery needs no window, since the kernel knows
# which event of a duplicated message is the network's copy and drops it
# there (`EventKind::Copy`). A window in the kernel could again reject
# first copies that arrive late.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed_re='^crates/net/src/(faults|sim)\.rs:|^crates/net/tests/'

hits=$(grep -rnE 'inner\.stats|\.stats\.(sent|delivered|lost|refused|dead_letters|events)|Verdict::(Deliver|DropSilently|Duplicate|Delay)' \
    crates/ --include='*.rs' | grep -vE "$allowed_re" || true)

if [[ -n "$hits" ]]; then
    echo "error: raw fault accounting outside legion-net's fault layer:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Configure faults via FaultPlan / SimKernel::faults_mut() and read" >&2
    echo "delivery accounting via SimKernel::stats()/counters() instead." >&2
    exit 1
fi

hits=$(grep -rnE 'DedupState|\.admit\(' crates/*/src --include='*.rs' |
    grep -vE '^crates/net/src/faults\.rs:' || true)

if [[ -n "$hits" ]]; then
    echo "error: the dedup window used outside crates/net/src/faults.rs:" >&2
    echo "$hits" >&2
    echo >&2
    echo "At-most-once delivery is the kernel's: send_one schedules a duplicated" >&2
    echo "message's copy as EventKind::Copy and step drops it (crates/net/src/sim.rs)." >&2
    exit 1
fi
echo "lint_faults: ok"
