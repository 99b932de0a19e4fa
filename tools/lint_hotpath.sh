#!/usr/bin/env bash
# Hot-path scheduler lint: the kernel's event ordering lives in exactly
# one place — the hierarchical timer wheel (crates/net/src/equeue.rs).
#
# Fails the build if:
#   * `BinaryHeap` appears outside equeue.rs. The wheel replaced the
#     heap on the hot path; the only remaining heap is the reference
#     model inside equeue.rs's own property tests. A heap creeping back
#     in elsewhere silently reintroduces O(log n) comparisons (and
#     32-byte event moves) per scheduling operation.
#   * `queue.push(` appears outside equeue.rs in more than the one
#     blessed call site: the kernel's single enqueue funnel in
#     crates/net/src/sim.rs (`Inner::schedule`), which stamps the
#     deterministic (time, seq) key. Any other direct push would bypass
#     the sequence stamping that the replay/journal layer depends on.
#   * `ctx.count("…")` / `ctx.count_n("…", n)` with a string literal
#     appears in non-test code of the protocol handlers (crates/naming/src,
#     crates/runtime/src, crates/sim/src/workload.rs). A literal is
#     interned on every bump — a lock and a string hash per counter, on
#     paths that bump several per message; pass a `legion_core::symbol`
#     well-known constant instead.
#   * a non-empty `vec![…]` appears inside the argument list of a
#     `.call(` in non-test code of the endpoint crates (crates/runtime/src,
#     crates/naming/src, crates/ha/src) or the E8 churn driver. Every
#     delivered call hands its argument buffer back to the kernel pool;
#     `Ctx::args([…])` draws from it, `vec![…]` goes to the allocator once
#     per call instead.
#   * `Box<Message>` or `Vec<Message>` appears in non-test code of
#     crates/runtime/src/magistrate.rs. A request parked until a later
#     reply is its `ReplyTicket` (in a `Parked` when several may wait on
#     one key) — not a boxed copy of the call and its argument vector.
#
# The last two scan each file with `//` comments and whitespace removed
# (lint_seam.sh strips whitespace the same way), so a call rustfmt spread
# over ten lines is still one match and a comment is never one.
set -euo pipefail
cd "$(dirname "$0")/.."

wheel='crates/net/src/equeue.rs'

heap_hits=$(grep -rn 'BinaryHeap' crates/ --include='*.rs' \
    | grep -v "^$wheel:" || true)

if [[ -n "$heap_hits" ]]; then
    echo "error: BinaryHeap outside the timer wheel ($wheel):" >&2
    echo "$heap_hits" >&2
    echo >&2
    echo "Schedule through legion_net::equeue::EventQueue instead; it preserves" >&2
    echo "the deterministic (time, seq) pop order at amortized O(1)." >&2
    exit 1
fi

push_hits=$(grep -rn 'queue\.push(' crates/ --include='*.rs' \
    | grep -v "^$wheel:" || true)
push_count=$(printf '%s' "$push_hits" | grep -c . || true)

if [[ "$push_count" -ne 1 ]] || ! grep -q '^crates/net/src/sim\.rs:' <<<"$push_hits"; then
    echo "error: expected exactly one queue.push call site outside the wheel" >&2
    echo "(the enqueue funnel in crates/net/src/sim.rs); found:" >&2
    echo "${push_hits:-<none>}" >&2
    echo >&2
    echo "Route all event scheduling through Inner::schedule so every event" >&2
    echo "gets its deterministic sequence stamp." >&2
    exit 1
fi

# Counter names on the handler paths are pre-seeded symbols. Test
# modules (everything from a file's first `#[cfg(test)]` on) may use
# literals.
literal_hits=$(find crates/naming/src crates/runtime/src crates/sim/src/workload.rs -name '*.rs' -print0 \
    | sort -z \
    | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /\.count(_n)?\([[:space:]]*"/ { print FILENAME ":" FNR ": " $0 }
    ')

if [[ -n "$literal_hits" ]]; then
    echo "error: counter bumped by string literal on a handler path:" >&2
    echo "$literal_hits" >&2
    echo >&2
    echo "Append the name to well_known! in crates/core/src/symbol.rs and pass" >&2
    echo "the constant: Ctx::count takes impl Into<Sym>, and a Sym costs no lookup." >&2
    exit 1
fi

# Admission path: the per-endpoint admission queue is an O(1) integer
# ledger (admitted-until horizon + counters), not a buffer. Overload is
# shed at the door with a retry-after hint; nothing is ever queued in a
# growable collection, so a flash crowd cannot balloon memory. Any
# collection type appearing in admission.rs means someone reintroduced
# an unbounded queue on the overload path.
admission='crates/net/src/admission.rs'
queue_hits=$(grep -n 'Vec<\|VecDeque\|HashMap\|BTreeMap\|HashSet\|BTreeSet\|LinkedList' \
    "$admission" || true)

if [[ -n "$queue_hits" ]]; then
    echo "error: growable collection type on the admission path ($admission):" >&2
    echo "$queue_hits" >&2
    echo >&2
    echo "Admission control must stay an O(1) bounded ledger: shed with a" >&2
    echo "retry-after hint instead of buffering. Unbounded queues turn overload" >&2
    echo "into memory exhaustion." >&2
    exit 1
fi
# stripped <file>: the file's non-test code (everything before its first
# `#[cfg(test)]`) on one line, `//` comments and whitespace removed.
stripped() {
    awk '/#\[cfg\(test\)\]/ { exit } { sub(/\/\/.*/, ""); print }' "$1" | tr -d '[:space:]'
}

# Call arguments come from the kernel pool. For each `.call(` the awk
# below walks to the matching `)` and looks for a non-empty `vec![…]` in
# between (`vec![]` allocates nothing).
vec_hits=$(find crates/runtime/src crates/naming/src crates/ha/src \
        crates/sim/src/experiments/e08_stale_bindings.rs -name '*.rs' | sort \
    | while IFS= read -r file; do
        stripped "$file" | awk -v file="$file" '
            {
                text = $0
                while ((at = index(text, ".call(")) > 0) {
                    text = substr(text, at + 5)
                    depth = 0
                    for (end = 1; end <= length(text); end++) {
                        c = substr(text, end, 1)
                        if (c == "(") depth++
                        else if (c == ")" && --depth == 0) break
                    }
                    if (substr(text, 1, end) ~ /vec!\[[^\]]/)
                        print file ": .call" substr(text, 1, 72) "…"
                    text = substr(text, 2)
                }
            }'
    done)

if [[ -n "$vec_hits" ]]; then
    echo "error: vec![…] built for a call's arguments on an endpoint path:" >&2
    echo "$vec_hits" >&2
    echo >&2
    echo "Bind \`let args = ctx.args([…]);\` first: it reuses a buffer a served call" >&2
    echo "recycled instead of allocating one per call." >&2
    exit 1
fi

magistrate='crates/runtime/src/magistrate.rs'
parked_hits=$(stripped "$magistrate" | grep -oE '.{0,40}(Box|Vec)<Message,?>' || true)

if [[ -n "$parked_hits" ]]; then
    echo "error: a whole Message is parked in $magistrate:" >&2
    echo "$parked_hits" >&2
    echo >&2
    echo "Keep msg.reply_ticket() (in a dispatch::Parked where several requests can" >&2
    echo "wait on one key) and answer through Ctx::reply_ticket." >&2
    exit 1
fi
echo "lint_hotpath: ok"
