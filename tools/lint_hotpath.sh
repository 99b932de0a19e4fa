#!/usr/bin/env bash
# Hot-path lint: the kernel's event ordering lives in exactly one
# place — the event queue's heap of keys (crates/net/src/equeue.rs) —
# and a message in flight in exactly one place, the kernel's message
# store (crates/net/src/sim.rs), entered through one funnel.
#
# Fails the build if:
#   * `BinaryHeap` appears outside equeue.rs. The queue is the kernel's
#     one heap; a heap anywhere else is a second scheduler, ordering
#     work the kernel's (time, seq) stamp never saw and bypassing the
#     `Inner::schedule` funnel below.
#   * `queue.push(` appears outside equeue.rs in more than the one
#     blessed call site: the kernel's single enqueue funnel in
#     crates/net/src/sim.rs (`Inner::schedule`), which stamps the
#     deterministic (time, seq) key. Any other direct push would bypass
#     the sequence stamping that the replay/journal layer depends on.
#   * `messages.park(` appears in more than one call site, or outside
#     crates/net/src/sim.rs: a message enters the kernel's message store
#     in exactly one place (`park_and_send`), which copies it in once per
#     send; everything after it, duplicates included, works on the
#     store's handle. A second park site is a second copy, or an entry
#     nothing is scheduled to take out again.
#   * `messages.release(` appears anywhere under crates/: the message
#     store has no drop-only exit. A message leaves it taken out — for
#     its handler, or discarded through `Inner::discard`, which hands its
#     body buffers back to the kernel pool. A message dropped where it
#     lies (a drop verdict, a suppressed copy, a dead letter) takes its
#     buffers to the allocator, and the next sends pay to replace them.
#   * `EventKind` (crates/net/src/sim.rs) holds a `Message` in any form.
#     A queued event carries its message's handle into the store: the
#     queue's slab moves every event in and out, and a message inline
#     would make it move the message with it, several times per hop.
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
#   * a decoder in crates/core/src/dispatch.rs or crates/*/src/protocol.rs
#     clones a `Bytes`, `Str` or `List` payload (`.clone()`, `.to_vec()`,
#     `.to_owned()`, `.to_string()` in the arm that matched it, or after
#     `as_str()` / `as_list()`). A served call's arguments are its own:
#     `FromArg::from_value` takes a payload out of its slot, and a copy is
#     one allocation per call that the pool never sees again.
#   * `read_raw` appears anywhere under crates/: storage lends a stored
#     file (`JurisdictionStorage::read`), and a shipping Magistrate
#     copies it into a buffer from the kernel pool.
#   * `::from_args(&` without `mut` appears under crates/ outside the
#     codec itself: a shared list is decoded from a copy of itself
#     (legion_core::dispatch::Args), which only a caller outside the
#     dispatch path should pay for.
#
# The `EventKind` rule, the decoder rule and the last two scan each file with `//`
# comments and whitespace removed (lint_seam.sh strips whitespace the
# same way), so a call rustfmt spread over ten lines is still one match
# and a comment is never one.
set -euo pipefail
cd "$(dirname "$0")/.."

equeue='crates/net/src/equeue.rs'

heap_hits=$(grep -rn 'BinaryHeap' crates/ --include='*.rs' \
    | grep -v "^$equeue:" || true)

if [[ -n "$heap_hits" ]]; then
    echo "error: BinaryHeap outside the kernel's event queue ($equeue):" >&2
    echo "$heap_hits" >&2
    echo >&2
    echo "A second heap is a second scheduler that bypasses the seq funnel." >&2
    echo "Schedule through the kernel (Inner::schedule) instead: its one heap" >&2
    echo "pops in the deterministic (time, seq) order replay depends on." >&2
    exit 1
fi

push_hits=$(grep -rn 'queue\.push(' crates/ --include='*.rs' \
    | grep -v "^$equeue:" || true)
push_count=$(printf '%s' "$push_hits" | grep -c . || true)

if [[ "$push_count" -ne 1 ]] || ! grep -q '^crates/net/src/sim\.rs:' <<<"$push_hits"; then
    echo "error: expected exactly one queue.push call site outside the queue" >&2
    echo "(the enqueue funnel in crates/net/src/sim.rs); found:" >&2
    echo "${push_hits:-<none>}" >&2
    echo >&2
    echo "Route all event scheduling through Inner::schedule so every event" >&2
    echo "gets its deterministic sequence stamp." >&2
    exit 1
fi

park_hits=$(grep -rn 'messages\.park(' crates/ --include='*.rs' || true)
park_count=$(printf '%s' "$park_hits" | grep -c . || true)

if [[ "$park_count" -ne 1 ]] || ! grep -q '^crates/net/src/sim\.rs:' <<<"$park_hits"; then
    echo "error: expected exactly one messages.park call site" >&2
    echo "(the store funnel in crates/net/src/sim.rs); found:" >&2
    echo "${park_hits:-<none>}" >&2
    echo >&2
    echo "Send through park_and_send, and hand the parked message on by its" >&2
    echo "handle: each send copies its message into the store once." >&2
    exit 1
fi

release_hits=$(grep -rn 'messages\.release(' crates/ --include='*.rs' || true)

if [[ -n "$release_hits" ]]; then
    echo "error: a message leaves the kernel's message store without its buffers:" >&2
    echo "$release_hits" >&2
    echo >&2
    echo "Discard it through Inner::discard (crates/net/src/sim.rs): it takes the" >&2
    echo "message out and recycles its body into the pool, as a served call does." >&2
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

kind_hits=$(stripped crates/net/src/sim.rs | grep -oE 'enumEventKind\{[^}]*\}' \
    | grep 'Message' || true)

if [[ -n "$kind_hits" ]]; then
    echo "error: EventKind holds a Message in crates/net/src/sim.rs:" >&2
    echo "$kind_hits" >&2
    echo >&2
    echo "Park the message in the kernel's MessageStore and queue its u32 handle:" >&2
    echo "the queue moves every event, and should not move the message with it." >&2
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
decoders=$(ls crates/core/src/dispatch.rs crates/*/src/protocol.rs)
clone_hits=$(for file in $decoders; do
        stripped "$file" \
            | grep -oE '.{0,40}((Bytes|Str|List)\([a-z_]+\)=>[^,;]*|as_(str|list)\(\)[^,;]*)(\.|::)(clone|to_vec|to_owned|to_string)\b.{0,20}' \
            | sed "s|^|$file: |"
    done || true)

if [[ -n "$clone_hits" ]]; then
    echo "error: a decoder copies a heap payload out of the call's arguments:" >&2
    echo "$clone_hits" >&2
    echo >&2
    echo "FromArg::from_value gets the served call's own value: take the payload" >&2
    echo "(std::mem::take) once its type has matched, never clone it." >&2
    exit 1
fi

raw_hits=$(grep -rn 'read_raw' crates/ --include='*.rs' || true)

if [[ -n "$raw_hits" ]]; then
    echo "error: read_raw is back:" >&2
    echo "$raw_hits" >&2
    echo >&2
    echo "Borrow the stored file with JurisdictionStorage::read and copy it into" >&2
    echo "a buffer from the kernel pool (Ctx::take_bytes)." >&2
    exit 1
fi

shared_hits=$(grep -rnP '::from_args\(&(?!mut\b)' crates/ --include='*.rs' \
    | grep -v '^crates/core/src/dispatch\.rs:' || true)

if [[ -n "$shared_hits" ]]; then
    echo "error: a decode handed a shared argument list:" >&2
    echo "$shared_hits" >&2
    echo >&2
    echo "Lend the list mutably (from_args(&mut args)): a shared one is copied" >&2
    echo "first, so the decode cannot take its payloads." >&2
    exit 1
fi

echo "lint_hotpath: ok"
