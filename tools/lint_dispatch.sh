#!/usr/bin/env bash
# Dispatch-boundary lint: endpoint code must route method calls through
# the shared typed invocation layer (legion-net::dispatch tables and
# serve, over legion-core::dispatch's argument codecs), never hand-roll
# method-name matching or raw argument pattern-slicing (rule 1), keep
# method names as symbols (rule 2), make its own calls through
# legion-net::dispatch::Calls (rule 3), never ask for a reply it will
# not read (rule 4), and park no closure (rule 5).
#
# Fails the build if `match method.as_str()`, `match msg.args()` or a
# hand-called `::from_args(msg.args())` appears outside the dispatch
# layer itself and protocol/codec modules (crates/*/src/protocol.rs),
# which are the one place hand-written decoding is allowed — it is the
# codec. An endpoint that decodes its own arguments has a method no
# MethodTable lists.
#
# Rule 4: an endpoint either wants the reply (Calls::call) or does not
# (ctx.notify); a raw `ctx.call(` is a reply requested and never read.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed_re='^crates/(core|net)/src/dispatch\.rs:|^crates/[^/]+/src/protocol\.rs:'

hits=$(grep -rnE 'match[[:space:]]+(method\.as_str\(\)|msg\.args\(\))|::from_args\(msg\.args\(\)\)' \
    crates/ --include='*.rs' | grep -vE "$allowed_re" || true)

if [[ -n "$hits" ]]; then
    echo "error: raw method/argument dispatch outside the shared invocation layer:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Register the method in the endpoint's MethodTable (legion-net::dispatch" >&2
    echo "TableBuilder) with a typed FromArgs codec instead." >&2
    exit 1
fi

# Method names on the hot path are interned symbols (legion-core::symbol),
# not owned strings: a `method: String` field/parameter or a String-keyed
# method map outside the symbol/interface layer reintroduces a per-message
# allocation. Allowed owners of rendered names: the symbol layer itself,
# the interface/IDL layer (published signatures), and cold-path
# diagnostics (error.rs uniform error variants, inherit.rs ambiguity
# reports) — those render once per failure, never per message. The
# profiler snapshot rows (obs/profile.rs) are also allowed: the live
# collector keys on (endpoint, Sym) and names are rendered once per
# snapshot, never per delivery.
sym_allowed_re='^crates/core/src/(symbol|interface|idl|error|inherit)\.rs:|^crates/obs/src/profile\.rs:'

sym_hits=$(grep -rnE 'method: String|method_name: String|methods: *BTreeMap<String' \
    crates/ --include='*.rs' | grep -vE "$sym_allowed_re" || true)

if [[ -n "$sym_hits" ]]; then
    echo "error: raw String method keys outside the symbol layer:" >&2
    echo "$sym_hits" >&2
    echo >&2
    echo "Thread method names as legion_core::symbol::Sym (intern once at the" >&2
    echo "boundary); render strings only when building snapshots or wire output." >&2
    exit 1
fi

# Outbound calls go through the invocation layer too: an endpoint that
# waits for replies holds one `legion_net::dispatch::Calls` and routes
# with `resume` / `tick`. A continuation store of its own, or a reply
# demultiplexed by hand, is the five-function kit re-assembled — the
# deadline rule would have a second copy. Only the one dispatch module,
# where `Calls` keeps the store, may name these.
calls_allowed_re='^crates/net/src/dispatch\.rs:'

calls_hits=$(grep -rnE 'Continuations<|insert_pending\(|sweep_expired\(|reply_id\(|take_reply_result\(' \
    crates/*/src --include='*.rs' | grep -vE "$calls_allowed_re" || true)

if [[ -n "$calls_hits" ]]; then
    echo "error: hand-assembled continuation handling outside the invocation layer:" >&2
    echo "$calls_hits" >&2
    echo >&2
    echo "Hold a legion_net::dispatch::Calls<Wait>, make the call with Calls::call," >&2
    echo "implement Caller, and give on_message to resume() and on_timer to tick()." >&2
    exit 1
fi
# A call is made one of two ways: `Calls::call` when the reply is wanted
# (it parks the continuation and owns the deadline), `ctx.notify` when it
# is not (no reply address, so no reply is ever sent). A raw `ctx.call(`
# in endpoint code asks for a reply and then drops it on the floor — two
# messages and a latency draw for nothing. The one owner of a raw call is
# `ClientResolver`, which keeps its own pending map because it is embedded
# in endpoints of several types. `-z` lets the pattern span the line break
# rustfmt puts into `ctx\n.call(` chains.
raw_allowed_re='^crates/naming/src/resolver\.rs$'

raw_hits=$(grep -rlPz 'ctx\s*\.call\(' \
    crates/runtime/src crates/naming/src crates/ha/src --include='*.rs' \
    | grep -vE "$raw_allowed_re" || true)

if [[ -n "$raw_hits" ]]; then
    echo "error: raw ctx.call( outside ClientResolver:" >&2
    for f in $raw_hits; do
        echo "$f" >&2
        grep -nE 'ctx\.call\(' "$f" | sed 's/^/  /' >&2 || true
    done
    echo >&2
    echo "Use Calls::call when the reply is read, ctx.notify when it is not." >&2
    exit 1
fi

# Rule 5: pending work is data. A parked call waits with a value of the
# endpoint's own `Caller::Wait` type — an enum of resumption points
# carrying what the next step needs — never a closure, which could not
# be encoded or inspected and costs an allocation per call. Any
# `dyn FnOnce` under crates/*/src is a continuation come back, whatever
# it is called. Method handlers are `dyn Fn`, registered once, and stay.
fnonce_hits=$(grep -rn 'dyn FnOnce' crates/*/src --include='*.rs' || true)

if [[ -n "$fnonce_hits" ]]; then
    echo "error: a boxed one-shot closure in endpoint code:" >&2
    echo "$fnonce_hits" >&2
    echo >&2
    echo "Park a variant of the endpoint's Caller::Wait enum with Calls::call and" >&2
    echo "handle it in the endpoint's one Caller::wake match." >&2
    exit 1
fi
echo "lint_dispatch: ok"
