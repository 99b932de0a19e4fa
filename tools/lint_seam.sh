#!/usr/bin/env bash
# Watcher-seam lint: the stepper (crates/net/src/sim.rs) orders and
# delivers events; everything that *watches* them — journal, flight
# recorder, span sink, profiler, SLO tracker — is written to in exactly
# one place, crates/net/src/watch.rs, which reads the event-kind table
# (`legion_journal::record::KINDS`) to decide who sees each event.
#
# Fails the build if a recording call on one of the watchers
# (`flight.record(`, `sink.record(`, `profile.record(`, `slo.record(`,
# `journal.note(`, directly or through the `journal()` accessor) appears
# under crates/net/src/ outside watch.rs. A hand-expanded fan-out at a
# new ingress site is how what a watcher sees drifts from the table —
# and how a label gets built for a sink that is off.
#
# Each file is scanned with whitespace removed, so a call rustfmt split
# across lines (`self.journal\n    .note(`) is still one match.
#
# Also fails if an enum with a `DeadLetter` variant is declared under
# crates/*/src anywhere but crates/journal/src/record.rs: `RecordKind`
# is the one enum that names a kernel event, for the journal, the flight
# recorder and the span stream alike, and a second one is a second
# vocabulary to translate between.
#
# Also fails if an experiment file (crates/sim/src/experiments/eNN_*.rs)
# names another experiment module (`eNN_…::`): what two experiments
# share lives outside them — the drained-system invariants, the digest
# fold and fault arming in crates/sim/src/judge.rs, the drivers in
# experiments/common.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

# outside <seam file> <calls regex> <dir>...: every other .rs file under
# the dirs that makes one of the calls, as "file: calls" lines.
outside() {
    local seam="$1" calls="$2" file found
    shift 2
    while IFS= read -r file; do
        [[ "$file" == "$seam" ]] && continue
        found=$(tr -d '[:space:]' <"$file" | grep -oE "$calls" | sort -u | tr '\n' ' ' || true)
        if [[ -n "$found" ]]; then
            echo "$file: $found"
        fi
    done < <(find "$@" -name '*.rs' | sort)
}

seam='crates/net/src/watch.rs'
calls='(flight|sink|profile|slo)\.record\(|journal(\(\))?\.note\('
hits=$(outside "$seam" "$calls" crates/net/src)
if [[ -n "$hits" ]]; then
    echo "error: a watcher is recorded into outside the watcher seam ($seam):" >&2
    echo "$hits" >&2
    echo >&2
    echo "Tell the Watcher about the event instead (ingress / lifecycle / hop_latency /" >&2
    echo "handler_start+handler_done / count); its fan-out table decides who sees it." >&2
    exit 1
fi

# One layer up, the same rule for the run harness: under crates/sim/src
# and crates/bench/src a kernel watcher is switched on, and a journal
# closed, only in crates/sim/src/harness.rs — an experiment takes a Watch
# and walks open → measure → close. (`enable_slo_online(` in E18 is the
# autoscaler's input, not an instrument, and is not matched.)
harness='crates/sim/src/harness.rs'
switches='enable_journal_record\(|enable_journal_verify\(|finish_journal\(|enable_tracing\(|enable_windows\(|enable_profiling\(|enable_slo\('
hits=$(outside "$harness" "$switches" crates/sim/src crates/bench/src)
if [[ -n "$hits" ]]; then
    echo "error: a kernel watcher is switched outside the run harness ($harness):" >&2
    echo "$hits" >&2
    echo >&2
    echo "Take a harness::Watch instead and call open / measure / close on its Session." >&2
    exit 1
fi
# enum_variant_outside <variant> <allowed file>: every enum under
# crates/*/src, outside the allowed file, that has the variant, as
# "file: enum header" lines. `//` comments are ignored.
enum_variant_outside() {
    local variant="$1" allowed="$2" file
    while IFS= read -r file; do
        [[ "$file" == "$allowed" ]] && continue
        awk -v file="$file" -v variant="$variant" '
            /^[[:space:]]*(pub(\([a-z]+\))? )?enum [A-Za-z0-9_]+/ {
                in_enum = 1; depth = 0; opened = 0; header = $0
            }
            in_enum {
                line = $0
                sub(/\/\/.*/, "", line)
                opens = gsub(/\{/, "", line)
                depth += opens - gsub(/\}/, "", line)
                if (opens) opened = 1
                if (line ~ "^[[:space:]]*" variant "([[:space:]]*[,=({]|[[:space:]]*$)") {
                    sub(/^[[:space:]]+/, "", header)
                    print file ": " header
                }
                if (opened && depth <= 0) in_enum = 0
            }' "$file"
    done < <(find crates/*/src -name '*.rs' | sort)
}

vocab='crates/journal/src/record.rs'
hits=$(enum_variant_outside DeadLetter "$vocab")
if [[ -n "$hits" ]]; then
    echo "error: an event-kind enum is declared outside $vocab:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Name kernel events by legion_journal::RecordKind, and add a spelling or" >&2
    echo "a watcher column to its table (KINDS) instead." >&2
    exit 1
fi

# One experiment never reaches into another: each eNN_*.rs names no
# `eNN_…::` path but its own.
hits=$(for file in crates/sim/src/experiments/e[0-9][0-9]_*.rs; do
    own=$(basename "$file" .rs)
    grep -nHoE 'e[0-9]{2}_[a-z0-9_]+::' "$file" | grep -v ":$own::\$" || true
done)
if [[ -n "$hits" ]]; then
    echo "error: an experiment names another experiment module:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Move what they share into crates/sim/src/judge.rs or experiments/common.rs." >&2
    exit 1
fi
echo "lint_seam: ok"
