#!/usr/bin/env bash
# Watcher-seam lint: the stepper (crates/net/src/sim.rs) orders and
# delivers events; everything that *watches* them — journal, flight
# recorder, span sink, profiler, SLO tracker — is written to in exactly
# one place, crates/net/src/watch.rs, which pairs the three event-kind
# vocabularies through one table.
#
# Fails the build if a recording call on one of the watchers
# (`flight.record(`, `sink.record(`, `profile.record(`, `slo.record(`,
# `journal.note(`, directly or through the `journal()` accessor) appears
# under crates/net/src/ outside watch.rs. A hand-expanded fan-out at a
# new ingress site is how the journal kind, the flight kind and the span
# kind drift apart — and how a label gets built for a sink that is off.
#
# Each file is scanned with whitespace removed, so a call rustfmt split
# across lines (`self.journal\n    .note(`) is still one match.
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
echo "lint_seam: ok"
