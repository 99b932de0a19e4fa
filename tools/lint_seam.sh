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

seam='crates/net/src/watch.rs'
calls='(flight|sink|profile|slo)\.record\(|journal(\(\))?\.note\('

hits=''
while IFS= read -r file; do
    [[ "$file" == "$seam" ]] && continue
    found=$(tr -d '[:space:]' <"$file" | grep -oE "$calls" | sort -u | tr '\n' ' ' || true)
    if [[ -n "$found" ]]; then
        hits+="$file: $found"$'\n'
    fi
done < <(find crates/net/src -name '*.rs' | sort)

if [[ -n "$hits" ]]; then
    echo "error: a watcher is recorded into outside the watcher seam ($seam):" >&2
    printf '%s' "$hits" >&2
    echo >&2
    echo "Tell the Watcher about the event instead (ingress / lifecycle / hop_latency /" >&2
    echo "handler_start+handler_done / count); its fan-out table decides who sees it." >&2
    exit 1
fi
echo "lint_seam: ok"
