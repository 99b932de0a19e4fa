//! The allocation ledger behind `BENCH_CORE.json`.
//!
//! Each row is one measured phase of an experiment — the E12 steady-state
//! wave (build a full Legion system, warm the caches with one client
//! wave, reset the kernel metrics, drive a fresh wave), the E17 Zipfian
//! campaign and the E18 flash crowd at the size `legion-exp --quick`
//! runs, and E8's migration churn the way E12 is measured — bracketed by
//! [`crate::alloc_counter`]. E12 and E18 each have a row recorded to an
//! in-memory journal with a snapshot every [`SNAP_EVERY`] events, as
//! `--journal-out` records: E12's gates the event loop's side of the
//! journal, but its whole journal fits in one 64 KiB block, so only
//! E18's (build, campaign and the session's close in one bracket) sees
//! the blocks a journal hands its sink. Messages, allocator
//! calls and allocated bytes are determined by the seed and the code, on
//! any machine and in any build profile, which is what makes them the
//! perf record a tier-1 test can hold: [`ledger`] measures the rows,
//! [`render`] writes the file, [`check`] compares the two. Wall-clock
//! numbers are the `benchmark/` package's business, not this one's.

use crate::alloc_counter;
use legion_journal::MemSink;
use legion_obs::slo::SloConfig;
use legion_sim::experiments::{e08_stale_bindings, e12_scalability, e17_scale, e18_overload};
use legion_sim::harness::{Journal, Watch, SNAP_EVERY};
use serde::Value;

/// The seed `legion-exp` uses; keeps the ledger comparable with the
/// committed experiment transcripts.
pub const LEDGER_SEED: u64 = 20260707;

/// The `schema` string of the file [`render`] writes.
const SCHEMA: &str = "legion-bench-core/v2";

/// One ledger row: what one measured phase cost the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Which measurement (`e12_steady`, `e17_scale`, …).
    pub name: String,
    /// The size it ran at; with `name`, the row's identity.
    pub config: String,
    /// Messages the kernel carried during the measured phase.
    pub messages: u64,
    /// Allocator calls during the measured phase.
    pub allocs: u64,
    /// Bytes requested from the allocator during the measured phase.
    pub alloc_bytes: u64,
}

impl Row {
    /// Allocator calls per message.
    pub fn allocs_per_message(&self) -> f64 {
        self.allocs as f64 / self.messages.max(1) as f64
    }

    /// Allocated bytes per message.
    pub fn bytes_per_message(&self) -> f64 {
        self.alloc_bytes as f64 / self.messages.max(1) as f64
    }

    /// `name (config)`, as error messages spell a row.
    fn label(&self) -> String {
        format!("{} ({})", self.name, self.config)
    }
}

/// A watch that only records the journal, into memory, with a snapshot
/// every `snap_every` events (0: never).
pub fn recording(snap_every: u64) -> Watch {
    let sink = Box::new(MemSink::new());
    Watch::journal_only(Journal::Record { sink, snap_every })
}

/// The E12 steady state at `jurisdictions` under `watch`: the measured
/// wave, bracketed by allocator counts, as the row `name`.
pub fn e12_steady(name: &str, jurisdictions: u32, seed: u64, watch: Watch) -> Row {
    let mut marks = Vec::with_capacity(2);
    let mark = || marks.push(alloc_counter::counts());
    let (row, run) = e12_scalability::steady_state(jurisdictions, seed, watch, mark);
    assert!(row.lookups > 0, "{name}: no lookup completed: {row:?}");
    let stats = run.expect("in-memory sink cannot fail").metrics.stats;
    let (a0, b0) = marks[0];
    let (a1, b1) = marks[1];
    Row {
        name: name.into(),
        config: format!("jurisdictions={jurisdictions}"),
        messages: stats.sent,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// The measured wave of the E17 campaign at its quick size (the
/// million-LOID point is the `bind_zipf_1m` workload's job).
fn e17_scale(seed: u64) -> Row {
    let row = e17_scale::quick_campaign(seed);
    assert_eq!(row.failed, 0, "E17 lookups failed under measurement");
    Row {
        name: "e17_scale".into(),
        config: format!(
            "loids={} agents={} clients={}",
            row.loids, row.agents, row.clients
        ),
        messages: row.messages,
        allocs: row.allocs,
        alloc_bytes: row.alloc_bytes,
    }
}

/// The auto-scaled E18 flash crowd at its quick size under `watch`, as
/// the row `name`, build and [`Session::close`](legion_sim::harness::Session::close)
/// included: the admission path, the service-timer defers, the retry
/// machinery and the policy loop all live inside this row — and, with a
/// journal, every block the session hands its sink.
fn e18_overload(name: &str, seed: u64, watch: Watch) -> Row {
    let (a0, b0) = alloc_counter::counts();
    let (row, run) = e18_overload::flash_campaign(true, seed, true, watch);
    let (a1, b1) = alloc_counter::counts();
    run.expect("in-memory sink cannot fail");
    assert!(
        row.violations.is_empty(),
        "E18 invariants violated under measurement: {:?}",
        row.violations
    );
    Row {
        name: name.into(),
        config: "flash crowd, quick, autoscaled".into(),
        messages: row.messages,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// E8's heaviest quick point (a move every 5 ms, notices on), the
/// measured wave after a warm one: the migration path — `Move`,
/// `SaveState`, OPR store, ship, `ReceiveOpr` — and the stale bindings it
/// leaves clients to refresh.
fn e08_churn(seed: u64) -> Row {
    let mut marks = Vec::with_capacity(2);
    let mark = || marks.push(alloc_counter::counts());
    let (row, messages) = e08_stale_bindings::steady_churn(seed, mark);
    assert!(
        row.moves > 0 && row.completed > 0,
        "E8: no move or no operation completed under measurement: {row:?}"
    );
    let (a0, b0) = marks[0];
    let (a1, b1) = marks[1];
    Row {
        name: "e08_churn".into(),
        config: "move every 5 ms, notices on, quick".into(),
        messages,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Measure every row of the ledger. Needs the counting allocator
/// registered in the calling binary, and nothing else allocating
/// meanwhile.
pub fn ledger(seed: u64) -> Vec<Row> {
    assert!(
        alloc_counter::is_counting(),
        "counting allocator not registered"
    );
    // 2 jurisdictions (8 hosts, 8 clients): the smallest system with real
    // remote traffic, and the point `legion-exp e12 --report-out` observes.
    let mut rows = vec![
        e12_steady("e12_steady", 2, seed, Watch::off()),
        // Profiler + SLO tracker on, as `--report-out` configures them.
        e12_steady(
            "e12_steady_instrumented",
            2,
            seed,
            Watch {
                instruments: Some(SloConfig::default()),
                ..Watch::off()
            },
        ),
        // Journal recording with snapshots, as `--journal-out` does.
        e12_steady("e12_steady_journaled", 2, seed, recording(SNAP_EVERY)),
    ];
    rows.extend([1, 2, 4].map(|j| e12_steady("e12_sweep", j, seed, Watch::off())));
    rows.push(e17_scale(seed));
    rows.push(e18_overload("e18_overload", seed, Watch::off()));
    // Journal recording with snapshots, as `--journal-out` does.
    rows.push(e18_overload(
        "e18_overload_journaled",
        seed,
        recording(SNAP_EVERY),
    ));
    rows.push(e08_churn(seed));
    rows
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// One row as the file holds it: the counts, and the two ratios they give.
fn row_value(r: &Row) -> Value {
    Value::Object(vec![
        ("row".into(), Value::Str(r.name.clone())),
        ("config".into(), Value::Str(r.config.clone())),
        ("messages".into(), Value::U64(r.messages)),
        ("allocs".into(), Value::U64(r.allocs)),
        ("alloc_bytes".into(), Value::U64(r.alloc_bytes)),
        (
            "allocs_per_message".into(),
            Value::F64(round2(r.allocs_per_message())),
        ),
        (
            "bytes_per_message".into(),
            Value::F64(round2(r.bytes_per_message())),
        ),
    ])
}

fn document(seed: u64, rows: &[Row]) -> Value {
    Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("seed".into(), Value::U64(seed)),
        (
            "rows".into(),
            Value::Array(rows.iter().map(row_value).collect()),
        ),
    ])
}

/// The text of `BENCH_CORE.json` for `rows` measured under `seed`.
pub fn render(seed: u64, rows: &[Row]) -> String {
    serde::json::to_string_pretty(&document(seed, rows)) + "\n"
}

/// `v`'s `key`, read by a `Value` accessor (`as_u64`, `as_str`,
/// `as_array`): a missing key, or a value of another shape, is an error
/// that names `what` and `key`.
fn field<'v, T>(
    what: &str,
    v: &'v Value,
    key: &str,
    read: fn(&'v Value) -> Option<T>,
) -> Result<T, String> {
    v.get(key).and_then(read).ok_or_else(|| match v.get(key) {
        Some(found) => format!(
            "{what}: {key}: unexpected {}",
            serde::json::to_string(found)
        ),
        None => format!("{what}: {key}: missing"),
    })
}

/// Read a ledger file back: its seed and rows. Strict — the file must hold
/// exactly what [`render`] writes for those counts, so an unknown key (a
/// wall-clock field coming back) or a hand-edited ratio is an error.
pub fn parse(text: &str) -> Result<(u64, Vec<Row>), String> {
    let doc = serde::json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let seed = field("the ledger", &doc, "seed", Value::as_u64)?;
    let mut rows = Vec::new();
    for (i, v) in field("the ledger", &doc, "rows", Value::as_array)?
        .iter()
        .enumerate()
    {
        let what = format!("row {i}");
        let text = |key| field(&what, v, key, Value::as_str).map(str::to_owned);
        let count = |key| field(&what, v, key, Value::as_u64);
        let row = Row {
            name: text("row")?,
            config: text("config")?,
            messages: count("messages")?,
            allocs: count("allocs")?,
            alloc_bytes: count("alloc_bytes")?,
        };
        if row_value(&row) != *v {
            return Err(format!(
                "row {i} ({}) is not what its own counts render to: {}",
                row.name,
                serde::json::to_string(v)
            ));
        }
        rows.push(row);
    }
    if document(seed, &rows) != doc {
        return Err(format!(
            "the top level is not schema {SCHEMA}, seed, rows and nothing else"
        ));
    }
    Ok((seed, rows))
}

/// Hold `measured` (from [`ledger`] under `seed`) against the committed
/// file: the same rows in the same order, every count equal. Every row
/// repeats to the allocation, run to run and in debug and release builds
/// (no map on a measured path hashes with per-process random state), so
/// any difference either way is a change: an improvement is committed by
/// the change that makes it and a stale ceiling cannot hide the next
/// regression.
///
/// # Errors
///
/// The first difference, naming the row, and how to regenerate the file.
pub fn check(committed: &str, seed: u64, measured: &[Row]) -> Result<(), String> {
    first_difference(committed, seed, measured).map_err(|why| {
        format!(
            "BENCH_CORE.json: {why}; if the change is intended, regenerate the file with \
             `UPDATE_GOLDENS=1 cargo test -p legion-bench --test alloc_budget` and commit it"
        )
    })
}

fn first_difference(committed: &str, seed: u64, measured: &[Row]) -> Result<(), String> {
    let (committed_seed, rows) = parse(committed)?;
    if committed_seed != seed {
        return Err(format!("seed {committed_seed}, measured under {seed}"));
    }
    let label = |r: Option<&Row>| r.map_or("nothing".into(), Row::label);
    for i in 0..rows.len().max(measured.len()) {
        let (want, got) = match (rows.get(i), measured.get(i)) {
            (Some(want), Some(got)) if want.label() == got.label() => (want, got),
            (want, got) => {
                let (want, got) = (label(want), label(got));
                return Err(format!("row {i}: {want} committed, {got} measured"));
            }
        };
        let row = got.label();
        for (field, want, got) in [
            ("messages", want.messages, got.messages),
            ("allocs", want.allocs, got.allocs),
            ("alloc_bytes", want.alloc_bytes, got.alloc_bytes),
        ] {
            if want != got {
                return Err(format!(
                    "row {row}: {field} {want} committed, {got} measured"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        let row = |name: &str, config: &str, messages, allocs, alloc_bytes| Row {
            name: name.into(),
            config: config.into(),
            messages,
            allocs,
            alloc_bytes,
        };
        vec![
            row("e12_steady", "jurisdictions=2", 310, 332, 135_104),
            row("e18_overload", "quick", 33_219, 48_743, 8_635_206),
        ]
    }

    /// `check` of `committed` against `measured` fails, and says `says`
    /// and how to regenerate the file.
    fn rejected(committed: &str, measured: &[Row], says: &str) {
        let err = check(committed, 7, measured).expect_err(says);
        assert!(err.contains(says), "{err}");
        assert!(err.contains("UPDATE_GOLDENS=1"), "{err}");
    }

    #[test]
    fn a_rendered_ledger_parses_back_and_checks() {
        let text = render(7, &rows());
        assert_eq!(parse(&text), Ok((7, rows())));
        assert_eq!(check(&text, 7, &rows()), Ok(()));
    }

    #[test]
    fn an_unknown_key_is_rejected_wherever_it_sits() {
        let text = render(7, &rows());
        let in_row = text.replacen(
            "\"messages\": 310,",
            "\"messages\": 310,\n      \"messages_per_sec\": 713144.0,",
            1,
        );
        assert_ne!(in_row, text);
        rejected(
            &in_row,
            &rows(),
            "row 0 (e12_steady) is not what its own counts",
        );
        rejected(&in_row, &rows(), "messages_per_sec");
        let at_top = text.replacen("\"seed\": 7,", "\"seed\": 7,\n  \"mode\": \"full\",", 1);
        assert_ne!(at_top, text);
        rejected(&at_top, &rows(), "the top level is not schema");
    }

    #[test]
    fn a_wrongly_typed_field_is_rejected_by_row_and_key() {
        let text = render(7, &rows());
        let quoted = text.replacen("\"messages\": 33219,", "\"messages\": \"33219\",", 1);
        assert_ne!(quoted, text);
        rejected(&quoted, &rows(), "row 1: messages");
        let negative = text.replacen("\"seed\": 7,", "\"seed\": -7,", 1);
        assert_ne!(negative, text);
        rejected(&negative, &rows(), "the ledger: seed");
    }

    #[test]
    fn a_missing_or_extra_row_is_rejected_by_name() {
        let text = render(7, &rows());
        rejected(
            &render(7, &rows()[..1]),
            &rows(),
            "row 1: nothing committed, e18_overload (quick) measured",
        );
        rejected(
            &text,
            &rows()[..1],
            "row 1: e18_overload (quick) committed, nothing measured",
        );
        rejected(
            &text,
            &rows()[1..],
            "row 0: e12_steady (jurisdictions=2) committed",
        );
    }

    #[test]
    fn one_percent_either_way_is_rejected_on_allocs_and_on_bytes() {
        let text = render(7, &rows());
        // One in fifty thousand, either way, is a change too.
        let changes: [fn(u64) -> u64; 4] =
            [|n| n * 101 / 100, |n| n * 99 / 100, |n| n + 1, |n| n - 1];
        for (field, change) in ["allocs", "alloc_bytes"]
            .into_iter()
            .flat_map(|field| changes.map(|change| (field, change)))
        {
            let mut measured = rows();
            let row = &mut measured[1];
            let count = if field == "allocs" {
                &mut row.allocs
            } else {
                &mut row.alloc_bytes
            };
            *count = change(*count);
            rejected(
                &text,
                &measured,
                &format!("row e18_overload (quick): {field} "),
            );
        }
        let mut measured = rows();
        measured[0].messages += 1;
        rejected(
            &text,
            &measured,
            "row e12_steady (jurisdictions=2): messages 310 committed, 311 measured",
        );
    }

    #[test]
    fn a_hand_edit_the_counts_do_not_explain_is_rejected() {
        let text = render(7, &rows());
        let edited = text.replacen(
            "\"allocs_per_message\": 1.07",
            "\"allocs_per_message\": 1.0",
            1,
        );
        assert_ne!(edited, text);
        rejected(
            &edited,
            &rows(),
            "row 0 (e12_steady) is not what its own counts",
        );
        rejected(
            &text.replacen("/v2", "/v1", 1),
            &rows(),
            "schema legion-bench-core/v2",
        );
        assert!(check(&text, 8, &rows()).is_err(), "another seed's ledger");
    }
}
