//! Unit tests of [`parse`]: what it accepts, and that everything else is an
//! error that says why.

use super::*;

fn ids(line: &str) -> Result<Vec<&'static str>, String> {
    let opts = parse(line.split_whitespace().map(String::from))?;
    Ok(opts.which.iter().map(|e| e.id).collect())
}

#[test]
fn parse_selects_experiments_and_accepts_export_flags() {
    assert_eq!(ids("e01 E1 e1 --quick"), Ok(vec!["e1"]));
    assert_eq!(ids("").map(|v| v.len()), Ok(experiments::ALL.len()));
    assert_eq!(ids("e17 -q --trace-out t --metrics-out m"), Ok(vec!["e17"]));
    assert!(ids("e12 --report-out r --replay-from j --from-snapshot").is_ok());
}

#[test]
fn what_parse_does_not_understand_is_an_error() {
    for (line, says) in [
        ("e19", "valid: all e1 e2"),
        ("e00", "unknown argument e00"),
        ("--quik e9", "unknown argument --quik"),
        ("e1 --trace-out", "--trace-out needs a path"),
        ("e12 --journal-out a --replay-from b", "mutually exclusive"),
        (
            "e12 --report-out r --from-snapshot",
            "only modifies --replay-from",
        ),
        ("--report-out r", "exactly one"),
        ("all --report-out r", "exactly one"),
        ("e1 e12 --report-out r", "exactly one"),
        ("e9 --metrics-out m", "e9 has no observed point"),
        ("e11 --trace-out t", "e11 has no observed point"),
        ("e9 --report-out r", "e9 has no observed point"),
        ("e14", "unknown argument e14; valid: all e1 e2"),
    ] {
        let err = ids(line).expect_err(line);
        assert!(err.contains(says), "{line}: {err}");
    }
}
