//! E9 — the LOID machinery (paper §3.2).
//!
//! LegionClass must hand out unique Class Identifiers and classes must
//! mint unique instance LOIDs at line rate: "the system scales to millions
//! of sites and trillions of objects" only if naming itself is never the
//! bottleneck. Measured: allocation throughput, uniqueness at scale, and
//! the local responsible-class derivation (which §4.1.3 relies on to keep
//! instance lookups off LegionClass).

use crate::report::Table;
use legion_core::loid::{ClassId, Loid, LoidAllocator};
use legion_core::metaclass::LegionClassAuthority;
use legion_core::wellknown::LEGION_CLASS;
use std::collections::HashSet;
use std::time::Instant;

/// Results of one measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// What was measured.
    pub what: &'static str,
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock ns per operation.
    pub ns_per_op: f64,
    /// Uniqueness verified?
    pub all_unique: bool,
}

/// Run the measurements with `n` operations each.
pub fn run(n: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // Instance allocation.
    {
        let mut alloc = LoidAllocator::new(ClassId(42));
        let t0 = Instant::now();
        let mut last = Loid::NIL;
        for _ in 0..n {
            last = alloc.next().expect("space");
        }
        let dt = t0.elapsed().as_nanos() as f64 / n as f64;
        // Uniqueness on a sample (full set for small n).
        let check = n.min(200_000);
        let mut alloc2 = LoidAllocator::new(ClassId(43));
        let mut seen = HashSet::with_capacity(check as usize);
        let unique = (0..check).all(|_| seen.insert(alloc2.next().expect("space")));
        rows.push(Row {
            what: "instance LOID allocation",
            ops: n,
            ns_per_op: dt,
            all_unique: unique && !last.is_nil(),
        });
    }

    // Class Identifier issuance through the authority.
    {
        let mut auth = LegionClassAuthority::new();
        let t0 = Instant::now();
        let mut seen = HashSet::with_capacity(n as usize);
        let mut unique = true;
        for _ in 0..n {
            let (_, loid) = auth.issue_class_id(LEGION_CLASS).expect("space");
            unique &= seen.insert(loid);
        }
        rows.push(Row {
            what: "Class Identifier issuance",
            ops: n,
            ns_per_op: t0.elapsed().as_nanos() as f64 / n as f64,
            all_unique: unique,
        });
    }

    // Responsible-class derivation (the §4.1.3 local rule).
    {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..n {
            let l = Loid::instance(i % 1000 + 1, i + 1);
            acc = acc.wrapping_add(l.class_loid().class_id.0);
        }
        rows.push(Row {
            what: "responsible-class derivation",
            ops: n,
            ns_per_op: t0.elapsed().as_nanos() as f64 / n as f64,
            all_unique: acc > 0,
        });
    }

    // Display/parse round trip (names cross administrative boundaries as
    // text in contexts, §4.1).
    {
        let sample = n.min(50_000);
        let t0 = Instant::now();
        let mut ok = true;
        for i in 0..sample {
            let l = Loid::instance(i + 1, i + 7);
            let parsed: Loid = l.to_string().parse().expect("roundtrip");
            ok &= parsed == l;
        }
        rows.push(Row {
            what: "display+parse roundtrip",
            ops: sample,
            ns_per_op: t0.elapsed().as_nanos() as f64 / sample as f64,
            all_unique: ok,
        });
    }

    rows
}

/// What `legion-exp e9` prints.
pub fn tables(quick: bool, _seed: u64) -> Vec<Table> {
    let n = if quick { 100_000 } else { 1_000_000 };
    vec![table(&run(n))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E9: LOID machinery (§3.2)",
        &["operation", "ops", "ns/op", "verified"],
    );
    for r in rows {
        t.row(vec![
            r.what.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.ns_per_op),
            r.all_unique.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loids_are_fast_and_unique() {
        let rows = run(10_000);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.all_unique, "{}", r.what);
            assert!(r.ns_per_op < 100_000.0, "{} absurdly slow", r.what);
        }
    }
}
