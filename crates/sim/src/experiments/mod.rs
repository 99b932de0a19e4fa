//! Experiment drivers, one per paper figure/claim (DESIGN.md §6).
//!
//! Each `run` function builds the system(s) it needs, drives the
//! workload, and returns rows plus a [`crate::report::Table`] whose
//! rendering is recorded in EXPERIMENTS.md. [`ALL`] is the registry
//! `legion-exp` and the golden tests walk.

use crate::harness::{Closed, Watch};
use crate::report::Table;

pub mod common;
pub mod e01_binding_path;
pub mod e02_agent_load;
pub mod e03_cache_tiers;
pub mod e04_combining_tree;
pub mod e05_find_class;
pub mod e06_class_cloning;
pub mod e07_lifecycle;
pub mod e08_stale_bindings;
pub mod e09_loid;
pub mod e10_replication;
pub mod e11_object_model;
pub mod e12_scalability;
pub mod e13_security;
pub mod e15_crash_recovery;
pub mod e16_chaos;
pub mod e17_scale;
pub mod e18_overload;

/// One experiment, as the command line sees it.
#[derive(Debug)]
pub struct Entry {
    /// `e1` … `e18`, without `e14`.
    pub id: &'static str,
    /// The tables `legion-exp <id>` prints, at `--quick` or report size.
    pub tables: fn(quick: bool, seed: u64) -> Vec<Table>,
    /// The one representative point the export flags (`--trace-out`,
    /// `--metrics-out`, `--report-out`, `--journal-out`, `--replay-from`)
    /// act on, run under the given [`Watch`]. `None` for an experiment
    /// that drives no kernel, or whose point has not been wired yet.
    pub observed: Option<fn(quick: bool, seed: u64, watch: Watch) -> Closed>,
}

const fn entry(
    id: &'static str,
    tables: fn(bool, u64) -> Vec<Table>,
    observed: Option<fn(bool, u64, Watch) -> Closed>,
) -> Entry {
    Entry {
        id,
        tables,
        observed,
    }
}

/// Every experiment, in id order. A table and not a trait: nothing is
/// generic over an experiment, and seventeen impls would only spell these
/// seventeen rows out longer. Ids keep the numbers EXPERIMENTS.md gave
/// them, so there is no `e14`: it measured a threaded actor runtime that
/// ran no Legion endpoint and was deleted with it (EXPERIMENTS.md, E14).
pub const ALL: &[Entry] = &[
    entry(
        "e1",
        e01_binding_path::tables,
        Some(e01_binding_path::observed),
    ),
    entry("e2", e02_agent_load::tables, None),
    entry("e3", e03_cache_tiers::tables, None),
    entry("e4", e04_combining_tree::tables, None),
    entry("e5", e05_find_class::tables, None),
    entry("e6", e06_class_cloning::tables, None),
    entry("e7", e07_lifecycle::tables, None),
    entry("e8", e08_stale_bindings::tables, None),
    entry("e9", e09_loid::tables, None),
    entry("e10", e10_replication::tables, None),
    entry("e11", e11_object_model::tables, None),
    entry(
        "e12",
        e12_scalability::tables,
        Some(e12_scalability::observed),
    ),
    entry("e13", e13_security::tables, None),
    entry(
        "e15",
        e15_crash_recovery::tables,
        Some(e15_crash_recovery::observed),
    ),
    entry("e16", e16_chaos::tables, Some(e16_chaos::observed)),
    entry("e17", e17_scale::tables, Some(e17_scale::observed)),
    entry("e18", e18_overload::tables, Some(e18_overload::observed)),
];

/// Resolve command-line names against [`ALL`]: `e01`/`E1` spell `e1`,
/// `all` (or no name at all) selects everything. Each selected experiment
/// appears once, in id order.
///
/// # Errors
///
/// Names the first argument that is neither, and lists the valid ids.
pub fn select(names: &[String]) -> Result<Vec<&'static Entry>, String> {
    let mut wanted = Vec::new();
    for name in names {
        let lower = name.to_ascii_lowercase();
        let id = match lower.strip_prefix('e') {
            Some(digits) => format!("e{}", digits.trim_start_matches('0')),
            None => lower,
        };
        if id != "all" && !ALL.iter().any(|e| e.id == id) {
            let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
            return Err(format!(
                "unknown argument {name}; valid: all {}",
                ids.join(" ")
            ));
        }
        wanted.push(id);
    }
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let selected = |e: &&Entry| all || wanted.iter().any(|w| w == e.id);
    Ok(ALL.iter().filter(selected).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_normalises_spellings_and_keeps_id_order() {
        let ids = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            select(&names).map(|es| es.iter().map(|e| e.id).collect::<Vec<_>>())
        };
        assert_eq!(ids(&["e01", "E1", "e1"]), Ok(vec!["e1"]));
        assert_eq!(ids(&["E12", "e02"]), Ok(vec!["e2", "e12"]));
        assert_eq!(ids(&["ALL"]), ids(&[]));
        // Literal, so a renumbering shows up here: `e14` was deleted with
        // the threaded runtime it measured, and the others kept their ids.
        let all = [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e15", "e16", "e17", "e18",
        ];
        assert_eq!(ids(&[]), Ok(all.to_vec()));
        for unknown in ["e14", "e19", "e00", "e", "--quik"] {
            assert!(ids(&[unknown]).is_err(), "{unknown} resolved");
        }
    }
}
