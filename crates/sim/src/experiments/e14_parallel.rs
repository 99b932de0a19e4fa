//! E14 — threaded actor-runtime throughput scaling.
//!
//! The DES (E1–E12) measures protocol quantities; this experiment runs the
//! same resolve-then-invoke message pattern on real threads
//! ([`crate::parallel`]) and measures wall-clock throughput as workers
//! grow — the reproduction's hpc-parallel dimension. Expectation:
//! near-linear scaling while directory shards outnumber contention.

use crate::parallel::run_workload;
use crate::report::Table;

/// One worker-count point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Worker threads.
    pub workers: usize,
    /// Completed operations.
    pub completed: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Speedup vs 1 worker.
    pub speedup: f64,
}

/// Run the scaling sweep.
pub fn run(clients: usize, ops: usize, objects: usize, shards: usize) -> Vec<Row> {
    // Sweep 1/2/4 workers regardless of core count: on a single-core host
    // the speedup stays ~1x (and EXPERIMENTS.md says so), but the run
    // still validates that the runtime loses nothing under concurrency.
    let worker_counts = vec![1usize, 2, 4];
    let mut rows: Vec<Row> = Vec::new();
    let mut base = 0.0;
    for workers in worker_counts {
        let (secs, _processed, completed) = run_workload(workers, clients, ops, objects, shards);
        let ops_per_sec = completed as f64 / secs.max(1e-9);
        if workers == 1 {
            base = ops_per_sec;
        }
        rows.push(Row {
            workers,
            completed,
            secs,
            ops_per_sec,
            speedup: ops_per_sec / base.max(1e-9),
        });
    }
    rows
}

/// What `legion-exp e14` prints.
pub fn tables(quick: bool, _seed: u64) -> Vec<Table> {
    let (clients, ops) = if quick { (16, 200) } else { (64, 1000) };
    vec![table(&run(clients, ops, 256, 8))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E14: threaded runtime throughput scaling",
        &["workers", "ops", "seconds", "ops/sec", "speedup"],
    );
    for r in rows {
        t.row(vec![
            r.workers.to_string(),
            r.completed.to_string(),
            format!("{:.3}", r.secs),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_worker_counts_complete_the_workload() {
        let rows = run(8, 100, 64, 4);
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.completed, 800, "workers={}", r.workers);
            assert!(r.ops_per_sec > 0.0);
        }
    }
}
