//! The allocation ledger.
//!
//! * [`alloc_counter`] — counting global allocator for allocation
//!   budgets.
//! * [`measure`] — the measurements behind `BENCH_CORE.json`, and the
//!   check `tests/alloc_budget.rs` holds them to.
//!
//! Wall-clock performance is measured by the `benchmark/` package at the
//! repo root (`BENCHMARK.json`), and nowhere else.

pub mod alloc_counter;
pub mod measure;
