//! Kernel profiler: per-endpoint × per-method attribution.
//!
//! The §5.2 scalability claims are claims about *where work goes*; the
//! profiler pins them down per `(endpoint, method)` pair: how many
//! messages, how much sim-time (the hop latency each delivery paid), how
//! much wall-time the handler burned, and how much allocator pressure it
//! generated (read from [`legion_core::allocs`], fed by the counting
//! allocator `legion-bench` registers).
//!
//! Determinism discipline: message counts and sim-time are exactly as
//! deterministic as the simulation; wall-time never is, and allocation
//! deltas are only deterministic in a single-threaded process with the
//! counting allocator registered. The exported run report therefore
//! keeps only `count` and `sim_ns` (see
//! [`Profile::to_json_value`]); wall/alloc attribution stays available
//! in-memory for bench assertions and interactive digging.
//!
//! Steady-state cost: recording into an existing `(endpoint, method)`
//! entry allocates nothing, and [`KernelProfiler::reset_values`] zeroes
//! stats *in place* without dropping the map nodes — so a warm-up wave
//! populates the keys and the measured wave's profiling overhead is a
//! handful of atomic loads and a map lookup per delivery.

use crate::analysis::hop_breakdown;
use crate::span::SpanEvent;
use legion_core::symbol::Sym;
use serde::Value;
use std::collections::BTreeMap;

/// Accumulated cost of one `(endpoint, method)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStat {
    /// Messages delivered.
    pub count: u64,
    /// Summed sim-time (hop latency paid by each delivery), ns.
    pub sim_ns: u64,
    /// Summed handler wall-time, ns (not deterministic; excluded from
    /// exported reports).
    pub wall_ns: u64,
    /// Allocations performed by the handlers (zero without a counting
    /// allocator registered).
    pub allocs: u64,
    /// Bytes allocated by the handlers.
    pub alloc_bytes: u64,
}

/// The kernel-side collector. Off by default; when off, recording is a
/// single branch.
#[derive(Debug, Clone, Default)]
pub struct KernelProfiler {
    enabled: bool,
    stats: BTreeMap<(u64, Sym), MethodStat>,
}

impl KernelProfiler {
    /// A disabled profiler (the kernel's default state).
    pub fn disabled() -> Self {
        KernelProfiler::default()
    }

    /// An enabled, empty profiler.
    pub fn enabled() -> Self {
        KernelProfiler {
            enabled: true,
            stats: BTreeMap::new(),
        }
    }

    /// Is attribution on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute one delivery. No-op when disabled.
    #[inline]
    pub fn record(
        &mut self,
        endpoint: u64,
        method: Sym,
        sim_ns: u64,
        wall_ns: u64,
        allocs: u64,
        alloc_bytes: u64,
    ) {
        if !self.enabled {
            return;
        }
        let s = self.stats.entry((endpoint, method)).or_default();
        s.count += 1;
        s.sim_ns += sim_ns;
        s.wall_ns += wall_ns;
        s.allocs += allocs;
        s.alloc_bytes += alloc_bytes;
    }

    /// Zero every stat **in place**, keeping the `(endpoint, method)`
    /// keys — a measured wave after a warm-up wave re-fills existing
    /// entries without new map allocations.
    pub fn reset_values(&mut self) {
        for s in self.stats.values_mut() {
            *s = MethodStat::default();
        }
    }

    /// Snapshot the collected attribution into a [`Profile`], resolving
    /// endpoint ids to names with `name_of`. Entries with a zero count
    /// (warm-up keys the measured wave never touched) are skipped;
    /// ordering is by `(endpoint, method name)` so the snapshot is
    /// stable across processes (raw `Sym` ids are intern-order).
    pub fn snapshot(&self, name_of: impl Fn(u64) -> String) -> Profile {
        let mut entries: Vec<ProfileEntry> = self
            .stats
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(&(endpoint, method), &stat)| ProfileEntry {
                endpoint,
                endpoint_name: name_of(endpoint),
                method: method.as_str().to_owned(),
                stat,
            })
            .collect();
        entries.sort_by(|a, b| (a.endpoint, &a.method).cmp(&(b.endpoint, &b.method)));
        Profile { entries }
    }
}

/// One row of a [`Profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Kernel endpoint id.
    pub endpoint: u64,
    /// The endpoint's human-readable name.
    pub endpoint_name: String,
    /// Method name (or `reply`).
    pub method: String,
    /// Accumulated cost.
    pub stat: MethodStat,
}

/// A snapshot of the profiler: per-`(endpoint, method)` rows, sorted by
/// `(endpoint, method name)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// The attribution rows.
    pub entries: Vec<ProfileEntry>,
}

/// One row of the aggregated hot-method table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotMethod {
    /// Method name.
    pub method: String,
    /// Deliveries across all endpoints.
    pub count: u64,
    /// Summed sim-time, ns.
    pub sim_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
    /// Summed allocated bytes.
    pub alloc_bytes: u64,
    /// Endpoints that handled this method.
    pub endpoints: u64,
}

impl Profile {
    /// The top-`n` methods by summed sim-time, aggregated across
    /// endpoints. Ties break by method name, so the table is
    /// deterministic.
    pub fn hot_methods(&self, n: usize) -> Vec<HotMethod> {
        let mut agg: BTreeMap<&str, HotMethod> = BTreeMap::new();
        for e in &self.entries {
            let row = agg.entry(&e.method).or_insert_with(|| HotMethod {
                method: e.method.clone(),
                count: 0,
                sim_ns: 0,
                allocs: 0,
                alloc_bytes: 0,
                endpoints: 0,
            });
            row.count += e.stat.count;
            row.sim_ns += e.stat.sim_ns;
            row.allocs += e.stat.allocs;
            row.alloc_bytes += e.stat.alloc_bytes;
            row.endpoints += 1;
        }
        let mut rows: Vec<HotMethod> = agg.into_values().collect();
        rows.sort_by(|a, b| b.sim_ns.cmp(&a.sim_ns).then(a.method.cmp(&b.method)));
        rows.truncate(n);
        rows
    }

    /// The profile as JSON. Only the deterministic fields (`count`,
    /// `sim_ns`) are exported unless `include_costs` is set; wall-time
    /// and allocation deltas vary run-to-run / thread-to-thread and
    /// would break byte-identical golden reports.
    pub fn to_json_value(&self, include_costs: bool) -> Value {
        Value::Array(
            self.entries
                .iter()
                .map(|e| {
                    let mut fields = vec![
                        ("endpoint".to_string(), Value::U64(e.endpoint)),
                        ("name".to_string(), Value::Str(e.endpoint_name.clone())),
                        ("method".to_string(), Value::Str(e.method.clone())),
                        ("count".to_string(), Value::U64(e.stat.count)),
                        ("sim_ns".to_string(), Value::U64(e.stat.sim_ns)),
                    ];
                    if include_costs {
                        fields.push(("wall_ns".to_string(), Value::U64(e.stat.wall_ns)));
                        fields.push(("allocs".to_string(), Value::U64(e.stat.allocs)));
                        fields.push(("alloc_bytes".to_string(), Value::U64(e.stat.alloc_bytes)));
                    }
                    Value::Object(fields)
                })
                .collect(),
        )
    }
}

/// One label of the critical-path-weighted profile: `(label, hops,
/// summed critical-path ns)`.
pub type PathWeight = (String, u64, u64);

/// The per-label hop counts and time of every complete trace in
/// `events` ([`hop_breakdown`]'s `by_label`), heaviest first, ties by
/// label. This weights each message kind by the time it actually spent
/// on requests' critical paths — the number to attack first when E17/E18
/// hunt latency — and is deterministic because it is derived purely from
/// span events.
pub fn critical_path_profile(events: &[SpanEvent]) -> Vec<PathWeight> {
    let mut rows = hop_breakdown(events).by_label;
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::symbol;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = KernelProfiler::disabled();
        p.record(1, symbol::PING, 10, 10, 1, 64);
        assert!(p.snapshot(|e| format!("ep{e}")).entries.is_empty());
    }

    #[test]
    fn records_aggregate_per_endpoint_method() {
        let mut p = KernelProfiler::enabled();
        p.record(1, symbol::PING, 10, 5, 1, 64);
        p.record(1, symbol::PING, 20, 5, 0, 0);
        p.record(2, symbol::GET_BINDING, 7, 1, 2, 128);
        let prof = p.snapshot(|e| format!("ep{e}"));
        assert_eq!(prof.entries.len(), 2);
        let ping = &prof.entries[0];
        assert_eq!((ping.endpoint, ping.method.as_str()), (1, "Ping"));
        assert_eq!(ping.stat.count, 2);
        assert_eq!(ping.stat.sim_ns, 30);
        assert_eq!(prof.entries[1].stat.count, 1);
    }

    #[test]
    fn reset_values_keeps_keys_and_zeroes_stats() {
        let mut p = KernelProfiler::enabled();
        p.record(1, symbol::PING, 10, 0, 0, 0);
        p.reset_values();
        // Zero-count warm-up keys are skipped by the snapshot…
        assert!(p.snapshot(|_| String::new()).entries.is_empty());
        // …but re-recording refills the existing node.
        p.record(1, symbol::PING, 3, 0, 0, 0);
        let prof = p.snapshot(|_| String::new());
        assert_eq!(prof.entries[0].stat.count, 1);
        assert_eq!(prof.entries[0].stat.sim_ns, 3);
    }

    #[test]
    fn hot_methods_sort_by_sim_time() {
        let mut p = KernelProfiler::enabled();
        p.record(1, symbol::PING, 5, 0, 0, 0);
        p.record(2, symbol::PING, 5, 0, 0, 0);
        p.record(3, symbol::GET_BINDING, 100, 0, 0, 0);
        let prof = p.snapshot(|e| format!("ep{e}"));
        let hot = prof.hot_methods(10);
        assert_eq!(hot[0].method, "GetBinding");
        assert_eq!(hot[1].method, "Ping");
        assert_eq!(hot[1].count, 2);
        assert_eq!(hot[1].endpoints, 2);
        assert_eq!(prof.hot_methods(1).len(), 1);
    }

    #[test]
    fn json_export_hides_costs_by_default() {
        let mut p = KernelProfiler::enabled();
        p.record(1, symbol::PING, 5, 99, 3, 333);
        let prof = p.snapshot(|e| format!("ep{e}"));
        let lean = serde::json::to_string(&prof.to_json_value(false));
        assert!(!lean.contains("wall_ns"), "{lean}");
        assert!(!lean.contains("allocs"), "{lean}");
        let full = serde::json::to_string(&prof.to_json_value(true));
        assert!(full.contains("\"wall_ns\":99"), "{full}");
        assert!(full.contains("\"alloc_bytes\":333"), "{full}");
    }
}
