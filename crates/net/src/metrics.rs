//! Lightweight metrics for the simulation substrate.
//!
//! The paper's scalability argument (§5.2) is entirely about *request
//! counts to components* — "the number of requests to any particular
//! system component must not be an increasing function of the number of
//! hosts in the system". The kernel therefore counts messages per
//! endpoint automatically, and components bump named counters for
//! protocol-level events (cache hits, class consultations, activations).
//! Latency distributions use a log₂-bucketed [`Histogram`].

use legion_core::symbol::Sym;
use legion_core::time::SimTime;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A log₂-bucketed histogram of `u64` samples (nanoseconds, counts, …).
///
/// Bucket `i` holds samples in `[2^(i-1), 2^i)` (bucket 0 holds zero).
/// Quantiles are approximate (bucket upper bound), which is plenty for
/// order-of-magnitude latency comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the q-th sample. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket 64 holds values ≥ 2^63; its upper bound does not
                // fit in a u64, so saturate instead of shifting by 64.
                return match i {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// Hand-written (rather than derived) to keep the wire form compact: the
// bucket array is sparse in practice, so only non-empty buckets are
// encoded, as `[index, count]` pairs.
impl Serialize for Histogram {
    fn to_json_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| Value::Array(vec![Value::U64(i as u64), Value::U64(n)]))
            .collect();
        Value::Object(vec![
            ("count".to_owned(), Value::U64(self.count)),
            ("sum".to_owned(), Value::U64(self.sum)),
            ("min".to_owned(), Value::U64(self.min)),
            ("max".to_owned(), Value::U64(self.max)),
            ("buckets".to_owned(), Value::Array(buckets)),
        ])
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50≈{} p99≈{} max={}",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// A named-counter registry, deterministic iteration order.
///
/// Keys are interned [`Sym`]s, so bumping an already-interned counter
/// allocates nothing; names are materialized only when iterating or
/// serializing (both in *name* order, matching the wire shape this type
/// had when it was keyed by `String`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<Sym, u64>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Add `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        self.add_sym(Sym::intern(name), n);
    }

    /// Add `n` to counter `sym` — the allocation-free hot path.
    pub fn add_sym(&mut self, sym: Sym, n: u64) {
        *self.map.entry(sym).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    pub fn bump(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never bumped). Never interns, so
    /// probing arbitrary names can't grow the process interner.
    pub fn get(&self, name: &str) -> u64 {
        Sym::try_lookup(name).map(|s| self.get_sym(s)).unwrap_or(0)
    }

    /// Current value of `sym` (0 if never bumped).
    pub fn get_sym(&self, sym: Sym) -> u64 {
        self.map.get(&sym).copied().unwrap_or(0)
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut pairs: Vec<(&'static str, u64)> =
            self.map.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        pairs.sort_unstable_by_key(|&(name, _)| name);
        pairs.into_iter()
    }

    /// Reset all counters to zero (drops names).
    pub fn reset(&mut self) {
        self.map.clear();
    }

    /// Number of distinct counter names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// Hand-written to preserve the exact wire shape of the former
// `BTreeMap<String, u64>` field: `{"map": [[name, count], ...]}` with
// pairs in name order. (The intern-order `Sym` keys are process-local
// and never serialized.)
impl Serialize for Counters {
    fn to_json_value(&self) -> Value {
        let pairs: Vec<Value> = self
            .iter()
            .map(|(name, n)| Value::Array(vec![Value::Str(name.to_owned()), Value::U64(n)]))
            .collect();
        Value::Object(vec![("map".to_owned(), Value::Array(pairs))])
    }
}

/// Counters bucketed into fixed windows of virtual time, so a run's
/// counter totals can be read as a time series instead of one final sum.
/// A zero window width disables recording entirely (the default).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct WindowedCounters {
    window_ns: u64,
    windows: BTreeMap<u64, Counters>,
}

impl WindowedCounters {
    /// Disabled (zero-width) windows — `record` is a no-op.
    pub fn disabled() -> Self {
        WindowedCounters::default()
    }

    /// Counters bucketed into windows of `window_ns` virtual nanoseconds.
    pub fn new(window_ns: u64) -> Self {
        WindowedCounters {
            window_ns,
            windows: BTreeMap::new(),
        }
    }

    /// The window width (0 = disabled).
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Add `n` to `name` in the window containing `now`.
    pub fn record(&mut self, now: SimTime, name: &str, n: u64) {
        if self.window_ns == 0 {
            return;
        }
        self.record_sym(now, Sym::intern(name), n);
    }

    /// Add `n` to `sym` in the window containing `now` — the
    /// allocation-free hot path (amortized: a window's first event
    /// allocates its bucket).
    pub fn record_sym(&mut self, now: SimTime, sym: Sym, n: u64) {
        if self.window_ns == 0 {
            return;
        }
        let start = (now.as_nanos() / self.window_ns) * self.window_ns;
        self.windows.entry(start).or_default().add_sym(sym, n);
    }

    /// Iterate `(window start, counters)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Counters)> {
        self.windows.iter().map(|(t, c)| (SimTime(*t), c))
    }

    /// Number of non-empty windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Have any events been recorded?
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Drop recorded windows (keeps the width).
    pub fn clear(&mut self) {
        self.windows.clear();
    }
}

/// Per-endpoint traffic and latency, as exported in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EndpointMetrics {
    /// The endpoint's kernel id.
    pub endpoint: u64,
    /// Its human-readable name.
    pub name: String,
    /// Messages it attempted to send.
    pub sent: u64,
    /// Messages delivered to it.
    pub received: u64,
    /// Latency distribution of messages delivered to it.
    pub in_latency: Histogram,
}

/// A JSON-exportable snapshot of everything the kernel measures: global
/// stats, named counters (flat and time-windowed), the global and
/// per-message-kind latency distributions, and per-endpoint traffic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Virtual time at snapshot.
    pub at: SimTime,
    /// Global kernel statistics.
    pub stats: crate::sim::KernelStats,
    /// Named protocol counters.
    pub counters: Counters,
    /// Delivered-message latency, all messages: the merge of `by_kind`.
    pub latency: Histogram,
    /// Delivered-message latency by message kind (method name / `reply`).
    pub by_kind: BTreeMap<String, Histogram>,
    /// Per-endpoint traffic, in endpoint-id order.
    pub endpoints: Vec<EndpointMetrics>,
    /// Time-windowed counters (empty unless enabled).
    pub windows: WindowedCounters,
    /// Span events evicted from the trace sink (0 unless tracing).
    pub trace_dropped: u64,
    /// Calls dead-lettered at the dispatch layer: the sum of the
    /// per-endpoint `*.dead_letter` counters `dispatch::serve` bumps
    /// (distinct from `stats.dead_letters`, which counts kernel
    /// deliveries to dead endpoints).
    pub dispatch_dead_letters: u64,
    /// Pending continuations expired by dispatch deadline sweeps
    /// (the `net.timeout_expired` counter).
    pub timeouts_expired: u64,
    /// Calls refused admission by overloaded endpoints
    /// (the `net.requests_shed` counter).
    pub requests_shed: u64,
    /// `Overloaded` error replies actually sent back to callers
    /// (the `net.overload_replies` counter; differs from
    /// `requests_shed` when shed one-way messages have no reply path).
    pub overload_replies: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn record_updates_aggregates() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn quantile_is_monotone_and_bounding() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // Each quantile over-estimates by at most 2x (bucket upper bound).
        assert!((500..=1024).contains(&p50), "p50={p50}");
        assert!((990..=2048).contains(&p99), "p99={p99}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(4);
        let mut b = Histogram::new();
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 4);
        assert_eq!(a.max(), 1024);
    }

    #[test]
    fn counters_bump_add_get() {
        let mut c = Counters::new();
        assert!(c.is_empty());
        c.bump("hits");
        c.add("hits", 4);
        c.add("misses", 2);
        assert_eq!(c.get("hits"), 5);
        assert_eq!(c.get("misses"), 2);
        assert_eq!(c.get("absent"), 0);
        assert_eq!(c.len(), 2);
        let names: Vec<_> = c.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["hits", "misses"]);
        c.reset();
        assert!(c.is_empty());
    }

    #[test]
    fn display_is_compact() {
        let mut h = Histogram::new();
        h.record(10);
        let s = h.to_string();
        assert!(s.contains("n=1"));
    }

    #[test]
    fn quantile_saturates_on_top_bucket() {
        // Regression: a sample in bucket 64 (value ≥ 2^63) used to panic
        // in debug builds via `1u64 << 64`.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_json_round_trip() {
        let mut h = Histogram::new();
        for v in [0, 1, 7, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let text = serde::json::to_string(&h.to_json_value());
        assert_eq!(
            text,
            r#"{"count":5,"sum":18446744073709551615,"min":0,"max":18446744073709551615,"buckets":[[0,1],[1,1],[3,1],[21,1],[64,1]]}"#
        );
        assert_eq!(serde::json::from_str(&text), Ok(h.to_json_value()));
        // An empty histogram keeps its `min = u64::MAX` sentinel.
        let text = serde::json::to_string(&Histogram::new().to_json_value());
        assert_eq!(
            text,
            r#"{"count":0,"sum":0,"min":18446744073709551615,"max":0,"buckets":[]}"#
        );
    }

    #[test]
    fn histogram_encoding_is_sparse() {
        let mut h = Histogram::new();
        h.record(5);
        let v = h.to_json_value();
        let buckets = v.get("buckets").and_then(Value::as_array).unwrap();
        assert_eq!(buckets.len(), 1, "only non-empty buckets are encoded");
    }

    #[test]
    fn windowed_counters_bucket_by_time() {
        let mut w = WindowedCounters::new(100);
        w.record(SimTime(10), "x", 1);
        w.record(SimTime(99), "x", 1);
        w.record(SimTime(100), "x", 1);
        w.record(SimTime(250), "y", 5);
        assert_eq!(w.len(), 3);
        let series: Vec<(u64, u64, u64)> = w
            .iter()
            .map(|(t, c)| (t.as_nanos(), c.get("x"), c.get("y")))
            .collect();
        assert_eq!(series, vec![(0, 2, 0), (100, 1, 0), (200, 0, 5)]);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.window_ns(), 100);
    }

    #[test]
    fn disabled_windows_record_nothing() {
        let mut w = WindowedCounters::disabled();
        w.record(SimTime(10), "x", 1);
        assert!(w.is_empty());
    }

    #[test]
    fn windowed_counters_round_trip() {
        let mut w = WindowedCounters::new(1_000);
        w.record(SimTime(1), "a", 2);
        w.record(SimTime(2_500), "b", 3);
        w.record(SimTime(2_600), "a", 1);
        let text = serde::json::to_string(&w.to_json_value());
        assert_eq!(
            text,
            r#"{"window_ns":1000,"windows":[[0,{"map":[["a",2]]}],[2000,{"map":[["a",1],["b",3]]}]]}"#
        );
        assert_eq!(serde::json::from_str(&text), Ok(w.to_json_value()));
    }
}
