//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test
//! holds the two together); the definitions are in README.md.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Printed by `--trace 0` runs. Every
/// one is non-zero on every workload (the share of failed operations is
/// zero by construction and travels as `failed` / `attempted` instead).
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("ops_per_sec", "1/s"),
    lo("peak_rss_mb", "MiB"),
    lo("allocs_per_op", "count"),
    lo("alloc_bytes_per_op", "B"),
    lo("msgs_per_op", "count"),
    lo("sim_p50_ms", "ms"),
    lo("sim_p99_ms", "ms"),
    hi("sim_goodput_per_vs", "1/s"),
];

/// One layer each. Printed by `--trace 1` runs. `*_ns` are probes,
/// `handler_*` and `*_share` come from the traced pass, the rest are
/// counts read from public counters at the end of the region.
pub const PER_LAYER: &[Def] = &[
    // the host, not a layer: what `ops_per_sec` was corrected by and from
    lo("host.yardstick_ns", "ns"),
    hi("host.raw_ops_per_sec", "1/s"),
    // legion-net
    lo("net.kernel.ns_per_event", "ns"),
    lo("net.kernel.self_ns_per_event", "ns"),
    lo("net.kernel.self_share", "%"),
    lo("net.kernel.events_per_op", "count"),
    lo("net.kernel.queue_peak", "count"),
    lo("net.kernel.slice_ns_per_event_p50", "ns"),
    lo("net.kernel.slice_ns_per_event_p90", "ns"),
    lo("net.kernel.slice_drift", "ratio"),
    lo("net.kernel.pingpong_ns_per_event", "ns"),
    lo("net.equeue.push_pop_ns", "ns"),
    lo("net.equeue.timer_far_push_pop_ns", "ns"),
    lo("net.pool.cycle_ns", "ns"),
    lo("net.pool.binding_value_ns", "ns"),
    lo("net.dispatch.serve_ns", "ns"),
    lo("net.metrics.histogram_record_ns", "ns"),
    lo("net.faults.judge_ns", "ns"),
    lo("net.dedup.admit_ns", "ns"),
    lo("net.dedup.rejected", "count"),
    lo("net.admission.offer_ns", "ns"),
    lo("net.admission.shed_frac", "ratio"),
    // legion-core
    lo("core.symbol.lookup_ns", "ns"),
    lo("core.dispatch.decode_args_ns", "ns"),
    lo("core.value.clone_binding_ns", "ns"),
    // legion-naming
    lo("naming.cache.get_hit_ns", "ns"),
    lo("naming.cache.insert_evict_ns", "ns"),
    lo("naming.cache.invalidate_ns", "ns"),
    hi("naming.client_hit_ratio", "ratio"),
    hi("naming.agent_hit_ratio", "ratio"),
    lo("naming.stale_refreshes_per_op", "count"),
    lo("naming.handler_ns_per_msg", "ns"),
    lo("naming.handler_allocs_per_msg", "count"),
    lo("naming.handler_share", "%"),
    // legion-runtime
    lo("runtime.handler_ns_per_msg", "ns"),
    lo("runtime.handler_allocs_per_msg", "count"),
    lo("runtime.handler_share", "%"),
    lo("runtime.activations_per_op", "count"),
    hi("runtime.moves_ok", "count"),
    // legion-persist
    lo("persist.opr.encode_ns", "ns"),
    lo("persist.opr.decode_verify_ns", "ns"),
    lo("persist.storage.write_read_ns", "ns"),
    lo("persist.cas.put_4k_ns", "ns"),
    // legion-security
    lo("security.mayi.acl_check_ns", "ns"),
    lo("security.mayi.composite_check_ns", "ns"),
    // legion-ha
    lo("ha.detector.heartbeat_ns", "ns"),
    lo("ha.detector.sweep_ns", "ns"),
    hi("ha.recoveries", "count"),
    lo("ha.detect_vms", "ms"),
    // legion-journal
    lo("journal.append_ns_per_record", "ns"),
    lo("journal.bytes_per_record", "B"),
    lo("journal.bytes_per_event", "B"),
    lo("journal.snapshots", "count"),
    lo("journal.finish_ns", "ns"),
    lo("journal.replay_ns_per_event", "ns"),
    // legion-obs
    lo("obs.flight.record_ns", "ns"),
    lo("obs.slo.record_ns", "ns"),
    lo("obs.profiler.record_ns", "ns"),
    lo("obs.sink.push_ns", "ns"),
    lo("obs.trace_overhead_frac", "ratio"),
    // legion-sim
    lo("sim.build_s", "s"),
    lo("sim.plan_gen_s", "s"),
    lo("sim.warm_s", "s"),
    lo("sim.client_handler_ns_per_msg", "ns"),
    lo("sim.handler_share", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalogued(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde::json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), catalogued(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogued(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(d.name, 64, "_.-"), "bad name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                ok(d.unit, 16, "_/%.-"),
                "bad unit {} for {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
