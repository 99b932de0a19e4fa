//! Shared experiment plumbing: client attachment, run-to-completion,
//! metric snapshots, and the central-directory baseline.

use crate::system::LegionSystem;
use crate::workload::{generate_plan, ClientReport, LookupClient, WorkloadConfig};
use legion_core::loid::Loid;
use legion_naming::stubs::StaticClassEndpoint;
use legion_net::sim::{Endpoint, EndpointId};
use legion_net::topology::Location;

/// The `scale` most sweeps take: 1 at `--quick` (test size), 2 at report
/// size.
pub fn scale(quick: bool) -> u32 {
    if quick {
        1
    } else {
        2
    }
}

/// LOID for workload client `i`.
pub fn client_loid(i: usize) -> Loid {
    Loid::instance(9000, i as u64 + 1)
}

/// Attach `n` workload clients; client `i` lives in jurisdiction
/// `i % J` and uses its leaf agent (or `agent_override` if given).
pub fn attach_clients(
    sys: &mut LegionSystem,
    n: usize,
    wl: &WorkloadConfig,
    seed: u64,
    agent_override: Option<EndpointId>,
) -> Vec<EndpointId> {
    let jurisdictions = sys.config().jurisdictions.max(1);
    let objects = sys.objects.clone();
    (0..n)
        .map(|i| {
            let j = (i as u32) % jurisdictions;
            let plan = generate_plan(&objects, j, wl, seed.wrapping_add(i as u64));
            let agent = agent_override.unwrap_or_else(|| sys.leaf_agent_for(i));
            let client = LookupClient::new(client_loid(i), agent.element(), plan, wl);
            sys.kernel.add_endpoint(
                Box::new(client),
                Location::new(j, 500 + i as u32),
                format!("client{i}"),
            )
        })
        .collect()
}

/// Run the kernel until every client of type `C` says it is `done` (or
/// the system goes quiescent under them). A workload that will not settle
/// is a hang made visible: the flight-recorder tail — plus, when a
/// journal session is live, the journal position and nearest snapshot to
/// replay from — then a panic, not a CI timeout.
pub fn drive<C: Endpoint>(sys: &mut LegionSystem, clients: &[EndpointId], done: fn(&C) -> bool) {
    for _ in 0..1000 {
        sys.kernel.run_until_quiescent(50_000_000);
        let settled = |c: &EndpointId| sys.kernel.endpoint::<C>(*c).map(done).unwrap_or(true);
        if clients.iter().all(settled) || sys.kernel.is_quiescent() {
            return;
        }
    }
    eprintln!(
        "{}",
        sys.kernel.flight_dump("workload did not converge", 32)
    );
    panic!("workload did not converge");
}

/// [`drive`] the lookup clients to completion, then merge their reports.
pub fn run_clients(sys: &mut LegionSystem, clients: &[EndpointId]) -> ClientReport {
    drive(sys, clients, LookupClient::is_done);
    let mut merged = ClientReport::default();
    for c in clients {
        if let Some(cl) = sys.kernel.endpoint::<LookupClient>(*c) {
            merged.merge(&cl.report);
        }
    }
    merged
}

/// Snapshot of the protocol counters an experiment typically reads.
#[derive(Debug, Clone, Default)]
pub struct TierCounts {
    /// Lookups served by client-local caches.
    pub client_hits: u64,
    /// Lookups served by agent caches.
    pub agent_hits: u64,
    /// Agent cache misses (went upstream).
    pub agent_misses: u64,
    /// `GetBinding` calls answered by class objects.
    pub class_consults: u64,
    /// Magistrate activations triggered by binding requests.
    pub activations: u64,
    /// Requests to LegionClass (find + issue + binding).
    pub legion_class: u64,
    /// Total messages accepted into the network.
    pub messages: u64,
}

/// Read the tier counters from the kernel.
pub fn tier_counts(sys: &LegionSystem) -> TierCounts {
    let c = sys.kernel.counters();
    TierCounts {
        client_hits: c.get("client.cache_hit"),
        agent_hits: c.get("ba.cache_hit"),
        agent_misses: c.get("ba.cache_miss"),
        class_consults: c.get("class.get_binding"),
        activations: c.get("magistrate.activations"),
        legion_class: c.get("legion_class.find")
            + c.get("legion_class.issue")
            + c.get("legion_class.get_binding"),
        messages: sys.kernel.stats().sent,
    }
}

/// Build a *central directory* baseline (the design the paper argues
/// against): one endpoint pre-warmed with every object's binding; clients
/// send every lookup to it. Returns its endpoint id.
pub fn build_central_directory(sys: &mut LegionSystem) -> EndpointId {
    // Resolve every object once through the real protocol to learn its
    // current binding, then load the directory.
    let mut dir = StaticClassEndpoint::new(Loid::class_object(9999));
    let objects = sys.objects.clone();
    for (obj, _) in objects {
        let class_loid = obj.class_loid();
        let class_ep = sys
            .classes
            .iter()
            .find(|(l, _)| *l == class_loid)
            .map(|(_, e)| *e)
            .expect("object's class exists");
        let b = sys
            .call_for_binding(
                class_ep.element(),
                class_loid,
                legion_naming::protocol::GET_BINDING,
                vec![legion_core::value::LegionValue::Loid(obj)],
            )
            .expect("object resolvable at build time");
        dir.table.insert(obj, b);
    }
    sys.kernel
        .add_endpoint(Box::new(dir), Location::new(0, 900), "central-directory")
}
