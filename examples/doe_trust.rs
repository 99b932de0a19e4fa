//! The DOE story: site autonomy through user-replaceable Magistrates
//! (paper §2.1.3, §2.2, §2.4, §3.7).
//!
//! "Suppose the Department of Energy does not trust university graduate
//! students to write a Magistrate class that adequately protects its
//! objects. The DOE can write its own Magistrate, and insist via the
//! class mechanism that all objects that the DOE owns execute only on
//! Magistrates that it trusts."
//!
//! This example builds two Magistrates — a permissive grad-student one
//! and a strict DOE one with a real `MayI` policy — plus a trust registry
//! and a Candidate Magistrate List constraint, and shows refusals
//! actually happening on the wire.
//!
//! ```text
//! cargo run --example doe_trust
//! ```

use legion::core::class::CandidateMagistrates;
use legion::core::env::InvocationEnv;
use legion::core::loid::Loid;
use legion::core::value::LegionValue;
use legion::net::message::{Body, Message};
use legion::net::sim::{Ctx, Endpoint, SimKernel};
use legion::net::topology::{Location, Topology};
use legion::net::FaultPlan;
use legion::runtime::magistrate::{MagistrateConfig, MagistrateEndpoint};
use legion::runtime::protocol::{host as host_proto, magistrate as mag_proto, ActivationSpec};
use legion::runtime::{CoreSystem, HostConfig, HostObjectEndpoint};
use legion::security::mayi::ResponsibleAgentSet;
use legion::security::TrustRegistry;

#[derive(Default)]
struct Probe {
    replies: Vec<Result<LegionValue, String>>,
}
impl Endpoint for Probe {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if let Body::Reply { result, .. } = msg.body {
            self.replies.push(result);
        }
    }
}

fn main() {
    let mut k = SimKernel::new(Topology::default(), FaultPlan::none(), 7);
    let core = CoreSystem::bootstrap(&mut k, Location::new(0, 0));

    // Identities.
    let doe_user = Loid::instance(20, 1); // a DOE scientist's proxy object
    let grad_student = Loid::instance(20, 2); // everyone else
    let doe_magistrate = Loid::instance(4, 1);
    let grad_magistrate = Loid::instance(4, 2);
    let doe_host = Loid::instance(3, 1);

    // The DOE writes its own Magistrate: §2.4's RA-set policy — only
    // calls performed on behalf of the DOE user are serviced. "Member
    // function calls on Magistrates should be thought of as requests
    // rather than commands."
    let doe_mag_ep = {
        let cfg = MagistrateConfig {
            loid: doe_magistrate,
            jurisdiction: 0,
            class_addr: Some(core.legion_magistrate.element()),
            disks: 2,
            disk_capacity: 1 << 20,
        };
        let m =
            MagistrateEndpoint::new(cfg).with_mayi(Box::new(ResponsibleAgentSet::new([doe_user])));
        k.add_endpoint(Box::new(m), Location::new(0, 1), "magistrate:DOE")
    };
    // The grad-student Magistrate accepts anything (the default).
    let grad_mag_ep =
        core.start_magistrate(&mut k, grad_magistrate, Location::new(1, 1), 1, 2, 1 << 20);

    // A DOE-certified host, locked to the DOE Magistrate: "Host Objects
    // ... ensure that [their] member functions will be invoked only by
    // [their] Magistrate" (§3.9).
    let doe_host_ep = k.add_endpoint(
        Box::new(HostObjectEndpoint::new(HostConfig {
            loid: doe_host,
            capacity: 8,
            magistrate: Some(doe_magistrate),
            class_addr: Some(core.legion_host.element()),
        })),
        Location::new(0, 2),
        "host:DOE-certified",
    );
    k.endpoint_mut::<MagistrateEndpoint>(doe_mag_ep)
        .expect("doe magistrate")
        .add_host(doe_host, doe_host_ep.element(), 8);
    let _ = grad_mag_ep;

    let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
    k.run_until_quiescent(10_000);

    // The trust registry: which Magistrates carry the "doe-certified"
    // label — and a DOE object's Candidate Magistrate List referencing it.
    let mut trust = TrustRegistry::new();
    trust.certify("doe-certified", doe_magistrate);
    let candidates = CandidateMagistrates::TrustLabel("doe-certified".into());
    let certified = trust.members("doe-certified");
    println!(
        "trust registry: doe-certified has {} member(s)",
        certified.len()
    );
    println!(
        "candidate check: DOE magistrate permitted = {}, grad magistrate permitted = {}",
        candidates.permits(doe_magistrate, Some(&certified)),
        candidates.permits(grad_magistrate, Some(&certified)),
    );

    // A helper to fire a CreateObject request at the DOE Magistrate under
    // a chosen Responsible Agent.
    let request = |k: &mut SimKernel, ra: Loid, seq: u64| -> Result<LegionValue, String> {
        let spec = ActivationSpec {
            loid: Loid::instance(1000, seq),
            class: Loid::class_object(1000),
            state: vec![],
            class_addr: None,
            magistrate_addr: Some(doe_mag_ep.element()),
        };
        let id = k.fresh_call_id();
        let env = InvocationEnv::solo(ra);
        let mut msg = Message::call(
            id,
            doe_magistrate,
            mag_proto::CREATE_OBJECT,
            spec.into_args().into(),
            env,
        );
        msg.reply_to = Some(probe.element());
        msg.sender = Some(ra);
        let before = k.endpoint::<Probe>(probe).expect("probe").replies.len();
        k.inject(Location::new(0, 9), doe_mag_ep.element(), msg);
        k.run_until_quiescent(100_000);
        k.endpoint::<Probe>(probe)
            .expect("probe")
            .replies
            .get(before)
            .cloned()
            .unwrap_or(Err("no reply".into()))
    };

    // The grad student asks the DOE Magistrate to run an object: refused.
    println!("\n[grad-student] asks DOE magistrate to run an object:");
    match request(&mut k, grad_student, 1) {
        Err(e) => println!("  -> REFUSED: {e}"),
        Ok(v) => println!("  -> unexpectedly allowed: {v}"),
    }

    // The DOE user asks: accepted; the object runs on the certified host.
    println!("[doe-user] asks DOE magistrate to run an object:");
    match request(&mut k, doe_user, 2) {
        Ok(LegionValue::Binding(b)) => {
            println!("  -> ACCEPTED: {} active at {}", b.loid, b.address)
        }
        other => println!("  -> unexpected: {other:?}"),
    }

    // And the certified host itself refuses direct commands from anyone
    // but its Magistrate — even a well-formed activation spec.
    println!("[grad-student] tries to bypass the magistrate and talk to the DOE host directly:");
    let spec = ActivationSpec {
        loid: Loid::instance(1000, 3),
        class: Loid::class_object(1000),
        state: vec![],
        class_addr: None,
        magistrate_addr: None,
    };
    let id = k.fresh_call_id();
    let mut msg = Message::call(
        id,
        doe_host,
        host_proto::ACTIVATE,
        spec.into_args().into(),
        InvocationEnv::solo(grad_student),
    );
    msg.reply_to = Some(probe.element());
    msg.sender = Some(grad_student);
    let before = k.endpoint::<Probe>(probe).expect("probe").replies.len();
    k.inject(Location::new(0, 9), doe_host_ep.element(), msg);
    k.run_until_quiescent(100_000);
    match k
        .endpoint::<Probe>(probe)
        .expect("probe")
        .replies
        .get(before)
    {
        Some(Err(e)) => println!("  -> REFUSED by the host: {e}"),
        other => println!("  -> unexpected: {other:?}"),
    }

    println!(
        "\nrefusals recorded: magistrate={}, host={}",
        k.counters().get("magistrate.refused"),
        k.counters().get("host.refused"),
    );
}
