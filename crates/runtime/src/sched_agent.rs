//! Scheduling Agents as live objects (paper §3.7, §3.8).
//!
//! "Complex scheduling policies are intended to be implemented outside of
//! the Magistrate in Scheduling Agents. The Scheduling Agents will
//! implement their policies by making calls on the primitive scheduling
//! functions exported by the Magistrates" — and by the Host Objects,
//! whose `GetState()` is exactly such a primitive.
//!
//! [`SchedulingAgentEndpoint`] answers `SuggestHost(loid)`: it polls every
//! host's `GetState()`, picks the host with the most free slots, and
//! replies with that host's LOID. Callers pass the suggestion into the
//! Magistrate's two-argument `Activate(loid, host)` — the paper's
//! scheduling "hook".
//!
//! The scatter–gather goes out through the agent's [`Calls`]: each
//! `GetState` parks its poll and host, and its answer is folded into
//! that poll, so there is no hand-rolled call-id → poll bookkeeping
//! here. Under a deadline ([`Calls::set_deadline_ns`]) a silent host
//! counts as "no answer" instead of wedging its poll forever.

use crate::protocol::host as host_proto;
use legion_core::address::ObjectAddressElement;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_net::dispatch::{
    resume, serve, tick, Caller, Calls, MethodTable, Outcome, TableBuilder,
};
use legion_net::message::{Message, ReplyTicket};
use legion_net::sim::{Ctx, Endpoint};
use std::collections::HashMap;
use std::rc::Rc;

/// Method the agent exports.
pub const SUGGEST_HOST: &str = "SuggestHost";

struct Poll {
    /// The original request to answer.
    requester: ReplyTicket,
    /// Replies still outstanding.
    outstanding: usize,
    /// Best host so far: (free slots, loid).
    best: Option<(u64, Loid)>,
}

/// A Scheduling Agent polling host `GetState()` and suggesting placements.
pub struct SchedulingAgentEndpoint {
    hosts: Vec<(Loid, ObjectAddressElement)>,
    calls: Calls<(u64, Loid)>,
    polls: HashMap<u64, Poll>,
    next_poll: u64,
    table: Rc<MethodTable<Self>>,
    /// Suggestions served (experiment accounting).
    pub suggestions: u64,
}

impl SchedulingAgentEndpoint {
    /// An agent that knows about `hosts`.
    pub fn new(loid: Loid, hosts: Vec<(Loid, ObjectAddressElement)>) -> Self {
        SchedulingAgentEndpoint {
            hosts,
            calls: Calls::new(loid, symbol::SCHED_AGENT_TIMEOUTS),
            polls: HashMap::new(),
            next_poll: 0,
            table: Self::table(loid),
            suggestions: 0,
        }
    }

    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("sched_agent", "SchedulingAgent", loid)
            .method::<(Loid,), _>(
                SUGGEST_HOST,
                &["target"],
                ParamType::Loid,
                |e: &mut Self, ctx, msg, (_target,)| {
                    if e.hosts.is_empty() {
                        return Outcome::Reply(Err("scheduling agent knows no hosts".into()));
                    }
                    let poll_id = e.next_poll;
                    e.next_poll += 1;
                    let mut outstanding = 0;
                    for &(host, element) in &e.hosts {
                        let method = host_proto::GET_STATE;
                        if e.calls
                            .call(ctx, element, host, method, vec![], (poll_id, host))
                        {
                            outstanding += 1;
                        }
                    }
                    if outstanding == 0 {
                        return Outcome::Reply(Err("no host reachable".into()));
                    }
                    e.polls.insert(
                        poll_id,
                        Poll {
                            requester: msg.reply_ticket(),
                            outstanding,
                            best: None,
                        },
                    );
                    Outcome::Pending
                },
            )
            .get_interface()
            .seal()
    }

    /// Fold one host's `GetState` answer — `[running, capacity, cpu,
    /// mem]` — into its poll. An error or any other payload counts as an
    /// answer with no free slot.
    fn absorb(
        &mut self,
        ctx: &mut Ctx<'_>,
        poll_id: u64,
        host: Loid,
        state: Result<LegionValue, String>,
    ) {
        if let Some(poll) = self.polls.get_mut(&poll_id) {
            poll.outstanding -= 1;
            if let Ok(LegionValue::List(items)) = state {
                if let (Some(running), Some(capacity)) = (
                    items.first().and_then(|v| v.as_uint()),
                    items.get(1).and_then(|v| v.as_uint()),
                ) {
                    let free = capacity.saturating_sub(running);
                    if poll.best.map(|(f, _)| free > f).unwrap_or(free > 0) {
                        poll.best = Some((free, host));
                    }
                }
            }
        }
        self.finish(ctx, poll_id);
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, poll_id: u64) {
        let Some(poll) = self.polls.get(&poll_id) else {
            return;
        };
        if poll.outstanding > 0 {
            return;
        }
        let poll = self.polls.remove(&poll_id).expect("checked above");
        match poll.best {
            Some((_, host)) => {
                self.suggestions += 1;
                ctx.count(symbol::SCHED_AGENT_SUGGESTIONS);
                ctx.reply_ticket(poll.requester, Ok(LegionValue::Loid(host)));
            }
            None => {
                ctx.reply_ticket(poll.requester, Err("no host answered GetState".into()));
            }
        }
    }
}

impl Caller for SchedulingAgentEndpoint {
    /// A `GetState` call: the poll its answer folds into, and the host
    /// asked.
    type Wait = (u64, Loid);

    fn calls(&mut self) -> &mut Calls<(u64, Loid)> {
        &mut self.calls
    }

    fn wake(
        &mut self,
        ctx: &mut Ctx<'_>,
        (poll, host): (u64, Loid),
        state: Result<LegionValue, String>,
    ) {
        self.absorb(ctx, poll, host, state);
    }
}

impl Endpoint for SchedulingAgentEndpoint {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        tick(self, ctx, tag);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // A reply nothing waits for answers a poll that gave up on it.
        let Some(msg) = resume(self, ctx, msg).filter(|m| !m.is_reply()) else {
            return;
        };
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostConfig, HostObjectEndpoint};
    use crate::protocol::ActivationSpec;
    use legion_core::env::InvocationEnv;
    use legion_net::message::Body;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

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

    fn host(k: &mut SimKernel, n: u64, capacity: u32) -> (Loid, EndpointId) {
        let loid = Loid::instance(3, n);
        let ep = k.add_endpoint(
            Box::new(HostObjectEndpoint::new(HostConfig {
                loid,
                capacity,
                magistrate: None,
                class_addr: None,
            })),
            Location::new(0, n as u32),
            format!("host{n}"),
        );
        (loid, ep)
    }

    fn suggest(
        k: &mut SimKernel,
        probe: EndpointId,
        agent: EndpointId,
    ) -> Result<LegionValue, String> {
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(40, 1),
            SUGGEST_HOST,
            vec![LegionValue::Loid(Loid::instance(16, 1))],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(probe.element());
        k.inject(Location::new(0, 9), agent.element(), msg);
        k.run_until_quiescent(10_000);
        k.endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap()
    }

    #[test]
    fn suggests_the_emptiest_host() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let (h1, e1) = host(&mut k, 1, 4);
        let (h2, e2) = host(&mut k, 2, 4);
        // Fill h1 with two objects.
        for seq in 0..2 {
            let spec = ActivationSpec {
                loid: Loid::instance(16, seq + 1),
                class: Loid::class_object(16),
                state: vec![],
                class_addr: None,
                magistrate_addr: None,
            };
            let id = k.fresh_call_id();
            let msg = Message::call(
                id,
                h1,
                host_proto::ACTIVATE,
                spec.into_args().into(),
                InvocationEnv::anonymous(),
            );
            k.inject(Location::new(0, 9), e1.element(), msg);
            k.run_until_quiescent(10_000);
        }
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(
                Loid::instance(40, 1),
                vec![(h1, e1.element()), (h2, e2.element())],
            )),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let r = suggest(&mut k, probe, agent);
        assert_eq!(r, Ok(LegionValue::Loid(h2)), "h2 has more free slots");
        assert_eq!(
            k.endpoint::<SchedulingAgentEndpoint>(agent)
                .unwrap()
                .suggestions,
            1
        );
        // The scatter-gather left no call parked behind.
        let agent = k.endpoint::<SchedulingAgentEndpoint>(agent).unwrap();
        assert_eq!(agent.calls.outstanding(), 0);
    }

    #[test]
    fn dead_hosts_are_skipped() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let (h1, e1) = host(&mut k, 1, 4);
        let (h2, e2) = host(&mut k, 2, 4);
        k.remove_endpoint(e1);
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(
                Loid::instance(40, 1),
                vec![(h1, e1.element()), (h2, e2.element())],
            )),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let r = suggest(&mut k, probe, agent);
        assert_eq!(r, Ok(LegionValue::Loid(h2)));
    }

    #[test]
    fn no_hosts_errors() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(Loid::instance(40, 1), vec![])),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let r = suggest(&mut k, probe, agent);
        assert!(r.is_err());
        let (h1, e1) = host(&mut k, 1, 4);
        k.remove_endpoint(e1);
        let agent2 = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(
                Loid::instance(40, 2),
                vec![(h1, e1.element())],
            )),
            Location::new(0, 8),
            "sched-agent2",
        );
        let r = suggest(&mut k, probe, agent2);
        assert!(r.unwrap_err().contains("no host reachable"));
    }

    #[test]
    fn unknown_method_errors() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(Loid::instance(40, 1), vec![])),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(40, 1),
            "Bogus",
            vec![],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(probe.element());
        k.inject(Location::new(0, 9), agent.element(), msg);
        k.run_until_quiescent(10_000);
        let r = k
            .endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap();
        assert!(r.unwrap_err().contains("no method"));
        assert_eq!(k.counters().get("sched_agent.unknown_method"), 1);
    }
}
