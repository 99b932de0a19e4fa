//! Workload generators and client endpoints.
//!
//! The paper's scalability assumptions (§5.2) are explicitly about
//! workload shape: "we assume that most accesses will be local" and class
//! popularity is skewed (hot file classes, §5.2.2). The generator
//! controls both knobs:
//!
//! * **locality** — probability a reference targets an object in the
//!   client's own jurisdiction;
//! * **Zipf skew** — popularity distribution over objects (s = 0 is
//!   uniform; s ≈ 1 is classic hot-spot).
//!
//! [`LookupClient`] drives the full client-side protocol: local cache →
//! Binding Agent → … (§4.1.2), optionally following each resolution with a
//! real method invocation (`Ping`) so stale bindings are *used* and
//! detected (§4.1.4).

use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_m;
use legion_core::symbol::{self, Sym};
use legion_core::time::SimTime;
use legion_core::value::LegionValue;
use legion_core::wellknown::LEGION_BINDING_AGENT;
use legion_ha::backoff::Backoff;
use legion_naming::protocol::ADD_BINDING;
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_net::dispatch::{is_overloaded, serve, MethodTable, Outcome, TableBuilder};
use legion_net::message::{Body, CallId, Message};
use legion_net::metrics::Histogram;
use legion_net::sim::{Ctx, Endpoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Lookups each client performs.
    pub lookups_per_client: u32,
    /// Virtual time between a completed operation and the next issue.
    pub inter_arrival_ns: u64,
    /// Probability a target lives in the client's jurisdiction.
    pub locality: f64,
    /// Zipf exponent over object popularity (0 = uniform).
    pub zipf_s: f64,
    /// Client-side binding cache capacity.
    pub client_cache_capacity: usize,
    /// Ablation: disable the client cache entirely (E3).
    pub client_cache_enabled: bool,
    /// After resolving, invoke `Ping` on the object (exercises stale
    /// bindings); otherwise the workload is lookup-only.
    pub invoke_after_resolve: bool,
    /// Whole-operation retries after a terminal error, on a capped
    /// exponential backoff (base `4 × inter_arrival`, doubling, capped at
    /// `32 × inter_arrival`). E15 raises this so clients ride out the
    /// crash-detection window.
    pub op_retry_attempts: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            lookups_per_client: 100,
            inter_arrival_ns: 1_000_000, // 1 ms
            locality: 0.8,
            zipf_s: 0.9,
            client_cache_capacity: 64,
            client_cache_enabled: true,
            invoke_after_resolve: false,
            op_retry_attempts: 2,
        }
    }
}

/// Draw `n` targets for a client in `jurisdiction`, honouring locality and
/// Zipf popularity. `objects` is the global `(loid, jurisdiction)` list.
pub fn generate_plan(
    objects: &[(Loid, u32)],
    jurisdiction: u32,
    cfg: &WorkloadConfig,
    seed: u64,
) -> Vec<Loid> {
    assert!(!objects.is_empty(), "workload needs objects");
    let mut rng = StdRng::seed_from_u64(seed);
    let local: Vec<Loid> = objects
        .iter()
        .filter(|(_, j)| *j == jurisdiction)
        .map(|(l, _)| *l)
        .collect();
    let remote: Vec<Loid> = objects
        .iter()
        .filter(|(_, j)| *j != jurisdiction)
        .map(|(l, _)| *l)
        .collect();
    let zipf_local = ZipfSampler::new(local.len().max(1), cfg.zipf_s);
    let zipf_remote = ZipfSampler::new(remote.len().max(1), cfg.zipf_s);
    (0..cfg.lookups_per_client)
        .map(|_| {
            let use_local = !local.is_empty()
                && (remote.is_empty() || rng.gen_bool(cfg.locality.clamp(0.0, 1.0)));
            if use_local {
                local[zipf_local.sample(&mut rng)]
            } else {
                remote[zipf_remote.sample(&mut rng)]
            }
        })
        .collect()
}

/// A Zipf(s) sampler over ranks `0..n` via inverse-CDF binary search.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw a rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

// ---------------------------------------------------------------------
// Open-loop traffic (E18)
// ---------------------------------------------------------------------

/// A flash-crowd window: the offered rate is multiplied by `multiplier`
/// for `duration_ns` starting at `start_ns` (relative to workload start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start, ns from workload start.
    pub start_ns: u64,
    /// Window length, ns.
    pub duration_ns: u64,
    /// Rate multiplier inside the window (≥ 0).
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Is `t_ns` inside the window?
    pub fn contains(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns < self.start_ns.saturating_add(self.duration_ns)
    }
}

/// Open-loop workload shape: a seeded non-homogeneous Poisson process.
///
/// Unlike [`WorkloadConfig`]'s closed loop — where each client issues the
/// next operation only after the previous one completes, so an overloaded
/// server automatically throttles its own offered load — an open-loop
/// generator keeps issuing at the *offered* rate regardless of
/// completions. That is what real demand does, and it is the only
/// workload under which overload behaviour (queue growth, shedding,
/// goodput collapse) is observable at all.
///
/// The instantaneous rate is `base × diurnal(t) × flash(t)`:
/// a sinusoidal diurnal curve with the given amplitude and period, times
/// a [`FlashCrowd`] multiplier inside its window. Arrivals are drawn by
/// Lewis–Shedler thinning against the curve's peak, from a dedicated
/// `StdRng` seeded per generator — never from the kernel RNG, so the
/// arrival stream is a pure function of `(config, rate_scale, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Baseline offered rate, operations per virtual second.
    pub base_rate_per_sec: f64,
    /// Total generation span, virtual ns from workload start.
    pub duration_ns: u64,
    /// Diurnal modulation amplitude in `[0, 1]` (0 = flat).
    pub diurnal_amplitude: f64,
    /// Diurnal period, ns (ignored when the amplitude is 0).
    pub diurnal_period_ns: u64,
    /// Optional flash-crowd burst window.
    pub flash: Option<FlashCrowd>,
    /// Retries per shed operation, each honoring the server's
    /// retry-after hint. 0 = fire-and-forget.
    pub max_retries: u32,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            base_rate_per_sec: 1000.0,
            duration_ns: 1_000_000_000,
            diurnal_amplitude: 0.0,
            diurnal_period_ns: 1_000_000_000,
            flash: None,
            max_retries: 3,
        }
    }
}

impl OpenLoopConfig {
    /// The instantaneous offered rate at `t_ns` (ops per virtual second).
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        let mut r = self.base_rate_per_sec;
        if self.diurnal_amplitude > 0.0 && self.diurnal_period_ns > 0 {
            let phase = (t_ns % self.diurnal_period_ns) as f64 / self.diurnal_period_ns as f64;
            r *= 1.0 + self.diurnal_amplitude.min(1.0) * (std::f64::consts::TAU * phase).sin();
        }
        if let Some(f) = &self.flash {
            if f.contains(t_ns) {
                r *= f.multiplier.max(0.0);
            }
        }
        r.max(0.0)
    }

    /// An upper bound on [`rate_at`](Self::rate_at) over the whole span
    /// (the thinning envelope).
    pub fn peak_rate_per_sec(&self) -> f64 {
        let diurnal_peak = 1.0 + self.diurnal_amplitude.clamp(0.0, 1.0);
        let flash_peak = self
            .flash
            .as_ref()
            .map(|f| f.multiplier.max(1.0))
            .unwrap_or(1.0);
        self.base_rate_per_sec * diurnal_peak * flash_peak
    }
}

/// Draw one generator's arrival times (ns from workload start, strictly
/// inside `cfg.duration_ns`) for a rate of `rate_scale × cfg.rate_at(t)`.
///
/// Lewis–Shedler thinning: candidate arrivals come from a homogeneous
/// Poisson process at the peak rate; each survives with probability
/// `rate(t) / peak`. The stream is bit-deterministic in `(cfg,
/// rate_scale, seed)` and touches no shared RNG.
pub fn generate_arrivals(cfg: &OpenLoopConfig, rate_scale: f64, seed: u64) -> Vec<u64> {
    let peak = cfg.peak_rate_per_sec();
    let peak_per_ns = peak * rate_scale.max(0.0) / 1e9;
    if peak_per_ns <= 0.0 || cfg.duration_ns == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let horizon = cfg.duration_ns as f64;
    loop {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / peak_per_ns;
        if t >= horizon {
            break;
        }
        let accept: f64 = rng.gen();
        if accept * peak <= cfg.rate_at(t as u64) {
            out.push(t as u64);
        }
    }
    out
}

/// Per-phase ledger of an open-loop client. Operations are attributed
/// to the phase of their *first* issue, so spill-over completions and
/// retries count against the phase that offered them.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Operations offered (first issues, not retries).
    pub offered: u64,
    /// Operations that eventually completed successfully.
    pub ok: u64,
    /// `Overloaded` replies received (one per shed attempt).
    pub shed_replies: u64,
    /// Retries issued on the server's retry-after hint.
    pub retried: u64,
    /// Operations abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Operations that failed for any other reason.
    pub failed: u64,
    /// First-issue → final-success latency, virtual ns.
    pub latency: Histogram,
}

impl PhaseStats {
    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.offered += other.offered;
        self.ok += other.ok;
        self.shed_replies += other.shed_replies;
        self.retried += other.retried;
        self.gave_up += other.gave_up;
        self.failed += other.failed;
        self.latency.merge(&other.latency);
    }
}

/// What a finished open-loop client reports: one [`PhaseStats`] per
/// configured phase (always at least one).
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Per-phase ledgers, in phase order.
    pub phases: Vec<PhaseStats>,
}

impl OpenLoopReport {
    /// Sum over all phases.
    pub fn total(&self) -> PhaseStats {
        let mut t = PhaseStats::default();
        for p in &self.phases {
            t.merge(p);
        }
        t
    }

    /// Fold another report into this one (phase-wise).
    pub fn merge(&mut self, other: &OpenLoopReport) {
        if self.phases.len() < other.phases.len() {
            self.phases
                .resize_with(other.phases.len(), PhaseStats::default);
        }
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
    }
}

const TIMER_OL_ARRIVAL: u64 = 1;
/// Retry timers are `TIMER_OL_RETRY_BASE + seq`.
const TIMER_OL_RETRY_BASE: u64 = 1_000_000;

thread_local! {
    /// The method table every [`OpenLoopClient`] on this thread serves
    /// through (`Rc` is not `Send`, hence per thread).
    static TABLE: Rc<MethodTable<OpenLoopClient>> = OpenLoopClient::table();
}

/// One in-flight open-loop operation.
#[derive(Debug, Clone, Copy)]
struct OpenOp {
    /// Virtual time of the first issue (latency baseline).
    first_issued: SimTime,
    /// Phase index of the first issue.
    phase: usize,
    /// Retries consumed so far.
    retries: u32,
}

/// An open-loop client endpoint: issues one pre-generated arrival stream
/// of method calls through its target's Object Address at the offered
/// rate, regardless of completions, and retries shed calls on the
/// server's retry-after hint (bounded). See [`OpenLoopConfig`] for why
/// open loop.
///
/// It serves one method, `AddBinding` (§3.6): a binding for its target
/// replaces the address, so replicas bound to the target's LOID share
/// the client's calls per the address's semantics (§4.3).
pub struct OpenLoopClient {
    me: Loid,
    /// Where calls are sent: the target's Object Address.
    address: ObjectAddress,
    /// The LOID calls are addressed to (the class object).
    target: Loid,
    method: Sym,
    /// Arrival times, ns from this client's start, ascending.
    arrivals: Vec<u64>,
    next: usize,
    started: Option<SimTime>,
    /// Phase boundaries, ns from start, ascending: phase `i` spans
    /// `[bounds[i-1], bounds[i])`. Empty = a single phase.
    phase_bounds: Vec<u64>,
    max_retries: u32,
    outstanding: FxHashMap<CallId, OpenOp>,
    pending_retries: FxHashMap<u64, OpenOp>,
    retry_seq: u64,
    /// Public so drivers can collect it when the run ends.
    pub report: OpenLoopReport,
}

impl OpenLoopClient {
    /// A client issuing `arrivals` (ns offsets, ascending) of `method`
    /// calls for `target` at `element` until an `AddBinding` for
    /// `target` replaces the address, slicing its ledger at
    /// `phase_bounds`.
    pub fn new(
        me: Loid,
        element: ObjectAddressElement,
        target: Loid,
        method: Sym,
        arrivals: Vec<u64>,
        phase_bounds: Vec<u64>,
        max_retries: u32,
    ) -> Self {
        let phases = phase_bounds.len() + 1;
        OpenLoopClient {
            me,
            address: ObjectAddress::single(element),
            target,
            method,
            arrivals,
            next: 0,
            started: None,
            phase_bounds,
            max_retries,
            outstanding: FxHashMap::default(),
            pending_retries: FxHashMap::default(),
            retry_seq: 0,
            report: OpenLoopReport {
                phases: vec![PhaseStats::default(); phases],
            },
        }
    }

    /// The client's one method: `AddBinding`, as the Binding Agent
    /// defines it.
    fn table() -> Rc<MethodTable<Self>> {
        TableBuilder::new("client", "OpenLoopClient", LEGION_BINDING_AGENT)
            .method::<(Binding,), _>(
                ADD_BINDING,
                &["binding"],
                ParamType::Void,
                |c: &mut Self, _ctx, _msg, (b,)| {
                    if b.loid == c.target {
                        c.address = b.address;
                    }
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .seal()
    }

    /// The Object Address calls go through.
    pub(crate) fn address(&self) -> &ObjectAddress {
        &self.address
    }

    /// Has the client issued its whole stream and settled every op?
    pub fn is_done(&self) -> bool {
        self.next >= self.arrivals.len()
            && self.outstanding.is_empty()
            && self.pending_retries.is_empty()
    }

    fn phase_of(&self, rel_ns: u64) -> usize {
        self.phase_bounds.partition_point(|&b| b <= rel_ns)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, op: OpenOp) {
        match ctx.call_address(
            &self.address,
            self.target,
            self.method,
            vec![],
            InvocationEnv::solo(self.me),
            Some(self.me),
        ) {
            Some(id) => {
                self.outstanding.insert(id, op);
            }
            None => {
                ctx.trace_end("failed");
                self.report.phases[op.phase].failed += 1;
            }
        }
    }

    /// Issue every arrival due by `now`; re-arm for the next one.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let started = self.started.expect("pump after on_start");
        let rel = ctx.now().saturating_since(started);
        while self.next < self.arrivals.len() && self.arrivals[self.next] <= rel {
            let at = self.arrivals[self.next];
            self.next += 1;
            let phase = self.phase_of(at);
            self.report.phases[phase].offered += 1;
            let op = OpenOp {
                first_issued: ctx.now(),
                phase,
                retries: 0,
            };
            // One trace per operation: a retry's timer carries it along.
            ctx.trace_begin("call");
            self.issue(ctx, op);
        }
        if self.next < self.arrivals.len() {
            ctx.set_timer(self.arrivals[self.next] - rel, TIMER_OL_ARRIVAL);
        }
    }
}

impl Endpoint for OpenLoopClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started = Some(ctx.now());
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_OL_ARRIVAL {
            self.pump(ctx);
            return;
        }
        if tag >= TIMER_OL_RETRY_BASE {
            if let Some(op) = self.pending_retries.remove(&(tag - TIMER_OL_RETRY_BASE)) {
                self.issue(ctx, op);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let Body::Reply {
            in_reply_to,
            result,
        } = &msg.body
        else {
            let table = TABLE.with(Rc::clone);
            return serve(&table, self, ctx, msg);
        };
        let Some(op) = self.outstanding.remove(in_reply_to) else {
            return;
        };
        let stats = &mut self.report.phases[op.phase];
        match result {
            Ok(_) => {
                ctx.trace_end("ok");
                stats.ok += 1;
                stats
                    .latency
                    .record(ctx.now().saturating_since(op.first_issued));
            }
            Err(e) => match is_overloaded(e) {
                Some(retry_after_ns) => {
                    stats.shed_replies += 1;
                    if op.retries < self.max_retries {
                        stats.retried += 1;
                        self.retry_seq += 1;
                        let seq = self.retry_seq;
                        self.pending_retries.insert(
                            seq,
                            OpenOp {
                                retries: op.retries + 1,
                                ..op
                            },
                        );
                        ctx.set_timer(retry_after_ns.max(1), TIMER_OL_RETRY_BASE + seq);
                    } else {
                        ctx.trace_end("gave-up");
                        stats.gave_up += 1;
                    }
                }
                None => {
                    ctx.trace_end("failed");
                    stats.failed += 1;
                }
            },
        }
        // The reply's text or value goes back to the kernel pool: the
        // next shed hint or interface copy is written into it.
        ctx.recycle_message(msg);
    }
}

/// What a finished client reports.
#[derive(Debug, Clone, Default)]
pub struct ClientReport {
    /// Operations completed (resolved, and invoked when configured).
    pub completed: u64,
    /// Operations that failed permanently.
    pub failed: u64,
    /// Lookups served from the client's local cache.
    pub local_hits: u64,
    /// Lookups that went to the Binding Agent.
    pub agent_requests: u64,
    /// Stale bindings detected and refreshed (§4.1.4).
    pub stale_refreshes: u64,
    /// Virtual-time latency per completed operation (ns).
    pub latency: Histogram,
}

impl ClientReport {
    /// Merge another client's report into this one.
    pub fn merge(&mut self, other: &ClientReport) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.local_hits += other.local_hits;
        self.agent_requests += other.agent_requests;
        self.stale_refreshes += other.stale_refreshes;
        self.latency.merge(&other.latency);
    }
}

const TIMER_NEXT: u64 = 1;
/// Re-issue a failed operation after a backoff.
const TIMER_RETRY: u64 = 2;
/// Re-issue an operation shed by an overloaded server, at its hint.
const TIMER_OVERLOAD: u64 = 3;
/// Overloaded replies honored per operation before giving up. Generous:
/// the server's hints are honest (the queue really does drain by then),
/// so repeated shedding means sustained overload, not a wedged op.
const MAX_OVERLOAD_RETRIES: u32 = 16;
/// Stale bindings refreshed per attempt before it gives up: an op that
/// keeps resolving to dead addresses eventually fails rather than
/// spinning (the class may be unreachable or persistently misinformed
/// under message loss).
const MAX_STALE_REFRESHES: u32 = 6;
/// Invoke-timeout timers are `TIMER_INVOKE_BASE + generation`.
const TIMER_INVOKE_BASE: u64 = 1000;
/// A Ping that nothing answers (lost, or its server crashed) is declared
/// stale after this long.
const INVOKE_TIMEOUT_NS: u64 = 400_000_000;
/// Binding-request timeout timers are `TIMER_BINDING_BASE + generation`.
const TIMER_BINDING_BASE: u64 = 2_000_000;
/// A binding request whose reply was silently lost is re-issued after
/// this long (client-level retry over a lossy network).
const BINDING_TIMEOUT_NS: u64 = 800_000_000;
/// Give up on a target after this many binding re-issues.
const MAX_BINDING_ATTEMPTS: u32 = 4;

/// One logical operation and its budgets. A new op starts with fresh
/// budgets, so nothing is reset by hand.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Virtual time of the first issue (the latency baseline).
    started: SimTime,
    target: Loid,
    /// Stale refreshes in the current attempt.
    stale: u32,
    /// Whole-op retries spent on the backoff schedule.
    errors: u32,
    /// Overloaded replies honored.
    sheds: u32,
}

/// Where the client's one operation stands — the only place its state
/// lives. Request → locate → use → release (§4.1.2–§4.1.4): each phase
/// waits on one reply or one timer, and DESIGN §3.7 tabulates its
/// successors.
enum Phase {
    /// Between operations: `TIMER_NEXT` issues the next.
    Idle,
    /// A terminal error, waiting out the backoff: `TIMER_RETRY` looks the
    /// target up again.
    Retry(Op),
    /// A Ping shed by an overloaded server, waiting out its hint:
    /// `TIMER_OVERLOAD` re-sends it.
    Shed(Op, Binding),
    /// A `GetBinding` in flight after this many re-issues, guarded by
    /// `TIMER_BINDING_BASE + binding_generation`.
    AwaitBinding(Op, u32),
    /// A Ping in flight under this call id, guarded by
    /// `TIMER_INVOKE_BASE + invoke_generation`.
    AwaitInvoke(Op, Binding, CallId),
    /// The plan is finished.
    Done,
}

/// A workload client endpoint.
pub struct LookupClient {
    me: Loid,
    resolver: ClientResolver,
    plan: Vec<Loid>,
    next: usize,
    inter_arrival_ns: u64,
    invoke: bool,
    phase: Phase,
    /// Generation counter guarding invoke-timeout timers.
    invoke_generation: u64,
    /// Generation counter guarding binding-timeout timers.
    binding_generation: u64,
    /// Capped exponential backoff schedule for whole-op retries.
    retry: Backoff,
    /// Public so drivers can collect it when the run ends.
    pub report: ClientReport,
}

impl LookupClient {
    /// A client using the Binding Agent at `agent`.
    pub fn new(
        me: Loid,
        agent: ObjectAddressElement,
        plan: Vec<Loid>,
        cfg: &WorkloadConfig,
    ) -> Self {
        let mut resolver = ClientResolver::new(me, agent, cfg.client_cache_capacity);
        resolver.set_cache_enabled(cfg.client_cache_enabled);
        LookupClient {
            me,
            resolver,
            plan,
            next: 0,
            inter_arrival_ns: cfg.inter_arrival_ns,
            invoke: cfg.invoke_after_resolve,
            phase: Phase::Idle,
            invoke_generation: 0,
            binding_generation: 0,
            retry: Backoff {
                base_ns: cfg.inter_arrival_ns.max(1) * 4,
                factor: 2,
                max_delay_ns: cfg.inter_arrival_ns.max(1) * 32,
                max_attempts: cfg.op_retry_attempts,
            },
            report: ClientReport::default(),
        }
    }

    /// Has the client finished its plan?
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Issue the plan's next operation. A lookup-only cache hit costs no
    /// virtual time, so the op after it follows at once.
    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(&target) = self.plan.get(self.next) {
            self.next += 1;
            // One trace per logical operation: retries and refreshes stay
            // inside it, so the critical path of the *request* is visible.
            ctx.trace_begin(if self.invoke {
                "lookup+invoke"
            } else {
                "lookup"
            });
            let op = Op {
                started: ctx.now(),
                target,
                stale: 0,
                errors: 0,
                sheds: 0,
            };
            let found = self.resolver.lookup(ctx, target);
            if !self.on_lookup(ctx, op, 0, found) {
                return;
            }
        }
        self.phase = Phase::Done;
        let stats = self.resolver.stats();
        self.report.local_hits = stats.local_hits;
        self.report.agent_requests = stats.agent_requests;
        self.report.stale_refreshes = stats.refreshes;
    }

    /// Act on what the resolver said about `op.target` — every lookup and
    /// stale report lands here. `attempts` counts the op's binding
    /// re-issues. Returns `true` when a lookup-only cache hit ended the op
    /// on the spot, leaving the caller to say when the next one starts.
    fn on_lookup(&mut self, ctx: &mut Ctx<'_>, op: Op, attempts: u32, found: Lookup) -> bool {
        match found {
            Lookup::Cached(b) if self.invoke => self.invoke_binding(ctx, op, b),
            Lookup::Cached(_) => {
                self.record(ctx, op.started, true);
                return true;
            }
            Lookup::Requested(_) => self.await_binding(ctx, op, attempts),
            Lookup::AgentUnreachable => self.op_failed(ctx, op),
        }
        false
    }

    /// Look `op.target` up again after a timer. A lookup-only cache hit
    /// here waits out the gap to the next op like any other completion.
    fn relookup(&mut self, ctx: &mut Ctx<'_>, op: Op, attempts: u32) {
        let found = self.resolver.lookup(ctx, op.target);
        if self.on_lookup(ctx, op, attempts, found) {
            self.schedule_next(ctx);
        }
    }

    /// What the Binding Agent answered for `answered`.
    fn on_binding(&mut self, ctx: &mut Ctx<'_>, answered: Loid, result: Result<Binding, String>) {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::AwaitBinding(op, _) if op.target == answered => match result {
                Ok(b) if self.invoke => self.invoke_binding(ctx, op, b),
                Ok(_) => self.end_op(ctx, op.started, true),
                Err(e) => match is_overloaded(&e) {
                    Some(hint_ns) => self.on_shed(ctx, op, None, hint_ns),
                    None => self.op_failed(ctx, op),
                },
            },
            // A late reply from an abandoned attempt.
            phase => self.phase = phase,
        }
    }

    /// A terminal error for the current attempt: retry the whole op
    /// (fresh lookup) on the capped exponential backoff schedule, then
    /// record failure once the schedule is exhausted. The widening gaps
    /// let a crashed host be detected and its objects recovered while the
    /// op is still in flight (E15).
    fn op_failed(&mut self, ctx: &mut Ctx<'_>, op: Op) {
        match self.retry.delay_ns(op.errors) {
            Some(delay_ns) => {
                ctx.count(symbol::CLIENT_OP_RETRY);
                self.phase = Phase::Retry(Op {
                    errors: op.errors + 1,
                    ..op
                });
                ctx.set_timer(delay_ns, TIMER_RETRY);
            }
            None => self.end_op(ctx, op.started, false),
        }
    }

    /// A server shed this op's call with a retry-after hint
    /// (`CoreError::Overloaded`): it is alive and will have queue room by
    /// the hinted time, so honor *its* schedule instead of our blind
    /// capped-exponential backoff — and leave the stale budget alone.
    /// Through [`handle_stale`](Self::handle_stale) a shed would burn the
    /// stale budget and spam the Binding Agent with stale-reports for a
    /// perfectly live server. A shed Ping (`binding` given) is re-sent to
    /// the same address; a shed `GetBinding` (the class itself is
    /// admission-gated) is looked up again.
    fn on_shed(&mut self, ctx: &mut Ctx<'_>, op: Op, binding: Option<Binding>, hint_ns: u64) {
        ctx.count(symbol::CLIENT_OVERLOAD_BACKOFF);
        let op = Op {
            sheds: op.sheds + 1,
            ..op
        };
        if op.sheds > MAX_OVERLOAD_RETRIES {
            return self.op_failed(ctx, op);
        }
        // The retried attempt starts fresh: a shed is not a stale hit.
        let op = Op { stale: 0, ..op };
        let (phase, tag) = match binding {
            Some(b) => (Phase::Shed(op, b), TIMER_OVERLOAD),
            None => (Phase::Retry(op), TIMER_RETRY),
        };
        self.phase = phase;
        ctx.set_timer(hint_ns.max(1), tag);
    }

    /// Stale binding detected in use (§4.1.4): refresh and retry, up to
    /// [`MAX_STALE_REFRESHES`] per attempt.
    fn handle_stale(&mut self, ctx: &mut Ctx<'_>, op: Op, binding: Binding) {
        let op = Op {
            stale: op.stale + 1,
            ..op
        };
        if op.stale > MAX_STALE_REFRESHES {
            ctx.count(symbol::CLIENT_STALE_GAVE_UP);
            return self.op_failed(ctx, op);
        }
        let found = self.resolver.report_stale(ctx, binding);
        if self.on_lookup(ctx, op, 0, found) {
            self.schedule_next(ctx);
        }
    }

    /// Enter `AwaitBinding` with a loss-recovery timer armed.
    fn await_binding(&mut self, ctx: &mut Ctx<'_>, op: Op, attempts: u32) {
        self.phase = Phase::AwaitBinding(op, attempts);
        self.binding_generation += 1;
        ctx.set_timer(
            BINDING_TIMEOUT_NS,
            TIMER_BINDING_BASE + self.binding_generation,
        );
    }

    fn invoke_binding(&mut self, ctx: &mut Ctx<'_>, op: Op, binding: Binding) {
        let Some(primary) = binding.address.primary().copied() else {
            return self.end_op(ctx, op.started, false);
        };
        match ctx.call(
            primary,
            binding.loid,
            obj_m::PING,
            vec![],
            InvocationEnv::solo(self.me),
            Some(self.me),
        ) {
            Some(call) => {
                self.phase = Phase::AwaitInvoke(op, binding, call);
                // Guard against a Ping or its reply silently lost, or a
                // server that crashed: neither answers, and the client
                // must not hang. A deactivated server's Ping is answered
                // by the kernel with an `Err`.
                self.invoke_generation += 1;
                ctx.set_timer(
                    INVOKE_TIMEOUT_NS,
                    TIMER_INVOKE_BASE + self.invoke_generation,
                );
            }
            None => {
                // Detectable stale binding (§4.1.4): refresh and retry.
                ctx.count(symbol::CLIENT_STALE_REFUSED);
                self.handle_stale(ctx, op, binding);
            }
        }
    }

    /// Close the op's trace and count its outcome.
    fn record(&mut self, ctx: &mut Ctx<'_>, started: SimTime, ok: bool) {
        if ok {
            ctx.trace_end("ok");
            self.report.completed += 1;
            self.report
                .latency
                .record(ctx.now().saturating_since(started));
        } else {
            ctx.trace_end("failed");
            self.report.failed += 1;
        }
    }

    /// The op is over: record it and wait out the gap to the next.
    fn end_op(&mut self, ctx: &mut Ctx<'_>, started: SimTime, ok: bool) {
        self.record(ctx, started, ok);
        self.schedule_next(ctx);
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Idle;
        if self.next < self.plan.len() {
            ctx.set_timer(self.inter_arrival_ns, TIMER_NEXT);
        } else {
            self.issue_next(ctx); // finalizes the report
        }
    }
}

impl Endpoint for LookupClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.issue_next(ctx);
    }

    /// One arm per timer, each honoured only in the phase that armed it;
    /// any other firing is a guard whose op has moved on.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match (std::mem::replace(&mut self.phase, Phase::Idle), tag) {
            (Phase::Idle, TIMER_NEXT) => self.issue_next(ctx),
            // Each attempt gets a fresh stale-refresh budget: the cap
            // bounds spinning within one attempt, while attempts
            // themselves are spaced by the widening backoff — without the
            // reset, one exhausted attempt would make every later retry
            // give up on its first stale hit.
            (Phase::Retry(op), TIMER_RETRY) => self.relookup(ctx, Op { stale: 0, ..op }, 0),
            (Phase::Shed(op, binding), TIMER_OVERLOAD) => self.invoke_binding(ctx, op, binding),
            // The *latest* Ping is still outstanding: it or its reply was
            // silently lost, or its server crashed. Treat as stale.
            (Phase::AwaitInvoke(op, binding, _), tag)
                if tag == TIMER_INVOKE_BASE + self.invoke_generation =>
            {
                ctx.count(symbol::CLIENT_INVOKE_TIMEOUT);
                self.handle_stale(ctx, op, binding);
            }
            // The *latest* binding request is still outstanding: request
            // or reply was silently lost. Re-issue (the resolver keeps a
            // dangling pending entry for the lost call; a late reply for
            // this target still answers the op).
            (Phase::AwaitBinding(op, attempts), tag)
                if tag == TIMER_BINDING_BASE + self.binding_generation =>
            {
                ctx.count(symbol::CLIENT_BINDING_TIMEOUT);
                if attempts + 1 >= MAX_BINDING_ATTEMPTS {
                    self.op_failed(ctx, op);
                } else {
                    self.relookup(ctx, op, attempts + 1);
                }
            }
            (phase, _) => self.phase = phase,
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Binding replies route through the resolver (owned: the reply's
        // binding box goes back to the kernel pool).
        let msg = match self.resolver.handle_reply_owned(ctx, msg) {
            Ok((answered, result)) => return self.on_binding(ctx, answered, result),
            Err(msg) => msg,
        };
        let Body::Reply {
            in_reply_to,
            result,
        } = &msg.body
        else {
            return;
        };
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::AwaitInvoke(op, binding, call) if call == *in_reply_to => match result {
                Ok(_) => self.end_op(ctx, op.started, true),
                Err(e) => match is_overloaded(e) {
                    Some(hint_ns) => self.on_shed(ctx, op, Some(binding), hint_ns),
                    None => {
                        // The endpoint answered but hosts a different (or
                        // no) object — stale binding detected in use.
                        ctx.count(symbol::CLIENT_STALE_REPLY);
                        self.handle_stale(ctx, op, binding);
                    }
                },
            },
            // A late reply to an abandoned Ping.
            phase => self.phase = phase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_uniform_at_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = ZipfSampler::new(100, 1.0);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "rank 0 is much hotter");
        let u = ZipfSampler::new(100, 0.0);
        let mut ucounts = [0u32; 100];
        for _ in 0..20_000 {
            ucounts[u.sample(&mut rng)] += 1;
        }
        let max = *ucounts.iter().max().unwrap() as f64;
        let min = *ucounts.iter().min().unwrap() as f64;
        assert!(max / min < 2.5, "uniform-ish at s=0: {min}..{max}");
    }

    #[test]
    fn zipf_single_rank() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = ZipfSampler::new(1, 1.0);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn plan_respects_locality_extremes() {
        let objects: Vec<(Loid, u32)> = (0..20)
            .map(|i| (Loid::instance(1000, i + 1), (i % 2) as u32))
            .collect();
        let local_set: std::collections::HashSet<Loid> = objects
            .iter()
            .filter(|(_, j)| *j == 0)
            .map(|(l, _)| *l)
            .collect();
        let mut cfg = WorkloadConfig {
            lookups_per_client: 200,
            locality: 1.0,
            ..WorkloadConfig::default()
        };
        let plan = generate_plan(&objects, 0, &cfg, 7);
        assert!(plan.iter().all(|l| local_set.contains(l)));
        cfg.locality = 0.0;
        let plan = generate_plan(&objects, 0, &cfg, 7);
        assert!(plan.iter().all(|l| !local_set.contains(l)));
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let objects: Vec<(Loid, u32)> = (0..10).map(|i| (Loid::instance(1000, i + 1), 0)).collect();
        let cfg = WorkloadConfig::default();
        assert_eq!(
            generate_plan(&objects, 0, &cfg, 9),
            generate_plan(&objects, 0, &cfg, 9)
        );
        assert_ne!(
            generate_plan(&objects, 0, &cfg, 9),
            generate_plan(&objects, 0, &cfg, 10)
        );
    }

    #[test]
    fn open_loop_arrivals_are_bit_deterministic_per_seed() {
        let cfg = OpenLoopConfig {
            base_rate_per_sec: 5_000.0,
            duration_ns: 500_000_000,
            diurnal_amplitude: 0.3,
            diurnal_period_ns: 100_000_000,
            flash: Some(FlashCrowd {
                start_ns: 200_000_000,
                duration_ns: 100_000_000,
                multiplier: 3.0,
            }),
            ..OpenLoopConfig::default()
        };
        let a = generate_arrivals(&cfg, 1.0, 77);
        let b = generate_arrivals(&cfg, 1.0, 77);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same stream, bit for bit");
        assert_ne!(a, generate_arrivals(&cfg, 1.0, 78));
    }

    #[test]
    fn open_loop_rate_matches_offered() {
        // Flat curve: the count is Poisson(rate × duration). 6σ bounds.
        let cfg = OpenLoopConfig {
            base_rate_per_sec: 10_000.0,
            duration_ns: 1_000_000_000,
            ..OpenLoopConfig::default()
        };
        let n = generate_arrivals(&cfg, 1.0, 5).len() as f64;
        let expect = 10_000.0;
        assert!(
            (n - expect).abs() < 6.0 * expect.sqrt(),
            "offered {n} vs expected {expect}"
        );
        // Arrivals are sorted and inside the span.
        let a = generate_arrivals(&cfg, 1.0, 5);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < cfg.duration_ns);
    }

    #[test]
    fn flash_crowd_multiplies_the_window() {
        let cfg = OpenLoopConfig {
            base_rate_per_sec: 4_000.0,
            duration_ns: 900_000_000,
            flash: Some(FlashCrowd {
                start_ns: 300_000_000,
                duration_ns: 300_000_000,
                multiplier: 2.0,
            }),
            ..OpenLoopConfig::default()
        };
        let a = generate_arrivals(&cfg, 1.0, 11);
        let before = a.iter().filter(|&&t| t < 300_000_000).count() as f64;
        let during = a
            .iter()
            .filter(|&&t| (300_000_000..600_000_000).contains(&t))
            .count() as f64;
        assert!(
            during / before > 1.6 && during / before < 2.4,
            "flash window carries ~2× the arrivals: {before} vs {during}"
        );
    }

    #[test]
    fn diurnal_curve_peaks_and_troughs() {
        let cfg = OpenLoopConfig {
            base_rate_per_sec: 1_000.0,
            diurnal_amplitude: 0.5,
            diurnal_period_ns: 1_000_000_000,
            ..OpenLoopConfig::default()
        };
        // Peak at a quarter period, trough at three quarters.
        assert!((cfg.rate_at(250_000_000) - 1_500.0).abs() < 1.0);
        assert!((cfg.rate_at(750_000_000) - 500.0).abs() < 1.0);
        assert!((cfg.peak_rate_per_sec() - 1_500.0).abs() < 1e-9);
    }

    /// A server that sheds its first `sheds` calls with an `Overloaded`
    /// reply (honest 50 µs hint), then serves: `answer` when set (it
    /// stands in for a Binding Agent), a Ping's `Uint(1)` otherwise.
    struct SheddingPinger {
        sheds: u64,
        shed_sent: u64,
        served: u64,
        answer: Option<Binding>,
    }

    impl SheddingPinger {
        fn new(sheds: u64) -> Self {
            SheddingPinger {
                sheds,
                shed_sent: 0,
                served: 0,
                answer: None,
            }
        }
    }

    impl Endpoint for SheddingPinger {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is_reply() {
                return;
            }
            if self.shed_sent < self.sheds {
                self.shed_sent += 1;
                let mut hint = ctx.take_string();
                legion_net::dispatch::write_overload_error(&mut hint, 50_000);
                ctx.reply(&msg, Err(hint));
            } else {
                self.served += 1;
                let value = match &self.answer {
                    Some(b) => ctx.binding_value(b),
                    None => legion_core::value::LegionValue::Uint(1),
                };
                ctx.reply(&msg, Ok(value));
            }
        }
    }

    /// Swallows every call: no reply, ever.
    struct BlackHole;

    impl Endpoint for BlackHole {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    /// Answers every call with an error, as an endpoint that hosts a
    /// different object does: the binding that led here is stale.
    struct WrongObject;

    impl Endpoint for WrongObject {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if !msg.is_reply() {
                ctx.reply(&msg, Err("not here".into()));
            }
        }
    }

    /// What the client's bindings point at.
    #[derive(Clone, Copy)]
    enum Server {
        Pinger {
            sheds: u64,
        },
        BlackHole,
        WrongObject,
        /// Removed before the run starts: every Ping is refused.
        Gone,
    }

    /// What answers the client's `GetBinding`s.
    #[derive(Clone, Copy)]
    enum Agent {
        /// `StaticClassEndpoint`: always the same binding.
        Static,
        BlackHole,
        /// Sheds its first `sheds` requests, then answers the binding.
        Shedding {
            sheds: u64,
        },
    }

    /// The `client.*` counters every case asserts, in this order.
    const CLIENT_COUNTERS: [&str; 10] = [
        "client.cache_hit",
        "client.cache_miss",
        "client.stale_detected",
        "client.stale_refused",
        "client.stale_reply",
        "client.invoke_timeout",
        "client.stale_gave_up",
        "client.binding_timeout",
        "client.overload_backoff",
        "client.op_retry",
    ];

    struct Case {
        name: &'static str,
        invoke: bool,
        ops: usize,
        op_retry_attempts: u32,
        agent: Agent,
        server: Server,
        /// [`CLIENT_COUNTERS`], in order.
        counters: [u64; 10],
        /// `ClientReport`: completed, failed, local_hits, agent_requests,
        /// stale_refreshes.
        report: [u64; 5],
        /// Virtual time at which the client finished its plan.
        done_at_ms: f64,
        /// Kernel events to quiescence: an added or dropped timer moves it.
        events: u64,
    }

    /// Every path of the client's §4.1 protocol, pinned by its counters,
    /// its report, when it finished and how many events it took. Zero
    /// network latency, so every instant below is a timer's doing.
    #[test]
    fn every_client_path_is_pinned() {
        use legion_core::address::ObjectAddress;
        use legion_net::sim::SimKernel;
        use legion_net::topology::Location;
        use legion_net::{FaultPlan, Topology};

        #[rustfmt::skip]
        let cases = [
            // Op 1 misses and waits out the 1 ms gap; ops 2 and 3 hit and
            // chain at once, with no timer between them.
            Case { name: "lookup-only cache hit", invoke: false, ops: 3, op_retry_attempts: 2,
                agent: Agent::Static, server: Server::Pinger { sheds: 0 },
                counters: [2, 1, 0, 0, 0, 0, 0, 0, 0, 0], report: [3, 0, 2, 1, 0],
                done_at_ms: 1.0, events: 7 },
            // Each refusal is detected in use and refreshed; the static
            // class keeps answering the dead binding, so the 7th gives up.
            Case { name: "refused ping", invoke: true, ops: 1, op_retry_attempts: 0,
                agent: Agent::Static, server: Server::Gone,
                counters: [0, 1, 6, 7, 0, 0, 1, 0, 0, 0], report: [0, 1, 0, 7, 6],
                done_at_ms: 0.0, events: 24 },
            Case { name: "error reply", invoke: true, ops: 1, op_retry_attempts: 0,
                agent: Agent::Static, server: Server::WrongObject,
                counters: [0, 1, 6, 0, 7, 0, 1, 0, 0, 0], report: [0, 1, 0, 7, 6],
                done_at_ms: 0.0, events: 45 },
            // Seven 400 ms invoke guards back to back.
            Case { name: "black-holed ping", invoke: true, ops: 1, op_retry_attempts: 0,
                agent: Agent::Static, server: Server::BlackHole,
                counters: [0, 1, 6, 0, 0, 7, 1, 0, 0, 0], report: [0, 1, 0, 7, 6],
                done_at_ms: 2800.0, events: 38 },
            // Four 800 ms binding guards per attempt, then the whole-op
            // backoff (4 ms, then 8 ms) — three attempts in all.
            Case { name: "black-holed GetBinding", invoke: false, ops: 1, op_retry_attempts: 2,
                agent: Agent::BlackHole, server: Server::Pinger { sheds: 0 },
                counters: [0, 12, 0, 0, 0, 0, 0, 12, 0, 2], report: [0, 1, 0, 12, 0],
                done_at_ms: 9612.0, events: 29 },
            // Two sheds, each retried at its 50 µs hint through TIMER_RETRY.
            Case { name: "shed GetBinding", invoke: false, ops: 1, op_retry_attempts: 2,
                agent: Agent::Shedding { sheds: 2 }, server: Server::Pinger { sheds: 0 },
                counters: [0, 3, 0, 0, 0, 0, 0, 0, 2, 0], report: [1, 0, 0, 3, 0],
                done_at_ms: 0.1, events: 14 },
            // The stale budget is per attempt: six refreshes, then the 7th
            // stale hit gives up — three attempts, spaced 4 ms and 8 ms.
            Case { name: "7th stale refresh gives up", invoke: true, ops: 1, op_retry_attempts: 2,
                agent: Agent::Static, server: Server::WrongObject,
                counters: [2, 1, 18, 0, 21, 0, 3, 0, 0, 2], report: [0, 1, 2, 19, 18],
                done_at_ms: 12.0, events: 125 },
            // The shed budget is per operation: the 17th shed fails the op,
            // and each backoff retry's first shed fails it again.
            Case { name: "17th shed fails through backoff", invoke: true, ops: 1,
                op_retry_attempts: 2, agent: Agent::Static, server: Server::Pinger { sheds: u64::MAX },
                counters: [2, 1, 0, 0, 0, 0, 0, 0, 19, 2], report: [0, 1, 2, 1, 0],
                done_at_ms: 12.8, events: 81 },
        ];

        for case in &cases {
            let mut kernel = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
            let server: Box<dyn Endpoint> = match case.server {
                Server::Pinger { sheds } => Box::new(SheddingPinger::new(sheds)),
                Server::BlackHole => Box::new(BlackHole),
                Server::WrongObject | Server::Gone => Box::new(WrongObject),
            };
            let server = kernel.add_endpoint(server, Location::new(0, 1), "server");
            if matches!(case.server, Server::Gone) {
                kernel.remove_endpoint(server);
            }
            let target = Loid::instance(1000, 1);
            let binding = Binding::forever(target, ObjectAddress::single(server.element()));
            let agent: Box<dyn Endpoint> = match case.agent {
                Agent::Static => Box::new(
                    legion_naming::stubs::StaticClassEndpoint::new(Loid::class_object(1000))
                        .with(binding),
                ),
                Agent::BlackHole => Box::new(BlackHole),
                Agent::Shedding { sheds } => Box::new(SheddingPinger {
                    answer: Some(binding),
                    ..SheddingPinger::new(sheds)
                }),
            };
            let agent = kernel.add_endpoint(agent, Location::new(0, 2), "agent");
            let wl = WorkloadConfig {
                invoke_after_resolve: case.invoke,
                op_retry_attempts: case.op_retry_attempts,
                ..WorkloadConfig::default()
            };
            let client = LookupClient::new(
                Loid::instance(1000, 99),
                agent.element(),
                vec![target; case.ops],
                &wl,
            );
            let client = kernel.add_endpoint(Box::new(client), Location::new(0, 3), "client");

            let mut done_at = None;
            while kernel.step() {
                let c = kernel.endpoint::<LookupClient>(client).unwrap();
                if done_at.is_none() && c.is_done() {
                    done_at = Some(kernel.now().as_nanos());
                }
            }
            let name = case.name;
            let counters = CLIENT_COUNTERS.map(|n| kernel.counters().get(n));
            assert_eq!(counters, case.counters, "{name}: {CLIENT_COUNTERS:?}");
            let r = &kernel.endpoint::<LookupClient>(client).unwrap().report;
            assert_eq!(
                [
                    r.completed,
                    r.failed,
                    r.local_hits,
                    r.agent_requests,
                    r.stale_refreshes
                ],
                case.report,
                "{name}: completed, failed, local_hits, agent_requests, stale_refreshes"
            );
            assert_eq!(
                done_at,
                Some((case.done_at_ms * 1e6).round() as u64),
                "{name}: finished at"
            );
            assert_eq!(kernel.stats().events, case.events, "{name}: events");
        }
    }

    /// Regression: an `Overloaded` reply used to fall through to the
    /// stale-binding path, burning the 6-attempt stale budget (the op
    /// then failed) and spamming stale-reports for a live server. The
    /// client must instead retry on the server's hint — here 7 sheds,
    /// one past the old stale budget — and complete without touching
    /// the stale machinery.
    #[test]
    fn overloaded_reply_retries_on_hint_not_stale_budget() {
        use legion_core::address::ObjectAddress;
        use legion_net::sim::SimKernel;
        use legion_net::topology::Location;
        use legion_net::{FaultPlan, Topology};

        let mut kernel = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let pinger = kernel.add_endpoint(
            Box::new(SheddingPinger::new(7)),
            Location::new(0, 1),
            "pinger",
        );
        let target = Loid::instance(1000, 1);
        let agent = legion_naming::stubs::StaticClassEndpoint::new(Loid::class_object(1000)).with(
            Binding::forever(target, ObjectAddress::single(pinger.element())),
        );
        let agent_ep = kernel.add_endpoint(Box::new(agent), Location::new(0, 2), "agent");
        let wl = WorkloadConfig {
            invoke_after_resolve: true,
            ..WorkloadConfig::default()
        };
        let client = LookupClient::new(
            Loid::instance(1000, 99),
            agent_ep.element(),
            vec![target],
            &wl,
        );
        let client_ep = kernel.add_endpoint(Box::new(client), Location::new(0, 3), "client");
        kernel.run_until_quiescent(1_000_000);

        let c = kernel.endpoint::<LookupClient>(client_ep).unwrap();
        assert!(c.is_done());
        assert_eq!(c.report.completed, 1, "op completes despite 7 sheds");
        assert_eq!(c.report.failed, 0);
        assert_eq!(
            c.report.stale_refreshes, 0,
            "sheds are not stale bindings: no refresh traffic"
        );
        assert_eq!(kernel.counters().get("client.overload_backoff"), 7);
        assert_eq!(kernel.counters().get("client.stale_reply"), 0);
        assert_eq!(kernel.counters().get("client.stale_gave_up"), 0);
        assert_eq!(
            kernel.counters().get("client.op_retry"),
            0,
            "retries ride the server hint, not the blind backoff schedule"
        );
        // Seven 50 µs hints ≈ 350 µs total op latency — far under even
        // one step of the old capped-exponential schedule (4 ms base).
        // (The kernel clock itself runs on to drain the no-op guard
        // timers, so assert on the recorded op latency.)
        assert!(
            c.report.latency.max() < 4_000_000,
            "op took {} ns: hint schedule, not backoff",
            c.report.latency.max()
        );
    }

    /// Regression: the first lookup of an operation was never retried.
    /// With the Binding Agent unreachable, `issue_next` failed the op on
    /// the spot, while the same answer on any later attempt went through
    /// the capped backoff `op_retry_attempts` promises for a terminal
    /// error.
    #[test]
    fn an_unreachable_agent_is_retried_from_the_first_lookup() {
        use legion_net::sim::SimKernel;
        use legion_net::topology::Location;
        use legion_net::{FaultPlan, Topology};

        let mut kernel = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let agent = kernel.add_endpoint(Box::new(BlackHole), Location::new(0, 2), "agent");
        kernel.remove_endpoint(agent);
        let client = LookupClient::new(
            Loid::instance(1000, 99),
            agent.element(),
            vec![Loid::instance(1000, 1); 3],
            &WorkloadConfig::default(),
        );
        let client = kernel.add_endpoint(Box::new(client), Location::new(0, 3), "client");
        let mut done_at = None;
        while kernel.step() {
            if done_at.is_none() && kernel.endpoint::<LookupClient>(client).unwrap().is_done() {
                done_at = Some(kernel.now().as_nanos());
            }
        }

        let c = kernel.endpoint::<LookupClient>(client).unwrap();
        assert_eq!((c.report.completed, c.report.failed), (0, 3));
        assert_eq!(
            kernel.counters().get("client.op_retry"),
            6,
            "each op is retried op_retry_attempts (2) times"
        );
        assert_eq!(c.report.agent_requests, 9, "three lookups per op");
        // Per op: 4 ms + 8 ms of backoff, then the 1 ms gap to the next.
        assert_eq!(done_at, Some(38_000_000));
    }

    /// `AddBinding` is the client's one method: a binding for its target
    /// replaces the address its calls go through, and one for any other
    /// LOID changes nothing.
    #[test]
    fn add_binding_for_the_target_widens_the_address() {
        use legion_core::address::{AddressSemantics, ObjectAddress};
        use legion_net::sim::SimKernel;
        use legion_net::topology::Location;
        use legion_net::{FaultPlan, Topology};

        let mut kernel = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let [a, b] = [1, 2].map(|host| {
            let server = Box::new(SheddingPinger::new(0));
            kernel.add_endpoint(server, Location::new(0, host), "server")
        });
        let target = Loid::class_object(1000);
        // One call per millisecond for 20 ms.
        let arrivals = (0..20).map(|ms| ms * 1_000_000).collect();
        let client = OpenLoopClient::new(
            Loid::instance(1000, 99),
            a.element(),
            target,
            symbol::PING,
            arrivals,
            Vec::new(),
            0,
        );
        let client = kernel.add_endpoint(Box::new(client), Location::new(0, 3), "client");
        let both =
            ObjectAddress::replicated(vec![a.element(), b.element()], AddressSemantics::PickRandom);
        let add_binding = |kernel: &mut SimKernel, loid: Loid| {
            let id = kernel.fresh_call_id();
            let binding = Binding::forever(loid, both.clone());
            let args = vec![LegionValue::Binding(Box::new(binding))];
            let msg = Message::call(id, loid, ADD_BINDING, args, InvocationEnv::anonymous());
            assert!(kernel.inject(Location::new(0, 4), client.element(), msg));
        };
        let address = |kernel: &SimKernel| {
            let c = kernel.endpoint::<OpenLoopClient>(client).unwrap();
            c.address().clone()
        };

        add_binding(&mut kernel, Loid::class_object(1001));
        kernel.run_until(SimTime::from_nanos(9_500_000));
        assert_eq!(address(&kernel), ObjectAddress::single(a.element()));
        assert_eq!(kernel.meta(a).unwrap().received, 10);
        assert_eq!(kernel.meta(b).unwrap().received, 0);

        add_binding(&mut kernel, target);
        kernel.run_until_quiescent(10_000);
        assert_eq!(address(&kernel), both);
        let [to_a, to_b] = [a, b].map(|e| kernel.meta(e).unwrap().received);
        assert_eq!(to_a + to_b, 20, "every call still goes to one server");
        assert!(
            to_a > 10 && to_b > 0,
            "later calls reach both: {to_a}, {to_b}"
        );
        let c = kernel.endpoint::<OpenLoopClient>(client).unwrap();
        assert!(c.is_done());
        assert_eq!(c.report.total().ok, 20);
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = ClientReport {
            completed: 3,
            ..ClientReport::default()
        };
        a.latency.record(10);
        let mut b = ClientReport {
            completed: 4,
            failed: 1,
            ..ClientReport::default()
        };
        b.latency.record(20);
        a.merge(&b);
        assert_eq!(a.completed, 7);
        assert_eq!(a.failed, 1);
        assert_eq!(a.latency.count(), 2);
    }
}
