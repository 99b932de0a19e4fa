//! Deterministic admission control for overloadable endpoints.
//!
//! The simulation's handlers run in zero virtual time, so a kernel
//! endpoint has no *natural* saturation point — demand past capacity
//! would simply be absorbed, and "overload" could never be observed.
//! Admission control therefore doubles as the endpoint's **service
//! model**: an [`AdmissionQueue`] is a single deterministic server that
//! takes [`service_ns`](AdmissionConfig::service_ns) of virtual time per
//! admitted call (an M/D/1-style queue over the arrival process), with a
//! hard bound of [`queue_depth`](AdmissionConfig::queue_depth) calls
//! waiting or in service. Offers past the bound are **shed** with a
//! retry-after hint, which callers honor instead of their own blind
//! backoff schedule (`CoreError::Overloaded` on the wire).
//!
//! The hint is a **low-water mark**: the time until the work admitted so
//! far has drained to *half* the queue (`queue_depth / 2` calls), not
//! the instant one slot frees. The queue fills to its high-water mark
//! (`queue_depth`) and sheds; everyone shed during that full spell is
//! told to come back when there is room for several of them. A hint of
//! "when one slot frees" sends every one of those callers to the same
//! instant, where one wins and the rest are refused again — a herd whose
//! refusals the overloaded server itself must receive and answer, one
//! round per slot. With the low-water hint the callers shed during one
//! spell return spread over the `queue_depth / 2` service phases in
//! which they were shed, each to a queue with room, and the slots that
//! free in between go to fresh arrivals. The hint stays honest — a lone
//! retry at exactly its hint finds backlog `queue_depth / 2` and is
//! admitted — and the server never idles while callers wait one out
//! (for depth ≥ 2 the low-water mark is at least one call). For
//! `queue_depth` 1 and 2, `queue_depth / 2` equals `queue_depth − 1`:
//! the rule degenerates to "when one slot frees".
//!
//! The ledger is three integers: the virtual time the server frees, plus
//! shed/admitted counters. It stores **no per-request state** — backlog
//! is derived arithmetic over arrival times, so the admission path is
//! O(1), allocation-free, and trivially bit-deterministic (a pure
//! function of the offered arrival-time sequence). `tools/lint_hotpath.sh`
//! pins the no-collections property.

/// Capacity model for one endpoint.
///
/// Saturation throughput is `1e9 / service_ns` calls per virtual second;
/// the worst admitted call waits `queue_depth * service_ns` before its
/// reply is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Deterministic service time per admitted call, virtual ns (≥ 1).
    pub service_ns: u64,
    /// Maximum calls waiting or in service before offers shed (≥ 1).
    pub queue_depth: u64,
}

impl AdmissionConfig {
    /// The saturation rate this config models, calls per virtual second.
    pub fn saturation_per_sec(&self) -> f64 {
        1e9 / self.service_ns.max(1) as f64
    }
}

/// The verdict for one offered call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: service completes `delay_ns` after the offer (queue
    /// wait plus service time). The endpoint replies at that instant.
    Admit {
        /// Queue wait + service time, virtual ns.
        delay_ns: u64,
    },
    /// Shed: the queue budget is full. Retry no sooner than
    /// `retry_after_ns` from now, when the work admitted so far will
    /// have drained to the low-water mark — half the queue — so that
    /// callers shed together come back to room for several of them,
    /// not to one freed slot (for `queue_depth` ≤ 2 the two coincide).
    /// Retrying exactly at the hint is admitted unless others got there
    /// first.
    Shed {
        /// Server's backoff hint, virtual ns (≥ 1).
        retry_after_ns: u64,
    },
}

/// The per-endpoint admission ledger: a deterministic single server with
/// a bounded virtual queue. See the module docs for the model.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    /// Virtual time at which all admitted work is done.
    busy_until_ns: u64,
    admitted: u64,
    shed: u64,
    /// High-water mark of calls waiting or in service at any offer.
    peak_backlog: u64,
}

impl AdmissionQueue {
    /// An idle ledger (service time and depth clamped to ≥ 1).
    pub fn new(mut cfg: AdmissionConfig) -> Self {
        cfg.service_ns = cfg.service_ns.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        AdmissionQueue {
            cfg,
            busy_until_ns: 0,
            admitted: 0,
            shed: 0,
            peak_backlog: 0,
        }
    }

    /// The configured capacity model.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Offer one call arriving at virtual time `now_ns`. Callers must
    /// offer in non-decreasing time order (the kernel delivers in order).
    pub fn offer(&mut self, now_ns: u64) -> Admission {
        let outstanding_ns = self.busy_until_ns.saturating_sub(now_ns);
        // Calls waiting or in service: each occupies service_ns of the
        // outstanding busy window (ceiling — a partially served call
        // still holds its slot).
        let backlog = outstanding_ns.div_ceil(self.cfg.service_ns);
        if backlog >= self.cfg.queue_depth {
            self.shed += 1;
            // Low-water mark: the wait until what is admitted now has
            // drained to half the queue, so a spell's worth of shed
            // callers returns to room for several, not to one slot.
            let low_water_ns = (self.cfg.queue_depth / 2) * self.cfg.service_ns;
            let retry_after_ns = outstanding_ns.saturating_sub(low_water_ns).max(1);
            return Admission::Shed { retry_after_ns };
        }
        self.peak_backlog = self.peak_backlog.max(backlog + 1);
        self.admitted += 1;
        let delay_ns = outstanding_ns + self.cfg.service_ns;
        self.busy_until_ns = now_ns + delay_ns;
        Admission::Admit { delay_ns }
    }

    /// Calls admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Calls shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// High-water mark of concurrent backlog (waiting + in service)
    /// observed at admission time. Bounded by `queue_depth` by
    /// construction — the "no unbounded queue" invariant in one number.
    pub fn peak_backlog(&self) -> u64 {
        self.peak_backlog
    }

    /// Backlog outstanding at `now_ns` (waiting + in service).
    pub fn backlog_at(&self, now_ns: u64) -> u64 {
        self.busy_until_ns
            .saturating_sub(now_ns)
            .div_ceil(self.cfg.service_ns)
    }

    /// Is the server idle at `now_ns`?
    pub fn idle_at(&self, now_ns: u64) -> bool {
        self.busy_until_ns <= now_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(service_ns: u64, queue_depth: u64) -> AdmissionQueue {
        AdmissionQueue::new(AdmissionConfig {
            service_ns,
            queue_depth,
        })
    }

    #[test]
    fn idle_server_admits_with_service_delay() {
        let mut a = q(100, 4);
        assert_eq!(a.offer(1_000), Admission::Admit { delay_ns: 100 });
        assert_eq!(a.admitted(), 1);
        assert_eq!(a.shed(), 0);
        assert_eq!(a.backlog_at(1_000), 1);
        assert!(a.idle_at(1_100));
    }

    #[test]
    fn backlog_accumulates_queueing_delay() {
        let mut a = q(100, 4);
        // Four simultaneous arrivals: delays 100, 200, 300, 400.
        for i in 1..=4u64 {
            assert_eq!(a.offer(0), Admission::Admit { delay_ns: i * 100 });
        }
        assert_eq!(a.peak_backlog(), 4);
    }

    #[test]
    fn full_queue_sheds_with_honest_hint() {
        let mut a = q(100, 4);
        for _ in 0..4 {
            a.offer(0);
        }
        // Fifth arrival at t=0: backlog 4 ≥ depth 4 → shed. The hint is
        // the wait until the 400 ns outstanding drains to the low-water
        // mark, half the queue: 400 − (4 / 2) × 100 = 200 ns.
        assert_eq!(
            a.offer(0),
            Admission::Shed {
                retry_after_ns: 200
            }
        );
        assert_eq!(a.shed(), 1);
        // Retrying exactly at the hint is admitted behind the two calls
        // still outstanding: 200 ns of queue wait + 100 ns of service.
        assert_eq!(a.offer(200), Admission::Admit { delay_ns: 300 });
        assert_eq!(a.peak_backlog(), 4, "shed offers never grow the queue");
    }

    /// 64 callers offer at t = 0 to a depth-16 queue and each re-offers
    /// exactly at its hint, ties in caller order. Sixteen are admitted;
    /// the 48 shed are all told 8 S (the 16 S outstanding drains to the
    /// low-water 8 S), return to a half-empty queue, eight get in and
    /// the rest are told 8 S again: 64 + 48 + 40 + 32 + 24 + 16 + 8 =
    /// 232 offers. Sent back to the instant *one* slot frees, the same
    /// callers made 64 + 48·49/2 = 1 240.
    #[test]
    fn shed_callers_return_to_room_not_to_one_slot() {
        const CALLERS: usize = 64;
        let mut a = q(100, 16);
        // When each caller offers next; `None` once it is admitted.
        let mut due = [Some(0u64); CALLERS];
        while let Some((now, caller)) = due
            .iter()
            .enumerate()
            .filter_map(|(c, at)| at.map(|at| (at, c)))
            .min()
        {
            // A caller coming back on a hint never finds the server
            // idle: the low-water mark leaves it work to do meanwhile.
            assert!(now == 0 || !a.idle_at(now), "server idle at {now}");
            due[caller] = match a.offer(now) {
                Admission::Admit { .. } => None,
                Admission::Shed { retry_after_ns } => Some(now + retry_after_ns),
            };
        }
        assert_eq!(a.admitted(), CALLERS as u64);
        assert_eq!(a.admitted() + a.shed(), 232);
        assert_eq!(a.peak_backlog(), 16);
    }

    #[test]
    fn queue_drains_in_virtual_time() {
        let mut a = q(100, 2);
        a.offer(0);
        a.offer(0);
        assert!(matches!(a.offer(0), Admission::Shed { .. }));
        // After both services complete the server is idle again.
        assert_eq!(a.backlog_at(200), 0);
        assert_eq!(a.offer(200), Admission::Admit { delay_ns: 100 });
    }

    #[test]
    fn sub_saturation_stream_never_sheds() {
        // Arrivals every 200 ns against a 100 ns server: always idle.
        let mut a = q(100, 2);
        for i in 0..1000u64 {
            match a.offer(i * 200) {
                Admission::Admit { delay_ns } => assert_eq!(delay_ns, 100),
                Admission::Shed { .. } => panic!("shed below saturation"),
            }
        }
        assert_eq!(a.peak_backlog(), 1);
    }

    #[test]
    fn oversaturated_stream_bounds_backlog_and_sheds_the_excess() {
        // 2× saturation: arrivals every 50 ns against a 100 ns server.
        let mut a = q(100, 8);
        for i in 0..1000u64 {
            a.offer(i * 50);
        }
        assert!(
            a.peak_backlog() <= 8,
            "backlog {} > depth",
            a.peak_backlog()
        );
        // Offered 1000 in 50 µs; capacity is 500 + the queue: the rest shed.
        assert!(a.shed() >= 400, "shed only {}", a.shed());
        assert!(a.admitted() >= 500);
        assert_eq!(a.admitted() + a.shed(), 1000);
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let mut a = q(0, 0);
        assert_eq!(a.config().service_ns, 1);
        assert_eq!(a.config().queue_depth, 1);
        assert_eq!(a.offer(0), Admission::Admit { delay_ns: 1 });
        let Admission::Shed { retry_after_ns } = a.offer(0) else {
            panic!("depth-1 queue must shed the second simultaneous offer");
        };
        assert!(retry_after_ns >= 1);
    }

    #[test]
    fn saturation_rate_is_reciprocal_service_time() {
        let cfg = AdmissionConfig {
            service_ns: 250_000,
            queue_depth: 4,
        };
        assert!((cfg.saturation_per_sec() - 4000.0).abs() < 1e-9);
    }
}
