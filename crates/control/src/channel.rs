//! The controller–switch control channel, with injectable faults.
//!
//! §2's consistency hazard ("if any of these updates gets lost … the
//! service may remain halfway-exposed") presumes an imperfect update
//! mechanism — yet the rest of the control plane modeled a perfect one.
//! This module supplies the imperfection as a first-class, deterministic
//! object: [`FaultyChannel`] carries [`FlowMod`]s to an [`Endpoint`] and
//! [`Ack`]s back, and can drop, duplicate, reorder and delay either
//! direction, plus restart the switch, all driven by a seeded RNG so any
//! failure trace replays exactly.
//!
//! Time is virtual: the channel owns a deterministic clock (`now_ns`)
//! advanced by per-delivery latency and by the driver's timeouts and
//! backoffs, so convergence times are reproducible numbers, not
//! wall-clock noise.

use mapro_core::{Ack, Endpoint, FlowMod};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Fault configuration for a [`FaultyChannel`]. All probabilities are
/// per-message and apply independently to flow-mods and acks.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a message (or ack) is silently dropped.
    pub p_drop: f64,
    /// Probability a message (or ack) is delivered twice.
    pub p_dup: f64,
    /// Probability a message (or ack) jumps the queue.
    pub p_reorder: f64,
    /// Inject a switch restart every this many deliveries (0 = never).
    pub restart_every: u64,
    /// One-way delivery latency on the virtual clock (ns).
    pub latency_ns: u64,
    /// RNG seed; equal seeds replay equal fault traces.
    pub seed: u64,
}

impl FaultPlan {
    /// A perfect channel (no faults, no restarts).
    pub fn lossless(seed: u64) -> FaultPlan {
        FaultPlan {
            p_drop: 0.0,
            p_dup: 0.0,
            p_reorder: 0.0,
            restart_every: 0,
            latency_ns: 10_000,
            seed,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::lossless(0)
    }
}

/// Per-run channel accounting (the global `mapro-obs` counters aggregate
/// across runs; experiments want per-run numbers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Flow-mods handed to [`FaultyChannel::send`].
    pub sent: u64,
    /// Flow-mods actually delivered to the endpoint (incl. duplicates).
    pub delivered: u64,
    /// Flow-mods dropped in flight.
    pub(crate) dropped: u64,
    /// Flow-mods duplicated in flight.
    pub(crate) duplicated: u64,
    /// Messages (either direction) that jumped the queue.
    pub(crate) reordered: u64,
    /// Acks dropped on the return path.
    pub(crate) ack_dropped: u64,
    /// Acks duplicated on the return path.
    pub(crate) ack_duplicated: u64,
    /// Switch restarts injected.
    pub restarts: u64,
    /// Flow-mods flushed from the in-flight queue by a restart (a real
    /// transport's connection dies with the switch; nothing queued before
    /// the power-cycle is delivered after it).
    pub(crate) flushed: u64,
}

/// A lossy, duplicating, reordering, restart-injecting control channel
/// around an [`Endpoint`], deterministic under [`FaultPlan::seed`].
///
/// Usage: [`send`](FaultyChannel::send) enqueues flow-mods (faults on the
/// forward path are rolled here), [`pump`](FaultyChannel::pump) delivers
/// everything in flight and collects acks (faults on the return path are
/// rolled here), [`recv`](FaultyChannel::recv) hands acks to the driver.
pub struct FaultyChannel<E: Endpoint> {
    ep: E,
    plan: FaultPlan,
    rng: SmallRng,
    now_ns: u64,
    outbox: VecDeque<FlowMod>,
    inbox: VecDeque<Ack>,
    deliveries: u64,
    stats: ChannelStats,
}

impl<E: Endpoint> FaultyChannel<E> {
    /// Wrap `ep` in a channel with the given fault plan.
    pub fn new(ep: E, plan: FaultPlan) -> FaultyChannel<E> {
        for p in [plan.p_drop, plan.p_dup, plan.p_reorder] {
            assert!((0.0..=1.0).contains(&p), "fault probability out of range");
        }
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultyChannel {
            ep,
            plan,
            rng,
            now_ns: 0,
            outbox: VecDeque::new(),
            inbox: VecDeque::new(),
            deliveries: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Enqueue one flow-mod toward the switch, rolling forward-path
    /// faults. Dropped messages vanish without trace (the sender only
    /// learns via a missing ack).
    pub fn send(&mut self, msg: FlowMod) {
        self.stats.sent += 1;
        mapro_obs::counter!("control.channel.sends").inc();
        if self.rng.gen_bool(self.plan.p_drop) {
            self.stats.dropped += 1;
            mapro_obs::counter!("control.channel.drops").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv("drop", vec![("txn", msg.txn.into())]);
            }
            return;
        }
        if self.rng.gen_bool(self.plan.p_dup) {
            self.stats.duplicated += 1;
            mapro_obs::counter!("control.channel.dups").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv("dup", vec![("txn", msg.txn.into())]);
            }
            self.outbox.push_back(msg.clone());
        }
        if self.rng.gen_bool(self.plan.p_reorder) && !self.outbox.is_empty() {
            self.stats.reordered += 1;
            mapro_obs::counter!("control.channel.reorders").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv("reorder", vec![("txn", msg.txn.into())]);
            }
            self.outbox.push_front(msg);
        } else {
            self.outbox.push_back(msg);
        }
    }

    /// Deliver everything in flight to the endpoint, collect acks (rolling
    /// return-path faults), and inject scheduled restarts. Advances the
    /// virtual clock one `latency_ns` per hop.
    pub fn pump(&mut self) {
        while let Some(msg) = self.outbox.pop_front() {
            self.now_ns += self.plan.latency_ns;
            self.deliveries += 1;
            self.stats.delivered += 1;
            mapro_obs::counter!("control.channel.deliveries").inc();
            let ack = self.ep.deliver(&msg);
            // The ack was produced before the restart hits: it is already
            // on the wire when the switch power-cycles.
            if self.plan.restart_every > 0
                && self.deliveries.is_multiple_of(self.plan.restart_every)
            {
                self.stats.restarts += 1;
                mapro_obs::counter!("control.channel.restarts").inc();
                if mapro_obs::trace::active() {
                    mapro_obs::trace::instant_kv(
                        "restart",
                        vec![("delivery", self.deliveries.into())],
                    );
                }
                self.ep.restart();
                // The power-cycle severs the transport: everything still
                // queued toward the switch (reordered/delayed survivors)
                // dies with the connection instead of being delivered to
                // the rebooted switch.
                self.stats.flushed += self.outbox.len() as u64;
                mapro_obs::counter!("control.channel.flushed").add(self.outbox.len() as u64);
                self.outbox.clear();
            }
            if self.rng.gen_bool(self.plan.p_drop) {
                self.stats.ack_dropped += 1;
                mapro_obs::counter!("control.channel.ack_drops").inc();
                continue;
            }
            self.now_ns += self.plan.latency_ns;
            if self.rng.gen_bool(self.plan.p_dup) {
                self.stats.ack_duplicated += 1;
                self.inbox.push_back(ack.clone());
            }
            if self.rng.gen_bool(self.plan.p_reorder) && !self.inbox.is_empty() {
                self.stats.reordered += 1;
                self.inbox.push_front(ack);
            } else {
                self.inbox.push_back(ack);
            }
        }
    }

    /// Next ack, if any arrived.
    pub fn recv(&mut self) -> Option<Ack> {
        self.inbox.pop_front()
    }

    /// Advance the virtual clock (driver timeouts / backoff).
    pub(crate) fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Current virtual time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Per-run fault accounting.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped endpoint (e.g. to audit switch state out-of-band).
    pub fn endpoint(&self) -> &E {
        &self.ep
    }

    /// Mutable access to the wrapped endpoint.
    pub fn endpoint_mut(&mut self) -> &mut E {
        &mut self.ep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{AckOk, FlowModOp, RuleUpdate, TxnId};

    /// The E14 sweep shape: drop with probability `p`, duplicate and
    /// reorder with `p/2` each.
    fn uniform(p: f64, restart_every: u64, seed: u64) -> FaultPlan {
        FaultPlan {
            p_drop: p,
            p_dup: p / 2.0,
            p_reorder: p / 2.0,
            restart_every,
            latency_ns: 10_000,
            seed,
        }
    }

    /// Endpoint recording delivered txns; acks everything.
    struct Recorder {
        seen: Vec<TxnId>,
        restarts: u64,
    }

    impl Recorder {
        fn new() -> Recorder {
            Recorder {
                seen: Vec::new(),
                restarts: 0,
            }
        }
    }

    impl Endpoint for Recorder {
        fn deliver(&mut self, msg: &FlowMod) -> Ack {
            self.seen.push(msg.txn);
            Ack {
                txn: msg.txn,
                epoch: msg.epoch,
                result: Ok(AckOk::Done),
            }
        }
        fn restart(&mut self) {
            self.restarts += 1;
        }
    }

    fn msg(txn: TxnId) -> FlowMod {
        FlowMod {
            txn,
            epoch: 0,
            op: FlowModOp::ReadState,
        }
    }

    #[test]
    fn lossless_channel_delivers_in_order() {
        let mut ch = FaultyChannel::new(Recorder::new(), FaultPlan::lossless(1));
        for t in 0..5 {
            ch.send(msg(t));
        }
        ch.pump();
        assert_eq!(ch.endpoint().seen, vec![0, 1, 2, 3, 4]);
        let acks: Vec<TxnId> = std::iter::from_fn(|| ch.recv()).map(|a| a.txn).collect();
        assert_eq!(acks, vec![0, 1, 2, 3, 4]);
        assert_eq!(ch.stats().dropped, 0);
        // Two hops per round trip on the virtual clock.
        assert_eq!(ch.now_ns(), 5 * 2 * ch.plan().latency_ns);
    }

    #[test]
    fn deterministic_fault_trace_under_seed() {
        let run = |seed: u64| {
            let mut ch = FaultyChannel::new(Recorder::new(), uniform(0.4, 3, seed));
            for t in 0..50 {
                ch.send(msg(t));
            }
            ch.pump();
            let acks: Vec<TxnId> = std::iter::from_fn(|| ch.recv()).map(|a| a.txn).collect();
            (ch.endpoint().seen.clone(), acks, ch.stats().clone())
        };
        assert_eq!(run(7), run(7));
        let (a, _, s) = run(7);
        let (b, _, t) = run(8);
        assert!(a != b || s != t, "different seeds, different traces");
    }

    #[test]
    fn faults_actually_fire() {
        let mut ch = FaultyChannel::new(Recorder::new(), uniform(0.5, 0, 42));
        for t in 0..200 {
            ch.send(msg(t));
        }
        ch.pump();
        let s = ch.stats();
        assert!(s.dropped > 0, "drops: {s:?}");
        assert!(s.duplicated > 0, "dups: {s:?}");
        assert!(s.reordered > 0, "reorders: {s:?}");
        assert!(s.ack_dropped > 0, "ack drops: {s:?}");
        // Conservation: everything sent was delivered, dropped, or
        // duplicated-then-delivered (no restarts, so nothing flushed).
        assert_eq!(s.flushed, 0);
        assert_eq!(s.delivered, s.sent - s.dropped + s.duplicated);
    }

    #[test]
    fn restart_flushes_in_flight_messages() {
        // Restart after the very first delivery: the four messages still
        // queued behind it die with the connection and are never seen by
        // the rebooted endpoint.
        let mut ch = FaultyChannel::new(Recorder::new(), FaultPlan::lossless(3));
        ch.plan.restart_every = 1;
        for t in 0..5 {
            ch.send(msg(t));
        }
        ch.pump();
        assert_eq!(ch.endpoint().seen, vec![0], "pre-restart survivors leaked");
        assert_eq!(ch.endpoint().restarts, 1);
        let s = ch.stats().clone();
        assert_eq!(s.restarts, 1);
        assert_eq!(s.flushed, 4);
        assert_eq!(s.delivered, s.sent - s.dropped + s.duplicated - s.flushed);
        // Messages sent after the restart flow normally again.
        ch.plan.restart_every = 0;
        ch.send(msg(9));
        ch.pump();
        assert_eq!(ch.endpoint().seen, vec![0, 9]);
    }

    #[test]
    fn restart_flush_conserves_under_faults() {
        let mut ch = FaultyChannel::new(Recorder::new(), uniform(0.5, 10, 42));
        for t in 0..200 {
            ch.send(msg(t));
        }
        ch.pump();
        let s = ch.stats();
        assert!(s.restarts > 0, "restarts must fire: {s:?}");
        assert!(
            s.flushed > 0,
            "a restart with a deep queue must flush: {s:?}"
        );
        assert_eq!(ch.endpoint().restarts, s.restarts);
        assert_eq!(s.delivered, s.sent - s.dropped + s.duplicated - s.flushed);
    }

    #[test]
    fn shared_endpoint_interleaves_two_channels() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let sw = Rc::new(RefCell::new(Recorder::new()));
        let mut a = FaultyChannel::new(sw.clone(), FaultPlan::lossless(1));
        let mut b = FaultyChannel::new(sw.clone(), FaultPlan::lossless(2));
        a.send(msg(1));
        a.pump();
        b.send(msg(2));
        b.pump();
        assert_eq!(sw.borrow().seen, vec![1, 2]);
        assert_eq!(a.recv().unwrap().txn, 1);
        assert_eq!(b.recv().unwrap().txn, 2);
    }

    #[test]
    fn restart_never_fires_when_disabled() {
        let mut ch = FaultyChannel::new(Recorder::new(), uniform(0.3, 0, 9));
        for t in 0..100 {
            ch.send(msg(t));
        }
        ch.pump();
        assert_eq!(ch.endpoint().restarts, 0);
    }

    #[test]
    fn mods_carried_counts_bundle_size() {
        let u = RuleUpdate::Delete {
            table: "t".into(),
            matches: vec![],
        };
        assert_eq!(FlowModOp::Apply(u.clone()).mods_carried(), 1);
        assert_eq!(
            FlowModOp::Prepare {
                bundle: 1,
                updates: vec![u.clone(), u.clone(), u]
            }
            .mods_carried(),
            3
        );
        assert_eq!(FlowModOp::Commit { bundle: 1 }.mods_carried(), 1);
        assert_eq!(FlowModOp::ReadState.mods_carried(), 0);
    }
}
