//! The chaos harness: N controllers, one switch, seeded crashes.
//!
//! This module wires every resilience mechanism in the crate into one
//! deterministic experiment: a shared switch endpoint terminates one
//! [`FaultyChannel`] per controller slot; a lease [`Election`] hands out
//! fencing epochs; each elected generation is a [`Controller`] recovered
//! from the shared [`Wal`] with a seeded [`CrashInjector`] that can kill
//! it at any protocol point. Dead generations' channels keep draining —
//! their straggler flow-mods arrive *after* the successor took over, and
//! the switch's epoch fence is what keeps them from tearing state.
//!
//! A run pushes a fixed intent list through whoever currently leads,
//! surviving crashes, failovers, overload shedding and switch restarts,
//! then ends with a final drain: crash injection stops, stragglers
//! flush, and the last generation must reconcile the switch to the
//! WAL-derived intended pipeline and pass the `mapro_sym` equivalence
//! guardrail. The whole thing is virtual-clock deterministic: same
//! seed, same [`ChaosReport`], bit for bit.

use crate::channel::{AckError, Endpoint, Epoch, FaultPlan, FaultyChannel};
use crate::driver::{
    Controller, CrashInjector, DriverConfig, DriverError, DriverStats, RecoveryReport,
};
use crate::election::{Election, LeaseConfig, NodeId};
use crate::updates::UpdatePlan;
use crate::wal::Wal;
use mapro_core::Pipeline;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Knobs for one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Controller slots racing for leadership (≥ 1).
    pub controllers: usize,
    /// Per-injection-point crash probability for elected generations.
    pub crash_rate: f64,
    /// Channel fault intensity: drop with this probability, duplicate
    /// and reorder with half of it (the E14 sweep shape).
    pub fault_rate: f64,
    /// Switch restart period per channel (deliveries; 0 = never).
    pub restart_every: u64,
    /// Lease term knobs for the election.
    pub lease: LeaseConfig,
    /// Driver knobs shared by every generation.
    pub driver: DriverConfig,
    /// Master seed; everything derives from it.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            controllers: 1,
            crash_rate: 0.0,
            fault_rate: 0.0,
            restart_every: 0,
            lease: LeaseConfig::default(),
            driver: DriverConfig::default(),
            seed: 2019,
        }
    }
}

/// What one chaos run did and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Intents offered to the control plane.
    pub intents: usize,
    /// Intents whose delivery was synchronously acked.
    pub acked: usize,
    /// Controller generations killed by the injector.
    pub crashes: u64,
    /// Leadership grants total.
    pub elections: u64,
    /// Leadership grants after the first.
    pub failovers: u64,
    /// Straggler flow-mods fenced by the switch (stale-epoch nacks seen
    /// on dead generations' channels).
    pub epoch_rejections: u64,
    /// Churn intents refused by admission control (they are requeued and
    /// retried, so shedding costs latency, not intents).
    pub shed: u64,
    /// Circuit-breaker openings across generations.
    pub breaker_opens: u64,
    /// Flow-mod retransmissions across generations.
    pub retries: u64,
    /// Repair flow-mods across generations.
    pub repairs: u64,
    /// Switch restarts injected across channels.
    pub switch_restarts: u64,
    /// WAL records at the end of the run.
    pub wal_records: usize,
    /// Begun-but-never-confirmed intents left in the log (normal: a
    /// repair-delivered intent never gets its `Commit` record; the final
    /// reconcile + guardrail is what proves the switch holds them).
    pub in_doubt_final: usize,
    /// Highest epoch granted.
    pub final_epoch: Epoch,
    /// Whether the final drain reconciled the switch to the intended
    /// pipeline.
    pub reconciled: bool,
    /// Whether the final `mapro_sym` guardrail proved equivalence.
    pub verified: bool,
    /// Recoveries that reconciled but could not be verified even after
    /// the guardrail's internal re-converge retries (the run's
    /// acceptance gate: must be zero).
    pub guardrail_failures: u64,
    /// One summary line per takeover plus the final verified drain.
    pub recovery_lines: Vec<String>,
    /// Virtual time consumed (ns, max over channels).
    pub elapsed_ns: u64,
}

/// splitmix64: decorrelate per-slot/per-epoch seeds from the master seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn add_stats(total: &mut DriverStats, s: &DriverStats) {
    total.sent += s.sent;
    total.retries += s.retries;
    total.acks += s.acks;
    total.nacks += s.nacks;
    total.repairs += s.repairs;
    total.reconciles += s.reconciles;
    total.shed += s.shed;
    total.breaker_opens += s.breaker_opens;
}

/// Run the chaos experiment: push `intents` through whichever controller
/// currently holds the lease, under seeded crashes, channel faults and
/// switch restarts, then drain and verify. `switch` is the shared
/// endpoint (a `LiveSwitch` in the bench, a model switch in tests) whose
/// pipeline must start equal to `base`.
pub fn run_chaos<E: Endpoint>(
    switch: E,
    base: Pipeline,
    intents: &[UpdatePlan],
    cfg: &ChaosConfig,
) -> ChaosReport {
    assert!(cfg.controllers >= 1, "need at least one controller slot");
    let _sp = mapro_obs::trace::span_kv(
        "chaos",
        vec![
            ("controllers", cfg.controllers.into()),
            ("intents", intents.len().into()),
        ],
    );
    let sw = Rc::new(RefCell::new(switch));
    let mut channels: Vec<FaultyChannel<Rc<RefCell<E>>>> = (0..cfg.controllers)
        .map(|i| {
            FaultyChannel::new(
                sw.clone(),
                FaultPlan {
                    p_drop: cfg.fault_rate,
                    p_dup: cfg.fault_rate / 2.0,
                    p_reorder: cfg.fault_rate / 2.0,
                    restart_every: cfg.restart_every,
                    latency_ns: 10_000,
                    seed: cfg.seed ^ splitmix(i as u64 + 1),
                },
            )
        })
        .collect();
    let wal = Wal::shared(base);
    let mut election = Election::new(LeaseConfig {
        seed: cfg.seed ^ splitmix(0xE1EC),
        ..cfg.lease.clone()
    });
    let mut leader: Option<(NodeId, Controller)> = None;
    let mut dead_until = vec![0u64; cfg.controllers];
    let mut pending: VecDeque<UpdatePlan> = intents.iter().cloned().collect();
    let mut stats = DriverStats::default();
    let mut report = ChaosReport {
        intents: intents.len(),
        acked: 0,
        crashes: 0,
        elections: 0,
        failovers: 0,
        epoch_rejections: 0,
        shed: 0,
        breaker_opens: 0,
        retries: 0,
        repairs: 0,
        switch_restarts: 0,
        wal_records: 0,
        in_doubt_final: 0,
        final_epoch: 0,
        reconciled: false,
        verified: false,
        guardrail_failures: 0,
        recovery_lines: Vec::new(),
        elapsed_ns: 0,
    };
    let note_recovery = |report: &mut ChaosReport, rep: &RecoveryReport| {
        report.recovery_lines.push(rep.summary());
        if rep.reconciled && !rep.verified {
            report.guardrail_failures += 1;
        }
    };

    // Backstop against livelock in pathological corners (e.g. every node
    // crash-looping): generous, and the final state is still reported
    // honestly (`verified` stays false if we never got there).
    let max_steps = (intents.len() + 64) * 128;
    let mut steps = 0;
    let mut done = false;
    while !done && steps < max_steps {
        steps += 1;
        let chaos_over = pending.is_empty();
        // Late deliveries: dead generations' channels keep draining into
        // the shared switch. Every stale-epoch nack here is the fence
        // refusing a message its sender queued before dying. While nobody
        // leads the network holds that traffic (pumping it now would land
        // it under the old, still-current epoch — no fence to test), so
        // stragglers only arrive once a successor has fenced a fresh one.
        let leading = leader.as_ref().map(|(n, _)| *n);
        if let Some(l) = leading {
            for (i, ch) in channels.iter_mut().enumerate() {
                if i == l {
                    continue;
                }
                ch.pump();
                while let Some(a) = ch.recv() {
                    if matches!(a.result, Err(AckError::StaleEpoch { .. })) {
                        report.epoch_rejections += 1;
                    }
                }
            }
        }
        let now = channels.iter().map(|c| c.now_ns()).max().unwrap_or(0);

        // Election: first live candidate (in slot order) to find the
        // lease lapsed wins a fresh epoch and recovers from the WAL.
        if leader.is_none() {
            for node in 0..cfg.controllers {
                if dead_until[node] > now {
                    continue;
                }
                if let Some(lease) = election.try_acquire(node, now) {
                    let crash = if chaos_over {
                        CrashInjector::Never
                    } else {
                        CrashInjector::random(cfg.crash_rate, cfg.seed ^ splitmix(lease.epoch))
                    };
                    let mut ctl =
                        Controller::recover(wal.clone(), cfg.driver.clone(), lease.epoch, crash)
                            .expect("the log holds only plans the controllers validated");
                    match ctl.recover_switch(&mut channels[node]) {
                        Ok(rep) => {
                            note_recovery(&mut report, &rep);
                            if chaos_over && rep.reconciled && rep.verified {
                                report.reconciled = true;
                                report.verified = true;
                                done = true;
                            }
                            leader = Some((node, ctl));
                        }
                        Err(DriverError::Crashed(_)) => {
                            report.crashes += 1;
                            add_stats(&mut stats, ctl.stats());
                            dead_until[node] = now + cfg.lease.ttl_ns;
                            election.release(node);
                        }
                        Err(_) => {
                            // Couldn't converge yet (e.g. unanswerable
                            // switch); lead anyway and let later passes
                            // repair.
                            leader = Some((node, ctl));
                        }
                    }
                    break;
                }
            }
        }
        let Some((node, ctl)) = leader.as_mut() else {
            // Nobody electable: let downtime and leases lapse.
            for ch in channels.iter_mut() {
                ch.advance(cfg.lease.ttl_ns / 4 + 1);
            }
            continue;
        };
        let node = *node;
        if done {
            break;
        }

        // Renew the lease. A lapse (we stalled past the term, e.g. a long
        // retry storm) deposes this generation even if no rival took
        // over: it may no longer assume it is the newest epoch.
        let renewed = matches!(
            election.try_acquire(node, now),
            Some(l) if l.epoch == ctl.epoch()
        );
        if !renewed {
            let (_, ctl) = leader.take().unwrap();
            add_stats(&mut stats, ctl.stats());
            continue;
        }

        let mut died = false;
        if let Some(plan) = pending.pop_front() {
            match ctl.apply_plan(&mut channels[node], &plan) {
                Ok(()) => report.acked += 1,
                Err(DriverError::Crashed(_)) => died = true,
                Err(DriverError::Overloaded { .. }) => {
                    // Shed: not adopted. Drain the window (reconcile-class
                    // traffic outranks churn) and retry the intent.
                    pending.push_front(plan);
                    if let Err(DriverError::Crashed(_)) = ctl.reconcile(&mut channels[node]) {
                        died = true;
                    }
                }
                Err(DriverError::Deposed { .. }) => {
                    // Defensive: a newer epoch reached the switch first.
                    let (_, ctl) = leader.take().unwrap();
                    add_stats(&mut stats, ctl.stats());
                    continue;
                }
                Err(_) => {
                    // Unreachable/nacked: the intent is adopted and in
                    // doubt; reconcile opportunistically once the window
                    // half-fills rather than retry-storming per intent.
                    if ctl.deferred() >= (cfg.driver.window as u64 / 2).max(1) {
                        if let Err(DriverError::Crashed(_)) = ctl.reconcile(&mut channels[node]) {
                            died = true;
                        }
                    }
                }
            }
        } else {
            // Final drain: converge and verify (crash injection is off
            // for newly elected generations; switch it off here too for
            // the incumbent).
            ctl.set_crash_injector(CrashInjector::Never);
            if let Ok(rep) = ctl.recover_switch(&mut channels[node]) {
                note_recovery(&mut report, &rep);
                if rep.reconciled && rep.verified {
                    report.reconciled = true;
                    report.verified = true;
                    done = true;
                }
            }
            channels[node].advance(cfg.driver.ack_timeout_ns);
        }
        if died {
            let (node, ctl) = leader.take().unwrap();
            report.crashes += 1;
            add_stats(&mut stats, ctl.stats());
            dead_until[node] = channels[node].now_ns().max(now) + cfg.lease.ttl_ns;
            election.release(node);
        }
    }

    if let Some((_, ctl)) = leader.take() {
        report.final_epoch = ctl.epoch();
        add_stats(&mut stats, ctl.stats());
    }
    if let Some(l) = election.holder() {
        report.final_epoch = report.final_epoch.max(l.epoch);
    }
    report.elections = election.elections;
    report.failovers = election.failovers;
    report.shed = stats.shed;
    report.breaker_opens = stats.breaker_opens;
    report.retries = stats.retries;
    report.repairs = stats.repairs;
    report.switch_restarts = channels.iter().map(|c| c.stats().restarts).sum();
    report.wal_records = wal.borrow().len();
    report.in_doubt_final = wal
        .borrow()
        .replay()
        .expect("the log holds only plans the controllers validated")
        .in_doubt
        .len();
    report.elapsed_ns = channels.iter().map(|c| c.now_ns()).max().unwrap_or(0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Ack, AckOk, FlowMod, FlowModOp, TxnId};
    use crate::updates::{self, RuleUpdate};
    use mapro_core::{ActionSem, Catalog, Entry, Table, Value};
    use std::collections::HashMap;

    /// Minimal fencing, deduplicating switch model (the real one is
    /// `mapro-switch`'s `LiveSwitch`; this keeps the crate's tests
    /// dependency-free).
    struct ModelSwitch {
        pipeline: Pipeline,
        committed: Pipeline,
        epoch: Epoch,
        staged: HashMap<u64, Vec<RuleUpdate>>,
        log: HashMap<(Epoch, TxnId), Ack>,
    }

    impl ModelSwitch {
        fn new(p: Pipeline) -> ModelSwitch {
            ModelSwitch {
                committed: p.clone(),
                pipeline: p,
                epoch: 0,
                staged: HashMap::new(),
                log: HashMap::new(),
            }
        }
    }

    impl Endpoint for ModelSwitch {
        fn deliver(&mut self, msg: &FlowMod) -> Ack {
            if msg.epoch < self.epoch {
                return Ack {
                    txn: msg.txn,
                    epoch: msg.epoch,
                    result: Err(AckError::StaleEpoch {
                        current: self.epoch,
                    }),
                };
            }
            if msg.epoch > self.epoch {
                self.epoch = msg.epoch;
                self.staged.clear();
            }
            if let Some(prev) = self.log.get(&(msg.epoch, msg.txn)) {
                return prev.clone();
            }
            let result = match &msg.op {
                FlowModOp::Apply(u) => updates::apply_update(&mut self.pipeline, u)
                    .map(|_| AckOk::Done)
                    .map_err(|e| AckError::Rejected(e.to_string())),
                FlowModOp::Prepare { bundle, updates } => {
                    self.staged.insert(*bundle, updates.clone());
                    Ok(AckOk::Done)
                }
                FlowModOp::Commit { bundle } => match self.staged.remove(bundle) {
                    None => Err(AckError::BundleUnknown),
                    Some(us) => {
                        let mut next = self.pipeline.clone();
                        match us
                            .iter()
                            .try_for_each(|u| updates::apply_update(&mut next, u).map(drop))
                        {
                            Ok(()) => {
                                self.pipeline = next.clone();
                                self.committed = next;
                                Ok(AckOk::Done)
                            }
                            Err(e) => Err(AckError::Rejected(e.to_string())),
                        }
                    }
                },
                FlowModOp::Rollback { bundle } => {
                    self.staged.remove(bundle);
                    Ok(AckOk::Done)
                }
                FlowModOp::ReadState => Ok(AckOk::State(Box::new(self.pipeline.clone()))),
            };
            let ack = Ack {
                txn: msg.txn,
                epoch: msg.epoch,
                result,
            };
            self.log.insert((msg.epoch, msg.txn), ack.clone());
            ack
        }

        fn restart(&mut self) {
            self.pipeline = self.committed.clone();
            self.staged.clear();
            self.log.clear();
        }
    }

    fn base() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        Pipeline::single(c, t)
    }

    fn intents(n: u64) -> Vec<UpdatePlan> {
        (0..n)
            .map(|k| UpdatePlan {
                intent: format!("insert {k}"),
                updates: vec![RuleUpdate::Insert {
                    table: "t".into(),
                    entry: Entry::new(vec![Value::Int(100 + k)], vec![Value::sym("a")]),
                }],
            })
            .collect()
    }

    #[test]
    fn clean_run_delivers_everything_verified() {
        let p = base();
        let rep = run_chaos(
            ModelSwitch::new(p.clone()),
            p,
            &intents(12),
            &ChaosConfig::default(),
        );
        assert_eq!(rep.acked, 12);
        assert_eq!(rep.crashes, 0);
        assert_eq!(rep.elections, 1);
        assert_eq!(rep.failovers, 0);
        assert!(rep.reconciled && rep.verified);
        assert_eq!(rep.guardrail_failures, 0);
        assert_eq!(rep.final_epoch, 1);
    }

    #[test]
    fn crashy_contested_run_recovers_verified() {
        let p = base();
        let cfg = ChaosConfig {
            controllers: 3,
            crash_rate: 0.2,
            fault_rate: 0.1,
            restart_every: 40,
            seed: 7,
            ..ChaosConfig::default()
        };
        let rep = run_chaos(ModelSwitch::new(p.clone()), p, &intents(20), &cfg);
        assert!(rep.crashes > 0, "crash rate 0.2 must kill someone: {rep:?}");
        assert!(rep.failovers > 0, "every crash forces a failover");
        assert!(rep.reconciled && rep.verified, "must end verified: {rep:?}");
        assert_eq!(rep.guardrail_failures, 0);
        assert!(rep.final_epoch > 1);
        assert!(!rep.recovery_lines.is_empty());
    }

    #[test]
    fn chaos_run_is_seed_deterministic() {
        let run = |seed| {
            let p = base();
            let cfg = ChaosConfig {
                controllers: 2,
                crash_rate: 0.15,
                fault_rate: 0.2,
                restart_every: 30,
                seed,
                ..ChaosConfig::default()
            };
            run_chaos(ModelSwitch::new(p.clone()), p, &intents(15), &cfg)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
