//! The resilient controller: idempotent flow-mod RPCs with retry and
//! backoff, two-phase update bundles, controller–switch reconciliation —
//! and, since the crash-recovery PR, a write-ahead log, epoch fencing,
//! crash injection, overload shedding and a circuit breaker.
//!
//! The driver turns the §2 consistency argument into machinery. Every
//! flow-mod carries a [`TxnId`]; retransmissions reuse the id, and the
//! switch's dedup log makes redelivery harmless. Multi-update plans go
//! through prepare → commit (the "atomic bundle" of §5's hardware model);
//! a mid-plan failure rolls back instead of leaving the halfway-exposed
//! state. Because a lossy channel can still desynchronize controller and
//! switch (e.g. a restart reverting uncommitted updates), the controller
//! periodically [`reconcile`](Controller::reconcile)s: read back the
//! switch's authoritative pipeline, diff it against the intended state,
//! and emit repair flow-mods until the two agree.
//!
//! Crash recovery extends the same story to the controller's own death:
//!
//! * every admitted intent is logged to a [`Wal`] *before* the first
//!   send, so a successor ([`Controller::recover`]) replays the log to
//!   the exact intended pipeline the predecessor died with;
//! * every message carries the controller's [`Epoch`]; the switch fences
//!   stale generations, and a fenced controller surfaces
//!   [`DriverError::Deposed`] instead of corrupting its successor's
//!   writes;
//! * a [`CrashInjector`] can kill the controller at any
//!   [`CrashPoint`] — `tests/chaos_recovery.rs` uses this to prove
//!   recovery at every injection point;
//! * overload shedding ([`DriverError::Overloaded`]) refuses churn-class
//!   intents once too many admitted intents are still undelivered, and a
//!   circuit breaker stops per-txn retry storms after K consecutive
//!   timeouts, deferring to bulk read-diff-repair instead.

use crate::channel::FaultyChannel;
use crate::wal::{ReplayError, SharedWal, Wal, WalRecord};
use mapro_core::update::{
    self, Ack, AckError, AckOk, ApplyError, BundleId, Endpoint, Epoch, FlowMod, FlowModOp,
    RuleUpdate, TxnId, UpdatePlan,
};
use mapro_core::{EquivConfig, EquivOutcome, Pipeline, Value};
use std::collections::HashSet;
use std::fmt;

/// Retry/backoff/reconciliation knobs, on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverConfig {
    /// How long to wait for an ack before retransmitting (ns).
    pub ack_timeout_ns: u64,
    /// Retransmissions per flow-mod before giving up.
    pub max_retries: u32,
    /// First backoff delay (ns); doubles per retry.
    pub backoff_base_ns: u64,
    /// Backoff ceiling (ns).
    pub backoff_cap_ns: u64,
    /// Read–diff–repair rounds before a reconcile pass gives up.
    pub max_reconcile_rounds: u32,
    /// Virtual-time budget for one reconcile pass; exceeding it returns
    /// [`ReconcileOutcome::Exhausted`] instead of spinning.
    pub reconcile_deadline_ns: u64,
    /// In-flight window: once this many admitted intents are still
    /// undelivered, churn-class intents are shed
    /// ([`DriverError::Overloaded`]); reconciliation always gets through.
    /// Also bounds the repair batch per reconcile round (backpressure).
    pub window: usize,
    /// Consecutive RPC timeouts before the circuit breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker skips per-txn delivery before probing
    /// again (ns, virtual).
    pub breaker_cooldown_ns: u64,
    /// Verify every committed intent inline: keep an incremental
    /// equivalence session (committed shadow vs. intended) and append a
    /// [`WalRecord::Proof`] receipt next to each `Commit`. Off by
    /// default — the e2e `churn_*` workloads turn it on.
    pub verify_inline: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ack_timeout_ns: 200_000,
            max_retries: 16,
            backoff_base_ns: 100_000,
            backoff_cap_ns: 10_000_000,
            max_reconcile_rounds: 32,
            reconcile_deadline_ns: 10_000_000_000,
            window: 16,
            breaker_threshold: 4,
            breaker_cooldown_ns: 50_000_000,
            verify_inline: false,
        }
    }
}

/// Somewhere the controller can be killed mid-protocol.
/// `tests/chaos_recovery.rs` proves recovery from every one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After the WAL `Begin` append, before anything reaches the wire.
    Begin,
    /// After a flow-mod was handed to the channel, before it was pumped —
    /// the message survives the controller in the network.
    InFlight,
    /// Inside the retry loop, before a retransmission.
    MidRetry,
    /// Between a bundle's prepare ack and its commit send: the switch
    /// holds a staged bundle its owner will never commit.
    AfterPrepare,
    /// After the commit ack, before the WAL `Commit` append: the switch
    /// applied the bundle but the log still carries it as in-doubt.
    AfterCommit,
    /// At the top of a reconcile round.
    Reconcile,
}

impl CrashPoint {
    /// Every injection point, for exhaustive kill-at-each-point sweeps.
    pub const ALL: [CrashPoint; 6] = [
        CrashPoint::Begin,
        CrashPoint::InFlight,
        CrashPoint::MidRetry,
        CrashPoint::AfterPrepare,
        CrashPoint::AfterCommit,
        CrashPoint::Reconcile,
    ];

    /// Stable label for traces and counters.
    pub fn label(&self) -> &'static str {
        match self {
            CrashPoint::Begin => "begin",
            CrashPoint::InFlight => "in_flight",
            CrashPoint::MidRetry => "mid_retry",
            CrashPoint::AfterPrepare => "after_prepare",
            CrashPoint::AfterCommit => "after_commit",
            CrashPoint::Reconcile => "reconcile",
        }
    }
}

/// Deterministic controller-crash fault injection.
#[derive(Debug, Clone)]
pub enum CrashInjector {
    /// Production mode: never crash.
    Never,
    /// Crash exactly at the `nth` occurrence of `point` (the proptest
    /// knob: enumerate every point deterministically).
    AtNth {
        /// The targeted injection point.
        point: CrashPoint,
        /// Which occurrence to kill at (1-based).
        nth: u32,
        /// Occurrences seen so far.
        seen: u32,
    },
}

impl CrashInjector {
    /// Crash at the `nth` time execution reaches `point`.
    pub fn at_nth(point: CrashPoint, nth: u32) -> CrashInjector {
        CrashInjector::AtNth {
            point,
            nth,
            seen: 0,
        }
    }

    fn fires(&mut self, point: CrashPoint) -> bool {
        match self {
            CrashInjector::Never => false,
            CrashInjector::AtNth {
                point: p,
                nth,
                seen,
            } => {
                if *p != point {
                    return false;
                }
                *seen += 1;
                *seen == *nth
            }
        }
    }
}

/// Why a driver operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// The intent does not apply to the controller's own intended state —
    /// nothing was sent.
    PlanInvalid(ApplyError),
    /// No ack after `max_retries` retransmissions.
    Unreachable {
        /// The transaction that went unanswered.
        txn: TxnId,
        /// Send attempts made (initial + retries).
        attempts: u32,
    },
    /// The switch refused the operation.
    Nack {
        /// The refused transaction.
        txn: TxnId,
        /// The switch's reason.
        err: AckError,
    },
    /// The switch answered a read with a non-state payload.
    Protocol(String),
    /// The switch's schema (table names/columns) no longer matches the
    /// intended pipeline; entry-level repair cannot help.
    SchemaDrift,
    /// The switch is fenced to a newer epoch: this controller generation
    /// lost leadership and must stop writing.
    Deposed {
        /// The epoch the switch is fenced to.
        current: Epoch,
    },
    /// Admission control shed the intent: too many admitted intents are
    /// still undelivered. The intent was *not* adopted — retry after
    /// reconciliation drains the window.
    Overloaded {
        /// Undelivered admitted intents at the time of shedding.
        deferred: u64,
    },
    /// The crash injector killed the controller at this point. The
    /// controller object must be discarded; a successor recovers from
    /// the WAL.
    Crashed(CrashPoint),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::PlanInvalid(e) => write!(f, "plan invalid against intended state: {e}"),
            DriverError::Unreachable { txn, attempts } => {
                write!(f, "txn {txn}: no ack after {attempts} attempts")
            }
            DriverError::Nack { txn, err } => match err {
                AckError::BundleUnknown => write!(f, "txn {txn}: switch does not hold the bundle"),
                AckError::StaleEpoch { current } => {
                    write!(f, "txn {txn}: fenced by epoch {current}")
                }
                AckError::Rejected(r) => write!(f, "txn {txn}: rejected: {r}"),
            },
            DriverError::Protocol(s) => write!(f, "protocol violation: {s}"),
            DriverError::SchemaDrift => write!(f, "switch schema drifted from intended pipeline"),
            DriverError::Deposed { current } => {
                write!(f, "deposed: switch is fenced to epoch {current}")
            }
            DriverError::Overloaded { deferred } => {
                write!(f, "overloaded: {deferred} intents already in flight")
            }
            DriverError::Crashed(p) => write!(f, "controller crashed at {}", p.label()),
        }
    }
}

impl std::error::Error for DriverError {}

/// Priority class of an intent, for overload shedding. Reconciliation
/// repairs outrank churn: shedding churn under load converges the system,
/// shedding repairs would wedge it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnClass {
    /// Repair traffic; never shed.
    Reconcile,
    /// Ordinary intent churn; shed once the window fills.
    Churn,
}

/// Per-controller accounting (per-run, unlike the global obs counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Flow-mods sent (including retransmissions).
    pub sent: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Positive acks received.
    pub acks: u64,
    /// Negative acks received.
    pub nacks: u64,
    /// Repair flow-mods emitted by reconciliation.
    pub repairs: u64,
    /// Reconcile passes that converged.
    pub reconciles: u64,
    /// Churn intents refused by admission control.
    pub shed: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Inline equivalence proofs recorded (`verify_inline`).
    pub proofs: u64,
}

/// Outcome of one converged reconcile pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Read–diff–repair rounds used (1 = already in sync).
    pub rounds: u32,
    /// Repair flow-mods emitted.
    pub repairs: usize,
    /// Virtual time from pass start to verified convergence (ns).
    pub convergence_ns: u64,
}

/// How a reconcile pass ended. `Exhausted` is an outcome, not an error:
/// the switch is (still) divergent, the budget ran out, and the caller
/// decides whether to re-run, alert, or shed load — the old behavior of
/// spinning inside the pass until an error is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileOutcome {
    /// A read round found no difference.
    Converged(ReconcileReport),
    /// The round or deadline budget ran out (or the switch stopped
    /// answering reads) before convergence.
    Exhausted {
        /// Rounds attempted.
        rounds: u32,
        /// Repair flow-mods emitted before giving up.
        repairs: usize,
        /// Virtual time burned (ns).
        elapsed_ns: u64,
    },
}

/// What [`Controller::recover_switch`] did, for the one-line recovery
/// summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovering generation's epoch.
    pub epoch: Epoch,
    /// WAL records replayed to rebuild the intended state.
    pub wal_records: usize,
    /// Begun-but-unconfirmed intents inherited from the predecessor.
    pub in_doubt: usize,
    /// Whether reconciliation converged.
    pub reconciled: bool,
    /// Whether the post-recovery `mapro_sym` guardrail proved the switch
    /// equivalent to the WAL-derived intended pipeline.
    pub verified: bool,
    /// Reconcile rounds used.
    pub rounds: u32,
    /// Repair flow-mods emitted.
    pub repairs: usize,
    /// Virtual time from takeover to verified recovery (ns).
    pub elapsed_ns: u64,
}

impl RecoveryReport {
    /// The one-line recovery summary (deterministic: virtual-clock only).
    pub fn summary(&self) -> String {
        format!(
            "recovery: epoch {} replayed {} WAL records ({} in doubt), \
             {} rounds / {} repairs in {} us, reconciled={} verified={}",
            self.epoch,
            self.wal_records,
            self.in_doubt,
            self.rounds,
            self.repairs,
            self.elapsed_ns / 1_000,
            self.reconciled,
            self.verified,
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
enum BreakerState {
    Closed,
    Open { until_ns: u64 },
}

/// The controller: owns the intended pipeline and drives a switch toward
/// it across a [`FaultyChannel`].
pub struct Controller {
    intended: Pipeline,
    cfg: DriverConfig,
    epoch: Epoch,
    next_txn: TxnId,
    next_bundle: BundleId,
    wal: SharedWal,
    crash: CrashInjector,
    breaker: BreakerState,
    consecutive_timeouts: u32,
    /// Admitted intents not confirmed delivered (WAL `Begin` without
    /// `Commit` under this generation). Reset by a converged reconcile.
    deferred: u64,
    in_doubt_at_recovery: usize,
    wal_records_at_recovery: usize,
    stats: DriverStats,
    /// The inline incremental equivalence session
    /// (`DriverConfig::verify_inline`): left = committed shadow, right =
    /// intended. `None` when verification is off or the session could not
    /// be built for this pipeline (degrade, don't wedge the datapath).
    verifier: Option<mapro_sym::IncrementalChecker>,
    last_proof: Option<mapro_sym::ProofToken>,
}

impl Controller {
    /// A first-generation controller (epoch 0) whose intended state
    /// starts at `intended` (normally the pipeline the switch booted
    /// with), over a fresh private WAL.
    pub fn new(intended: Pipeline, cfg: DriverConfig) -> Controller {
        Controller::with_wal(Wal::shared(intended.clone()), intended, cfg, 0)
    }

    fn with_wal(wal: SharedWal, intended: Pipeline, cfg: DriverConfig, epoch: Epoch) -> Controller {
        // Declare up front so `--metrics` shows the shed counter even
        // for a run that never overloads, and the per-hop split of
        // `apply_plan_with` before the first intent.
        mapro_obs::counter!("control.shed");
        mapro_obs::histogram!("control.plan.adopt_ns");
        mapro_obs::histogram!("control.plan.wal_ns");
        mapro_obs::histogram!("control.plan.proof_intended_ns");
        mapro_obs::histogram!("control.plan.deliver_ns");
        mapro_obs::histogram!("control.plan.proof_committed_ns");
        let mut ctl = Controller {
            intended,
            cfg,
            epoch,
            next_txn: 1,
            next_bundle: 1,
            wal,
            crash: CrashInjector::Never,
            breaker: BreakerState::Closed,
            consecutive_timeouts: 0,
            deferred: 0,
            in_doubt_at_recovery: 0,
            wal_records_at_recovery: 0,
            stats: DriverStats::default(),
            verifier: None,
            last_proof: None,
        };
        ctl.resync_verifier();
        ctl
    }

    /// A successor generation: replay `wal` to the predecessor's intended
    /// state and take over under `epoch` (which the caller must pick
    /// fresher than anything the dead generation sent). A corrupt log
    /// is refused, never recovered from.
    pub fn recover(
        wal: SharedWal,
        cfg: DriverConfig,
        epoch: Epoch,
        crash: CrashInjector,
    ) -> Result<Controller, ReplayError> {
        let replay = wal.borrow().replay()?;
        let mut ctl = Controller::with_wal(wal, replay.intended, cfg, epoch);
        ctl.next_txn = replay.next_txn;
        // Predecessor bundles are fenced by epoch; ids may restart.
        ctl.next_bundle = 1;
        ctl.crash = crash;
        ctl.deferred = replay.in_doubt.len() as u64;
        ctl.in_doubt_at_recovery = replay.in_doubt.len();
        ctl.wal_records_at_recovery = replay.records;
        Ok(ctl)
    }

    /// The state the controller is driving the switch toward.
    pub fn intended(&self) -> &Pipeline {
        &self.intended
    }

    /// This generation's fencing epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Admitted intents not yet confirmed delivered.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// The shared write-ahead log.
    pub fn wal(&self) -> SharedWal {
        self.wal.clone()
    }

    /// Per-run accounting.
    pub fn stats(&self) -> &DriverStats {
        &self.stats
    }

    /// The most recent inline equivalence receipt
    /// ([`DriverConfig::verify_inline`]); `None` before the first
    /// committed intent or when verification is off.
    pub fn last_proof(&self) -> Option<&mapro_sym::ProofToken> {
        self.last_proof.as_ref()
    }

    /// (Re)build the inline verifier from the current intended state:
    /// both sides start at `intended`, so the session opens Equivalent
    /// and the committed shadow re-anchors to reality. Called at
    /// construction, after recovery, and whenever a converged reconcile
    /// proves the switch holds the intended pipeline.
    fn resync_verifier(&mut self) {
        if !self.cfg.verify_inline {
            return;
        }
        self.verifier = mapro_sym::IncrementalChecker::new(
            &self.intended,
            &self.intended,
            &mapro_sym::SymConfig::default(),
        )
        .ok();
    }

    /// Advance the verifier's committed shadow past a just-committed plan
    /// (replayed in place on the session's own copy) and log the resulting
    /// proof receipt. Any verifier-side failure degrades to "no proof this
    /// txn" — verification must never turn a successful commit into a
    /// datapath error.
    fn record_proof(&mut self, txn: TxnId, plan: &UpdatePlan, rows: &[(String, Vec<Value>)]) {
        let Some(v) = self.verifier.as_mut() else {
            return;
        };
        let replay = |shadow: &mut Pipeline| update::apply_plan_silent(shadow, plan);
        match v.update(mapro_sym::Side::Left, rows, self.epoch, txn, replay) {
            Ok(token) => {
                self.stats.proofs += 1;
                self.wal.borrow_mut().append(WalRecord::Proof {
                    txn,
                    token: token.clone(),
                });
                self.last_proof = Some(token);
            }
            // The shadow lost sync (e.g. repairs landed outside the plan
            // flow) or the proof failed: drop the session and let the next
            // converged reconcile re-anchor it.
            Err(_) => self.verifier = None,
        }
    }

    fn fresh_txn(&mut self) -> TxnId {
        let t = self.next_txn;
        self.next_txn += 1;
        t
    }

    fn check_crash(&mut self, point: CrashPoint) -> Result<(), DriverError> {
        if self.crash.fires(point) {
            mapro_obs::counter!("control.crashes").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv("crash", vec![("point", point.label().into())]);
            }
            return Err(DriverError::Crashed(point));
        }
        Ok(())
    }

    fn breaker_open(&self, now_ns: u64) -> bool {
        matches!(self.breaker, BreakerState::Open { until_ns } if now_ns < until_ns)
    }

    fn note_timeout(&mut self, now_ns: u64) {
        self.consecutive_timeouts += 1;
        if self.consecutive_timeouts >= self.cfg.breaker_threshold && !self.breaker_open(now_ns) {
            self.breaker = BreakerState::Open {
                until_ns: now_ns + self.cfg.breaker_cooldown_ns,
            };
            self.stats.breaker_opens += 1;
            mapro_obs::counter!("control.breaker.opens").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv(
                    "breaker_open",
                    vec![("timeouts", self.consecutive_timeouts.into())],
                );
            }
        }
    }

    fn note_ack(&mut self) {
        self.consecutive_timeouts = 0;
        self.breaker = BreakerState::Closed;
    }

    /// One reliable-ish RPC: send, await ack, retransmit with exponential
    /// backoff under the *same* txn id (the switch's dedup log absorbs
    /// redeliveries).
    fn rpc<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
        op: FlowModOp,
    ) -> Result<AckOk, DriverError> {
        let txn = self.fresh_txn();
        self.rpc_txn(ch, txn, op)
    }

    fn rpc_txn<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
        txn: TxnId,
        op: FlowModOp,
    ) -> Result<AckOk, DriverError> {
        let mut sp = mapro_obs::trace::span_kv(
            "txn",
            vec![("txn", txn.into()), ("op", op_label(&op).into())],
        );
        let mut backoff = self.cfg.backoff_base_ns;
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                self.check_crash(CrashPoint::MidRetry)?;
                self.stats.retries += 1;
                mapro_obs::counter!("control.driver.retries").inc();
                if mapro_obs::trace::active() {
                    mapro_obs::trace::instant_kv(
                        "retry",
                        vec![("txn", txn.into()), ("attempt", attempt.into())],
                    );
                }
                ch.advance(backoff);
                backoff = (backoff * 2).min(self.cfg.backoff_cap_ns);
            }
            self.stats.sent += 1;
            ch.send(FlowMod {
                txn,
                epoch: self.epoch,
                op: op.clone(),
            });
            // The message is in the network but not yet delivered: a
            // crash here leaves it to arrive after this generation died.
            self.check_crash(CrashPoint::InFlight)?;
            ch.pump();
            // All in-flight acks surface at pump time; scan for ours and
            // drain stale ones (duplicates, previous batches, and any
            // predecessor stragglers on a reused channel — the epoch
            // match keeps those from being mistaken for our ack).
            let mut got = None;
            while let Some(ack) = ch.recv() {
                if ack.txn == txn && ack.epoch == self.epoch && got.is_none() {
                    got = Some(ack);
                }
            }
            match got {
                None => ch.advance(self.cfg.ack_timeout_ns),
                Some(Ack { result: Ok(ok), .. }) => {
                    self.stats.acks += 1;
                    self.note_ack();
                    sp.set("attempts", attempt + 1);
                    sp.set("outcome", "ack");
                    return Ok(ok);
                }
                Some(Ack {
                    result: Err(AckError::StaleEpoch { current }),
                    ..
                }) => {
                    self.stats.nacks += 1;
                    sp.set("attempts", attempt + 1);
                    sp.set("outcome", "deposed");
                    return Err(DriverError::Deposed { current });
                }
                Some(Ack {
                    result: Err(err), ..
                }) => {
                    self.stats.nacks += 1;
                    self.note_ack();
                    sp.set("attempts", attempt + 1);
                    sp.set("outcome", "nack");
                    return Err(DriverError::Nack { txn, err });
                }
            }
        }
        sp.set("attempts", self.cfg.max_retries + 1);
        sp.set("outcome", "unreachable");
        self.note_timeout(ch.now_ns());
        Err(DriverError::Unreachable {
            txn,
            attempts: self.cfg.max_retries + 1,
        })
    }

    /// Drive one churn-class intent to the switch; see
    /// [`apply_plan_with`](Controller::apply_plan_with).
    pub fn apply_plan<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
        plan: &UpdatePlan,
    ) -> Result<(), DriverError> {
        self.apply_plan_with(ch, plan, TxnClass::Churn)
    }

    /// Drive one intent to the switch. Single-update plans go as one
    /// idempotent flow-mod; multi-update plans as a two-phase bundle
    /// (prepare → commit, rollback on failure). The intended state adopts
    /// the plan *regardless of delivery outcome* — an undelivered intent
    /// is a divergence for [`reconcile`](Controller::reconcile) to repair,
    /// not a lost wish — and the adoption is durable: a WAL `Begin` is
    /// appended before the first send, a `Commit` only after the switch
    /// acknowledged.
    ///
    /// Admission control: churn-class intents are shed
    /// ([`DriverError::Overloaded`], *not* adopted) while more than
    /// [`DriverConfig::window`] admitted intents are undelivered.
    /// While the circuit breaker is open, delivery is skipped entirely
    /// (the intent is adopted and logged; bulk reconciliation repairs).
    ///
    /// Each hop records its wall time in a `control.plan.*_ns` histogram:
    /// `adopt` (the plan, in place on the intended state), `wal` (each
    /// `Begin` and `Commit` append), `proof_intended` (the verifier's
    /// intended side), `deliver` (the flow-mods over the channel) and
    /// `proof_committed` (the committed shadow and its receipt).
    pub fn apply_plan_with<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
        plan: &UpdatePlan,
        class: TxnClass,
    ) -> Result<(), DriverError> {
        let _sp = mapro_obs::trace::span_kv(
            "plan",
            vec![
                ("updates", plan.updates.len().into()),
                ("bundled", plan.needs_bundle().into()),
            ],
        );
        if class == TxnClass::Churn && self.deferred >= self.cfg.window as u64 {
            self.stats.shed += 1;
            mapro_obs::counter!("control.shed").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv("shed", vec![("deferred", self.deferred.into())]);
            }
            return Err(DriverError::Overloaded {
                deferred: self.deferred,
            });
        }
        // Adopt in place: `apply_plan` is all-or-nothing, so an invalid
        // plan leaves the intended state as it was.
        let adopt = mapro_obs::time!("control.plan.adopt_ns");
        update::apply_plan(&mut self.intended, plan).map_err(DriverError::PlanInvalid)?;
        // The update's footprint rows, computed once (they read only the
        // schema, which entry edits never change): the verifier's dirty
        // region and (in the switch) megaflow invalidation both key off
        // these.
        let delta = self
            .verifier
            .is_some()
            .then(|| update::plan_delta_rows(&self.intended, plan));
        drop(adopt);
        // Intent admitted: log it before anything reaches the wire. From
        // here on the plan survives this controller.
        let txn_base = self.next_txn;
        let wal = mapro_obs::time!("control.plan.wal_ns");
        self.wal.borrow_mut().append(WalRecord::Begin {
            txn: txn_base,
            epoch: self.epoch,
            plan: plan.clone(),
        });
        drop(wal);
        if let (Some(v), Some(rows)) = (self.verifier.as_mut(), delta.as_deref()) {
            // Advance the session's intended side now, replaying the plan
            // on its own copy; the committed shadow catches up in
            // `record_proof` once delivery is acknowledged. A verifier
            // error degrades, never blocks.
            let _t = mapro_obs::time!("control.plan.proof_intended_ns");
            let replay = |intended: &mut Pipeline| update::apply_plan_silent(intended, plan);
            if v.update(mapro_sym::Side::Right, rows, self.epoch, txn_base, replay)
                .is_err()
            {
                self.verifier = None;
            }
        }
        self.deferred += 1;
        self.check_crash(CrashPoint::Begin)?;
        if self.breaker_open(ch.now_ns()) {
            // Fast-fail: no per-txn retry storm against a switch that
            // stopped answering; the next reconcile repairs in bulk.
            return Ok(());
        }
        let deliver = mapro_obs::time!("control.plan.deliver_ns");
        let result = if plan.updates.is_empty() {
            Ok(())
        } else if !plan.needs_bundle() {
            self.rpc(ch, FlowModOp::Apply(plan.updates[0].clone()))
                .map(drop)
        } else {
            self.commit_bundle(ch, &plan.updates)
        };
        drop(deliver);
        match result {
            Ok(()) => {
                let wal = mapro_obs::time!("control.plan.wal_ns");
                self.wal
                    .borrow_mut()
                    .append(WalRecord::Commit { txn: txn_base });
                drop(wal);
                self.deferred = self.deferred.saturating_sub(1);
                if let Some(rows) = delta.as_deref() {
                    let _t = mapro_obs::time!("control.plan.proof_committed_ns");
                    self.record_proof(txn_base, plan, rows);
                }
                Ok(())
            }
            // The controller is dead; nothing more to account.
            Err(e @ DriverError::Crashed(_)) => Err(e),
            // Delivery failed; the intent stays adopted and in doubt.
            Err(e) => Err(e),
        }
    }

    fn commit_bundle<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
        updates: &[RuleUpdate],
    ) -> Result<(), DriverError> {
        let bundle = self.next_bundle;
        self.next_bundle += 1;
        let _sp = mapro_obs::trace::span_kv(
            "bundle",
            vec![("bundle", bundle.into()), ("updates", updates.len().into())],
        );
        let mut restages = 0;
        loop {
            self.rpc(
                ch,
                FlowModOp::Prepare {
                    bundle,
                    updates: updates.to_vec(),
                },
            )?;
            self.check_crash(CrashPoint::AfterPrepare)?;
            match self.rpc(ch, FlowModOp::Commit { bundle }) {
                Ok(_) => {
                    self.check_crash(CrashPoint::AfterCommit)?;
                    return Ok(());
                }
                // A restart between prepare and commit wiped the staging
                // area; stage again (bounded — repeated wipes mean the
                // switch is flapping and reconciliation should take over).
                Err(DriverError::Nack {
                    err: AckError::BundleUnknown,
                    ..
                }) if restages < 3 => restages += 1,
                Err(e) => {
                    // Best-effort unstage; the switch may not hold the
                    // bundle at all, so ignore the outcome.
                    let _ = self.rpc(ch, FlowModOp::Rollback { bundle });
                    return Err(e);
                }
            }
        }
    }

    /// Read back the switch's authoritative pipeline.
    pub fn read_state<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
    ) -> Result<Pipeline, DriverError> {
        match self.rpc(ch, FlowModOp::ReadState)? {
            AckOk::State(p) => Ok(*p),
            AckOk::Done => Err(DriverError::Protocol("read answered without state".into())),
        }
    }

    /// One reconcile pass: read the switch state, diff against intended,
    /// emit repairs, repeat until a read round shows no difference or the
    /// round/deadline budget runs out ([`ReconcileOutcome::Exhausted`] —
    /// an outcome, not an error: the caller re-runs or alerts).
    ///
    /// Repair batches are bounded to [`DriverConfig::window`] per round
    /// (backpressure); an unanswerable switch exhausts the pass instead
    /// of erroring, because reconciliation is the recovery path and must
    /// not itself wedge on the fault it is repairing.
    pub fn reconcile<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
    ) -> Result<ReconcileOutcome, DriverError> {
        let _sp = mapro_obs::trace::span("reconcile");
        let start = ch.now_ns();
        let mut repairs_sent = 0usize;
        let exhausted = |rounds: u32, repairs: usize, now: u64| {
            mapro_obs::counter!("control.driver.reconcile_exhausted").inc();
            Ok(ReconcileOutcome::Exhausted {
                rounds,
                repairs,
                elapsed_ns: now.saturating_sub(start),
            })
        };
        for round in 1..=self.cfg.max_reconcile_rounds {
            self.check_crash(CrashPoint::Reconcile)?;
            if ch.now_ns().saturating_sub(start) > self.cfg.reconcile_deadline_ns {
                return exhausted(round - 1, repairs_sent, ch.now_ns());
            }
            let mut round_span = mapro_obs::trace::span_kv("round", vec![("round", round.into())]);
            let actual = match self.read_state(ch) {
                Ok(p) => p,
                Err(DriverError::Unreachable { .. }) => {
                    return exhausted(round, repairs_sent, ch.now_ns())
                }
                Err(e) => return Err(e),
            };
            let mut repairs = diff_pipelines(&actual, &self.intended)?;
            round_span.set("repairs", repairs.len());
            if repairs.is_empty() {
                let dt = ch.now_ns().saturating_sub(start);
                self.stats.reconciles += 1;
                self.deferred = 0;
                // The switch provably holds the intended state: re-anchor
                // the verifier's committed shadow to it (repairs bypass
                // the per-plan proof path, so the shadow may be behind).
                self.resync_verifier();
                mapro_obs::histogram!("control.driver.convergence_ns").record(dt);
                return Ok(ReconcileOutcome::Converged(ReconcileReport {
                    rounds: round,
                    repairs: repairs_sent,
                    convergence_ns: dt,
                }));
            }
            // Backpressure: cap the in-flight repair batch at the window;
            // the next round's fresh diff picks up the remainder.
            if repairs.len() > self.cfg.window {
                mapro_obs::counter!("control.driver.backpressure")
                    .add((repairs.len() - self.cfg.window) as u64);
                repairs.truncate(self.cfg.window);
            }
            repairs_sent += repairs.len();
            self.stats.repairs += repairs.len() as u64;
            mapro_obs::counter!("control.driver.reconcile_repairs").add(repairs.len() as u64);
            // Fire the whole repair batch at once (this is where duplicate
            // and reordered deliveries actually interleave), then settle
            // stragglers with individual retries.
            let batch: Vec<(TxnId, FlowModOp)> = repairs
                .into_iter()
                .map(|u| (self.fresh_txn(), FlowModOp::Apply(u)))
                .collect();
            for (txn, op) in &batch {
                self.stats.sent += 1;
                ch.send(FlowMod {
                    txn: *txn,
                    epoch: self.epoch,
                    op: op.clone(),
                });
            }
            ch.pump();
            let mut acked: HashSet<TxnId> = HashSet::new();
            while let Some(a) = ch.recv() {
                if a.epoch != self.epoch {
                    continue;
                }
                match &a.result {
                    Ok(_) => {
                        self.stats.acks += 1;
                        acked.insert(a.txn);
                    }
                    Err(AckError::StaleEpoch { current }) => {
                        return Err(DriverError::Deposed { current: *current })
                    }
                    Err(_) => {}
                }
            }
            for (txn, op) in batch {
                if acked.contains(&txn) {
                    continue;
                }
                match self.rpc_txn(ch, txn, op) {
                    Ok(_) => {}
                    // A refused repair means reordered repairs raced each
                    // other (e.g. a Modify keyed on a match tuple another
                    // repair already rewrote); the next round's fresh diff
                    // self-corrects.
                    Err(DriverError::Nack { .. }) => {}
                    Err(DriverError::Unreachable { .. }) => {
                        return exhausted(round, repairs_sent, ch.now_ns())
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        exhausted(self.cfg.max_reconcile_rounds, repairs_sent, ch.now_ns())
    }

    /// Post-failover takeover: reconcile the switch toward the WAL-derived
    /// intended state, then run the `mapro_sym` equivalence guardrail
    /// between what the switch actually holds and what the log says it
    /// should — a KATch-style runtime verification that recovery did not
    /// silently corrupt the pipeline.
    pub fn recover_switch<E: Endpoint>(
        &mut self,
        ch: &mut FaultyChannel<E>,
    ) -> Result<RecoveryReport, DriverError> {
        let mut sp = mapro_obs::trace::span_kv("recover", vec![("epoch", self.epoch.into())]);
        let started = ch.now_ns();
        let mut reconciled = false;
        let mut verified = false;
        let mut rounds = 0u32;
        let mut repairs = 0usize;
        // The guardrail read can race an injected switch restart (which
        // reverts volatile applies), so a failed check re-converges and
        // re-checks: only a divergence that *survives* reconciliation is
        // a real recovery failure.
        for _ in 0..3 {
            match self.reconcile(ch)? {
                ReconcileOutcome::Converged(r) => {
                    reconciled = true;
                    rounds += r.rounds;
                    repairs += r.repairs;
                }
                ReconcileOutcome::Exhausted {
                    rounds: r,
                    repairs: p,
                    ..
                } => {
                    reconciled = false;
                    rounds += r;
                    repairs += p;
                    break;
                }
            }
            match self.read_state(ch) {
                Ok(actual) => {
                    if self.guardrail(&actual) {
                        verified = true;
                        break;
                    }
                }
                Err(e @ DriverError::Crashed(_)) | Err(e @ DriverError::Deposed { .. }) => {
                    return Err(e)
                }
                Err(_) => {}
            }
        }
        sp.set("reconciled", reconciled);
        sp.set("verified", verified);
        let report = RecoveryReport {
            epoch: self.epoch,
            wal_records: self.wal_records_at_recovery,
            in_doubt: self.in_doubt_at_recovery,
            reconciled,
            verified,
            rounds,
            repairs,
            elapsed_ns: ch.now_ns().saturating_sub(started),
        };
        Ok(report)
    }

    /// The post-recovery equivalence guardrail: prove (symbolically, with
    /// enumerative fallback) that the switch's pipeline and the intended
    /// one are observationally equivalent.
    pub fn guardrail(&self, actual: &Pipeline) -> bool {
        let mut sp = mapro_obs::trace::span_kv("guardrail", vec![("epoch", self.epoch.into())]);
        let ok = matches!(
            mapro_sym::check_equivalent(actual, &self.intended, &EquivConfig::default()),
            Ok(EquivOutcome::Equivalent { .. })
        );
        sp.set("verified", ok);
        if ok {
            mapro_obs::counter!("control.guardrail.proofs").inc();
        } else {
            mapro_obs::counter!("control.guardrail.failures").inc();
            if mapro_obs::trace::active() {
                mapro_obs::trace::instant_kv(
                    "guardrail_failure",
                    vec![("epoch", self.epoch.into())],
                );
            }
        }
        ok
    }
}

fn op_label(op: &FlowModOp) -> &'static str {
    match op {
        FlowModOp::Apply(_) => "apply",
        FlowModOp::Prepare { .. } => "prepare",
        FlowModOp::Commit { .. } => "commit",
        FlowModOp::Rollback { .. } => "rollback",
        FlowModOp::ReadState => "read_state",
    }
}

/// Position-based pipeline diff: the repair flow-mods that transform
/// `actual` into `intended`, table by table. Shared row positions whose
/// entries differ become `Modify`s (keyed on the *actual* match tuple,
/// rewriting both match and action cells in place — this preserves entry
/// order, which matters because priorities are positional). Surplus actual
/// rows become `Delete`s; missing tail rows become `Insert`s (inserts
/// append, so only the tail can be grown — mid-table divergence is
/// expressed as in-place rewrites instead).
pub fn diff_pipelines(
    actual: &Pipeline,
    intended: &Pipeline,
) -> Result<Vec<RuleUpdate>, DriverError> {
    if actual.tables.len() != intended.tables.len() || actual.start != intended.start {
        return Err(DriverError::SchemaDrift);
    }
    let mut out = Vec::new();
    for (at, it) in actual.tables.iter().zip(&intended.tables) {
        if at.name != it.name
            || at.match_attrs != it.match_attrs
            || at.action_attrs != it.action_attrs
        {
            return Err(DriverError::SchemaDrift);
        }
        let shared = at.entries.len().min(it.entries.len());
        for row in 0..shared {
            let (have, want) = (&at.entries[row], &it.entries[row]);
            if have == want {
                continue;
            }
            let mut set = Vec::new();
            for (col, &attr) in it.match_attrs.iter().enumerate() {
                if have.matches[col] != want.matches[col] {
                    set.push((attr, want.matches[col].clone()));
                }
            }
            for (col, &attr) in it.action_attrs.iter().enumerate() {
                if have.actions[col] != want.actions[col] {
                    set.push((attr, want.actions[col].clone()));
                }
            }
            out.push(RuleUpdate::Modify {
                table: it.name.clone(),
                matches: have.matches.clone(),
                set,
            });
        }
        for e in at.entries.iter().skip(shared) {
            out.push(RuleUpdate::Delete {
                table: at.name.clone(),
                matches: e.matches.clone(),
            });
        }
        for e in it.entries.iter().skip(shared) {
            out.push(RuleUpdate::Insert {
                table: it.name.clone(),
                entry: e.clone(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FaultPlan;
    use mapro_core::{ActionSem, AttrId, Catalog, Entry, Table, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pipeline() -> (Pipeline, AttrId, AttrId) {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(2)], vec![Value::sym("b")]);
        (Pipeline::single(c, t), f, out)
    }

    /// A faithful in-memory switch: applies updates to a pipeline, keeps
    /// an epoch-scoped txn dedup log, fences stale epochs, stages bundles,
    /// and loses volatile state (but not the fence) on restart.
    struct MiniSwitch {
        pipeline: Pipeline,
        committed: Pipeline,
        epoch: Epoch,
        staged: std::collections::HashMap<BundleId, Vec<RuleUpdate>>,
        log: std::collections::HashMap<(Epoch, TxnId), Ack>,
        applies: u64,
        epoch_rejections: u64,
    }

    impl MiniSwitch {
        fn new(p: Pipeline) -> MiniSwitch {
            MiniSwitch {
                committed: p.clone(),
                pipeline: p,
                epoch: 0,
                staged: Default::default(),
                log: Default::default(),
                applies: 0,
                epoch_rejections: 0,
            }
        }
    }

    impl Endpoint for MiniSwitch {
        fn deliver(&mut self, msg: &FlowMod) -> Ack {
            if msg.epoch < self.epoch {
                self.epoch_rejections += 1;
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
                FlowModOp::Apply(u) => {
                    self.applies += 1;
                    update::apply_update(&mut self.pipeline, u)
                        .map(|_| AckOk::Done)
                        .map_err(|e| AckError::Rejected(e.to_string()))
                }
                FlowModOp::Prepare {
                    bundle,
                    updates: us,
                } => {
                    self.staged.insert(*bundle, us.clone());
                    Ok(AckOk::Done)
                }
                FlowModOp::Commit { bundle } => match self.staged.remove(bundle) {
                    None => Err(AckError::BundleUnknown),
                    Some(us) => {
                        let mut next = self.pipeline.clone();
                        match us
                            .iter()
                            .try_for_each(|u| update::apply_update(&mut next, u).map(drop))
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
            // The epoch fence is durable: forgetting it would let a dead
            // generation write after any power-cycle.
        }
    }

    fn move_plan(f: AttrId, from: u64, to: u64) -> UpdatePlan {
        UpdatePlan {
            intent: format!("move {from} -> {to}"),
            updates: vec![RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(from)],
                set: vec![(f, Value::Int(to))],
            }],
        }
    }

    fn converged(out: &ReconcileOutcome) -> &ReconcileReport {
        match out {
            ReconcileOutcome::Converged(r) => r,
            other => panic!("expected convergence, got {other:?}"),
        }
    }

    #[test]
    fn lossless_apply_and_reconcile_noop() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let mut ctl = Controller::new(p, DriverConfig::default());
        ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)).unwrap();
        let out = ctl.reconcile(&mut ch).unwrap();
        let rep = converged(&out);
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.repairs, 0);
        assert_eq!(ch.endpoint().pipeline, *ctl.intended());
        assert_eq!(ctl.stats().retries, 0);
        // One delivered intent: Begin + Commit in the WAL, nothing in
        // doubt.
        let wal = ctl.wal();
        assert_eq!(wal.borrow().len(), 2);
        assert!(wal.borrow().replay().unwrap().in_doubt.is_empty());
    }

    #[test]
    fn retries_survive_a_lossy_channel() {
        let (p, f, _) = pipeline();
        let plan = FaultPlan {
            p_drop: 0.4,
            ..FaultPlan::lossless(3)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let mut ctl = Controller::new(p, DriverConfig::default());
        for (from, to) in [(1u64, 7u64), (2, 8), (7, 9)] {
            ctl.apply_plan(&mut ch, &move_plan(f, from, to)).unwrap();
        }
        assert!(ctl.stats().retries > 0, "a 40% loss rate must cost retries");
        assert_eq!(ch.endpoint().pipeline, *ctl.intended());
    }

    #[test]
    fn dedup_makes_duplicated_flowmods_single_effect() {
        let (p, f, _) = pipeline();
        let plan = FaultPlan {
            p_dup: 1.0, // every message delivered twice
            ..FaultPlan::lossless(5)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let mut ctl = Controller::new(p, DriverConfig::default());
        ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)).unwrap();
        // The switch processed the apply exactly once despite redelivery.
        assert_eq!(ch.endpoint().applies, 1);
        assert_eq!(ch.stats().delivered, 2);
    }

    #[test]
    fn two_phase_bundle_commits_atomically() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let mut ctl = Controller::new(p, DriverConfig::default());
        let plan = UpdatePlan {
            intent: "renumber both".into(),
            updates: vec![
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1)],
                    set: vec![(f, Value::Int(11))],
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(2)],
                    set: vec![(f, Value::Int(12))],
                },
            ],
        };
        ctl.apply_plan(&mut ch, &plan).unwrap();
        assert_eq!(ch.endpoint().pipeline, *ctl.intended());
        // Committed state advanced with the bundle.
        assert_eq!(ch.endpoint().committed, *ctl.intended());
    }

    #[test]
    fn invalid_plan_rejected_before_sending() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let mut ctl = Controller::new(p.clone(), DriverConfig::default());
        let bad = move_plan(f, 99, 1);
        assert!(matches!(
            ctl.apply_plan(&mut ch, &bad),
            Err(DriverError::PlanInvalid(_))
        ));
        assert_eq!(ch.stats().sent, 0, "nothing must reach the wire");
        assert_eq!(*ctl.intended(), p, "intended state unchanged");
        assert!(
            ctl.wal().borrow().is_empty(),
            "invalid plans are not logged"
        );
    }

    #[test]
    fn restarts_revert_uncommitted_applies() {
        let (p, _, _) = pipeline();
        // Restart after every 7 deliveries: single applies are volatile,
        // so the 7 inserts delivered before the restart are wiped and only
        // the 8th (applied after the revert) survives.
        let plan = FaultPlan {
            restart_every: 7,
            ..FaultPlan::lossless(2)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let mut ctl = Controller::new(p, DriverConfig::default());
        for k in 0..8u64 {
            let ins = UpdatePlan {
                intent: format!("insert {k}"),
                updates: vec![RuleUpdate::Insert {
                    table: "t".into(),
                    entry: Entry::new(vec![Value::Int(100 + k)], vec![Value::sym("a")]),
                }],
            };
            ctl.apply_plan(&mut ch, &ins).unwrap();
        }
        assert_eq!(ch.stats().restarts, 1);
        assert_ne!(
            ch.endpoint().pipeline,
            *ctl.intended(),
            "the restart must have desynchronized switch and controller"
        );
        // 2 seed rows + only the post-restart insert.
        assert_eq!(ch.endpoint().pipeline.table("t").unwrap().entries.len(), 3);
    }

    #[test]
    fn reconcile_repairs_divergence() {
        let (p, _, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(2));
        let mut ctl = Controller::new(p, DriverConfig::default());
        // Simulate post-restart drift out of band: the switch lost a row
        // and corrupted another.
        {
            let t = ch.endpoint_mut().pipeline.table_mut("t").unwrap();
            t.entries[0] = Entry::new(vec![Value::Int(9)], vec![Value::sym("x")]);
            t.entries.pop();
        }
        assert_ne!(ch.endpoint().pipeline, *ctl.intended());
        let out = ctl.reconcile(&mut ch).unwrap();
        let rep = converged(&out).clone();
        assert!(rep.repairs >= 2, "drift must have required repairs");
        assert!(rep.rounds >= 2, "a repair round precedes the verify round");
        assert_eq!(ch.endpoint().pipeline, *ctl.intended());
        // A second pass finds nothing to do.
        let out2 = ctl.reconcile(&mut ch).unwrap();
        let rep2 = converged(&out2);
        assert_eq!(rep2.repairs, 0);
        assert_eq!(rep2.rounds, 1);
    }

    #[test]
    fn unreachable_switch_reported_after_bounded_retries() {
        let (p, f, _) = pipeline();
        let plan = FaultPlan {
            p_drop: 1.0,
            ..FaultPlan::lossless(4)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let cfg = DriverConfig {
            max_retries: 3,
            ..Default::default()
        };
        let mut ctl = Controller::new(p, cfg);
        match ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)) {
            Err(DriverError::Unreachable { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected Unreachable, got {other:?}"),
        }
        // The intent still moved the intended state; a later reconcile
        // (over a healed channel) would repair the switch.
        assert_ne!(ch.endpoint().pipeline, *ctl.intended());
        // And the WAL carries it in doubt.
        assert_eq!(ctl.wal().borrow().replay().unwrap().in_doubt.len(), 1);
        assert_eq!(ctl.deferred(), 1);
    }

    #[test]
    fn reconcile_exhausts_instead_of_erroring_when_unanswerable() {
        let (p, _, _) = pipeline();
        // Diverge the switch, then cut the channel entirely: every read
        // times out and the pass must end in Exhausted, not an error.
        let plan = FaultPlan {
            p_drop: 1.0,
            ..FaultPlan::lossless(6)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let cfg = DriverConfig {
            max_retries: 2,
            ..Default::default()
        };
        let mut ctl = Controller::new(p, cfg);
        match ctl.reconcile(&mut ch).unwrap() {
            ReconcileOutcome::Exhausted { rounds, .. } => assert!(rounds >= 1),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn overload_sheds_churn_but_admits_reconcile_class() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        // A zero window sheds every churn intent immediately.
        let cfg = DriverConfig {
            window: 0,
            ..Default::default()
        };
        let mut ctl = Controller::new(p.clone(), cfg);
        match ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)) {
            Err(DriverError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(ctl.stats().shed, 1);
        assert_eq!(*ctl.intended(), p, "shed intents are not adopted");
        assert!(ctl.wal().borrow().is_empty(), "shed intents are not logged");
        // Reconcile-class traffic outranks churn and still goes through.
        ctl.apply_plan_with(&mut ch, &move_plan(f, 1, 7), TxnClass::Reconcile)
            .unwrap();
        assert_eq!(ch.endpoint().pipeline, *ctl.intended());
    }

    #[test]
    fn breaker_opens_after_consecutive_timeouts_and_skips_delivery() {
        let (p, _, _) = pipeline();
        let plan = FaultPlan {
            p_drop: 1.0,
            ..FaultPlan::lossless(8)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let cfg = DriverConfig {
            max_retries: 0,
            breaker_threshold: 2,
            ..Default::default()
        };
        let mut ctl = Controller::new(p, cfg);
        let ins = |k: u64| UpdatePlan {
            intent: format!("insert {k}"),
            updates: vec![RuleUpdate::Insert {
                table: "t".into(),
                entry: Entry::new(vec![Value::Int(100 + k)], vec![Value::sym("a")]),
            }],
        };
        assert!(ctl.apply_plan(&mut ch, &ins(0)).is_err());
        assert!(ctl.apply_plan(&mut ch, &ins(1)).is_err());
        assert_eq!(ctl.stats().breaker_opens, 1);
        let sent_before = ctl.stats().sent;
        // Breaker open: the next intent is adopted + logged but nothing
        // reaches the wire (no retry storm against a dead switch).
        ctl.apply_plan(&mut ch, &ins(2)).unwrap();
        assert_eq!(ctl.stats().sent, sent_before);
        assert_eq!(ctl.wal().borrow().len(), 3, "all three Begins logged");
        assert_eq!(ctl.deferred(), 3);
    }

    #[test]
    fn verify_inline_logs_a_proof_per_committed_intent() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let cfg = DriverConfig {
            verify_inline: true,
            ..Default::default()
        };
        let mut ctl = Controller::new(p, cfg);
        ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)).unwrap();
        ctl.apply_plan(&mut ch, &move_plan(f, 7, 9)).unwrap();
        assert_eq!(ctl.stats().proofs, 2);
        let token = ctl.last_proof().expect("a proof per commit");
        assert!(token.verdict.is_equivalent());
        assert_eq!(token.epoch, 0);
        // Each intent logs Begin + Commit + Proof, and replay surfaces
        // the receipts without letting them touch state.
        let wal = ctl.wal();
        assert_eq!(wal.borrow().len(), 6);
        let rep = wal.borrow().replay().unwrap();
        assert_eq!(rep.proofs, 2);
        assert!(rep.in_doubt.is_empty());
        assert_eq!(rep.intended, *ctl.intended());
    }

    #[test]
    fn verify_inline_skips_proof_for_undelivered_intent() {
        let (p, f, _) = pipeline();
        let plan = FaultPlan {
            p_drop: 1.0,
            ..FaultPlan::lossless(4)
        };
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), plan);
        let cfg = DriverConfig {
            verify_inline: true,
            max_retries: 1,
            ..Default::default()
        };
        let mut ctl = Controller::new(p, cfg);
        assert!(ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)).is_err());
        // Undelivered: the intent is adopted and in doubt, but nothing
        // was proven — no Proof record, no token.
        assert_eq!(ctl.stats().proofs, 0);
        assert!(ctl.last_proof().is_none());
        assert_eq!(ctl.wal().borrow().len(), 1, "Begin only");
        assert_eq!(ctl.wal().borrow().replay().unwrap().proofs, 0);
    }

    #[test]
    fn verify_inline_off_leaves_wal_shape_unchanged() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let mut ctl = Controller::new(p, DriverConfig::default());
        ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)).unwrap();
        assert_eq!(ctl.stats().proofs, 0);
        assert!(ctl.last_proof().is_none());
        assert_eq!(ctl.wal().borrow().len(), 2, "Begin + Commit, no Proof");
    }

    #[test]
    fn crash_at_begin_recovers_via_wal_replay() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let mut ctl = Controller::recover(
            Wal::shared(p.clone()),
            DriverConfig::default(),
            0,
            CrashInjector::at_nth(CrashPoint::Begin, 1),
        )
        .unwrap();
        match ctl.apply_plan(&mut ch, &move_plan(f, 1, 7)) {
            Err(DriverError::Crashed(CrashPoint::Begin)) => {}
            other => panic!("expected crash, got {other:?}"),
        }
        let wal = ctl.wal();
        drop(ctl); // the dead generation
        let mut heir =
            Controller::recover(wal, DriverConfig::default(), 1, CrashInjector::Never).unwrap();
        // The heir's intended state includes the begun-but-undelivered
        // plan, and recovery reconciles the switch to it — verified by
        // the symbolic guardrail.
        let report = heir.recover_switch(&mut ch).unwrap();
        assert!(report.reconciled);
        assert!(report.verified);
        assert_eq!(report.in_doubt, 1);
        assert_eq!(ch.endpoint().pipeline, *heir.intended());
        assert!(report.summary().contains("verified=true"));
    }

    #[test]
    fn crash_after_commit_leaves_consistent_in_doubt() {
        let (p, f, _) = pipeline();
        let mut ch = FaultyChannel::new(MiniSwitch::new(p.clone()), FaultPlan::lossless(1));
        let mut ctl = Controller::recover(
            Wal::shared(p.clone()),
            DriverConfig::default(),
            0,
            CrashInjector::at_nth(CrashPoint::AfterCommit, 1),
        )
        .unwrap();
        let plan = UpdatePlan {
            intent: "renumber both".into(),
            updates: vec![
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1)],
                    set: vec![(f, Value::Int(11))],
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(2)],
                    set: vec![(f, Value::Int(12))],
                },
            ],
        };
        match ctl.apply_plan(&mut ch, &plan) {
            Err(DriverError::Crashed(CrashPoint::AfterCommit)) => {}
            other => panic!("expected crash, got {other:?}"),
        }
        // The switch applied the bundle, but the WAL Commit was never
        // appended: the heir sees the intent in doubt, and reconciliation
        // finds nothing to repair.
        let wal = ctl.wal();
        drop(ctl);
        let mut heir =
            Controller::recover(wal, DriverConfig::default(), 1, CrashInjector::Never).unwrap();
        let report = heir.recover_switch(&mut ch).unwrap();
        assert_eq!(report.in_doubt, 1);
        assert!(report.reconciled && report.verified);
        assert_eq!(ch.endpoint().pipeline, *heir.intended());
    }

    #[test]
    fn stale_epoch_deposes_old_controller() {
        let (p, f, _) = pipeline();
        let sw = Rc::new(RefCell::new(MiniSwitch::new(p.clone())));
        let mut ch_old = FaultyChannel::new(sw.clone(), FaultPlan::lossless(1));
        let mut ch_new = FaultyChannel::new(sw.clone(), FaultPlan::lossless(2));
        let mut old = Controller::new(p.clone(), DriverConfig::default()); // epoch 0
        old.apply_plan(&mut ch_old, &move_plan(f, 1, 7)).unwrap();
        // A successor takes over under epoch 1 and writes; the switch
        // advances its fence.
        let mut heir =
            Controller::recover(old.wal(), DriverConfig::default(), 1, CrashInjector::Never)
                .unwrap();
        heir.apply_plan(&mut ch_new, &move_plan(f, 7, 8)).unwrap();
        assert_eq!(sw.borrow().epoch, 1);
        // The deposed generation's next write is fenced, not applied.
        match old.apply_plan(&mut ch_old, &move_plan(f, 2, 9)) {
            Err(DriverError::Deposed { current: 1 }) => {}
            other => panic!("expected Deposed, got {other:?}"),
        }
        assert_eq!(sw.borrow().epoch_rejections, 1);
        assert_eq!(
            sw.borrow().pipeline,
            *heir.intended(),
            "the fenced write must not have landed"
        );
    }

    #[test]
    fn diff_produces_minimal_repairs() {
        let (p, f, out) = pipeline();
        let mut actual = p.clone();
        // Diverge: row 0 rewritten, one surplus row appended.
        actual.table_mut("t").unwrap().entries[0] =
            Entry::new(vec![Value::Int(9)], vec![Value::sym("x")]);
        actual
            .table_mut("t")
            .unwrap()
            .push(Entry::new(vec![Value::Int(3)], vec![Value::sym("c")]));
        let repairs = diff_pipelines(&actual, &p).unwrap();
        assert_eq!(repairs.len(), 2);
        assert!(matches!(
            &repairs[0],
            RuleUpdate::Modify { matches, set, .. }
                if matches == &vec![Value::Int(9)]
                    && set.contains(&(f, Value::Int(1)))
                    && set.contains(&(out, Value::sym("a")))
        ));
        assert!(matches!(
            &repairs[1],
            RuleUpdate::Delete { matches, .. } if matches == &vec![Value::Int(3)]
        ));
        // Applying the repairs restores the intended pipeline exactly.
        for u in &repairs {
            update::apply_update(&mut actual, u).unwrap();
        }
        assert_eq!(actual, p);
    }

    #[test]
    fn diff_grows_missing_tail_with_inserts() {
        let (p, _, _) = pipeline();
        let mut actual = p.clone();
        actual.table_mut("t").unwrap().entries.pop();
        let repairs = diff_pipelines(&actual, &p).unwrap();
        assert_eq!(repairs.len(), 1);
        assert!(matches!(&repairs[0], RuleUpdate::Insert { .. }));
        for u in &repairs {
            update::apply_update(&mut actual, u).unwrap();
        }
        assert_eq!(actual, p);
    }

    #[test]
    fn diff_refuses_schema_drift() {
        let (p, _, _) = pipeline();
        let mut other = p.clone();
        other.table_mut("t").unwrap().name = "q".into();
        other.start = "q".into();
        assert_eq!(diff_pipelines(&other, &p), Err(DriverError::SchemaDrift));
    }
}
