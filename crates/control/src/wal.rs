//! Deterministic write-ahead log for controller crash recovery.
//!
//! The controller's authority is its *intended pipeline*; PR 2 made that
//! state survive a lossy channel, but not a controller crash. The WAL
//! fixes the second half: before any intent touches the wire the
//! controller appends a [`WalRecord::Begin`] carrying the full plan, and
//! only after the switch acknowledged delivery a [`WalRecord::Commit`].
//! A successor controller [`replay`](Wal::replay)s the log to rebuild the
//! exact intended pipeline the predecessor died with — including intents
//! that were begun but never confirmed delivered (those are *in doubt*:
//! the switch may or may not hold them, which is precisely what
//! read-diff-repair reconciliation resolves).
//!
//! The log is an in-memory model of a durable store shared by all
//! controller generations (the [`SharedWal`] handle), the same way the
//! virtual-clock channel models a real transport: deterministic, seeded,
//! and replayable byte-for-byte.

use mapro_core::update::{self, ApplyError, Epoch, TxnId, UpdatePlan};
use mapro_core::Pipeline;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One append-only log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An intent was admitted: the plan is now part of the intended state,
    /// whatever happens to its delivery. Logged *before* the first send.
    Begin {
        /// First transaction id the intent will use (hygiene only —
        /// epochs scope txn ids, so reuse across generations is safe).
        txn: TxnId,
        /// Generation that admitted the intent.
        epoch: Epoch,
        /// The full update plan, replayable against the running intended
        /// pipeline.
        plan: UpdatePlan,
    },
    /// The switch acknowledged the intent's delivery (single apply or
    /// two-phase bundle commit). A `Begin` without a matching `Commit` is
    /// in doubt after a crash.
    Commit {
        /// The `Begin` this confirms.
        txn: TxnId,
    },
    /// The inline verifier re-checked equivalence after the commit and
    /// this is its receipt (`DriverConfig::verify_inline`). Purely
    /// evidentiary: replay counts proof records but never lets them
    /// mutate state, so a log written by a verifying controller replays
    /// to the same pipeline as one written without.
    Proof {
        /// The committed transaction the proof covers.
        txn: TxnId,
        /// The incremental checker's receipt (epoch-fenced, deterministic
        /// digest).
        token: mapro_sym::ProofToken,
    },
}

/// What a successor learns from replaying the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The intended pipeline the predecessor died with: base state plus
    /// every begun plan, in log order.
    pub intended: Pipeline,
    /// First safe transaction id for the successor (see `Begin::txn`).
    pub next_txn: TxnId,
    /// Highest epoch that ever wrote to the log.
    pub max_epoch: Epoch,
    /// Begun-but-unconfirmed transactions: the switch may hold none, some,
    /// or all of them. Reconciliation repairs whichever way it went.
    pub in_doubt: Vec<TxnId>,
    /// Records replayed.
    pub records: usize,
    /// Equivalence-proof receipts seen ([`WalRecord::Proof`]); evidence
    /// only, never state.
    pub proofs: usize,
}

/// Why a log does not replay: a begun plan no longer applies to the state
/// the records before it rebuilt. The controller validates every plan
/// before logging it, so the log is corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending record.
    pub record: usize,
    /// Why its plan was refused.
    pub error: ApplyError,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt WAL: the plan of record {} no longer applies: {}",
            self.record, self.error
        )
    }
}

impl std::error::Error for ReplayError {}

/// The append-only intent log. Clone-free shared access goes through
/// [`SharedWal`].
#[derive(Debug, Clone)]
pub struct Wal {
    base: Pipeline,
    records: Vec<WalRecord>,
}

/// Handle to a log shared by successive (and concurrent) controller
/// generations — the model of one durable store behind N controllers.
pub type SharedWal = Rc<RefCell<Wal>>;

impl Wal {
    /// An empty log over the given base pipeline (what the switch booted
    /// with, before any controller wrote).
    pub fn new(base: Pipeline) -> Wal {
        // Declare the log's counters up front so a `--metrics` snapshot
        // shows them (at zero) even before the first append or replay.
        mapro_obs::counter!("control.wal.appends");
        mapro_obs::counter!("control.wal.replays");
        Wal {
            base,
            records: Vec::new(),
        }
    }

    /// [`Wal::new`] wrapped for sharing across controller generations.
    pub fn shared(base: Pipeline) -> SharedWal {
        Rc::new(RefCell::new(Wal::new(base)))
    }

    /// Append one record.
    pub fn append(&mut self, rec: WalRecord) {
        mapro_obs::counter!("control.wal.appends").inc();
        if mapro_obs::trace::active() {
            let (kind, txn) = match &rec {
                WalRecord::Begin { txn, .. } => ("begin", *txn),
                WalRecord::Commit { txn } => ("commit", *txn),
                WalRecord::Proof { txn, .. } => ("proof", *txn),
            };
            mapro_obs::trace::instant_kv("wal", vec![("kind", kind.into()), ("txn", txn.into())]);
        }
        self.records.push(rec);
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no controller has written yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The base pipeline the log grows from.
    pub fn base(&self) -> &Pipeline {
        &self.base
    }

    /// Rebuild the predecessor's state by replaying every record in log
    /// order. Deterministic: same log, same result, bit for bit.
    pub fn replay(&self) -> Result<Replay, ReplayError> {
        mapro_obs::counter!("control.wal.replays").inc();
        let _sp =
            mapro_obs::trace::span_kv("wal_replay", vec![("records", self.records.len().into())]);
        let mut intended = self.base.clone();
        let mut in_doubt: Vec<TxnId> = Vec::new();
        let mut next_txn: TxnId = 1;
        let mut max_epoch: Epoch = 0;
        let mut proofs = 0usize;
        for (i, rec) in self.records.iter().enumerate() {
            match rec {
                WalRecord::Begin { txn, epoch, plan } => {
                    // The plan was validated against the then-intended
                    // state before it was logged, so replay cannot fail;
                    // a failure here means the log is corrupt, and is
                    // reported: recovering to a silently-wrong pipeline
                    // would be worse than not recovering.
                    update::apply_plan(&mut intended, plan)
                        .map_err(|error| ReplayError { record: i, error })?;
                    in_doubt.push(*txn);
                    // Leave slack for the bundle txns a plan spends.
                    next_txn = next_txn.max(txn + plan.updates.len() as u64 + 4);
                    max_epoch = max_epoch.max(*epoch);
                }
                WalRecord::Commit { txn } => {
                    in_doubt.retain(|t| t != txn);
                }
                WalRecord::Proof { .. } => {
                    proofs += 1;
                }
            }
        }
        Ok(Replay {
            intended,
            next_txn,
            max_epoch,
            in_doubt,
            records: self.records.len(),
            proofs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::RuleUpdate;
    use mapro_core::{ActionSem, Catalog, Entry, Table, Value};

    fn pipeline() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        Pipeline::single(c, t)
    }

    fn insert_plan(k: u64) -> UpdatePlan {
        UpdatePlan {
            intent: format!("insert {k}"),
            updates: vec![RuleUpdate::Insert {
                table: "t".into(),
                entry: Entry::new(vec![Value::Int(100 + k)], vec![Value::sym("a")]),
            }],
        }
    }

    #[test]
    fn replay_rebuilds_intended_state_in_order() {
        let p = pipeline();
        let mut wal = Wal::new(p.clone());
        let mut want = p.clone();
        for k in 0..5u64 {
            let plan = insert_plan(k);
            update::apply_plan(&mut want, &plan).unwrap();
            wal.append(WalRecord::Begin {
                txn: 10 + k,
                epoch: 1,
                plan,
            });
            wal.append(WalRecord::Commit { txn: 10 + k });
        }
        let rep = wal.replay().unwrap();
        assert_eq!(rep.intended, want);
        assert_eq!(rep.in_doubt, Vec::<TxnId>::new());
        assert_eq!(rep.max_epoch, 1);
        assert_eq!(rep.records, 10);
        assert!(rep.next_txn > 14, "txn space must clear every begun plan");
    }

    #[test]
    fn begun_but_uncommitted_is_in_doubt_yet_intended() {
        let p = pipeline();
        let mut wal = Wal::new(p.clone());
        wal.append(WalRecord::Begin {
            txn: 1,
            epoch: 2,
            plan: insert_plan(0),
        });
        wal.append(WalRecord::Commit { txn: 1 });
        wal.append(WalRecord::Begin {
            txn: 2,
            epoch: 2,
            plan: insert_plan(1),
        });
        // Crash here: txn 2 never confirmed.
        let rep = wal.replay().unwrap();
        assert_eq!(rep.in_doubt, vec![2]);
        // The in-doubt plan is still part of the intended state — the
        // successor reconciles the switch toward it either way.
        assert_eq!(rep.intended.table("t").unwrap().entries.len(), 3);
    }

    #[test]
    fn replay_is_deterministic() {
        let mut wal = Wal::new(pipeline());
        for k in 0..4u64 {
            wal.append(WalRecord::Begin {
                txn: k,
                epoch: k % 2,
                plan: insert_plan(k),
            });
            if k % 2 == 0 {
                wal.append(WalRecord::Commit { txn: k });
            }
        }
        assert_eq!(wal.replay(), wal.replay());
        assert_eq!(wal.replay().unwrap().max_epoch, 1);
    }

    #[test]
    fn malformed_insert_is_a_replay_error_not_a_panic() {
        let p = pipeline();
        let mut wal = Wal::new(p.clone());
        wal.append(WalRecord::Begin {
            txn: 1,
            epoch: 0,
            plan: insert_plan(0),
        });
        // A cell too many, and a cell wider than `f`'s 16 bits.
        let f = p.catalog.lookup("f").unwrap();
        for (cells, want) in [
            (
                vec![Value::Int(7), Value::Int(8)],
                crate::ApplyError::Arity { table: "t".into() },
            ),
            (
                vec![Value::Int(1 << 16)],
                crate::ApplyError::Width {
                    table: "t".into(),
                    attr: f,
                },
            ),
        ] {
            let mut wal = wal.clone();
            let mut bad = insert_plan(1);
            bad.updates.push(RuleUpdate::Insert {
                table: "t".into(),
                entry: Entry::new(cells, vec![Value::sym("a")]),
            });
            wal.append(WalRecord::Begin {
                txn: 2,
                epoch: 0,
                plan: bad,
            });
            let err = wal.replay().unwrap_err();
            assert_eq!(err.record, 1);
            assert_eq!(err.error, want);
            assert_eq!(*wal.base(), p, "the base state is untouched");
        }
    }
}
