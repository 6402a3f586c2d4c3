//! # mapro-control — the control-plane side of the reproduction
//!
//! §2 of the paper argues normalization through three control-plane
//! lenses; this crate provides the machinery for all of them:
//!
//! * [`updates`] — flow-mods, update plans, (partial) application. The
//!   plan size is the **controllability** metric.
//! * [`consistency`] — intermediate-state invariant checking: the
//!   "halfway-exposed service" hazard of lost/non-atomic updates.
//! * [`monitor`] — per-rule counters and placement; the counter count is
//!   the **monitorability** metric.
//! * [`churn`] — Poisson intent streams feeding the Fig. 4 reactiveness
//!   experiment (`mapro-switch::churn` consumes the summaries).
//! * [`channel`] — a seeded-deterministic fault-injectable control
//!   channel (drop/duplicate/reorder/delay flow-mods and acks, inject
//!   switch restarts) between controller and switch.
//! * [`driver`] — the resilient controller: idempotent txn-tagged
//!   flow-mods with retry/backoff, two-phase bundles, read-diff-repair
//!   reconciliation toward the intended pipeline, WAL-backed crash
//!   recovery, overload shedding and a circuit breaker.
//! * [`wal`] — the deterministic write-ahead log a successor controller
//!   replays to the predecessor's exact intended state.
//!
//! Workload-specific intent compilers (e.g. "move tenant 1's service to
//! HTTPS" against a given GWLB representation) live next to the workload
//! generators in `mapro-workloads`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod churn;
pub mod consistency;
pub mod driver;
pub mod monitor;
pub mod updates;
pub mod wal;

pub use channel::{
    Ack, AckError, AckOk, BundleId, ChannelStats, Endpoint, Epoch, FaultPlan, FaultyChannel,
    FlowMod, FlowModOp, TxnId,
};
pub use churn::{poisson_stream, summarize, ChurnEvent, ChurnSummary};
pub use consistency::{exposure, ExposureReport, Invariant};
pub use driver::{
    diff_pipelines, Controller, CrashInjector, CrashPoint, DriverConfig, DriverError, DriverStats,
    ReconcileOutcome, ReconcileReport, RecoveryReport, TxnClass,
};
pub use monitor::{rules_where, CounterSet};
pub use updates::{
    apply_plan, apply_plan_silent, apply_prefix, apply_update, apply_update_silent, delta_rows,
    plan_delta_rows, undo, ApplyError, RowEdit, RuleUpdate, Undo, UpdatePlan,
};
pub use wal::{Replay, ReplayError, SharedWal, Wal, WalRecord};
