//! # mapro-control — the control-plane side of the reproduction
//!
//! §2 of the paper argues normalization through three control-plane
//! lenses; this crate provides the machinery for all of them:
//!
//! * flow-mods, update plans and their (partial) application are
//!   `mapro-core`'s [`update`](mapro_core::update) module, shared with the
//!   switch that applies them; the plan size is the **controllability**
//!   metric. The names this crate's API takes are re-exported here.
//! * `consistency` — intermediate-state invariant checking: the
//!   "halfway-exposed service" hazard of lost/non-atomic updates.
//! * `monitor` — per-rule counters and placement; the counter count is
//!   the **monitorability** metric.
//! * `churn` — Poisson intent streams for the Fig. 4 reactiveness
//!   experiment: `repro` turns each event's arrival time into an input of
//!   `mapro-switch`'s queueing timeline.
//! * `channel` — a seeded-deterministic fault-injectable control
//!   channel (drop/duplicate/reorder/delay flow-mods and acks, inject
//!   switch restarts) between controller and switch; the messages it
//!   carries are `mapro-core`'s [`FlowMod`] and [`Ack`].
//! * `driver` — the resilient controller: idempotent txn-tagged
//!   flow-mods with retry/backoff, two-phase bundles, read-diff-repair
//!   reconciliation toward the intended pipeline, WAL-backed crash
//!   recovery, overload shedding and a circuit breaker.
//! * `wal` — the deterministic write-ahead log a successor controller
//!   replays to the predecessor's exact intended state.
//!
//! Workload-specific intent compilers (e.g. "move tenant 1's service to
//! HTTPS" against a given GWLB representation) live next to the workload
//! generators in `mapro-workloads`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod channel;
pub(crate) mod churn;
pub(crate) mod consistency;
pub(crate) mod driver;
pub(crate) mod monitor;
pub(crate) mod wal;

pub use channel::{ChannelStats, FaultPlan, FaultyChannel};
pub use churn::{poisson_stream, summarize, ChurnEvent, ChurnSummary};
pub use consistency::{exposure, ExposureReport};
pub use driver::{
    Controller, CrashInjector, CrashPoint, DriverConfig, DriverError, DriverStats,
    ReconcileOutcome, ReconcileReport, RecoveryReport,
};
pub use monitor::CounterSet;
pub use wal::{ReplayError, Wal};

// The flow-mod vocabulary lives in `mapro-core`; these are the names this
// crate's own API takes.
pub use mapro_core::{Ack, AckError, ApplyError, Endpoint, FlowMod, RuleUpdate, UpdatePlan};
