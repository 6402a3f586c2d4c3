//! # mapro-e2e — the end-to-end benchmark
//!
//! Measures the three things a user of `mapro` waits for, from outside the
//! program, through the public functions pinned in [`layers`]:
//!
//! * wire bytes → verdict ([`wire`]: `wire_hit`, `wire_walk`),
//! * operator intent → visible on the datapath, with inline verification
//!   ([`churn`]: `churn_goto`, `churn_universal`),
//! * source text → verified normal form ([`toolchain`]).
//!
//! Every output is checked against an oracle that shares no code with the
//! engine or checker under test. See `README.md` for the metrics, the
//! workloads and how to compare two sets of runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod compare;
pub mod inputs;
pub mod layers;
pub mod run;
pub mod serving;
pub mod stats;
pub mod toolchain;
pub mod trace;
pub mod wire;
