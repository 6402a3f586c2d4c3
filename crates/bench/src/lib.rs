//! # mapro-bench — the experiment harness
//!
//! One function per paper artifact (every table and figure plus the §2
//! in-text quantitative claims), producing serializable result structs.
//! The `repro` binary renders them as text/JSON; the Criterion benches
//! exercise the same code paths under wall-clock measurement; the
//! workspace integration tests assert the published *shapes* hold (who
//! wins, by roughly what factor — not absolute numbers; the substrate is
//! a simulator, see DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod experiments;

pub use experiments::*;
