//! # mapro — Normal Forms for Match-Action Programs
//!
//! A comprehensive Rust implementation of *Németh, Chiesa, Rétvári:
//! "Normal Forms for Match-Action Programs"* (CoNEXT 2019): a relational
//! theory of redundancy in packet-processing pipelines, with equivalent
//! transformations between single-table ("universal") and multi-table
//! ("normal form") representations, plus the simulated evaluation
//! substrate that reproduces the paper's measurements.
//!
//! This crate is the umbrella: it re-exports every subsystem under one
//! namespace. Start with [`workloads::Gwlb::fig1`] and the `examples/`
//! directory.
//!
//! ```
//! use mapro::prelude::*;
//!
//! // Fig. 1a: the universal cloud gateway & load-balancer table.
//! let gwlb = Gwlb::fig1();
//! assert_eq!(gwlb.universal.field_count(), 24);
//!
//! // Decompose along the functional dependency ip_dst → tcp_dst with the
//! // goto_table join (Fig. 1b) — smaller, and semantically equivalent.
//! let normalized = gwlb.normalized(JoinKind::Goto).unwrap();
//! assert_eq!(normalized.field_count(), 21);
//! assert_equivalent(&gwlb.universal, &normalized);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mapro_control as control;
pub use mapro_core as core;
pub use mapro_fd as fd;
pub use mapro_lint as lint;
pub use mapro_netkat as netkat;
pub use mapro_normalize as normalize;
pub use mapro_packet as packet;
pub use mapro_switch as switch;
pub use mapro_sym as sym;
pub use mapro_workloads as workloads;

/// The most commonly used items, for `use mapro::prelude::*`.
pub mod prelude {
    pub use mapro_core::{
        ActionSem, AttrId, Catalog, CheckMethod, EquivConfig, EquivMode, EquivOutcome, Packet,
        Pipeline, SizeReport, Table, Value, Verdict,
    };
    // The equivalence entry points are mapro-sym's mode-dispatching front
    // door (symbolic by default, enumerative fallback), not the raw
    // enumerative engine in mapro-core.
    pub use mapro_fd::{analyze, mine_fds, NfLevel};
    pub use mapro_normalize::{
        flatten, normalize, pipeline_level, split, FactorPlacement, JoinKind, NormalizeOpts, Split,
        SplitOpts,
    };
    pub use mapro_switch::{run_modeled, OvsSim, Switch, SwitchModel};
    pub use mapro_sym::{assert_equivalent, check_equivalent};
    pub use mapro_workloads::{Gwlb, Sdx, Vlan, L3};
}
