//! # mapro-core — the relational model of match-action programs
//!
//! This crate is the foundation of the `mapro` workspace, a reproduction of
//! *Németh, Chiesa, Rétvári: "Normal Forms for Match-Action Programs"*
//! (CoNEXT 2019). It models packet-processing programs the way §3 of the
//! paper does:
//!
//! * **Attributes** ([`Catalog`], [`Attribute`]) — header fields, metadata
//!   fields and actions, treated uniformly so that relational analysis can
//!   put actions inside keys and functional dependencies.
//! * **Tables** ([`Table`], [`Entry`]) — relations whose match cells are
//!   predicates-as-values and whose action cells are action parameters,
//!   with classifier semantics (priority order, miss policy) layered on top.
//! * **Pipelines** ([`Pipeline`]) — chained tables with OpenFlow-style
//!   `goto_table`, metadata writes, and implicit sequential chaining; a
//!   deterministic evaluator yields a [`Verdict`] per packet.
//! * **Equivalence** ([`equiv`], [`domain`]) — complete observational
//!   equivalence checking over derived finite domains, the mechanical
//!   counterpart of the paper's Theorem 1.
//! * **Size accounting** ([`size`]) — the §2 "number of match-action fields"
//!   redundancy metric and TCAM-bit estimates.
//! * **Updates** ([`update`]) — flow-mods ([`RuleUpdate`]), update plans
//!   (the §2 controllability metric) applied in place with an [`Undo`]
//!   record, and the [`FlowMod`]/[`Ack`]/[`Endpoint`] protocol that carries
//!   them from a controller to a switch.
//!
//! Higher layers build on this: `mapro-fd` (dependency theory), and
//! `mapro-normalize` (the 1NF/2NF/3NF transformation engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod display;
pub mod domain;
pub mod equiv;
pub mod export;
pub mod pipeline;
pub mod size;
pub mod table;
pub mod text;
pub mod update;
pub mod value;

pub use attr::{ActionSem, AttrId, AttrKind, Attribute, Catalog};
pub use domain::{Domain, DomainError};
pub use equiv::{
    assert_equivalent, check_equivalent, CheckMethod, Counterexample, EquivConfig, EquivError,
    EquivMode, EquivOutcome,
};
pub use pipeline::{EvalError, InvalidProgram, Packet, Pipeline, Reach, Verdict};
pub use size::{SizeReport, TableSize};
pub use table::{Entry, MissPolicy, Overlap, Table};
pub use text::{format_program, parse_program};
pub use update::{
    apply_plan, apply_plan_silent, apply_prefix, apply_update, apply_update_silent, delta_rows,
    plan_delta_rows, undo, Ack, AckError, AckOk, ApplyError, BundleId, Endpoint, Epoch, FlowMod,
    FlowModOp, RowEdit, RuleUpdate, TxnId, Undo, UpdatePlan,
};
pub use value::Value;
