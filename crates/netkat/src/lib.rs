//! # mapro-netkat — the formal layer of the reproduction
//!
//! §3–4 of the paper phrase match-action programs in a severely restricted
//! local fragment of NetKAT and prove Theorem 1 (decomposition along a
//! header-field functional dependency preserves semantics) by equational
//! rewriting. This crate makes that layer executable:
//!
//! * `pol` — policy AST, packet-set semantics, and complete semantic
//!   equality over derived finite domains.
//! * `compile` — compiling 1NF tables and acyclic pipelines to policies
//!   (rejecting non-order-independent tables, the Fig. 3 failure mode).
//! * `theorem1` — a line-by-line, machine-checked replay of the Theorem 1
//!   derivation on concrete tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod canon;
pub(crate) mod compile;
pub(crate) mod decompile;
pub(crate) mod pol;
pub(crate) mod theorem1;

pub use canon::{canonicalize, is_openflow_nf};
pub use compile::{compile_pipeline, CompileError};
pub use decompile::{policy_to_table, DecompileError};
pub use pol::{Pk, Pol};
pub use theorem1::{derivation, verify, Step, Theorem1Error};
