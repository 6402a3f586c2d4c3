//! Ternary-cube algebra — re-exported from `mapro-sym`.
//!
//! The cube machinery (canonical per-column ternaries, subsumption and
//! intersection) originated here for the shadowing and dead-entry
//! analyses, and was promoted to [`mapro_sym::cube`] when the symbolic
//! equivalence engine took it over. This module keeps the historical
//! `mapro_lint::cover` paths working as thin re-exports; union-cover
//! questions are decided on decision diagrams
//! ([`mapro_sym::TableLiveness`]).

pub use mapro_sym::cube::{Cube, Tern};
