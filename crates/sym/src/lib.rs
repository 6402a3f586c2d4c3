//! # mapro-sym — symbolic equivalence engine
//!
//! The enumerative checker in `mapro-core` proves equivalence by running
//! every packet of the derived Cartesian domain through both pipelines —
//! complete, but exponential in the number of matched fields. This crate
//! replaces enumeration with *forwarding equivalence classes*: a pipeline
//! is executed symbolically into a behavior cover that maps every region
//! of the joint header space to the one observable behavior all its
//! packets share, and two pipelines are equivalent iff their covers are.
//!
//! A cover is one hash-consed MTBDD per pipeline ([`ddcover`], on the
//! decision diagrams of [`dd`]) in a shared manager: equivalence is root equality, a
//! witness is a `first_diff` path ([`check`]), and an [`incremental`]
//! session keeps the two roots alive across flow-mods, recompiling only
//! the region (and visiting only the rows) an update can touch.
//! [`mod@compile`] holds the vocabulary of the symbolic walk and [`cube`]
//! the ternary rows it starts from. One concrete representative packet is
//! extracted per disagreement, so counterexample reporting stays
//! byte-compatible with the enumerative API.
//!
//! [`check_equivalent`] is the mode-dispatching front door re-exported by
//! the umbrella `mapro` prelude: `Auto` runs the symbolic engine and falls
//! back to enumeration for constructs it cannot express; `Symbolic` and
//! `Enumerate` force one engine. The enumerative checker and the concrete
//! evaluator are retained as independent oracles — the differential suite
//! holds the diagrams to both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compile;
pub mod cube;
pub mod dd;
pub mod ddcover;
pub mod incremental;

pub use check::{
    assert_equivalent, check_equivalent, check_equivalent_explain, check_equivalent_with,
    check_symbolic, FallbackInfo,
};
pub use compile::{Behavior, FieldSpace, SymConfig, Unsupported};
pub use cube::{Cube, Tern};
pub use ddcover::{match_rows, BitLayout, DdEngine, TableLiveness};
pub use incremental::{IncrementalChecker, ProofToken, SessionError, Side, Verdict};
