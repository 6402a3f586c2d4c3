//! # mapro-sym — symbolic atom-based equivalence engine
//!
//! The enumerative checker in `mapro-core` proves equivalence by running
//! every packet of the derived Cartesian domain through both pipelines —
//! complete, but exponential in the number of matched fields. This crate
//! replaces enumeration with *forwarding equivalence classes*: each
//! pipeline is compiled into a [`BehaviorCover`] — an ordered set of
//! disjoint ternary cubes over the match fields, each mapped to the one
//! observable behavior all packets in the cube share ([`compile`]).
//! Equivalence then reduces to cross-intersecting the two covers and
//! comparing behaviors on each non-empty *atom* ([`check`]), with one
//! concrete representative packet extracted per disagreeing atom so
//! counterexample reporting stays byte-compatible with the enumerative
//! API.
//!
//! The cube algebra ([`cube`]) is the machinery promoted from
//! `mapro-lint`'s shadowing analysis (which now re-exports it from here),
//! generalized with intersection, subtraction and representative
//! extraction.
//!
//! [`check_equivalent`] is the mode-dispatching front door re-exported by
//! the umbrella `mapro` prelude: `Auto` prefers the symbolic engine and
//! falls back to enumeration for constructs the cube compiler cannot
//! express; `Symbolic` and `Enumerate` force one engine. The enumerative
//! checker is retained as a cross-check oracle — the differential test
//! suite asserts both engines agree on every workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compile;
pub mod cube;
pub mod ddcover;
pub mod incremental;
mod trie;

pub use check::{
    assert_equivalent, check_equivalent, check_equivalent_explain, check_equivalent_with,
    check_symbolic, FallbackInfo,
};
pub use compile::{
    compile, invalidation_cube, Atom, Behavior, BehaviorCover, CoverBackend, FieldSpace, SymConfig,
    Unsupported,
};
pub use cube::{Cube, Tern};
pub use ddcover::{BitLayout, DdEngine, TableLiveness};
pub use incremental::{IncrementalChecker, ProofToken, Side, Verdict};
