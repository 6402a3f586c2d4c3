//! # mapro-fd — dependency theory for match-action programs
//!
//! The relational machinery §3 of the paper borrows from database theory,
//! specialized to match-action tables where *actions are attributes too*:
//!
//! * [`set`] — attribute sets as bitmasks over a per-analysis [`Universe`].
//! * [`fd`] — functional dependencies, Armstrong closure, implication,
//!   candidate keys, prime attributes, minimal covers.
//! * [`mine`] — discovery of all minimal FDs holding in a table instance
//!   (level-wise partition refinement).
//! * [`nf`] — 1NF/2NF/3NF/BCNF classification and violation witnesses.
//! * [`mvd`] — multi-valued and join dependencies for the beyond-3NF
//!   appendix use case (SDX).
//! * [`armstrong`] — the inference axioms as explicit rules, with
//!   soundness property tests against the closure algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod armstrong;
pub mod fd;
pub mod mine;
pub mod mvd;
pub mod nf;
pub mod set;

pub use approx::{g3_error, mine_approx_fds, ApproxFd};
pub use armstrong::{all_implied, equivalent as fdsets_equivalent};
pub use fd::{Fd, FdSet};
pub use mine::{mine_fds, Mined};
pub use mvd::{join_dependency_holds, mvd_holds, Rel};
pub use nf::{analyze, analyze_with, FirstNfIssue, NfLevel, NfReport};
pub use set::{AttrSet, Universe};
