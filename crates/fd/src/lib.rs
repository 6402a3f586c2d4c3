//! # mapro-fd — dependency theory for match-action programs
//!
//! The relational machinery §3 of the paper borrows from database theory,
//! specialized to match-action tables where *actions are attributes too*:
//!
//! * `set` — attribute sets as bitmasks over a per-analysis [`Universe`].
//! * `fd` — functional dependencies, Armstrong closure, implication,
//!   candidate keys, projection and dependency preservation.
//! * `mine` — discovery of all minimal FDs holding in a table instance
//!   (level-wise partition refinement).
//! * `nf` — 1NF/2NF/3NF/BCNF classification and violation witnesses.
//! * `mvd` — multi-valued and join dependencies for the beyond-3NF
//!   appendix use case (SDX).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod fd;
pub(crate) mod mine;
pub(crate) mod mvd;
pub(crate) mod nf;
pub(crate) mod set;

pub use fd::{Fd, FdSet};
pub use mine::{mine_fds, Mined};
pub use mvd::{join_dependency_holds, mvd_holds};
pub use nf::{analyze, analyze_with, FirstNfIssue, NfLevel, NfReport};
pub use set::{AttrSet, Universe};
