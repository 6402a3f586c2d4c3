//! # mapro-normalize — the paper's transformation engine
//!
//! Equivalent transformations of match-action programs between single-table
//! and multi-table representations (§3–4 of *Normal Forms for Match-Action
//! Programs*, CoNEXT'19):
//!
//! * [`split()`] — the one lossless split: a table into stages whose join
//!   is the table, licensed by an FD (Heath; goto / metadata / rematch
//!   joins, with shape analysis for action-valued sides and detection of
//!   the Fig. 3 order-independence failure), an MVD or a join dependency
//!   (the appendix's SDX use case, path metadata), or constant columns
//!   (the Cartesian product of Fig. 2c). [`chain_components_naive`] is the
//!   appendix's untagged counter-example.
//! * [`normalize()`] — iterate FD splits to 2NF/3NF/BCNF, mining
//!   dependencies from the instance.
//! * [`flatten()`] — denormalization: collapse a pipeline back into one
//!   universal table (the transformation OVS's flow cache performs).
//!
//! Every transformation can be verified against the source program with
//! `mapro-sym`'s complete equivalence checker; the test suites do so
//! throughout. A verified split proves its own step instead:
//! [`heath_lemma`] checks on the rows that the stages join back to the
//! table, and falls back to the checker only where its premises fail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flatten;
pub(crate) mod join;
pub mod lemma;
pub mod normalize;
pub mod split;

pub use flatten::{flatten, FlattenError};
pub use join::JoinKind;
pub use lemma::{heath_lemma, Lemma};
pub use normalize::{
    normalize, pipeline_level, program_view, report, NormalizeOpts, Normalized, SkipRecord,
    StepRecord, Target,
};
pub use split::{chain_components_naive, split, FactorPlacement, Split, SplitError, SplitOpts};
