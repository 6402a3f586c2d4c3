//! Join abstractions for chaining decomposed tables (§4).
//!
//! Different data planes expose different ways to compose multi-table
//! pipelines; the paper treats them uniformly as the abstract operation
//! `T ≫ S` and evaluates three concrete encodings:
//!
//! * [`JoinKind::Goto`] — OpenFlow `goto_table`: the first stage jumps to a
//!   per-X-value second-stage table (Fig. 1b). Smallest aggregate footprint.
//! * [`JoinKind::Metadata`] — the first stage writes an opaque tag that the
//!   second stage matches (Fig. 1c), the `(T_XY A_X}; T_{M_X Z})` policy.
//! * [`JoinKind::Rematch`] — the second stage simply re-matches the `X`
//!   fields (Fig. 1d). No new state, but `X`'s match bits are paid twice,
//!   and it is unavailable when `X` contains actions.

use mapro_core::{ActionSem, AttrId, AttrKind, Catalog};

/// The concrete `≫` encoding to use for a decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// `goto_table`-based chaining (Fig. 1b).
    Goto,
    /// Metadata-tag-based chaining (Fig. 1c).
    Metadata,
    /// Re-matching the determinant fields (Fig. 1d).
    Rematch,
}

impl std::fmt::Display for JoinKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JoinKind::Goto => "goto",
            JoinKind::Metadata => "metadata",
            JoinKind::Rematch => "rematch",
        })
    }
}

/// Register a fresh metadata field (width 32) whose name is derived from
/// `base` and does not collide with existing attributes.
pub(crate) fn fresh_meta(catalog: &mut Catalog, base: &str) -> AttrId {
    let id = fresh_name(catalog, &format!("M_{base}"));
    catalog.add(id, AttrKind::Meta, 32)
}

/// Register the companion write-metadata action for `meta`.
pub(crate) fn fresh_tag_action(catalog: &mut Catalog, base: &str, meta: AttrId) -> AttrId {
    let id = fresh_name(catalog, &format!("A_{base}"));
    catalog.add(id, AttrKind::Action(ActionSem::SetField(meta)), 0)
}

/// Register a fresh goto action column named after `base`.
pub(crate) fn fresh_goto_action(catalog: &mut Catalog, base: &str) -> AttrId {
    let id = fresh_name(catalog, &format!("goto_{base}"));
    catalog.add(id, AttrKind::Action(ActionSem::Goto), 0)
}

/// First non-colliding name in `base`, `base_2`, `base_3`, …
pub(crate) fn fresh_name(catalog: &Catalog, base: &str) -> String {
    if catalog.lookup(base).is_none() {
        return base.to_owned();
    }
    for k in 2.. {
        let cand = format!("{base}_{k}");
        if catalog.lookup(&cand).is_none() {
            return cand;
        }
    }
    unreachable!()
}

/// First table name not used by `taken`, trying `base`, `base_2`, …
pub(crate) fn fresh_table_name(taken: &[String], base: &str) -> String {
    if !taken.iter().any(|t| t == base) {
        return base.to_owned();
    }
    for k in 2.. {
        let cand = format!("{base}_{k}");
        if !taken.iter().any(|t| t == &cand) {
            return cand;
        }
    }
    unreachable!()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_names_avoid_collisions() {
        let mut c = Catalog::new();
        c.field("M_t", 8);
        let m = fresh_meta(&mut c, "t");
        assert_eq!(c.name(m), "M_t_2");
        assert!(matches!(c.attr(m).kind, AttrKind::Meta));
        let a = fresh_tag_action(&mut c, "t", m);
        assert_eq!(c.name(a), "A_t");
        match &c.attr(a).kind {
            AttrKind::Action(ActionSem::SetField(t)) => assert_eq!(*t, m),
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn fresh_table_names() {
        let taken = vec!["t".to_owned(), "t_2".to_owned()];
        assert_eq!(fresh_table_name(&taken, "t"), "t_3");
        assert_eq!(fresh_table_name(&taken, "u"), "u");
    }

    #[test]
    fn goto_action_kind() {
        let mut c = Catalog::new();
        let g = fresh_goto_action(&mut c, "t0");
        assert!(matches!(c.attr(g).kind, AttrKind::Action(ActionSem::Goto)));
    }
}
