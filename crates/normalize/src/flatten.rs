//! Denormalization: flattening a multi-table pipeline back into one
//! universal table.
//!
//! §2's rule of thumb — *denormalize when performance is critical* — needs
//! the inverse transformation: enumerate every root-to-exit path through
//! the pipeline, conjoin the match predicates met along it (resolving
//! metadata matches against metadata writes symbolically), and emit one
//! universal-table entry per satisfiable path. This is also precisely the
//! collapse Open vSwitch's flow cache performs ("OVS explicitly
//! denormalizes the pipeline prior to encoding it into the datapath", §5),
//! so `mapro-switch`'s OVS model reuses the same logic per packet.
//!
//! Paths are enumerated depth-first following entry priority, so the
//! resulting entry order reproduces the pipeline's first-match semantics
//! even when flattened entries overlap.

use mapro_core::{ActionSem, AttrId, AttrKind, Catalog, Entry, MissPolicy, Pipeline, Table, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Why a pipeline could not be flattened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlattenError {
    /// Only drop-on-miss tables can be flattened into entry lists (other
    /// policies need a catch-all row, which wildcards cannot always
    /// express alongside priorities).
    UnsupportedMissPolicy {
        /// Offending table.
        table: String,
    },
    /// A goto cycle was detected.
    GotoCycle {
        /// Offending table.
        table: String,
    },
    /// A goto target does not exist.
    UnknownTable(String),
    /// The same opaque action column fired twice with different parameters
    /// along one path; a single universal-table cell cannot hold both.
    OpaqueConflict {
        /// The action attribute's name.
        attr: String,
    },
    /// A match on a metadata field that no earlier stage wrote with a
    /// concrete integer (the value is unresolvable at flatten time).
    UnresolvedMeta {
        /// The metadata attribute's name.
        attr: String,
    },
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenError::UnsupportedMissPolicy { table } => {
                write!(f, "table {table:?}: only drop-on-miss flattens")
            }
            FlattenError::GotoCycle { table } => write!(f, "goto cycle through {table:?}"),
            FlattenError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            FlattenError::OpaqueConflict { attr } => {
                write!(f, "opaque action {attr:?} fired twice along one path")
            }
            FlattenError::UnresolvedMeta { attr } => {
                write!(f, "match on unwritten metadata field {attr:?}")
            }
        }
    }
}

impl std::error::Error for FlattenError {}

/// Per-path symbolic state during flattening: bindings pushed entry by
/// entry, the latest binding of an attribute winning, and truncated back
/// when the walk returns from an entry (a path touches a handful of
/// attributes, so a short list beats a map).
#[derive(Debug, Default)]
struct PathState {
    /// Accumulated constraint per header field (conjunction so far).
    constraints: Vec<(AttrId, Value)>,
    /// Concrete values of fields written by `SetField` (metadata starts at
    /// `Known(0)`).
    known: Vec<(AttrId, u64)>,
    /// Final action parameters per action attribute (last write wins for
    /// output/set-field; conflict for opaque).
    actions: Vec<(AttrId, Value)>,
}

impl PathState {
    fn mark(&self) -> [usize; 3] {
        [self.constraints.len(), self.known.len(), self.actions.len()]
    }

    fn rewind(&mut self, [c, k, a]: [usize; 3]) {
        self.constraints.truncate(c);
        self.known.truncate(k);
        self.actions.truncate(a);
    }
}

/// Flatten `p` into a single universal table named `name`.
///
/// The result's match columns are all header fields matched anywhere in the
/// pipeline (metadata excluded — it is resolved away); its action columns
/// are all non-goto, non-metadata-write actions.
pub fn flatten(p: &Pipeline, name: &str) -> Result<Table, FlattenError> {
    flatten_tables(
        &p.catalog,
        &p.tables.iter().collect::<Vec<_>>(),
        &p.start,
        name,
    )
}

/// [`flatten`] of the pipeline `tables` would make over `catalog`,
/// starting at `start`, without owning them.
pub(crate) fn flatten_tables(
    catalog: &Catalog,
    tables: &[&Table],
    start: &str,
    name: &str,
) -> Result<Table, FlattenError> {
    // Output schema.
    let mut match_attrs: Vec<AttrId> = Vec::new();
    let mut action_attrs: Vec<AttrId> = Vec::new();
    for t in tables {
        for &a in &t.match_attrs {
            if matches!(catalog.attr(a).kind, AttrKind::Field) && !match_attrs.contains(&a) {
                match_attrs.push(a);
            }
        }
        for &a in &t.action_attrs {
            let keep = match &catalog.attr(a).kind {
                AttrKind::Action(ActionSem::Goto) => false,
                AttrKind::Action(ActionSem::SetField(target)) => {
                    matches!(catalog.attr(*target).kind, AttrKind::Field)
                }
                AttrKind::Action(_) => true,
                _ => false,
            };
            if keep && !action_attrs.contains(&a) {
                action_attrs.push(a);
            }
        }
    }
    match_attrs.sort_unstable();
    action_attrs.sort_unstable();

    let mut out = Table::new(name, match_attrs.clone(), action_attrs.clone());
    out.miss = MissPolicy::Drop;

    // Initial state: metadata fields are known-zero.
    let mut state = PathState::default();
    for (id, a) in catalog.iter() {
        if matches!(a.kind, AttrKind::Meta) {
            state.known.push((id, 0));
        }
    }

    let mut rows: Vec<Entry> = Vec::new();
    // By name, the first table of a name winning, as `Pipeline::table` does.
    let by_name: HashMap<&str, &Table> =
        tables.iter().rev().map(|t| (t.name.as_str(), *t)).collect();
    walk(
        catalog,
        &by_name,
        start,
        &mut state,
        tables.len() * 2 + 8,
        &mut |st| rows.push(emit(st, &match_attrs, &action_attrs)),
    )?;
    let mut seen = HashSet::with_capacity_and_hasher(rows.len(), RowHash::default());
    let first: Vec<bool> = rows.iter().map(|r| seen.insert(r)).collect();
    drop(seen);
    for (r, first) in rows.into_iter().zip(first) {
        if first {
            out.push(r);
        }
    }
    Ok(out)
}

/// Hasher for sets of rows: one rotate-xor-multiply per word, where
/// SipHash cost more than the walk that made the rows.
#[derive(Default)]
pub(crate) struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// [`RowHasher`]'s builder.
pub(crate) type RowHash = BuildHasherDefault<RowHasher>;

/// Recursive DFS over entries; `sink` receives each completed path.
fn walk(
    catalog: &Catalog,
    tables: &HashMap<&str, &Table>,
    table: &str,
    st: &mut PathState,
    budget: usize,
    sink: &mut impl FnMut(&PathState),
) -> Result<(), FlattenError> {
    if budget == 0 {
        return Err(FlattenError::GotoCycle {
            table: table.to_owned(),
        });
    }
    let t = *tables
        .get(table)
        .ok_or_else(|| FlattenError::UnknownTable(table.to_owned()))?;
    match &t.miss {
        MissPolicy::Drop => {}
        _ => {
            return Err(FlattenError::UnsupportedMissPolicy {
                table: t.name.clone(),
            })
        }
    }
    'entry: for e in &t.entries {
        let mark = st.mark();
        // Conjoin predicates.
        for (i, &attr) in t.match_attrs.iter().enumerate() {
            let pred = &e.matches[i];
            if matches!(pred, Value::Any) {
                continue;
            }
            let width = catalog.attr(attr).width;
            if let Some(&v) = latest(&st.known, attr) {
                // Field already concretized (metadata, or rewritten header).
                if !pred.matches(v, width) {
                    st.rewind(mark);
                    continue 'entry; // path dead
                }
            } else if matches!(catalog.attr(attr).kind, AttrKind::Meta) {
                return Err(FlattenError::UnresolvedMeta {
                    attr: catalog.name(attr).to_owned(),
                });
            } else {
                let cur = latest(&st.constraints, attr).unwrap_or(&Value::Any);
                match cur.intersect(pred, width) {
                    None => {
                        st.rewind(mark);
                        continue 'entry; // contradictory conjunction
                    }
                    Some(v) => st.constraints.push((attr, v)),
                }
            }
        }
        // Apply actions.
        let mut goto: Option<&str> = None;
        for (i, &attr) in t.action_attrs.iter().enumerate() {
            let param = &e.actions[i];
            if matches!(param, Value::Any) {
                continue;
            }
            match &catalog.attr(attr).kind {
                AttrKind::Action(ActionSem::Goto) => {
                    if let Value::Sym(s) = param {
                        goto = Some(s);
                    }
                }
                AttrKind::Action(ActionSem::SetField(target)) => {
                    if let Value::Int(v) = param {
                        st.known.push((*target, *v));
                    }
                    record(&mut st.actions, attr, param, catalog)?;
                }
                AttrKind::Action(_) => {
                    record(&mut st.actions, attr, param, catalog)?;
                }
                _ => unreachable!("action column holds non-action"),
            }
        }
        match goto.or(t.next.as_deref()) {
            Some(nxt) => walk(catalog, tables, nxt, st, budget - 1, sink)?,
            None => sink(st),
        }
        st.rewind(mark);
    }
    Ok(())
}

/// The latest value `slots` binds `attr` to.
fn latest<T>(slots: &[(AttrId, T)], attr: AttrId) -> Option<&T> {
    slots.iter().rev().find(|(a, _)| *a == attr).map(|(_, v)| v)
}

/// Record an action application; last write wins except for opaque
/// conflicts with different parameters.
fn record(
    actions: &mut Vec<(AttrId, Value)>,
    attr: AttrId,
    param: &Value,
    catalog: &Catalog,
) -> Result<(), FlattenError> {
    let opaque = matches!(catalog.attr(attr).kind, AttrKind::Action(ActionSem::Opaque));
    if opaque && latest(actions, attr).is_some_and(|v| v != param) {
        return Err(FlattenError::OpaqueConflict {
            attr: catalog.name(attr).to_owned(),
        });
    }
    actions.push((attr, param.clone()));
    Ok(())
}

fn emit(st: &PathState, match_attrs: &[AttrId], action_attrs: &[AttrId]) -> Entry {
    let matches = match_attrs
        .iter()
        .map(|&a| {
            // A field the path overwrote and then matched reads as the
            // constraint accumulated *before* the overwrite; the constraint
            // map already reflects only pre-write predicates because
            // post-write predicates were checked against `known`.
            latest(&st.constraints, a).cloned().unwrap_or(Value::Any)
        })
        .collect();
    let actions = action_attrs
        .iter()
        .map(|&a| latest(&st.actions, a).cloned().unwrap_or(Value::Any))
        .collect();
    Entry::new(matches, actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinKind;
    use crate::split::{split, Split, SplitOpts};
    use mapro_core::{assert_equivalent, ActionSem, Catalog, Pipeline};

    fn mini_gw() -> (Pipeline, Vec<AttrId>) {
        let mut c = Catalog::new();
        let src = c.field("src", 4);
        let dst = c.field("dst", 4);
        let port = c.field("port", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst, port], vec![out]);
        let rows = [
            (Value::prefix(0b0000, 1, 4), 1u64, 80u64, "vm1"),
            (Value::prefix(0b1000, 1, 4), 1, 80, "vm2"),
            (Value::Any, 3, 22, "vm6"),
        ];
        for (s, d, pt, o) in rows {
            t.row(vec![s, Value::Int(d), Value::Int(pt)], vec![Value::sym(o)]);
        }
        (Pipeline::single(c, t), vec![src, dst, port, out])
    }

    #[test]
    fn flatten_is_inverse_of_decompose_metadata() {
        let (p, ids) = mini_gw();
        let fd = Split::Fd {
            x: vec![ids[1]],
            y: vec![ids[2]],
            join: JoinKind::Metadata,
        };
        let q = split(&p, "t0", &fd, &SplitOpts::default()).unwrap();
        let t = flatten(&q, "flat").unwrap();
        let flat = Pipeline::single(q.catalog.clone(), t);
        assert_equivalent(&p, &flat);
        // Same number of logical entries as the original universal table.
        assert_eq!(flat.tables[0].len(), 3);
    }

    #[test]
    fn flatten_is_inverse_of_decompose_goto() {
        let (p, ids) = mini_gw();
        let fd = Split::Fd {
            x: vec![ids[1]],
            y: vec![ids[2]],
            join: JoinKind::Goto,
        };
        let q = split(&p, "t0", &fd, &SplitOpts::default()).unwrap();
        let t = flatten(&q, "flat").unwrap();
        let flat = Pipeline::single(q.catalog.clone(), t);
        assert_equivalent(&p, &flat);
    }

    #[test]
    fn flatten_is_inverse_of_decompose_rematch() {
        let (p, ids) = mini_gw();
        let fd = Split::Fd {
            x: vec![ids[1]],
            y: vec![ids[2]],
            join: JoinKind::Rematch,
        };
        let q = split(&p, "t0", &fd, &SplitOpts::default()).unwrap();
        let t = flatten(&q, "flat").unwrap();
        let flat = Pipeline::single(q.catalog.clone(), t);
        assert_equivalent(&p, &flat);
    }

    #[test]
    fn flatten_single_table_is_identity_up_to_equivalence() {
        let (p, _) = mini_gw();
        let t = flatten(&p, "flat").unwrap();
        let flat = Pipeline::single(p.catalog.clone(), t);
        assert_equivalent(&p, &flat);
    }

    #[test]
    fn contradictory_paths_are_pruned() {
        // t0 matches f=1 then continues to t1 matching f=2: path is dead.
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![]);
        t0.row(vec![Value::Int(1)], vec![]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![f], vec![out]);
        t1.row(vec![Value::Int(2)], vec![Value::sym("p")]);
        t1.row(vec![Value::Int(1)], vec![Value::sym("q")]);
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        let t = flatten(&p, "flat").unwrap();
        assert_eq!(t.len(), 1); // only f=1;f=1 survives
        let flat = Pipeline::single(p.catalog.clone(), t);
        assert_equivalent(&p, &flat);
    }

    #[test]
    fn rewritten_header_field_matches_resolve_concretely() {
        // t0 sets g=5 and continues; t1 matches g=5 (hit) / g=6 (dead).
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let setg = c.action("set_g", ActionSem::SetField(g));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![setg]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(5)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![g], vec![out]);
        t1.row(vec![Value::Int(6)], vec![Value::sym("dead")]);
        t1.row(vec![Value::Int(5)], vec![Value::sym("live")]);
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        let t = flatten(&p, "flat").unwrap();
        assert_eq!(t.len(), 1);
        let flat = Pipeline::single(p.catalog.clone(), t);
        assert_equivalent(&p, &flat);
    }

    #[test]
    fn controller_miss_rejected() {
        let (mut p, _) = mini_gw();
        p.table_mut("t0").unwrap().miss = MissPolicy::Controller;
        assert!(matches!(
            flatten(&p, "flat"),
            Err(FlattenError::UnsupportedMissPolicy { .. })
        ));
    }

    #[test]
    fn goto_cycle_detected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.action("g", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![g]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::new(c, vec![t0], "t0");
        assert!(matches!(
            flatten(&p, "flat"),
            Err(FlattenError::GotoCycle { .. })
        ));
    }
}
