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

use mapro_core::{ActionSem, AttrId, AttrKind, Entry, MissPolicy, Pipeline, Table, Value};
use std::collections::HashMap;
use std::fmt;

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

/// Per-path symbolic state during flattening.
#[derive(Debug, Clone)]
struct PathState {
    /// Accumulated constraint per header field (conjunction so far).
    constraints: HashMap<AttrId, Value>,
    /// Concrete values of fields written by `SetField` (metadata starts at
    /// `Known(0)`).
    known: HashMap<AttrId, u64>,
    /// Final action parameters per action attribute (last write wins for
    /// output/set-field; conflict for opaque).
    actions: Vec<(AttrId, Value)>,
}

/// Flatten `p` into a single universal table named `name`.
///
/// The result's match columns are all header fields matched anywhere in the
/// pipeline (metadata excluded — it is resolved away); its action columns
/// are all non-goto, non-metadata-write actions.
pub fn flatten(p: &Pipeline, name: &str) -> Result<Table, FlattenError> {
    // Output schema.
    let mut match_attrs: Vec<AttrId> = Vec::new();
    let mut action_attrs: Vec<AttrId> = Vec::new();
    for t in &p.tables {
        for &a in &t.match_attrs {
            if matches!(p.catalog.attr(a).kind, AttrKind::Field) && !match_attrs.contains(&a) {
                match_attrs.push(a);
            }
        }
        for &a in &t.action_attrs {
            let keep = match &p.catalog.attr(a).kind {
                AttrKind::Action(ActionSem::Goto) => false,
                AttrKind::Action(ActionSem::SetField(target)) => {
                    matches!(p.catalog.attr(*target).kind, AttrKind::Field)
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
    let mut init = PathState {
        constraints: HashMap::new(),
        known: HashMap::new(),
        actions: Vec::new(),
    };
    for (id, a) in p.catalog.iter() {
        if matches!(a.kind, AttrKind::Meta) {
            init.known.insert(id, 0);
        }
    }

    let mut rows: Vec<Entry> = Vec::new();
    walk(p, &p.start, init, p.tables.len() * 2 + 8, &mut |st| {
        rows.push(emit(p, st, &match_attrs, &action_attrs));
    })?;
    let mut seen = std::collections::HashSet::new();
    for r in rows {
        if seen.insert((r.matches.clone(), r.actions.clone())) {
            out.push(r);
        }
    }
    Ok(out)
}

/// Recursive DFS over entries; `sink` receives each completed path.
fn walk(
    p: &Pipeline,
    table: &str,
    state: PathState,
    budget: usize,
    sink: &mut impl FnMut(PathState),
) -> Result<(), FlattenError> {
    if budget == 0 {
        return Err(FlattenError::GotoCycle {
            table: table.to_owned(),
        });
    }
    let t = p
        .table(table)
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
        let mut st = state.clone();
        // Conjoin predicates.
        for (i, &attr) in t.match_attrs.iter().enumerate() {
            let pred = &e.matches[i];
            if matches!(pred, Value::Any) {
                continue;
            }
            let width = p.catalog.attr(attr).width;
            if let Some(&v) = st.known.get(&attr) {
                // Field already concretized (metadata, or rewritten header).
                if !pred.matches(v, width) {
                    continue 'entry; // path dead
                }
            } else if matches!(p.catalog.attr(attr).kind, AttrKind::Meta) {
                return Err(FlattenError::UnresolvedMeta {
                    attr: p.catalog.name(attr).to_owned(),
                });
            } else {
                let cur = st.constraints.get(&attr).cloned().unwrap_or(Value::Any);
                match cur.intersect(pred, width) {
                    None => continue 'entry, // contradictory conjunction
                    Some(v) => {
                        st.constraints.insert(attr, v);
                    }
                }
            }
        }
        // Apply actions.
        let mut goto: Option<String> = None;
        for (i, &attr) in t.action_attrs.iter().enumerate() {
            let param = &e.actions[i];
            if matches!(param, Value::Any) {
                continue;
            }
            match &p.catalog.attr(attr).kind {
                AttrKind::Action(ActionSem::Goto) => {
                    if let Value::Sym(s) = param {
                        goto = Some(s.to_string());
                    }
                }
                AttrKind::Action(ActionSem::SetField(target)) => {
                    if let Value::Int(v) = param {
                        st.known.insert(*target, *v);
                    }
                    record(&mut st.actions, attr, param.clone(), p)?;
                }
                AttrKind::Action(_) => {
                    record(&mut st.actions, attr, param.clone(), p)?;
                }
                _ => unreachable!("action column holds non-action"),
            }
        }
        match goto.or_else(|| t.next.clone()) {
            Some(nxt) => walk(p, &nxt, st, budget - 1, sink)?,
            None => sink(st),
        }
    }
    Ok(())
}

/// Record an action application; last write wins except for opaque
/// conflicts with different parameters.
fn record(
    actions: &mut Vec<(AttrId, Value)>,
    attr: AttrId,
    param: Value,
    p: &Pipeline,
) -> Result<(), FlattenError> {
    if let Some(slot) = actions.iter_mut().find(|(a, _)| *a == attr) {
        let opaque = matches!(
            p.catalog.attr(attr).kind,
            AttrKind::Action(ActionSem::Opaque)
        );
        if opaque && slot.1 != param {
            return Err(FlattenError::OpaqueConflict {
                attr: p.catalog.name(attr).to_owned(),
            });
        }
        slot.1 = param;
    } else {
        actions.push((attr, param));
    }
    Ok(())
}

fn emit(p: &Pipeline, st: PathState, match_attrs: &[AttrId], action_attrs: &[AttrId]) -> Entry {
    let matches = match_attrs
        .iter()
        .map(|a| {
            // A field the path overwrote and then matched reads as the
            // constraint accumulated *before* the overwrite; the constraint
            // map already reflects only pre-write predicates because
            // post-write predicates were checked against `known`.
            st.constraints.get(a).cloned().unwrap_or(Value::Any)
        })
        .collect();
    let actions = action_attrs
        .iter()
        .map(|a| {
            st.actions
                .iter()
                .find(|(b, _)| b == a)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Any)
        })
        .collect();
    let _ = p;
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
