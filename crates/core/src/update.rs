//! Rule updates, update plans and the protocol that carries them.
//!
//! §2 "Controllability": the cost of a control-plane *intent* is the
//! number of rule-action pairs that must change, and that number depends
//! on the representation — moving a tenant's service port rewrites `M`
//! entries of the universal table but a single entry of the normalized
//! pipeline. [`UpdatePlan`] is the compiled form of one intent; applying
//! a *prefix* of a plan models lost or in-flight updates.
//!
//! Every update applies in place and returns an [`Undo`] record holding
//! exactly what it overwrote; [`undo`] takes it back. Rollback therefore
//! costs the rows an update changed, never a copy of the pipeline.
//!
//! The second half is the controller–switch protocol that carries
//! updates: a [`FlowMod`] (epoch, transaction id, [`FlowModOp`]) goes to
//! an [`Endpoint`], which answers with an [`Ack`].

use crate::{AttrId, Entry, Pipeline, Value};
use std::fmt;

/// One flow-mod.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleUpdate {
    /// Rewrite cells of the entry identified by its current match tuple.
    Modify {
        /// Target table.
        table: String,
        /// Current match tuple (identifies the entry; 1NF guarantees
        /// uniqueness).
        matches: Vec<Value>,
        /// Cells to overwrite (match or action attributes).
        set: Vec<(AttrId, Value)>,
    },
    /// Insert a new entry (appended, i.e. lowest priority).
    Insert {
        /// Target table.
        table: String,
        /// The new entry.
        entry: Entry,
    },
    /// Delete the entry identified by its match tuple.
    Delete {
        /// Target table.
        table: String,
        /// Match tuple of the victim.
        matches: Vec<Value>,
    },
}

impl RuleUpdate {
    /// The table this update touches.
    pub fn table(&self) -> &str {
        match self {
            RuleUpdate::Modify { table, .. }
            | RuleUpdate::Insert { table, .. }
            | RuleUpdate::Delete { table, .. } => table,
        }
    }
}

/// Why an update could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// No such table.
    TableNotFound(String),
    /// No entry with the given match tuple.
    EntryNotFound {
        /// The table searched.
        table: String,
    },
    /// A `set` attribute is not a column of the table.
    AttrNotInTable {
        /// The table.
        table: String,
        /// The offending attribute.
        attr: AttrId,
    },
    /// An inserted entry's cell counts do not match the table's columns.
    Arity {
        /// The table.
        table: String,
    },
    /// A cell does not fit its attribute's width (`Value::fits`, the rule
    /// `Pipeline::validate` applies): the evaluator would never match it,
    /// the symbolic checker would match it masked.
    Width {
        /// The table.
        table: String,
        /// The attribute of the offending cell.
        attr: AttrId,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::TableNotFound(t) => write!(f, "table {t:?} not found"),
            ApplyError::EntryNotFound { table } => {
                write!(f, "no matching entry in table {table:?}")
            }
            ApplyError::AttrNotInTable { table, attr } => {
                write!(f, "attribute {attr} is not a column of {table:?}")
            }
            ApplyError::Arity { table } => {
                write!(f, "entry does not match the columns of {table:?}")
            }
            ApplyError::Width { table, attr } => {
                write!(f, "a cell of {table:?} is wider than attribute {attr}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// What one applied update overwrote: enough to restore the pipeline
/// exactly, and no more. Returned by [`apply_update`]; consumed by
/// [`undo`].
#[derive(Debug, Clone, PartialEq)]
pub struct Undo {
    /// Position of the edited table in `Pipeline::tables`.
    table: usize,
    op: UndoOp,
}

#[derive(Debug, Clone, PartialEq)]
enum UndoOp {
    /// Put back the overwritten `(column, is_match, old value)` cells of
    /// `row`, last written first.
    Cells {
        row: usize,
        old: Vec<(usize, bool, Value)>,
    },
    /// Pop the appended row.
    Pop,
    /// Re-insert the removed entry at its index.
    Reinsert { row: usize, entry: Entry },
}

/// The row an applied update edited, read off its [`Undo`] record
/// ([`Undo::edit`]), with what the row held before where the update
/// overwrote it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowEdit<'a> {
    /// Cells of row `row` were overwritten: `old` holds each written
    /// `(column, is_match, previous value)` in write order, so the first
    /// entry for a column is the value the row had before the update.
    Modify {
        /// Index of the row in its table.
        row: usize,
        /// The overwritten cells.
        old: &'a [(usize, bool, Value)],
    },
    /// A row was appended: it is the table's last.
    Insert,
    /// Row `row` was removed; the rows after it moved up by one.
    Delete {
        /// Index the row had.
        row: usize,
        /// The removed entry.
        entry: &'a Entry,
    },
}

impl Undo {
    /// Position of the edited table in `Pipeline::tables`.
    pub fn table(&self) -> usize {
        self.table
    }

    /// The row the update edited.
    pub fn edit(&self) -> RowEdit<'_> {
        match &self.op {
            UndoOp::Cells { row, old } => RowEdit::Modify { row: *row, old },
            UndoOp::Pop => RowEdit::Insert,
            UndoOp::Reinsert { row, entry } => RowEdit::Delete { row: *row, entry },
        }
    }
}

/// Take back one applied update. Records must be undone in the reverse
/// order of application, on the pipeline they were applied to; then the
/// pipeline is `==` to what it was before.
///
/// # Panics
/// Panics if `record` does not belong to `p`'s current state.
pub fn undo(p: &mut Pipeline, record: Undo) {
    let entries = &mut p.tables[record.table].entries;
    match record.op {
        UndoOp::Cells { row, old } => {
            let e = &mut entries[row];
            for (col, is_match, v) in old.into_iter().rev() {
                if is_match {
                    e.matches[col] = v;
                } else {
                    e.actions[col] = v;
                }
            }
        }
        UndoOp::Pop => {
            entries.pop();
        }
        UndoOp::Reinsert { row, entry } => entries.insert(row, entry),
    }
}

/// Apply one update in place and return its [`Undo`] record (callers that
/// never roll back drop it). A refused update leaves `p` untouched.
pub fn apply_update(p: &mut Pipeline, u: &RuleUpdate) -> Result<Undo, ApplyError> {
    let _t = mapro_obs::time!("control.updates.apply_ns");
    match u {
        RuleUpdate::Modify { .. } => mapro_obs::counter!("control.updates.modifies").inc(),
        RuleUpdate::Insert { .. } => mapro_obs::counter!("control.updates.installs").inc(),
        RuleUpdate::Delete { .. } => mapro_obs::counter!("control.updates.deletes").inc(),
    }
    apply_update_silent(p, u)
}

/// [`apply_update`] without the `control.updates.*` counters — for shadow
/// replays (the inline verifier's committed-state mirror) that must not
/// double-count the datapath's own update traffic.
pub fn apply_update_silent(p: &mut Pipeline, u: &RuleUpdate) -> Result<Undo, ApplyError> {
    let ti = p
        .tables
        .iter()
        .position(|t| t.name == u.table())
        .ok_or_else(|| ApplyError::TableNotFound(u.table().to_owned()))?;
    let catalog = &p.catalog;
    let table = &mut p.tables[ti];
    let fits = |attr: AttrId, v: &Value, table: &str| match catalog.cell_width(attr) {
        Some(w) if !v.fits(w) => Err(ApplyError::Width {
            table: table.to_owned(),
            attr,
        }),
        _ => Ok(()),
    };
    let row_of = |matches: &Vec<Value>| {
        table
            .entries
            .iter()
            .position(|e| &e.matches == matches)
            .ok_or_else(|| ApplyError::EntryNotFound {
                table: table.name.clone(),
            })
    };
    let op = match u {
        RuleUpdate::Modify { matches, set, .. } => {
            let row = row_of(matches)?;
            // Resolve columns first so a bad update leaves the table
            // untouched (per-flow-mod atomicity).
            let cols = set
                .iter()
                .map(|(attr, _)| {
                    table
                        .column_of(*attr)
                        .ok_or_else(|| ApplyError::AttrNotInTable {
                            table: table.name.clone(),
                            attr: *attr,
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            for (attr, v) in set {
                fits(*attr, v, &table.name)?;
            }
            let e = &mut table.entries[row];
            let old = set
                .iter()
                .zip(cols)
                .map(|((_, v), (col, is_match))| {
                    let cell = if is_match {
                        &mut e.matches[col]
                    } else {
                        &mut e.actions[col]
                    };
                    (col, is_match, std::mem::replace(cell, v.clone()))
                })
                .collect();
            UndoOp::Cells { row, old }
        }
        RuleUpdate::Insert { entry, .. } => {
            if entry.matches.len() != table.match_attrs.len()
                || entry.actions.len() != table.action_attrs.len()
            {
                return Err(ApplyError::Arity {
                    table: table.name.clone(),
                });
            }
            let attrs = table.match_attrs.iter().chain(&table.action_attrs);
            for (&attr, v) in attrs.zip(entry.matches.iter().chain(&entry.actions)) {
                fits(attr, v, &table.name)?;
            }
            table.entries.push(entry.clone());
            UndoOp::Pop
        }
        RuleUpdate::Delete { matches, .. } => {
            let row = row_of(matches)?;
            UndoOp::Reinsert {
                row,
                entry: table.entries.remove(row),
            }
        }
    };
    Ok(Undo { table: ti, op })
}

/// A compiled intent: the flow-mods realizing one semantic change.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdatePlan {
    /// Human-readable intent description.
    pub intent: String,
    /// The flow-mods, in application order.
    pub updates: Vec<RuleUpdate>,
}

impl UpdatePlan {
    /// The §2 controllability metric: rule-action pairs touched.
    pub fn touched_entries(&self) -> usize {
        self.updates.len()
    }

    /// Whether applying this plan needs a multi-entry atomic bundle.
    pub fn needs_bundle(&self) -> bool {
        self.updates.len() > 1
    }
}

/// Apply a whole plan in place, all or nothing: if an update is refused,
/// the ones before it are undone and `p` is `==` to what it was.
pub fn apply_plan(p: &mut Pipeline, plan: &UpdatePlan) -> Result<(), ApplyError> {
    mapro_obs::counter!("control.updates.plans").inc();
    mapro_obs::histogram!("control.updates.plan_size").record(plan.updates.len() as u64);
    apply_all(p, plan, apply_update)
}

/// [`apply_plan`] without counters (see [`apply_update_silent`]).
pub fn apply_plan_silent(p: &mut Pipeline, plan: &UpdatePlan) -> Result<(), ApplyError> {
    apply_all(p, plan, apply_update_silent)
}

fn apply_all(
    p: &mut Pipeline,
    plan: &UpdatePlan,
    apply: fn(&mut Pipeline, &RuleUpdate) -> Result<Undo, ApplyError>,
) -> Result<(), ApplyError> {
    let mut done = Vec::with_capacity(plan.updates.len());
    for u in &plan.updates {
        match apply(p, u) {
            Ok(record) => done.push(record),
            Err(e) => {
                for record in done.into_iter().rev() {
                    undo(p, record);
                }
                return Err(e);
            }
        }
    }
    Ok(())
}

/// The `(table, match row)` pairs one update touches — the key the
/// symbolic invalidation cube is computed from, shared by megaflow cache
/// invalidation and incremental re-verification.
///
/// Only `p`'s table *schema* is consulted (a `Modify` whose `set` rewrites
/// match cells contributes both the old and the new row), so the rows are
/// valid against any pipeline with the same tables — in particular both
/// the pre- and post-update state, since entry edits never change a
/// schema. Unknown tables still yield the row (consumers treat an
/// unknown-table row as "footprint unbounded").
pub fn delta_rows(p: &Pipeline, u: &RuleUpdate) -> Vec<(String, Vec<Value>)> {
    match u {
        RuleUpdate::Insert { table, entry } => vec![(table.clone(), entry.matches.clone())],
        RuleUpdate::Delete { table, matches } => vec![(table.clone(), matches.clone())],
        RuleUpdate::Modify {
            table,
            matches,
            set,
        } => {
            let mut rows = vec![(table.clone(), matches.clone())];
            if let Some(t) = p.table(table) {
                let mut moved = matches.clone();
                for (attr, v) in set {
                    if let Some((col, true)) = t.column_of(*attr) {
                        if col < moved.len() {
                            moved[col] = v.clone();
                        }
                    }
                }
                if moved != *matches {
                    rows.push((table.clone(), moved));
                }
            }
            rows
        }
    }
}

/// [`delta_rows`] over a whole plan, in application order.
pub fn plan_delta_rows(p: &Pipeline, plan: &UpdatePlan) -> Vec<(String, Vec<Value>)> {
    plan.updates.iter().flat_map(|u| delta_rows(p, u)).collect()
}

/// Apply only the first `k` updates — the state a non-atomic switch
/// exposes mid-update, or after losing the tail of a plan (§2: "if any of
/// these updates gets lost … the service may remain halfway-exposed").
pub fn apply_prefix(p: &Pipeline, plan: &UpdatePlan, k: usize) -> Result<Pipeline, ApplyError> {
    let mut q = p.clone();
    for u in plan.updates.iter().take(k) {
        apply_update(&mut q, u)?;
    }
    Ok(q)
}

/// Transaction id tagging a flow-mod; the unit of idempotence.
///
/// Transaction ids are scoped *per epoch*: a new controller generation
/// may reuse ids, because the switch dedups on `(epoch, txn)` and the
/// controller matches acks on both fields.
pub type TxnId = u64;

/// Identifier of a two-phase update bundle.
pub type BundleId = u64;

/// A controller generation. Each successor takes a higher epoch than its
/// predecessor (`mapro_control::Controller::recover`); the
/// switch remembers the highest epoch it has seen and fences everything
/// older, so a deposed controller's stragglers can never clobber its
/// successor's writes.
pub type Epoch = u64;

/// What a control message asks the switch to do.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowModOp {
    /// Apply one flow-mod immediately.
    Apply(RuleUpdate),
    /// Stage a multi-update bundle (validated, not yet applied).
    Prepare {
        /// Bundle being staged.
        bundle: BundleId,
        /// The flow-mods of the bundle, in application order.
        updates: Vec<RuleUpdate>,
    },
    /// Atomically apply a staged bundle.
    Commit {
        /// Bundle to apply.
        bundle: BundleId,
    },
    /// Discard a staged bundle.
    Rollback {
        /// Bundle to discard.
        bundle: BundleId,
    },
    /// Read back the switch's authoritative pipeline (reconciliation).
    ReadState,
}

impl FlowModOp {
    /// Flow-mods this message carries — the management-CPU work a
    /// (re)delivery costs the switch, whether or not it takes effect.
    pub fn mods_carried(&self) -> usize {
        match self {
            FlowModOp::Apply(_) | FlowModOp::Commit { .. } | FlowModOp::Rollback { .. } => 1,
            FlowModOp::Prepare { updates, .. } => updates.len(),
            FlowModOp::ReadState => 0,
        }
    }
}

/// A control message: controller generation, transaction id, operation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMod {
    /// Idempotence tag; retransmissions reuse the id.
    pub txn: TxnId,
    /// Generation of the controller that sent this message. The switch
    /// rejects epochs below the highest it has seen ([`AckError::StaleEpoch`]).
    pub epoch: Epoch,
    /// The requested operation.
    pub op: FlowModOp,
}

/// Successful ack payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum AckOk {
    /// The operation took effect (or was already applied — dedup).
    Done,
    /// Response to [`FlowModOp::ReadState`].
    State(Box<Pipeline>),
}

/// Negative ack payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum AckError {
    /// Commit/rollback named a bundle the switch does not hold (e.g. a
    /// restart wiped the staging area).
    BundleUnknown,
    /// The message's epoch is below the highest the switch has seen: the
    /// sender was deposed by a newer controller generation. Nothing was
    /// logged or applied — the fence precedes even the dedup log.
    StaleEpoch {
        /// The epoch the switch is currently fenced to.
        current: Epoch,
    },
    /// The operation was refused; the state is unchanged.
    Rejected(String),
}

/// The switch's reply to one [`FlowMod`].
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// Transaction this ack answers.
    pub txn: TxnId,
    /// Epoch echoed from the answered message, so a controller never
    /// mistakes a predecessor's straggler ack (same txn id, older epoch)
    /// for its own.
    pub epoch: Epoch,
    /// Outcome.
    pub result: Result<AckOk, AckError>,
}

/// The switch side of the channel. `mapro-switch`'s `LiveSwitch`
/// implements this; tests may substitute in-memory fakes.
pub trait Endpoint {
    /// Process one delivered message and produce its ack. Must be
    /// idempotent per [`TxnId`] (redelivery returns the recorded ack).
    fn deliver(&mut self, msg: &FlowMod) -> Ack;
    /// Power-cycle: volatile state (uncommitted updates, staged bundles,
    /// the txn dedup log) is lost; the datapath reverts to the last
    /// committed state.
    fn restart(&mut self);
}

/// A switch shared by several control channels (one per controller in a
/// multi-controller deployment): each channel holds a handle to the same
/// underlying endpoint, so their deliveries interleave at one switch the
/// way N controllers' connections terminate at one device.
impl<E: Endpoint> Endpoint for std::rc::Rc<std::cell::RefCell<E>> {
    fn deliver(&mut self, msg: &FlowMod) -> Ack {
        self.borrow_mut().deliver(msg)
    }
    fn restart(&mut self) {
        self.borrow_mut().restart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActionSem, Catalog, Table};

    fn pipeline() -> (Pipeline, AttrId, AttrId) {
        let mut c = Catalog::new();
        let f = c.field("f", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Int(2)], vec![Value::sym("b")]);
        (Pipeline::single(c, t), f, out)
    }

    #[test]
    fn modify_match_and_action_cells() {
        let (mut p, f, out) = pipeline();
        apply_update(
            &mut p,
            &RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![(f, Value::Int(9)), (out, Value::sym("z"))],
            },
        )
        .unwrap();
        let t = p.table("t").unwrap();
        assert_eq!(t.entries[0].matches[0], Value::Int(9));
        assert_eq!(t.entries[0].actions[0], Value::sym("z"));
    }

    #[test]
    fn insert_and_delete() {
        let (mut p, _, _) = pipeline();
        apply_update(
            &mut p,
            &RuleUpdate::Insert {
                table: "t".into(),
                entry: Entry::new(vec![Value::Int(3)], vec![Value::sym("c")]),
            },
        )
        .unwrap();
        assert_eq!(p.table("t").unwrap().len(), 3);
        apply_update(
            &mut p,
            &RuleUpdate::Delete {
                table: "t".into(),
                matches: vec![Value::Int(2)],
            },
        )
        .unwrap();
        assert_eq!(p.table("t").unwrap().len(), 2);
        assert!(p
            .table("t")
            .unwrap()
            .entries
            .iter()
            .all(|e| e.matches[0] != Value::Int(2)));
    }

    #[test]
    fn errors_reported() {
        let (mut p, f, _) = pipeline();
        assert!(matches!(
            apply_update(
                &mut p,
                &RuleUpdate::Delete {
                    table: "zzz".into(),
                    matches: vec![],
                }
            ),
            Err(ApplyError::TableNotFound(_))
        ));
        assert!(matches!(
            apply_update(
                &mut p,
                &RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(99)],
                    set: vec![(f, Value::Int(1))],
                }
            ),
            Err(ApplyError::EntryNotFound { .. })
        ));
        assert!(matches!(
            apply_update(
                &mut p,
                &RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1)],
                    set: vec![(AttrId(99), Value::Int(1))],
                }
            ),
            Err(ApplyError::AttrNotInTable { .. })
        ));
    }

    #[test]
    fn undo_restores_every_kind_exactly() {
        let (p, f, out) = pipeline();
        let updates = [
            // Writes `f` twice: undo must put back the original, not 9.
            RuleUpdate::Modify {
                table: "t".into(),
                matches: vec![Value::Int(1)],
                set: vec![
                    (f, Value::Int(9)),
                    (out, Value::sym("z")),
                    (f, Value::Int(10)),
                ],
            },
            RuleUpdate::Insert {
                table: "t".into(),
                entry: Entry::new(vec![Value::Int(3)], vec![Value::sym("c")]),
            },
            RuleUpdate::Delete {
                table: "t".into(),
                matches: vec![Value::Int(2)],
            },
        ];
        let mut q = p.clone();
        let mut states = vec![q.clone()];
        let mut records = Vec::new();
        for u in &updates {
            records.push(apply_update(&mut q, u).unwrap());
            states.push(q.clone());
        }
        assert_eq!(q.table("t").unwrap().entries[0].matches[0], Value::Int(10));
        // Each record names its row; the first write of a column holds the
        // value the row had.
        let old_f = (0, true, Value::Int(1));
        assert!(matches!(records[0].edit(), RowEdit::Modify { row: 0, old } if old[0] == old_f));
        assert_eq!(records[1].edit(), RowEdit::Insert);
        assert!(matches!(
            records[2].edit(),
            RowEdit::Delete { row: 1, entry } if entry.matches == [Value::Int(2)]
        ));
        assert!(records.iter().all(|r| r.table() == 0));
        for record in records.into_iter().rev() {
            states.pop();
            undo(&mut q, record);
            assert_eq!(&q, states.last().unwrap());
        }
        assert_eq!(q, p);
    }

    #[test]
    fn plans_apply_all_or_nothing() {
        let (p, f, _) = pipeline();
        let ok = RuleUpdate::Modify {
            table: "t".into(),
            matches: vec![Value::Int(1)],
            set: vec![(f, Value::Int(11))],
        };
        let insert = |matches: Vec<Value>| RuleUpdate::Insert {
            table: "t".into(),
            entry: Entry::new(matches, vec![Value::sym("c")]),
        };
        for (bad, want) in [
            (
                RuleUpdate::Delete {
                    table: "t".into(),
                    matches: vec![Value::Int(99)],
                },
                ApplyError::EntryNotFound { table: "t".into() },
            ),
            (
                insert(vec![Value::Int(3), Value::Int(4)]),
                ApplyError::Arity { table: "t".into() },
            ),
        ] {
            let plan = UpdatePlan {
                intent: "fails third".into(),
                updates: vec![ok.clone(), insert(vec![Value::Int(3)]), bad],
            };
            let mut q = p.clone();
            assert_eq!(apply_plan(&mut q, &plan), Err(want.clone()));
            assert_eq!(q, p, "the applied prefix is undone");
            assert_eq!(apply_plan_silent(&mut q, &plan), Err(want));
            assert_eq!(q, p);
        }
    }

    /// `Int(x)` with `x ≥ 2^w` matches no packet in the evaluator but
    /// `x mod 2^w` in the symbolic checker, so no update may install one —
    /// in a match cell or as a `SetField` parameter.
    #[test]
    fn cells_wider_than_their_attribute_are_refused() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let m = c.meta("m", 4);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![set_m, out]);
        t.row(vec![Value::Int(1)], vec![Value::Int(2), Value::sym("a")]);
        let p = Pipeline::single(c, t);
        let width = |attr| ApplyError::Width {
            table: "t".into(),
            attr,
        };
        let insert = |matches, actions| RuleUpdate::Insert {
            table: "t".into(),
            entry: Entry::new(matches, actions),
        };
        let modify = |set| RuleUpdate::Modify {
            table: "t".into(),
            matches: vec![Value::Int(1)],
            set,
        };
        for (bad, attr) in [
            (
                insert(vec![Value::Int(256)], vec![Value::Any, Value::Any]),
                f,
            ),
            (
                insert(vec![Value::Any], vec![Value::Int(16), Value::Any]),
                set_m,
            ),
            (modify(vec![(f, Value::prefix(0, 9, 9))]), f),
            (
                modify(vec![(out, Value::sym("b")), (set_m, Value::Int(99))]),
                set_m,
            ),
        ] {
            let mut q = p.clone();
            assert_eq!(apply_update(&mut q, &bad), Err(width(attr)), "{bad:?}");
            assert_eq!(q, p);
        }
        let ok = modify(vec![(f, Value::Int(255)), (set_m, Value::Int(15))]);
        assert!(apply_update(&mut p.clone(), &ok).is_ok());
    }

    #[test]
    fn prefix_application_models_partial_state() {
        let (p, f, _) = pipeline();
        let plan = UpdatePlan {
            intent: "renumber both".into(),
            updates: vec![
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(1)],
                    set: vec![(f, Value::Int(11))],
                },
                RuleUpdate::Modify {
                    table: "t".into(),
                    matches: vec![Value::Int(2)],
                    set: vec![(f, Value::Int(12))],
                },
            ],
        };
        assert_eq!(plan.touched_entries(), 2);
        assert!(plan.needs_bundle());
        let half = apply_prefix(&p, &plan, 1).unwrap();
        let t = half.table("t").unwrap();
        assert_eq!(t.entries[0].matches[0], Value::Int(11));
        assert_eq!(t.entries[1].matches[0], Value::Int(2)); // not yet applied
                                                            // Prefix 0 is the original.
        let zero = apply_prefix(&p, &plan, 0).unwrap();
        assert_eq!(zero, p);
    }
}
