//! The vocabulary of symbolic execution, shared by the full check and the
//! incremental sessions.
//!
//! The decision-diagram compiler ([`crate::ddcover`]) runs a pipeline
//! *symbolically*: a walk carries the concrete values of every field the
//! program has written so far (`SymCore`; metadata starts at zero,
//! `SetField` writes are always concrete integers, so written fields never
//! become symbolic), while header fields nobody wrote stay free input bits.
//! This module holds what that walk is made of: the joint coordinate system
//! ([`FieldSpace`]), the observable outcome of a walk ([`Behavior`]), the
//! budgets ([`SymConfig`]) and the constructs outside the fragment
//! ([`Unsupported`]), plus the one implementation of action semantics
//! (`apply_actions`, `delivered`) and of a table's match rows in canonical
//! ternary form (`table_rows`).

use crate::cube::Cube;
use mapro_core::{ActionSem, AttrId, AttrKind, Pipeline, Value};
use std::sync::Arc;

/// The joint ternary coordinate system: every header `Field` attribute
/// matched by any of the compared pipelines, sorted by attribute id (the
/// same order `Domain::from_pipelines` derives, so counterexample field
/// listings stay byte-compatible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpace {
    /// `(attribute, width)` per cube column.
    pub coords: Vec<(AttrId, u32)>,
}

impl FieldSpace {
    /// Derive the joint space of several pipelines.
    pub fn from_pipelines(pipelines: &[&Pipeline]) -> FieldSpace {
        let mut coords: Vec<(AttrId, u32)> = Vec::new();
        for p in pipelines {
            for t in &p.tables {
                for &attr in &t.match_attrs {
                    let a = p.catalog.attr(attr);
                    if matches!(a.kind, AttrKind::Field)
                        && !coords.iter().any(|&(id, _)| id == attr)
                    {
                        coords.push((attr, a.width));
                    }
                }
            }
        }
        coords.sort_unstable_by_key(|&(id, _)| id);
        FieldSpace { coords }
    }

    /// Column index of an attribute, if it participates.
    #[inline]
    pub(crate) fn coord_of(&self, attr: AttrId) -> Option<usize> {
        self.coords.iter().position(|&(id, _)| id == attr)
    }

    /// The all-wildcard cube over this space.
    pub fn universe(&self) -> Cube {
        Cube::any(self.coords.len())
    }
}

/// The concrete observable behavior of one walk — the symbolic mirror of
/// `Verdict::observable()`. Construction normalizes a drop (not punted to
/// the controller) to the absorbing [`Behavior::Dropped`], discarding any
/// effects accumulated before the miss, exactly as the evaluator does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Behavior {
    /// The packet was discarded; nothing is externally visible.
    Dropped,
    /// The packet left the switch with these effects applied.
    Delivered {
        /// Output port, if any (last write wins).
        output: Option<Arc<str>>,
        /// Whether the packet was punted to the controller.
        to_controller: bool,
        /// Final values of modified header fields, sorted by attribute id.
        header_mods: Vec<(AttrId, u64)>,
        /// Opaque actions applied (sorted multiset).
        opaque: Vec<(String, Value)>,
    },
}

/// Budgets for the symbolic compiler. Exhaustion is reported as
/// [`Unsupported`], which `EquivMode::Auto` turns into an enumerative
/// fallback — never a wrong answer.
#[derive(Debug, Clone)]
pub struct SymConfig {
    /// Maximum number of leaves (walks ending in a behavior) one
    /// compilation may build — a branch-count safety valve.
    pub(crate) max_atoms: usize,
    /// Maximum interior nodes in one decision-diagram manager.
    pub max_nodes: usize,
}

impl Default for SymConfig {
    fn default() -> Self {
        SymConfig {
            max_atoms: 1 << 20,
            max_nodes: crate::dd::Mgr::DEFAULT_MAX_NODES,
        }
    }
}

/// A construct the compiler cannot express (or a blown budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// A symbolic path revisited tables beyond the evaluator's own visit
    /// budget; the concrete evaluator would error identically, and error
    /// *ordering* across the domain is the enumerative engine's business.
    GotoCycle {
        /// The visit budget that was exceeded.
        limit: usize,
    },
    /// A reachable `Goto`/`next`/`Fall` named a table that does not exist.
    UnknownTable(String),
    /// A reachable action cell held a malformed parameter.
    BadActionParam {
        /// Offending table name.
        table: String,
        /// Offending action attribute name.
        attr: String,
    },
    /// The compilation exceeded `SymConfig::max_atoms`.
    AtomBudget,
    /// The diagram manager exceeded [`SymConfig::max_nodes`].
    NodeBudget,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsupported::GotoCycle { limit } => {
                write!(
                    f,
                    "a symbolic path exceeds {limit} table visits (goto cycle?)"
                )
            }
            Unsupported::UnknownTable(t) => {
                write!(f, "a reachable jump targets unknown table {t:?}")
            }
            Unsupported::BadActionParam { table, attr } => {
                write!(
                    f,
                    "table {table:?}: malformed parameter for action {attr:?}"
                )
            }
            Unsupported::AtomBudget => write!(f, "atom budget exhausted"),
            Unsupported::NodeBudget => write!(f, "decision-diagram node budget exhausted"),
        }
    }
}

impl Unsupported {
    /// Stable snake_case cause label, used as the `sym.fallback.<cause>`
    /// counter suffix and in `mapro check` fallback notes.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Unsupported::GotoCycle { .. } => "goto_cycle",
            Unsupported::UnknownTable(_) => "unknown_table",
            Unsupported::BadActionParam { .. } => "bad_action_param",
            Unsupported::AtomBudget => "atom_budget",
            Unsupported::NodeBudget => "node_budget",
        }
    }
}

impl std::error::Error for Unsupported {}

/// The state of one symbolic walk apart from its input constraint (which
/// the DD compiler carries as enclosing cubes and diagram nodes).
#[derive(Clone)]
pub(crate) struct SymCore {
    /// Concrete current value per catalog attribute: metadata starts at
    /// `Some(0)`, header fields at `None` (free input) until written.
    pub(crate) vals: Vec<Option<u64>>,
    /// `SetField` targets in first-write order (mirrors the evaluator).
    pub(crate) touched: Vec<AttrId>,
    /// Last `Output` parameter, if any.
    pub(crate) output: Option<Arc<str>>,
    /// Opaque actions accumulated so far.
    pub(crate) opaque: Vec<(String, Value)>,
    /// Table visits so far (the evaluator's goto-cycle budget).
    pub(crate) steps: usize,
}

impl SymCore {
    /// The state at pipeline entry: metadata zero, header fields free.
    pub(crate) fn initial(p: &Pipeline) -> SymCore {
        let vals = (0..p.catalog.len())
            .map(|i| match p.catalog.attr(AttrId(i as u32)).kind {
                AttrKind::Meta => Some(0),
                _ => None,
            })
            .collect();
        SymCore {
            vals,
            touched: Vec::new(),
            output: None,
            opaque: Vec::new(),
            steps: 0,
        }
    }
}

/// Apply the actions of entry `ei` in table `ti` of `p` to `core`,
/// returning the `Goto` target if one fired. The one implementation of
/// action semantics the symbolic compiler runs.
pub(crate) fn apply_actions<'p>(
    p: &'p Pipeline,
    ti: usize,
    ei: usize,
    core: &mut SymCore,
) -> Result<Option<&'p str>, Unsupported> {
    let t = &p.tables[ti];
    let mut goto: Option<&str> = None;
    for (col, &attr) in t.action_attrs.iter().enumerate() {
        let param = &t.entries[ei].actions[col];
        if matches!(param, Value::Any) {
            continue; // no-op slot
        }
        let a = p.catalog.attr(attr);
        let sem = match &a.kind {
            AttrKind::Action(s) => s,
            _ => unreachable!("action column with non-action attr"),
        };
        let bad = || Unsupported::BadActionParam {
            table: t.name.clone(),
            attr: a.name.clone(),
        };
        match sem {
            ActionSem::Output => match param {
                Value::Sym(port) => core.output = Some(port.clone()),
                _ => return Err(bad()),
            },
            ActionSem::Goto => match param {
                Value::Sym(target) => goto = Some(target.as_ref()),
                _ => return Err(bad()),
            },
            ActionSem::SetField(target) => match param {
                Value::Int(x) => {
                    core.vals[target.index()] = Some(*x);
                    if !core.touched.contains(target) {
                        core.touched.push(*target);
                    }
                }
                _ => return Err(bad()),
            },
            ActionSem::Opaque => {
                core.opaque.push((a.name.clone(), param.clone()));
            }
        }
    }
    Ok(goto)
}

/// The terminal `Delivered` behavior of a state (mirrors the verdict
/// projection: touched header fields sorted by id, opaque multiset
/// sorted), punted on a `Controller` miss.
pub(crate) fn delivered(p: &Pipeline, core: &SymCore, to_controller: bool) -> Behavior {
    let mut mods: Vec<(AttrId, u64)> = core
        .touched
        .iter()
        .filter(|&&a| matches!(p.catalog.attr(a).kind, AttrKind::Field))
        .map(|&a| {
            (
                a,
                core.vals[a.index()].expect("touched fields are concrete"),
            )
        })
        .collect();
    mods.sort_unstable_by_key(|&(a, _)| a);
    let mut opaque = core.opaque.clone();
    opaque.sort();
    Behavior::Delivered {
        output: core.output.clone(),
        to_controller,
        header_mods: mods,
        opaque,
    }
}

/// The evaluator's table-visit budget for `p` (goto-cycle detection).
pub(crate) fn visit_limit(p: &Pipeline) -> usize {
    p.tables.len().saturating_mul(2) + 8
}

/// Table `ti`'s column widths and its match rows in canonical ternary form
/// over those columns (`None` = an unsatisfiable symbolic cell) — what the
/// compiler executes instead of raw `Value`s.
pub(crate) fn table_rows(p: &Pipeline, ti: usize) -> (Vec<u32>, Vec<Option<Cube>>) {
    let t = &p.tables[ti];
    let widths: Vec<u32> = t
        .match_attrs
        .iter()
        .map(|&a| p.catalog.attr(a).width)
        .collect();
    let rows = t
        .entries
        .iter()
        .map(|e| Cube::of(&e.matches, &widths))
        .collect();
    (widths, rows)
}
