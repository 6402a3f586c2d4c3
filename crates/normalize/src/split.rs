//! The lossless split (§3 and the appendix): a table equals the join of
//! its projections exactly when a dependency licenses it — Heath's
//! theorem for an FD, Fagin's FD ⇒ MVD ⇒ JD beyond it, and `∅ → C` for
//! constant columns (the Cartesian product of Fig. 2c).
//!
//! [`split`] is the one implementation of that rule. A [`Split`] chooses
//! two things: the licence the instance must satisfy, and what each stage
//! hands the next — nothing (a Cartesian product), the determinant's
//! fields (rematch), an `X`-class tag (metadata, MVD), a jump (goto) or a
//! path tag (JD). Everything else is written once: the argument check, the
//! 1NF source check, the action-split validation, stage building with
//! first-occurrence dedup, the stage-1NF check (which
//! [`SplitOpts::allow_non_1nf`] waives), the splice and the `verify` hook.
//!
//! An FD's attribute *kinds* select its stage layout:
//!
//! | shape | `X` | `Y` | stage 1 | stage 2 |
//! |---|---|---|---|---|
//! | A (Thm 1, Fig. 1) | fields | fields | `(X, Y \| link)` | `(link, Z \| Z-actions)` |
//! | B (Fig. 2b) | any | actions | `(X-fields, Z-fields \| Z-actions, link)` | `(link \| X-actions, Y)` |
//! | C (Fig. 3) | has actions | has fields | `(X-fields, Z-fields \| Z-actions, link)` | `(link, Y-fields \| X-actions, Y-actions)` |
//! | D | fields | mixed | `(X, Y-fields \| Y-actions, link)` | `(link, Z-fields \| Z-actions)` |
//!
//! Shape C is the paper's cautionary tale: the first stage drops the `Y`
//! match columns, so its rows may stop being order-independent — exactly
//! Fig. 3's incorrect decomposition, which the stage-1NF check refuses.
//!
//! A JD's stage *i* matches `(tagᵢ₋₁, fieldsᵢ)` and writes `tagᵢ`, the
//! packet's equivalence class over the first *i* components — the `all`
//! field of Fig. 5c. Chaining the components without tags is
//! [`chain_components_naive`], the appendix's counter-example.

use crate::join::{fresh_goto_action, fresh_meta, fresh_table_name, fresh_tag_action, JoinKind};
use mapro_core::{
    ActionSem, AttrId, AttrKind, Catalog, Counterexample, Entry, EquivConfig, EquivOutcome,
    MissPolicy, Pipeline, Table, Value,
};
use mapro_fd::{join_dependency_holds, mvd_holds};
// Verification goes through the mode-dispatching front door: symbolic by
// default, enumerative fallback outside the symbolic fragment.
use mapro_sym::check_equivalent;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The dependency that licenses a split, and with it the stage plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Split {
    /// `X → Y` (Heath): `X` states `Y` once, in its own stage, and the
    /// stages are chained by `join` (shapes A–D, see module docs).
    Fd {
        /// The determinant.
        x: Vec<AttrId>,
        /// What it determines; non-empty and disjoint from `x`.
        y: Vec<AttrId>,
        /// The `≫` encoding.
        join: JoinKind,
    },
    /// `X ↠ Y`: `π_{X∪Y}(T) ≫ π_{X∪Z}(T)` chained by an `X`-class tag.
    /// The MVD guarantees that the class alone disambiguates, so both
    /// stages deduplicate fully (the space win of 4NF). `X` must be match
    /// fields; `Y`'s actions fire in stage 1, `Z`'s in stage 2.
    Mvd {
        /// The determinant.
        x: Vec<AttrId>,
        /// One side; `Z` is the rest. Non-empty and disjoint from `x`.
        y: Vec<AttrId>,
    },
    /// `⋈{R₁, …, Rₖ}`: one stage per component, chained with path tags.
    /// Components may share attributes and must cover the table. Each
    /// action fires at the earliest stage whose path class determines it.
    Jd(Vec<Vec<AttrId>>),
    /// `∅ → C`: the constant columns `C` (all of them, or exactly `only`)
    /// move into a one-row `<table>_const` table chained per `placement`.
    Constant {
        /// The columns to factor; each must be constant.
        only: Option<Vec<AttrId>>,
        /// Where the constant table runs.
        placement: FactorPlacement,
    },
}

/// Where [`Split::Constant`] places the factored table. `×` commutes (§3:
/// "we could as well append T₀ at the end of the pipeline or anywhere in
/// between").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorPlacement {
    /// `T_const` runs first, then the remainder (Fig. 2c's layout).
    #[default]
    Before,
    /// The remainder runs first, `T_const` last. Only constant *actions*
    /// may trail.
    After,
}

/// Options for [`split`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitOpts {
    /// Re-check semantic equivalence of the output against the input. A
    /// split is equivalence-preserving by construction; this guards the
    /// implementation, not the theory.
    pub verify: bool,
    /// Permit stages that violate 1NF (the Fig. 3 demonstration; never
    /// the normalizer).
    pub allow_non_1nf: bool,
}

/// Why a split was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// The named table is not in the pipeline.
    TableNotFound(String),
    /// A named attribute is not a column of the table.
    AttrNotInTable(AttrId),
    /// `X` and `Y` overlap, or `Y` is empty.
    BadSides,
    /// JD components must cover every attribute of the table.
    ComponentsDontCover,
    /// The source table is not in 1NF.
    SourceNot1NF,
    /// `X → Y` does not hold in the instance — the split would lose
    /// information (Heath's theorem is an iff).
    FdDoesNotHold {
        /// Two row indices with equal `X` but different `Y`.
        rows: (usize, usize),
    },
    /// The MVD or JD does not hold: the split would be lossy.
    JoinDependencyDoesNotHold,
    /// No constant columns exist, or a requested one is not constant.
    NothingToFactor,
    /// A `goto` column would fire before the last stage.
    GotoNotInLastStage,
    /// [`JoinKind::Rematch`] requires `X` to consist of match fields.
    RematchNeedsFieldX,
    /// An MVD's `X`-class is matched, so `X` must consist of match fields.
    MvdNeedsFieldX,
    /// Factoring would leave the remainder with no match columns.
    WouldEraseMatch,
    /// `After` placement is unsound when the constant columns include
    /// match fields: the table would forward packets before filtering
    /// them.
    ConstMatchMustLead,
    /// A produced stage violates 1NF — the Fig. 3 phenomenon. The paper:
    /// "a naïve decomposition along … dependencies X → Y where X contains
    /// actions and Y includes predicates does not result \[in\] 1NF
    /// sub-tables".
    StageNot1NF {
        /// Name of the offending stage.
        stage: String,
        /// Indices of two conflicting rows in that stage.
        rows: (usize, usize),
    },
    /// Splitting these two action columns across stages would reverse
    /// their application order, and they write the same thing (two
    /// outputs, or two rewrites of one field) — last-write-wins semantics
    /// would flip.
    OrderSensitiveActionSplit {
        /// The action that originally fired first (would now fire second).
        first: String,
        /// The action that originally fired second.
        second: String,
    },
    /// An earlier stage rewrites a field a later stage matches; the
    /// original table matched the *pre-rewrite* value.
    RewriteBeforeMatch {
        /// The set-field action.
        action: String,
        /// The field it writes and the later stage matches.
        field: String,
    },
    /// Verification found a semantic difference (implementation bug guard).
    NotEquivalent(Box<Counterexample>),
    /// Verification could not run.
    VerifyFailed(String),
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::TableNotFound(t) => write!(f, "table {t:?} not found"),
            SplitError::AttrNotInTable(a) => write!(f, "attribute {a} not in table"),
            SplitError::BadSides => write!(f, "X and Y must be disjoint and Y non-empty"),
            SplitError::ComponentsDontCover => write!(f, "components must cover all attributes"),
            SplitError::SourceNot1NF => write!(f, "source table is not in 1NF"),
            SplitError::FdDoesNotHold { rows } => {
                write!(f, "X -> Y violated by rows {} and {}", rows.0, rows.1)
            }
            SplitError::JoinDependencyDoesNotHold => {
                write!(f, "join dependency does not hold; split would be lossy")
            }
            SplitError::NothingToFactor => write!(f, "no constant columns to factor"),
            SplitError::GotoNotInLastStage => {
                write!(f, "goto column would not be in the last stage")
            }
            SplitError::RematchNeedsFieldX => {
                write!(f, "rematch join requires X to be match fields")
            }
            SplitError::MvdNeedsFieldX => write!(f, "an MVD split requires X to be match fields"),
            SplitError::WouldEraseMatch => {
                write!(f, "factoring would leave the table without match columns")
            }
            SplitError::ConstMatchMustLead => {
                write!(f, "constant match fields must be factored before the table")
            }
            SplitError::StageNot1NF { stage, rows } => write!(
                f,
                "decomposition not 1NF: stage {stage:?} rows {} and {} overlap (Fig. 3 phenomenon)",
                rows.0, rows.1
            ),
            SplitError::OrderSensitiveActionSplit { first, second } => write!(
                f,
                "decomposition would reorder colliding actions {first:?} and {second:?}"
            ),
            SplitError::RewriteBeforeMatch { action, field } => write!(
                f,
                "stage-1 action {action:?} rewrites field {field:?} which stage 2 matches"
            ),
            SplitError::NotEquivalent(cx) => {
                write!(f, "verification failed on packet {:?}", cx.fields)
            }
            SplitError::VerifyFailed(e) => write!(f, "verification error: {e}"),
        }
    }
}

impl std::error::Error for SplitError {}

/// What a licence hands the shared tail of [`split`].
struct Plan {
    /// The input catalog plus the stages' plumbing (tags, goto columns).
    catalog: Catalog,
    /// Per stage level, in execution order: the source actions it applies
    /// and the source fields it matches. A goto join's per-`X` tables are
    /// one level.
    levels: Vec<(Vec<AttrId>, Vec<AttrId>)>,
    /// The tables that replace the source, in pipeline order.
    stages: Vec<Table>,
}

/// Split `table` (a member of `p`) as `how` says, returning the rewritten
/// pipeline. The first stage keeps the table's name, so inbound `goto`s
/// keep working; the last inherits its continuation.
///
/// ```
/// use mapro_core::{ActionSem, Catalog, Pipeline, Table, Value, assert_equivalent};
/// use mapro_normalize::{split, JoinKind, Split, SplitOpts};
///
/// // (dst, port | out) with dst → port: the Fig. 1 shape in miniature.
/// let mut c = Catalog::new();
/// let dst = c.field("dst", 8);
/// let port = c.field("port", 16);
/// let out = c.action("out", ActionSem::Output);
/// let mut t = Table::new("t0", vec![dst, port], vec![out]);
/// t.row(vec![Value::Int(1), Value::Int(80)], vec![Value::sym("a")]);
/// t.row(vec![Value::Int(2), Value::Int(443)], vec![Value::sym("b")]);
/// let p = Pipeline::single(c, t);
///
/// let fd = Split::Fd { x: vec![dst], y: vec![port], join: JoinKind::Goto };
/// let q = split(&p, "t0", &fd, &SplitOpts::default()).unwrap();
/// assert_eq!(q.tables.len(), 3); // T0 + one table per distinct dst
/// assert_equivalent(&p, &q);
/// ```
pub fn split(
    p: &Pipeline,
    table: &str,
    how: &Split,
    opts: &SplitOpts,
) -> Result<Pipeline, SplitError> {
    mapro_obs::counter!("normalize.decompose.calls").inc();
    let _t_dec = mapro_obs::time!("normalize.decompose.decompose_ns");
    let t = p
        .table(table)
        .ok_or_else(|| SplitError::TableNotFound(table.to_owned()))?;
    match how {
        Split::Fd { x, y, .. } | Split::Mvd { x, y } => {
            if y.is_empty() || x.iter().any(|a| y.contains(a)) {
                return Err(SplitError::BadSides);
            }
            columns_of(t, x.iter().chain(y))?;
        }
        Split::Jd(components) => cover(t, components)?,
        Split::Constant { only, .. } => columns_of(t, only.iter().flatten())?,
    }
    if !t.rows_unique() || !t.order_independence(&p.catalog).is_empty() {
        return Err(SplitError::SourceNot1NF);
    }
    let plan = match how {
        Split::Fd { x, y, join } => plan_fd(p, t, x, y, *join)?,
        Split::Mvd { x, y } => plan_mvd(p, t, x, y)?,
        Split::Jd(components) => plan_jd(p, t, components)?,
        Split::Constant { only, placement } => plan_constant(p, t, only.as_deref(), *placement)?,
    };
    for (i, (actions, _)) in plan.levels.iter().enumerate() {
        let later = &plan.levels[i + 1..];
        // A jump before the last stage would skip the stages after it.
        if !later.is_empty() && jumps(t, &plan.catalog, actions) {
            return Err(SplitError::GotoNotInLastStage);
        }
        let later_actions: Vec<AttrId> = later.iter().flat_map(|l| l.0.clone()).collect();
        let later_matches: Vec<AttrId> = later.iter().flat_map(|l| l.1.clone()).collect();
        validate_action_split(t, &plan.catalog, actions, &later_actions, &later_matches)?;
    }
    mapro_obs::histogram!("normalize.decompose.stage_tables").record(plan.stages.len() as u64);
    mapro_obs::histogram!("normalize.decompose.join_rows")
        .record(plan.stages.iter().map(|s| s.len() as u64).sum());
    if !opts.allow_non_1nf {
        for st in &plan.stages {
            stage_1nf(st, &plan.catalog)?;
        }
    }
    let out = splice(p, t, plan.catalog, plan.stages);
    if opts.verify {
        match check_equivalent(p, &out, &EquivConfig::default()) {
            Ok(EquivOutcome::Equivalent { .. }) => {}
            Ok(EquivOutcome::Counterexample(cx)) => return Err(SplitError::NotEquivalent(cx)),
            Err(e) => return Err(SplitError::VerifyFailed(e.to_string())),
        }
    }
    Ok(out)
}

/// The *naive* chained split the appendix warns about: one stage per
/// component, no tags, each stage matching only its own fields. Returned
/// even when stages violate 1NF, so callers can demonstrate the failure;
/// pair with [`mapro_core::check_equivalent`] to exhibit misrouting.
pub fn chain_components_naive(
    p: &Pipeline,
    table: &str,
    components: &[Vec<AttrId>],
) -> Result<Pipeline, SplitError> {
    let t = p
        .table(table)
        .ok_or_else(|| SplitError::TableNotFound(table.to_owned()))?;
    cover(t, components)?;
    let names = stage_names(p, t, "_n", components.len());
    let stages = components
        .iter()
        .enumerate()
        .map(|(i, comp)| {
            let (fields, actions) = by_kind(&p.catalog, comp);
            let next = names.get(i + 1).cloned().or_else(|| t.next.clone());
            let rows = project(t, &fields, &actions, 0..t.len());
            stage(t, names[i].clone(), &fields, &actions, next, rows)
        })
        .collect();
    Ok(splice(p, t, p.catalog.clone(), stages))
}

/// Every attribute in `attrs` must be a column of `t`.
fn columns_of<'a>(
    t: &Table,
    attrs: impl IntoIterator<Item = &'a AttrId>,
) -> Result<(), SplitError> {
    match attrs.into_iter().find(|&&a| t.column_of(a).is_none()) {
        Some(&a) => Err(SplitError::AttrNotInTable(a)),
        None => Ok(()),
    }
}

/// JD components name columns of `t` only, and cover all of them.
fn cover(t: &Table, components: &[Vec<AttrId>]) -> Result<(), SplitError> {
    columns_of(t, components.iter().flatten())?;
    if components.is_empty()
        || t.attrs()
            .iter()
            .any(|a| !components.iter().any(|c| c.contains(a)))
    {
        return Err(SplitError::ComponentsDontCover);
    }
    Ok(())
}

/// `attrs` split into (match fields, actions), order kept.
fn by_kind(catalog: &Catalog, attrs: &[AttrId]) -> (Vec<AttrId>, Vec<AttrId>) {
    attrs
        .iter()
        .copied()
        .partition(|&a| catalog.attr(a).kind.is_matchable())
}

/// The columns of `t` outside every list in `sides`, in column order.
fn rest(t: &Table, sides: &[&[AttrId]]) -> Vec<AttrId> {
    t.attrs()
        .into_iter()
        .filter(|a| sides.iter().all(|s| !s.contains(a)))
        .collect()
}

/// `<table><suffix>`, or the first `<table><suffix>_k` no table of `p`
/// holds.
fn fresh_stage(p: &Pipeline, t: &Table, suffix: &str) -> String {
    let taken: Vec<String> = p.tables.iter().map(|t| t.name.clone()).collect();
    fresh_table_name(&taken, &format!("{}{suffix}", t.name))
}

/// Stage names for a `k`-stage split: the first keeps the table's name,
/// stage *i* (1-based) is the fresh `<table><suffix><i>`.
fn stage_names(p: &Pipeline, t: &Table, suffix: &str, k: usize) -> Vec<String> {
    let mut names = vec![t.name.clone()];
    names.extend((2..=k).map(|i| fresh_stage(p, t, &format!("{suffix}{i}"))));
    names
}

/// The `(matches, actions)` cells of source `rows` over these columns.
fn project<'a>(
    t: &'a Table,
    match_attrs: &'a [AttrId],
    action_attrs: &'a [AttrId],
    rows: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = (Vec<Value>, Vec<Value>)> + 'a {
    rows.map(move |r| (t.tuple(r, match_attrs), t.tuple(r, action_attrs)))
}

/// Per row of `t`, the 1-based id of its tuple over `attrs`, numbered in
/// first-occurrence order: the value of a class tag.
fn class_ids(t: &Table, attrs: &[AttrId]) -> Vec<u64> {
    let mut ids: HashMap<Vec<Value>, u64> = HashMap::new();
    (0..t.len())
        .map(|row| {
            let next = ids.len() as u64 + 1;
            *ids.entry(t.tuple(row, attrs)).or_insert(next)
        })
        .collect()
}

/// A stage of `t`'s split: `name` with these columns and continuation,
/// inheriting `t`'s miss policy, holding the first occurrence of each
/// distinct `(matches, actions)` entry `rows` yields.
fn stage(
    t: &Table,
    name: String,
    match_attrs: &[AttrId],
    action_attrs: &[AttrId],
    next: Option<String>,
    rows: impl IntoIterator<Item = (Vec<Value>, Vec<Value>)>,
) -> Table {
    let mut st = Table::new(name, match_attrs.to_vec(), action_attrs.to_vec());
    st.miss = t.miss.clone();
    st.next = next;
    let mut seen = HashSet::new();
    for (m, a) in rows {
        if seen.insert((m.clone(), a.clone())) {
            st.push(Entry::new(m, a));
        }
    }
    st
}

/// Two rows of `st` that overlap (or repeat a match tuple), as a refusal.
fn stage_1nf(st: &Table, catalog: &Catalog) -> Result<(), SplitError> {
    let rows = match st.order_independence(catalog).first() {
        Some(ov) => (ov.first, ov.second),
        None => {
            let mut seen = HashMap::new();
            let dup = st.entries.iter().enumerate();
            match dup
                .filter_map(|(i, e)| seen.insert(&e.matches, i).map(|j| (j, i)))
                .next()
            {
                Some(pair) => pair,
                None => return Ok(()),
            }
        }
    };
    Err(SplitError::StageNot1NF {
        stage: st.name.clone(),
        rows,
    })
}

/// `p` with `t` replaced by `stages`, over `catalog`.
fn splice(p: &Pipeline, t: &Table, catalog: Catalog, mut stages: Vec<Table>) -> Pipeline {
    let mut tables = Vec::with_capacity(p.tables.len() + stages.len());
    for old in &p.tables {
        if old.name == t.name {
            tables.append(&mut stages);
        } else {
            tables.push(old.clone());
        }
    }
    Pipeline::new(catalog, tables, p.start.clone())
}

/// Does some row of `t` jump (a goto cell that is not `*`) through one of
/// `actions`?
fn jumps(t: &Table, catalog: &Catalog, actions: &[AttrId]) -> bool {
    actions.iter().any(|&a| {
        matches!(catalog.attr(a).kind, AttrKind::Action(ActionSem::Goto))
            && (0..t.len()).any(|r| !matches!(t.cell(r, a), Value::Any))
    })
}

/// Do two action attributes write the same externally visible slot, so
/// that their application order matters?
fn writes_collide(catalog: &Catalog, a: AttrId, b: AttrId) -> bool {
    use mapro_core::AttrKind::Action;
    match (&catalog.attr(a).kind, &catalog.attr(b).kind) {
        (Action(ActionSem::Output), Action(ActionSem::Output)) => true,
        (Action(ActionSem::SetField(x)), Action(ActionSem::SetField(y))) => x == y,
        _ => false,
    }
}

/// Validate one cut of the split: refuse when it would flip the
/// application order of colliding actions, or rewrite (before the cut) a
/// field matched after it. `orig` is the source table (for column order
/// and row co-occupancy), `s1_actions`/`s2_actions` the source actions
/// applied before/after the cut, `s2_match` the fields matched after it.
fn validate_action_split(
    orig: &Table,
    catalog: &Catalog,
    s1_actions: &[AttrId],
    s2_actions: &[AttrId],
    s2_match: &[AttrId],
) -> Result<(), SplitError> {
    let col_index = |a: AttrId| orig.action_attrs.iter().position(|&b| b == a);
    // Both cells non-Any in some row ⇒ the pair can actually conflict.
    let co_occupied = |a: AttrId, b: AttrId| -> bool {
        let (Some((ca, false)), Some((cb, false))) = (orig.column_of(a), orig.column_of(b)) else {
            return false;
        };
        orig.entries
            .iter()
            .any(|e| !matches!(e.actions[ca], Value::Any) && !matches!(e.actions[cb], Value::Any))
    };
    for &a2 in s2_actions {
        for &b1 in s1_actions {
            if writes_collide(catalog, a2, b1)
                && col_index(a2) < col_index(b1)
                && co_occupied(a2, b1)
            {
                return Err(SplitError::OrderSensitiveActionSplit {
                    first: catalog.name(a2).to_owned(),
                    second: catalog.name(b1).to_owned(),
                });
            }
        }
    }
    for &b1 in s1_actions {
        if let AttrKind::Action(ActionSem::SetField(target)) = &catalog.attr(b1).kind {
            if s2_match.contains(target) {
                if let Some((c, false)) = orig.column_of(b1) {
                    if orig
                        .entries
                        .iter()
                        .any(|e| !matches!(e.actions[c], Value::Any))
                    {
                        return Err(SplitError::RewriteBeforeMatch {
                            action: catalog.name(b1).to_owned(),
                            field: catalog.name(*target).to_owned(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// The FD stage plan: shapes A–D under the chosen join (module docs).
fn plan_fd(
    p: &Pipeline,
    t: &Table,
    x: &[AttrId],
    y: &[AttrId],
    join: JoinKind,
) -> Result<Plan, SplitError> {
    // The dependency must hold in the instance; number the distinct X.
    let mut first_of: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut xid: Vec<usize> = Vec::with_capacity(t.len()); // row → distinct-X ordinal
    let mut x_order: Vec<usize> = Vec::new(); // ordinal → representative row
    for row in 0..t.len() {
        let xv = t.tuple(row, x);
        match first_of.get(&xv) {
            Some(&r0) => {
                if t.tuple(r0, y) != t.tuple(row, y) {
                    return Err(SplitError::FdDoesNotHold { rows: (r0, row) });
                }
                xid.push(xid[r0]);
            }
            None => {
                first_of.insert(xv, row);
                xid.push(x_order.len());
                x_order.push(row);
            }
        }
    }

    let (fx, ax) = by_kind(&p.catalog, x);
    let (fy, ay) = by_kind(&p.catalog, y);
    let (fz, az) = by_kind(&p.catalog, &rest(t, &[x, y]));
    let in_table_order = |mut attrs: Vec<AttrId>| {
        attrs.sort_by_key(|a| t.action_attrs.iter().position(|b| b == a));
        attrs
    };
    let ax_ay = || in_table_order(ax.iter().chain(&ay).copied().collect());
    let fx_fz: Vec<AttrId> = fx.iter().chain(&fz).copied().collect();
    let fx_fy: Vec<AttrId> = fx.iter().chain(&fy).copied().collect();
    // Each stage's source columns, and whether stage 1 holds one row per
    // source row (then stage 2 holds one per distinct X) or the reverse.
    let (s1_match, s1_actions, s1_per_row, s2_match, s2_actions) = if ax.is_empty() && ay.is_empty()
    {
        (fx_fy, vec![], false, fz.clone(), az.clone()) // A
    } else if fy.is_empty() {
        (fx_fz, az.clone(), true, vec![], ax_ay()) // B
    } else if !ax.is_empty() {
        (fx_fz, az.clone(), true, fy.clone(), ax_ay()) // C
    } else {
        (fx_fy, ay.clone(), false, fz.clone(), az.clone()) // D
    };
    // A goto column in stage 1 would jump before stage 2 could run. (The
    // shared check in `split` looks at cells; this one, by column, comes
    // first so that it keeps its precedence over the rematch refusal.)
    if s1_actions
        .iter()
        .any(|&a| matches!(p.catalog.attr(a).kind, AttrKind::Action(ActionSem::Goto)))
    {
        return Err(SplitError::GotoNotInLastStage);
    }
    if join == JoinKind::Rematch && !ax.is_empty() {
        return Err(SplitError::RematchNeedsFieldX);
    }

    let s2_name = fresh_stage(p, t, "_r");

    // X = ∅ (Y is constant): a one-row T_XY carries nothing to
    // communicate, so the join degenerates into the Cartesian product of
    // §3 / Fig. 2c — plain chaining, no tag or goto fan-out.
    if x.is_empty() {
        let rows = || 0..t.len();
        let s1_rows = project(t, &fy, &ay, rows());
        let s1 = stage(t, t.name.clone(), &fy, &ay, Some(s2_name.clone()), s1_rows);
        let s2_rows = project(t, &fz, &az, rows());
        let s2 = stage(t, s2_name, &fz, &az, t.next.clone(), s2_rows);
        return Ok(Plan {
            catalog: p.catalog.clone(),
            levels: vec![(ay, fy), (az, fz)],
            stages: vec![s1, s2],
        });
    }

    // Link plumbing: what stage 1 writes per distinct-X ordinal.
    let mut catalog = p.catalog.clone();
    let sub_name = |k: usize| format!("{}_x{}", t.name, k + 1);
    let (meta, link) = match join {
        JoinKind::Metadata => {
            let m = fresh_meta(&mut catalog, &t.name);
            (Some(m), Some(fresh_tag_action(&mut catalog, &t.name, m)))
        }
        JoinKind::Goto => (None, Some(fresh_goto_action(&mut catalog, &t.name))),
        JoinKind::Rematch => (None, None),
    };
    let link_value = |k: usize| match join {
        JoinKind::Goto => Value::sym(sub_name(k)),
        _ => Value::Int(k as u64 + 1),
    };
    // Rows feeding a stage: (distinct-X ordinal, source row).
    let stage_rows = |per_row: bool| -> Vec<(usize, usize)> {
        if per_row {
            (0..t.len()).map(|r| (xid[r], r)).collect()
        } else {
            x_order.iter().copied().enumerate().collect()
        }
    };

    let mut s1_cols = s1_actions.clone();
    s1_cols.extend(link);
    let s1 = stage(
        t,
        t.name.clone(),
        &s1_match,
        &s1_cols,
        (join != JoinKind::Goto).then(|| s2_name.clone()),
        stage_rows(s1_per_row).into_iter().map(|(k, row)| {
            let mut a = t.tuple(row, &s1_actions);
            a.extend(link.map(|_| link_value(k)));
            (t.tuple(row, &s1_match), a)
        }),
    );
    let mut s2_source = s2_match.clone();
    let mut stages = vec![s1];
    match join {
        JoinKind::Metadata | JoinKind::Rematch => {
            let mut cols: Vec<AttrId> = meta.into_iter().collect();
            if join == JoinKind::Rematch {
                cols.extend(&fx);
                s2_source.extend(&fx);
            }
            cols.extend(&s2_match);
            stages.push(stage(
                t,
                s2_name,
                &cols,
                &s2_actions,
                t.next.clone(),
                stage_rows(!s1_per_row).into_iter().map(|(k, row)| {
                    let mut m = match join {
                        JoinKind::Metadata => vec![link_value(k)],
                        _ => t.tuple(row, &fx),
                    };
                    m.extend(t.tuple(row, &s2_match));
                    (m, t.tuple(row, &s2_actions))
                }),
            ));
        }
        JoinKind::Goto => {
            // One second-stage table per distinct X value (Fig. 1b).
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); x_order.len()];
            for (k, row) in stage_rows(!s1_per_row) {
                groups[k].push(row);
            }
            for (k, rows) in groups.iter().enumerate() {
                let rows = project(t, &s2_match, &s2_actions, rows.iter().copied());
                let next = t.next.clone();
                stages.push(stage(t, sub_name(k), &s2_match, &s2_actions, next, rows));
            }
        }
    }
    Ok(Plan {
        catalog,
        levels: vec![(s1_actions, s1_match), (s2_actions, s2_source)],
        stages,
    })
}

/// The MVD stage plan: `(X, Y-fields | Y-actions, tag) ≫ (tag, Z-fields |
/// Z-actions)`, the tag naming the packet's `X`-class.
fn plan_mvd(p: &Pipeline, t: &Table, x: &[AttrId], y: &[AttrId]) -> Result<Plan, SplitError> {
    if x.iter().any(|a| !p.catalog.attr(*a).kind.is_matchable()) {
        return Err(SplitError::MvdNeedsFieldX);
    }
    if !mvd_holds(t, x, y) {
        return Err(SplitError::JoinDependencyDoesNotHold);
    }
    let (fy, ay) = by_kind(&p.catalog, y);
    let (fz, az) = by_kind(&p.catalog, &rest(t, &[x, y]));
    let mut catalog = p.catalog.clone();
    let s2_name = fresh_stage(p, t, "_m");
    let meta = fresh_meta(&mut catalog, &format!("{}_x", t.name));
    let tag = fresh_tag_action(&mut catalog, &format!("{}_x", t.name), meta);

    let xid: Vec<Value> = class_ids(t, x).into_iter().map(Value::Int).collect();

    let s1_match: Vec<AttrId> = x.iter().chain(&fy).copied().collect();
    let mut s1_actions = ay.clone();
    s1_actions.push(tag);
    let s1 = stage(
        t,
        t.name.clone(),
        &s1_match,
        &s1_actions,
        Some(s2_name.clone()),
        (0..t.len()).map(|r| {
            let mut a = t.tuple(r, &ay);
            a.push(xid[r].clone());
            (t.tuple(r, &s1_match), a)
        }),
    );
    let mut s2_match = vec![meta];
    s2_match.extend(&fz);
    let s2 = stage(
        t,
        s2_name,
        &s2_match,
        &az,
        t.next.clone(),
        (0..t.len()).map(|r| {
            let mut m = vec![xid[r].clone()];
            m.extend(t.tuple(r, &fz));
            (m, t.tuple(r, &az))
        }),
    );
    Ok(Plan {
        catalog,
        levels: vec![(ay, s1_match), (az, fz)],
        stages: vec![s1, s2],
    })
}

/// The JD stage plan: one stage per component, chained by path tags.
fn plan_jd(p: &Pipeline, t: &Table, components: &[Vec<AttrId>]) -> Result<Plan, SplitError> {
    if !join_dependency_holds(t, components) {
        return Err(SplitError::JoinDependencyDoesNotHold);
    }
    let mut catalog = p.catalog.clone();
    let k = components.len();
    let names = stage_names(p, t, "_c", k);
    let tags: Vec<(AttrId, AttrId)> = (1..k)
        .map(|i| {
            let base = format!("{}_all{i}", t.name);
            let m = fresh_meta(&mut catalog, &base);
            (m, fresh_tag_action(&mut catalog, &base, m))
        })
        .collect();

    // Per-row path-class ids: class[i][row] numbers the row's projection
    // onto the *match fields* of components[0..=i]. This is the systematic
    // version of Fig. 5c's `all` field: the tag identifies the class of
    // everything matched so far, so later stages can disambiguate entries
    // whose own predicates overlap.
    let mut prefix_fields: Vec<AttrId> = Vec::new();
    let class: Vec<Vec<u64>> = components
        .iter()
        .map(|comp| {
            for &a in comp {
                if catalog.attr(a).kind.is_matchable() && !prefix_fields.contains(&a) {
                    prefix_fields.push(a);
                }
            }
            class_ids(t, &prefix_fields)
        })
        .collect();

    // Each action fires at the *earliest* stage whose path class
    // determines it (the member choice waits for the inbound fields; the
    // last class is the full match tuple, which determines everything
    // because the source is 1NF), in source column order.
    let determined_at = |a: AttrId| -> usize {
        (0..k)
            .find(|&i| {
                let mut per_class: HashMap<u64, &Value> = HashMap::new();
                (0..t.len()).all(|row| {
                    *per_class.entry(class[i][row]).or_insert(t.cell(row, a)) == t.cell(row, a)
                })
            })
            .unwrap_or(k - 1)
    };
    let mut stage_actions: Vec<Vec<AttrId>> = vec![Vec::new(); k];
    for &a in &t.action_attrs {
        if components.iter().any(|c| c.contains(&a)) {
            stage_actions[determined_at(a)].push(a);
        }
    }

    let mut levels = Vec::with_capacity(k);
    let mut stages = Vec::with_capacity(k);
    for (i, comp) in components.iter().enumerate() {
        let fields: Vec<AttrId> = by_kind(&catalog, comp).0;
        let mut match_attrs: Vec<AttrId> =
            i.checked_sub(1).map(|j| tags[j].0).into_iter().collect();
        match_attrs.extend(&fields);
        let mut action_attrs = stage_actions[i].clone();
        action_attrs.extend(tags.get(i).map(|tag| tag.1));
        let rows = (0..t.len()).map(|row| {
            let mut m: Vec<Value> = i
                .checked_sub(1)
                .map(|j| Value::Int(class[j][row]))
                .into_iter()
                .collect();
            m.extend(t.tuple(row, &fields));
            let mut a = t.tuple(row, &stage_actions[i]);
            if i + 1 < k {
                a.push(Value::Int(class[i][row]));
            }
            (m, a)
        });
        let next = names.get(i + 1).cloned().or_else(|| t.next.clone());
        stages.push(stage(
            t,
            names[i].clone(),
            &match_attrs,
            &action_attrs,
            next,
            rows,
        ));
        levels.push((stage_actions[i].clone(), fields));
    }
    Ok(Plan {
        catalog,
        levels,
        stages,
    })
}

/// The `∅ → C` plan: constant columns into a one-row table, before or
/// after the remainder.
fn plan_constant(
    p: &Pipeline,
    t: &Table,
    only: Option<&[AttrId]>,
    placement: FactorPlacement,
) -> Result<Plan, SplitError> {
    let consts: Vec<AttrId> = t.constant_columns().into_iter().map(|(a, _)| a).collect();
    let chosen: Vec<AttrId> = match only {
        None => consts,
        Some(ids) => {
            let chosen: Vec<AttrId> = consts.into_iter().filter(|a| ids.contains(a)).collect();
            if chosen.len() != ids.len() {
                return Err(SplitError::NothingToFactor);
            }
            chosen
        }
    };
    if chosen.is_empty() {
        return Err(SplitError::NothingToFactor);
    }
    let (const_match, const_actions) = by_kind(&p.catalog, &chosen);
    let (rem_match, rem_actions) = by_kind(&p.catalog, &rest(t, &[&chosen]));
    if rem_match.is_empty() && !t.match_attrs.is_empty() {
        return Err(SplitError::WouldEraseMatch);
    }
    // Trailing, the constant stage would run after the table forwarded.
    if placement == FactorPlacement::After && !const_match.is_empty() {
        return Err(SplitError::ConstMatchMustLead);
    }

    let const_name = fresh_stage(p, t, "_const");
    let rows = project(t, &const_match, &const_actions, 0..t.len());
    let mut t_const = stage(
        t,
        const_name.clone(),
        &const_match,
        &const_actions,
        None,
        rows,
    );
    let rows = project(t, &rem_match, &rem_actions, 0..t.len());
    let mut rem = stage(t, t.name.clone(), &rem_match, &rem_actions, None, rows);
    let (levels, stages) = match placement {
        FactorPlacement::Before => {
            t_const.next = Some(t.name.clone());
            rem.next = t.next.clone();
            // Whatever enters the table by name (the start, a goto, a
            // `next`) must now hit the constant stage first: it takes the
            // name, and the remainder a fresh one.
            let referenced = p.start == t.name
                || p.tables.iter().any(|tab| {
                    tab.entries.iter().any(|e| {
                        e.actions
                            .iter()
                            .any(|v| matches!(v, Value::Sym(s) if **s == *t.name))
                    }) || tab.next.as_deref() == Some(t.name.as_str())
                });
            if referenced {
                let rest_name = fresh_stage(p, t, "_rest");
                t_const.name = t.name.clone();
                t_const.next = Some(rest_name.clone());
                rem.name = rest_name;
            }
            (
                vec![(const_actions, const_match), (rem_actions, rem_match)],
                vec![t_const, rem],
            )
        }
        FactorPlacement::After => {
            rem.next = Some(const_name);
            t_const.next = t.next.clone();
            t_const.miss = MissPolicy::Drop;
            (
                vec![(rem_actions, rem_match), (const_actions, const_match)],
                vec![rem, t_const],
            )
        }
    };
    Ok(Plan {
        catalog: p.catalog.clone(),
        levels,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{assert_equivalent, Catalog, SizeReport};

    fn fd(x: &[AttrId], y: &[AttrId], join: JoinKind) -> Split {
        Split::Fd {
            x: x.to_vec(),
            y: y.to_vec(),
            join,
        }
    }

    fn run(p: &Pipeline, table: &str, how: &Split) -> Result<Pipeline, SplitError> {
        split(p, table, how, &SplitOpts::default())
    }

    /// Miniature Fig. 1a: src distributes load, dst determines port.
    /// Attrs: src(4b), dst(4b), port(8b) | out.
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
            (Value::prefix(0b0000, 1, 4), 2, 80, "vm3"),
            (Value::prefix(0b1000, 2, 4), 2, 80, "vm4"),
            (Value::prefix(0b1100, 2, 4), 2, 80, "vm5"),
            (Value::Any, 3, 22, "vm6"),
        ];
        for (s, d, pt, o) in rows {
            t.row(vec![s, Value::Int(d), Value::Int(pt)], vec![Value::sym(o)]);
        }
        (Pipeline::single(c, t), vec![src, dst, port, out])
    }

    #[test]
    fn shape_a_metadata_join_equivalent() {
        let (p, ids) = mini_gw();
        let q = run(&p, "t0", &fd(&[ids[1]], &[ids[2]], JoinKind::Metadata)).unwrap();
        assert_eq!(q.tables.len(), 2);
        // Stage 1: (dst, port | A_t0); 3 distinct dst values.
        assert_eq!(q.tables[0].len(), 3);
        assert_eq!(q.tables[0].match_attrs.len(), 2);
        // Stage 2: (M_t0, src | out); one row per original row.
        assert_eq!(q.tables[1].len(), 6);
        assert_equivalent(&p, &q);
    }

    #[test]
    fn shape_a_goto_join_equivalent_and_shaped_like_fig1b() {
        let (p, ids) = mini_gw();
        let q = run(&p, "t0", &fd(&[ids[1]], &[ids[2]], JoinKind::Goto)).unwrap();
        // T0 + one per-tenant table per distinct dst.
        assert_eq!(q.tables.len(), 4);
        assert_eq!(q.tables[0].len(), 3);
        assert_eq!(q.tables[1].len(), 2); // dst=1: vm1/vm2
        assert_eq!(q.tables[2].len(), 3); // dst=2: vm3/vm4/vm5
        assert_eq!(q.tables[3].len(), 1); // dst=3: vm6
        assert_equivalent(&p, &q);
        // Fig. 1 field-count arithmetic: universal 6×4 = 24; goto form
        // 3×3 + (2+3+1)×2 = 21.
        assert_eq!(p.field_count(), 24);
        assert_eq!(q.field_count(), 21);
    }

    #[test]
    fn shape_a_rematch_join_equivalent() {
        let (p, ids) = mini_gw();
        let q = run(&p, "t0", &fd(&[ids[1]], &[ids[2]], JoinKind::Rematch)).unwrap();
        assert_eq!(q.tables.len(), 2);
        // Second stage rematches dst: (dst, src | out).
        assert!(q.tables[1].match_attrs.contains(&ids[1]));
        assert_equivalent(&p, &q);
    }

    /// Fig. 2a miniature: dst | ttl-dec(opaque), smac(set), dmac(set), out.
    fn mini_l3() -> (Pipeline, Vec<AttrId>) {
        let mut c = Catalog::new();
        let dst = c.field("dst", 4);
        let smac_f = c.field("eth_src", 8);
        let dmac_f = c.field("eth_dst", 8);
        let ttl = c.action("mod_ttl", ActionSem::Opaque);
        let smac = c.action("mod_smac", ActionSem::SetField(smac_f));
        let dmac = c.action("mod_dmac", ActionSem::SetField(dmac_f));
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("l3", vec![dst], vec![ttl, smac, dmac, out]);
        // Prefixes P1..P4 → next hops D1, D2, D3, D1 (D1 repeated, Fig. 2).
        let rows: [(u64, u64, u64, &str); 4] = [
            (1, 10, 101, "p1"),
            (2, 10, 102, "p1"),
            (3, 20, 103, "p2"),
            (4, 10, 101, "p1"),
        ];
        for (d, sm, dm, o) in rows {
            t.row(
                vec![Value::Int(d)],
                vec![
                    Value::sym("dec"),
                    Value::Int(sm),
                    Value::Int(dm),
                    Value::sym(o),
                ],
            );
        }
        (
            Pipeline::single(c, t),
            vec![dst, smac_f, dmac_f, ttl, smac, dmac, out],
        )
    }

    #[test]
    fn shape_b_action_determinant_like_fig2b() {
        let (p, ids) = mini_l3();
        // mod_dmac → (mod_ttl, mod_smac, out): X an action, Y actions.
        let how = fd(&[ids[5]], &[ids[3], ids[4], ids[6]], JoinKind::Metadata);
        let opts = SplitOpts {
            verify: true,
            ..Default::default()
        };
        let q = split(&p, "l3", &how, &opts).unwrap();
        assert_eq!(q.tables.len(), 2);
        // Stage 1: (dst | A_l3) per row; stage 2: (M | dmac, ttl, smac, out)
        // per distinct dmac (3 next-hops) — the group-table abstraction.
        assert_eq!(q.tables[0].len(), 4);
        assert_eq!(q.tables[1].len(), 3);
        assert_eq!(q.tables[1].action_attrs.len(), 4);
        assert_equivalent(&p, &q);
    }

    #[test]
    fn shape_b_goto_join() {
        let (p, ids) = mini_l3();
        let how = fd(&[ids[5]], &[ids[3], ids[4], ids[6]], JoinKind::Goto);
        let q = run(&p, "l3", &how).unwrap();
        // stage1 + 3 per-group tables, each with one row and no match.
        assert_eq!(q.tables.len(), 4);
        assert!(q.tables[1].match_attrs.is_empty());
        assert_eq!(q.tables[1].len(), 1);
        assert_equivalent(&p, &q);
    }

    #[test]
    fn rematch_rejected_for_action_x() {
        let (p, ids) = mini_l3();
        let how = fd(&[ids[5]], &[ids[3], ids[4], ids[6]], JoinKind::Rematch);
        assert_eq!(run(&p, "l3", &how), Err(SplitError::RematchNeedsFieldX));
    }

    /// Fig. 3: (in_port, vlan | out) with out → vlan.
    fn fig3() -> (Pipeline, Vec<AttrId>) {
        let mut c = Catalog::new();
        let in_port = c.field("in_port", 8);
        let vlan = c.field("vlan", 12);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![in_port, vlan], vec![out]);
        for (ip, vl, o) in [(1u64, 1u64, "1"), (1, 2, "2"), (2, 1, "1"), (3, 1, "3")] {
            t.row(vec![Value::Int(ip), Value::Int(vl)], vec![Value::sym(o)]);
        }
        (Pipeline::single(c, t), vec![in_port, vlan, out])
    }

    #[test]
    fn fig3_action_to_match_dependency_rejected() {
        let (p, ids) = fig3();
        // out → vlan holds in the instance but the split must fail 1NF.
        let err = run(&p, "t0", &fd(&[ids[2]], &[ids[1]], JoinKind::Metadata)).unwrap_err();
        match err {
            SplitError::StageNot1NF { stage, .. } => assert_eq!(stage, "t0"),
            e => panic!("expected StageNot1NF, got {e:?}"),
        }
    }

    #[test]
    fn fig3_allowed_when_requested_but_inequivalent() {
        let (p, ids) = fig3();
        let opts = SplitOpts {
            allow_non_1nf: true,
            ..Default::default()
        };
        let how = fd(&[ids[2]], &[ids[1]], JoinKind::Metadata);
        let q = split(&p, "t0", &how, &opts).unwrap();
        // The broken pipeline really is broken: equivalence fails.
        let r = check_equivalent(&p, &q, &EquivConfig::default()).unwrap();
        assert!(!r.is_equivalent());
    }

    #[test]
    fn fd_violation_rejected() {
        let (p, ids) = mini_gw();
        // dst → out does not hold: dst=1 maps to vm1 and vm2.
        let err = run(&p, "t0", &fd(&[ids[1]], &[ids[3]], JoinKind::Metadata));
        assert!(matches!(err, Err(SplitError::FdDoesNotHold { .. })));
    }

    #[test]
    fn bad_sides_rejected() {
        let (p, ids) = mini_gw();
        for how in [
            fd(&[ids[1]], &[], JoinKind::Metadata),
            fd(&[ids[1]], &[ids[1]], JoinKind::Metadata),
            Split::Mvd {
                x: vec![ids[1]],
                y: vec![],
            },
            Split::Mvd {
                x: vec![ids[1]],
                y: vec![ids[1], ids[2]],
            },
        ] {
            assert_eq!(run(&p, "t0", &how), Err(SplitError::BadSides), "{how:?}");
        }
        assert!(matches!(
            run(&p, "zzz", &fd(&[ids[1]], &[ids[2]], JoinKind::Metadata)),
            Err(SplitError::TableNotFound(_))
        ));
    }

    #[test]
    fn source_not_1nf_rejected() {
        let (mut p, ids) = mini_gw();
        let t = p.table_mut("t0").unwrap();
        let dup = t.entries[0].matches.clone();
        t.entries[1].matches = dup;
        for how in [
            fd(&[ids[1]], &[ids[2]], JoinKind::Metadata),
            Split::Jd(vec![ids.clone()]),
            Split::Constant {
                only: None,
                placement: FactorPlacement::Before,
            },
        ] {
            assert_eq!(run(&p, "t0", &how), Err(SplitError::SourceNot1NF));
        }
    }

    #[test]
    fn verify_mode_passes_on_sound_decomposition() {
        let (p, ids) = mini_gw();
        let opts = SplitOpts {
            verify: true,
            ..Default::default()
        };
        let how = fd(&[ids[1]], &[ids[2]], JoinKind::Goto);
        assert!(split(&p, "t0", &how, &opts).is_ok());
    }

    #[test]
    fn decomposition_in_mid_pipeline_preserves_goto_references() {
        // front --goto--> t0; splitting t0 must keep the name alive.
        let (p, ids) = mini_gw();
        let mut c = p.catalog.clone();
        let front_goto = c.action("fgoto", ActionSem::Goto);
        let mut front = Table::new("front", vec![ids[1]], vec![front_goto]);
        for d in [1u64, 2, 3] {
            front.row(vec![Value::Int(d)], vec![Value::sym("t0")]);
        }
        let mut tables = vec![front];
        tables.extend(p.tables.iter().cloned());
        let p2 = Pipeline::new(c, tables, "front");
        let q = run(&p2, "t0", &fd(&[ids[1]], &[ids[2]], JoinKind::Metadata)).unwrap();
        assert_equivalent(&p2, &q);
        assert_eq!(q.tables[1].name, "t0");
    }

    /// A small SDX-flavoured table over (dst, dport, src | member, fwd):
    /// the outbound policy selects the egress *member* (an opaque action
    /// annotation, the `N`/`M` columns of Fig. 5), and the inbound policy
    /// balances that member's routers by source prefix. The 3-way split
    /// through the shared `member` column is a join dependency.
    /// ids: [dst, dport, src, member, fwd]
    fn sdx_like() -> (Pipeline, Vec<AttrId>) {
        let mut c = Catalog::new();
        let dst = c.field("dst", 4);
        let dport = c.field("dport", 8);
        let src = c.field("src", 4);
        let member = c.action("member", ActionSem::Opaque);
        let fwd = c.action("fwd", ActionSem::Output);
        let mut t = Table::new("sdx", vec![dst, dport, src], vec![member, fwd]);
        // dst=1: HTTP (80) → member C, balanced across C1/C2 by src;
        //        other ports → D. dst=2: only D announces.
        let rows: [(u64, u64, Value, &str, &str); 5] = [
            (1, 80, Value::prefix(0b0000, 1, 4), "C", "c1"),
            (1, 80, Value::prefix(0b1000, 1, 4), "C", "c2"),
            (1, 22, Value::Any, "D", "d"),
            (2, 80, Value::Any, "D", "d"),
            (2, 22, Value::Any, "D", "d"),
        ];
        for (d, pt, s, m, o) in rows {
            t.row(
                vec![Value::Int(d), Value::Int(pt), s],
                vec![Value::sym(m), Value::sym(o)],
            );
        }
        (Pipeline::single(c, t), vec![dst, dport, src, member, fwd])
    }

    #[test]
    fn tagged_jd_decomposition_is_equivalent() {
        let (p, ids) = sdx_like();
        // outbound: (dst, dport, member); inbound: (member, src, fwd).
        let comps = vec![vec![ids[0], ids[1], ids[3]], vec![ids[3], ids[2], ids[4]]];
        let q = run(&p, "sdx", &Split::Jd(comps)).unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_equivalent(&p, &q);
    }

    #[test]
    fn three_way_tagged_jd() {
        let (p, ids) = sdx_like();
        // announcement: (dst, member); outbound: (dst, dport, member);
        // inbound: (member, src, fwd). Lossless through `member`.
        let comps = vec![
            vec![ids[0], ids[3]],
            vec![ids[0], ids[1], ids[3]],
            vec![ids[3], ids[2], ids[4]],
        ];
        let q = run(&p, "sdx", &Split::Jd(comps)).expect("3-way SDX split should be lossless");
        assert_eq!(q.tables.len(), 3);
        assert_equivalent(&p, &q);
    }

    #[test]
    fn two_way_jd_via_shared_fields() {
        // Components overlapping on (dst, member): the FD (dst,dport) →
        // member makes this binary JD hold; the tagged split must then be
        // equivalent.
        let (p, ids) = sdx_like();
        let comps = vec![
            vec![ids[0], ids[1], ids[3]],
            vec![ids[0], ids[3], ids[2], ids[4]],
        ];
        let q = run(&p, "sdx", &Split::Jd(comps)).expect("JD holds via shared columns");
        assert_equivalent(&p, &q);
    }

    #[test]
    fn naive_chain_is_order_dependent_and_wrong() {
        let (p, ids) = sdx_like();
        let comps = vec![vec![ids[0], ids[1], ids[3]], vec![ids[3], ids[2], ids[4]]];
        let naive = chain_components_naive(&p, "sdx", &comps).unwrap();
        // The inbound stage has overlapping rows (src 0*→c1 vs *→d shapes).
        let last = naive.tables.last().unwrap();
        assert!(
            !last.order_independence(&naive.catalog).is_empty(),
            "naive inbound stage should be order-dependent"
        );
        // And the pipeline misroutes some packet.
        let r = check_equivalent(&p, &naive, &EquivConfig::default()).unwrap();
        assert!(!r.is_equivalent(), "naive chain should be incorrect");
    }

    #[test]
    fn lossy_split_rejected() {
        let (p, ids) = sdx_like();
        // {dst, member} + {dport, src, fwd}: no linkage through which to
        // rejoin, so the join manufactures spurious tuples.
        let comps = vec![vec![ids[0], ids[3]], vec![ids[1], ids[2], ids[4]]];
        assert_eq!(
            run(&p, "sdx", &Split::Jd(comps)),
            Err(SplitError::JoinDependencyDoesNotHold)
        );
    }

    /// Hostile component lists are refused by the one argument check, by
    /// the tagged and the naive chain alike, never by a panic.
    #[test]
    fn coverage_checked() {
        let (p, ids) = sdx_like();
        let stranger = AttrId(99); // not a column of the table
        assert_eq!(
            run(&p, "sdx", &Split::Jd(vec![vec![ids[0]]])),
            Err(SplitError::ComponentsDontCover)
        );
        assert_eq!(
            run(&p, "sdx", &Split::Jd(vec![])),
            Err(SplitError::ComponentsDontCover)
        );
        let mut comps = vec![ids.clone()];
        comps[0].push(stranger);
        assert_eq!(
            run(&p, "sdx", &Split::Jd(comps.clone())),
            Err(SplitError::AttrNotInTable(stranger))
        );
        assert_eq!(
            chain_components_naive(&p, "sdx", &comps),
            Err(SplitError::AttrNotInTable(stranger))
        );
        let mvd = Split::Mvd {
            x: vec![ids[0]],
            y: vec![stranger],
        };
        assert_eq!(
            run(&p, "sdx", &mvd),
            Err(SplitError::AttrNotInTable(stranger))
        );
    }

    #[test]
    fn unknown_table_rejected() {
        let (p, ids) = sdx_like();
        assert!(matches!(
            run(&p, "zzz", &Split::Jd(vec![vec![ids[0]]])),
            Err(SplitError::TableNotFound(_))
        ));
    }

    /// Refusals from the shared action-split check carry their own
    /// variant whatever the licence.
    #[test]
    fn order_sensitive_mvd_split_is_named() {
        // (k | first, second): both outputs; k is a key, so k ↠ second
        // holds, but moving `second` into stage 1 fires it before `first`.
        let mut c = Catalog::new();
        let k = c.field("k", 8);
        let first = c.action("first", ActionSem::Output);
        let second = c.action("second", ActionSem::Output);
        let mut t = Table::new("t", vec![k], vec![first, second]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a"), Value::sym("b")]);
        t.row(vec![Value::Int(2)], vec![Value::sym("c"), Value::sym("d")]);
        let p = Pipeline::single(c, t);
        let mvd = Split::Mvd {
            x: vec![k],
            y: vec![second],
        };
        assert_eq!(
            run(&p, "t", &mvd),
            Err(SplitError::OrderSensitiveActionSplit {
                first: "first".into(),
                second: "second".into(),
            })
        );
        let only_fields = Split::Mvd {
            x: vec![first],
            y: vec![k],
        };
        assert_eq!(run(&p, "t", &only_fields), Err(SplitError::MvdNeedsFieldX));
    }

    /// A goto that fires before the last stage skips the stages after it;
    /// whatever the licence, the split is refused.
    #[test]
    fn early_gotos_are_refused_for_every_licence() {
        let mut c = Catalog::new();
        let a = c.field("a", 8);
        let b = c.field("b", 8);
        let jump = c.action("jump", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let ttl = c.action("ttl", ActionSem::Opaque);
        let mut t = Table::new("t", vec![a, b], vec![jump, out, ttl]);
        for (va, vb, o) in [(1u64, 1u64, "p1"), (1, 2, "p2"), (2, 1, "p3")] {
            t.row(
                vec![Value::Int(va), Value::Int(vb)],
                vec![Value::sym("w"), Value::sym(o), Value::sym("dec")],
            );
        }
        let mut w = Table::new("w", vec![a], vec![]);
        w.row(vec![Value::Any], vec![]);
        let v = Table::new("v", vec![a], vec![]);
        let p = Pipeline::new(c, vec![t, w, v], "t");
        for how in [
            // `jump` is determined by the first component's class.
            Split::Jd(vec![vec![a, jump], vec![a, b, out, ttl]]),
            Split::Mvd {
                x: vec![a],
                y: vec![b, jump, out],
            },
            constant(Some(&[jump]), FactorPlacement::Before),
        ] {
            assert_eq!(
                run(&p, "t", &how),
                Err(SplitError::GotoNotInLastStage),
                "{how:?}"
            );
        }
        // Trailing `ttl`: the remainder's per-entry jumps would skip it.
        let mut varied = p.clone();
        varied.tables[0].entries[2].actions[0] = Value::sym("v");
        assert_eq!(
            run(&varied, "t", &constant(None, FactorPlacement::After)),
            Err(SplitError::GotoNotInLastStage)
        );
    }

    #[test]
    fn mvd_splits_course_style_table() {
        // (course, teacher, book): teachers × books per course — the
        // classic 4NF violation; no FD implies the split.
        let mut c = Catalog::new();
        let course = c.field("course", 8);
        let teacher = c.field("teacher", 8);
        let book = c.field("book", 8);
        let mut t = Table::new("ctb", vec![course, teacher, book], vec![]);
        // Course 1: 3 teachers × 3 books (a dense cross product — where
        // 4NF actually pays for its tag columns); course 2: single row.
        for tv in 1u64..=3 {
            for bv in [10u64, 20, 30] {
                t.row(vec![Value::Int(1), Value::Int(tv), Value::Int(bv)], vec![]);
            }
        }
        t.row(vec![Value::Int(2), Value::Int(9), Value::Int(90)], vec![]);
        let p = Pipeline::single(c, t);
        let mvd = Split::Mvd {
            x: vec![course],
            y: vec![teacher],
        };
        let q = run(&p, "ctb", &mvd).unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_equivalent(&p, &q);
        // The split deduplicates: (course, teacher | tag) 4 rows × 3 +
        // (tag, book) 4 rows × 2 = 20 < 10 original rows × 3.
        let before = SizeReport::of(&p).fields();
        let after = SizeReport::of(&q).fields();
        assert!(after < before, "{after} !< {before}");
        // Without the cross product the MVD fails and the split is lossy.
        let mut lossy = p.clone();
        lossy.table_mut("ctb").unwrap().entries.remove(0);
        assert_eq!(
            run(&lossy, "ctb", &mvd),
            Err(SplitError::JoinDependencyDoesNotHold)
        );
    }

    /// Fig. 2a miniature with constant eth_type and mod_ttl.
    fn l3_with_constants() -> Pipeline {
        let mut c = Catalog::new();
        let ety = c.field("eth_type", 16);
        let dst = c.field("dst", 8);
        let ttl = c.action("mod_ttl", ActionSem::Opaque);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("l3", vec![ety, dst], vec![ttl, out]);
        for (d, o) in [(1u64, "p1"), (2, "p2"), (3, "p1")] {
            t.row(
                vec![Value::Int(0x800), Value::Int(d)],
                vec![Value::sym("dec"), Value::sym(o)],
            );
        }
        Pipeline::single(c, t)
    }

    fn constant(only: Option<&[AttrId]>, placement: FactorPlacement) -> Split {
        Split::Constant {
            only: only.map(<[AttrId]>::to_vec),
            placement,
        }
    }

    #[test]
    fn factor_before_like_fig2c() {
        let p = l3_with_constants();
        let q = run(&p, "l3", &constant(None, FactorPlacement::Before)).unwrap();
        assert_eq!(q.tables.len(), 2);
        // Constant stage: (eth_type | mod_ttl), one row; remainder (dst | out).
        assert_eq!(q.tables[0].len(), 1);
        assert_eq!(q.tables[0].match_attrs.len(), 1);
        assert_eq!(q.tables[0].action_attrs.len(), 1);
        assert_eq!(q.tables[1].len(), 3);
        assert_equivalent(&p, &q);
    }

    #[test]
    fn factor_after_commutes() {
        let p = l3_with_constants();
        // Only the constant *action* may trail.
        let ttl = p.catalog.lookup("mod_ttl").unwrap();
        let q = run(&p, "l3", &constant(Some(&[ttl]), FactorPlacement::After)).unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.tables[1].name, "l3_const");
        assert_equivalent(&p, &q);
    }

    #[test]
    fn after_placement_with_const_match_rejected() {
        let p = l3_with_constants();
        let ety = p.catalog.lookup("eth_type").unwrap();
        assert_eq!(
            run(&p, "l3", &constant(Some(&[ety]), FactorPlacement::After)),
            Err(SplitError::ConstMatchMustLead)
        );
    }

    #[test]
    fn nothing_to_factor() {
        let p = l3_with_constants();
        let dst = p.catalog.lookup("dst").unwrap();
        assert_eq!(
            run(&p, "l3", &constant(Some(&[dst]), FactorPlacement::Before)),
            Err(SplitError::NothingToFactor)
        );
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let mut t = Table::new("t", vec![f], vec![]);
        t.row(vec![Value::Int(1)], vec![]);
        t.row(vec![Value::Int(2)], vec![]);
        let p = Pipeline::single(c, t);
        assert_eq!(
            run(&p, "t", &constant(None, FactorPlacement::Before)),
            Err(SplitError::NothingToFactor)
        );
    }

    #[test]
    fn refuses_erasing_all_match_columns() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(7)], vec![Value::sym("a")]); // f constant
        let p = Pipeline::single(c, t);
        // f is the only match column; factoring it would leave rest matchless.
        assert_eq!(
            run(&p, "t", &constant(Some(&[f]), FactorPlacement::Before)),
            Err(SplitError::WouldEraseMatch)
        );
    }

    #[test]
    fn goto_referenced_table_keeps_entry_name() {
        let p0 = l3_with_constants();
        let mut c = p0.catalog.clone();
        let g = c.action("jump", ActionSem::Goto);
        let dst = c.lookup("dst").unwrap();
        let mut front = Table::new("front", vec![dst], vec![g]);
        front.row(vec![Value::Any], vec![Value::sym("l3")]);
        let mut tables = vec![front];
        tables.extend(p0.tables.iter().cloned());
        let p = Pipeline::new(c, tables, "front");
        let q = run(&p, "l3", &constant(None, FactorPlacement::Before)).unwrap();
        // goto "l3" must now hit the const stage first.
        assert_equivalent(&p, &q);
        assert_eq!(q.tables[1].name, "l3");
        assert_eq!(q.tables[1].next.as_deref(), Some("l3_rest"));
    }
}
