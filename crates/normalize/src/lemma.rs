//! Heath's lemma, checked on the rows: what [`split`](crate::split())'s
//! `verify` hook proves about one step before it falls back to a
//! whole-program diagram check.
//!
//! Theorem 1 says a 1NF table `T` is the lossless join of its projections
//! when a dependency licenses the split. [`heath_lemma`] checks that join
//! on the instance. It builds a pipeline of the stages alone, in which
//! every way out of them (`T`'s `next`, the targets of `T`'s gotos) is a
//! shared one-row terminal that labels the exit. It flattens that
//! pipeline with [`flatten`](crate::flatten()) and compares the rows
//! with `T`'s, as sets keyed by attribute, `T`'s jump read as the same
//! exit label. Two 1NF row sets that are equal match the same packets,
//! apply the same actions and continue at the same table, whatever their
//! order. So when the rows
//! agree, `T` ≡ its stages in every context, and the program with `T`
//! replaced is equivalent to the program, with no diagram built.
//!
//! The lemma checks its own premises; it relies on nothing
//! [`split`](crate::split()) checked before it:
//! - `T` and every stage drop on a miss (what
//!   [`flatten`](crate::flatten()) handles);
//! - the first stage carries `T`'s name, the others names no table of the
//!   program has, and the stages' catalog extends the program's;
//! - `T` and every stage are 1NF: no packet matches two rows. A stage
//!   that is not flattens to rows its priorities shadow: Fig. 3's split
//!   under `allow_non_1nf` flattens to `T`'s own rows, yet misroutes;
//! - every way out of the stages is `T`'s `next` or one of its goto
//!   targets, and the stages do not loop;
//! - along every path through the stages no action fires twice, and two
//!   actions that write the same thing (two outputs, two writes of one
//!   field) fire in `T`'s column order: rows keyed by attribute cannot
//!   see order;
//! - a metadata field the split introduced is read only after an earlier
//!   stage on the path wrote it in every row. Metadata the program had
//!   before is read like a header field, whatever ran before `T` set it.
//!
//! Where a premise fails, or [`flatten`](crate::flatten()) refuses, the
//! lemma reports why ([`Fallback`]) and the hook runs the whole-program
//! check instead.

use crate::flatten::{flatten_tables, RowHash};
use crate::join::fresh_name;
use crate::split::{writes_collide, SplitError};
use mapro_core::{
    ActionSem, AttrId, AttrKind, Catalog, EquivConfig, EquivOutcome, MissPolicy, Pipeline, Table,
    Value,
};
use mapro_sym::check_equivalent;
use std::collections::{HashMap, HashSet};

/// What Heath's lemma concluded about one split step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lemma {
    /// The stages flatten to exactly `T`'s rows: the step is equivalent.
    Holds,
    /// The premises hold but the stages flatten to other rows.
    Refuted,
    /// A premise failed or [`flatten`](crate::flatten()) refused: the
    /// lemma says nothing.
    Fallback(Fallback),
}

/// Why [`heath_lemma`] did not apply (module docs list the premises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// `T` or a stage does not drop on a miss.
    MissPolicy,
    /// The first stage is not named `T`, another stage's name is taken or
    /// repeated, or the stages' catalog does not extend the program's.
    Naming,
    /// `T` is not 1NF.
    SourceNot1NF,
    /// A stage is not 1NF.
    StageNot1NF,
    /// A stage continues where `T` cannot, or the stages loop.
    Exits,
    /// On some path an action fires twice, or two colliding actions fire
    /// out of `T`'s column order.
    ActionOrder,
    /// On some path a stage reads metadata the split introduced before an
    /// earlier stage wrote it.
    Metadata,
    /// [`flatten`](crate::flatten()) refused the stages.
    Flatten,
}

impl Fallback {
    /// Every cause, in the order the premises are checked.
    pub(crate) const ALL: [Fallback; 8] = [
        Fallback::MissPolicy,
        Fallback::Naming,
        Fallback::SourceNot1NF,
        Fallback::StageNot1NF,
        Fallback::Exits,
        Fallback::ActionOrder,
        Fallback::Metadata,
        Fallback::Flatten,
    ];

    /// The cause's name, as in `normalize.verify.fallback.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            Fallback::MissPolicy => "miss_policy",
            Fallback::Naming => "naming",
            Fallback::SourceNot1NF => "source_not_1nf",
            Fallback::StageNot1NF => "stage_not_1nf",
            Fallback::Exits => "exits",
            Fallback::ActionOrder => "action_order",
            Fallback::Metadata => "metadata",
            Fallback::Flatten => "flatten",
        }
    }
}

/// Does splitting `table` of `p` into `stages` (over `catalog`, `p`'s
/// catalog plus the split's plumbing) preserve `p`'s semantics? The
/// stages stand in `p` where the table stood; see the module docs.
pub fn heath_lemma(p: &Pipeline, table: &str, catalog: &Catalog, stages: &[Table]) -> Lemma {
    match rows_agree(p, table, catalog, stages) {
        Ok(true) => Lemma::Holds,
        Ok(false) => Lemma::Refuted,
        Err(cause) => Lemma::Fallback(cause),
    }
}

/// The lemma's premises, then its row comparison.
fn rows_agree(
    p: &Pipeline,
    table: &str,
    catalog: &Catalog,
    stages: &[Table],
) -> Result<bool, Fallback> {
    let Some(t) = p.table(table) else {
        return Err(Fallback::Naming);
    };
    if t.miss != MissPolicy::Drop || stages.iter().any(|s| s.miss != MissPolicy::Drop) {
        return Err(Fallback::MissPolicy);
    }
    if !named_apart(p, t, catalog, stages) {
        return Err(Fallback::Naming);
    }
    // Order independence is the half of 1NF the semantics needs: rows
    // with one match tuple overlap, unless they match nothing at all.
    let is_1nf = |s: &Table, c: &Catalog| s.order_independence(c).is_empty();
    if !is_1nf(t, &p.catalog) {
        return Err(Fallback::SourceNot1NF);
    }
    if !stages.iter().all(|s| is_1nf(s, catalog)) {
        return Err(Fallback::StageNot1NF);
    }
    let mut walk = Walk::new(p, t, catalog, stages)?;
    walk.visit(0)?;

    // The stages alone, each exit a terminal that labels it.
    let (sub, exit) = sub_catalog(p.catalog.len(), catalog);
    let ends: Vec<Table> = walk
        .exits
        .iter()
        .map(|&name| {
            let mut end = Table::new(name, vec![], vec![exit]);
            end.row(vec![], vec![Value::sym(name)]);
            end
        })
        .collect();
    let tables: Vec<&Table> = stages.iter().chain(&ends).collect();
    let flat = flatten_tables(&sub, &tables, &t.name, &t.name).map_err(|_| Fallback::Flatten)?;
    Ok(same_rows(&p.catalog, t, &sub, &flat, exit))
}

/// The first stage carries `T`'s name and the others names `p` does not
/// use, once each; `catalog` extends `p`'s and holds every stage column.
fn named_apart(p: &Pipeline, t: &Table, catalog: &Catalog, stages: &[Table]) -> bool {
    let extends = catalog.len() >= p.catalog.len()
        && p.catalog.iter().zip(catalog.iter()).all(|(a, b)| a == b);
    let mut names = HashSet::new();
    extends
        && stages.first().is_some_and(|s| s.name == t.name)
        && p.tables.iter().filter(|u| u.name == t.name).count() == 1
        && stages[1..]
            .iter()
            .all(|s| p.table(&s.name).is_none() && names.insert(s.name.as_str()))
        && stages
            .iter()
            .all(|s| s.attrs().iter().all(|a| a.index() < catalog.len()))
}

/// Where row `row` of `t` continues: its last symbolic goto cell, else
/// `next` (`None`: processing ends).
fn exit_of<'a>(catalog: &Catalog, t: &'a Table, row: usize) -> Option<&'a str> {
    let jump = t
        .action_attrs
        .iter()
        .zip(&t.entries[row].actions)
        .filter(|(&a, _)| matches!(catalog.attr(a).kind, AttrKind::Action(ActionSem::Goto)))
        .filter_map(|(_, v)| match v {
            Value::Sym(s) => Some(&**s),
            _ => None,
        })
        .next_back();
    jump.or(t.next.as_deref())
}

/// A row's match: its constrained cells in canonical ternary form
/// (equal forms denote equal packet sets), ordered by attribute.
type MatchKey = Vec<(AttrId, u64, u64)>;

/// Fill `key` with row `row`'s match; false for a row that matches
/// nothing (a symbolic match cell).
fn match_key(catalog: &Catalog, t: &Table, row: usize, key: &mut MatchKey) -> bool {
    key.clear();
    for (&a, v) in t.match_attrs.iter().zip(&t.entries[row].matches) {
        let Some((bits, mask)) = v.as_ternary(catalog.attr(a).width) else {
            return false;
        };
        if mask != 0 {
            key.push((a, bits, mask));
        }
    }
    key.sort_unstable();
    true
}

/// Are `flat`'s rows (over `sub`, whose `exit` column labels exits)
/// exactly `t`'s, as sets keyed by attribute? Each flat row must find the
/// row of `t` with its match, once, and agree with it on where it
/// continues and on every action a packet can observe: a cell that a
/// later column of `t` overwrites (an output, a write of the same field)
/// is not observed. `t`'s rows that match something must all be found.
fn same_rows(catalog: &Catalog, t: &Table, sub: &Catalog, flat: &Table, exit: AttrId) -> bool {
    let mut key = MatchKey::new();
    let mut by_match: HashMap<MatchKey, usize, RowHash> =
        HashMap::with_capacity_and_hasher(t.len(), RowHash::default());
    for r in 0..t.len() {
        if match_key(catalog, t, r, &mut key) {
            by_match.insert(key.clone(), r);
        }
    }
    if by_match.len() != flat.len() {
        return false;
    }
    let cols = &t.action_attrs;
    let goto = |c: usize| {
        matches!(
            catalog.attr(cols[c]).kind,
            AttrKind::Action(ActionSem::Goto)
        )
    };
    // Where `t` keeps each flat action column, and which later columns of
    // `t` overwrite each one.
    let column: Vec<Option<usize>> = flat
        .action_attrs
        .iter()
        .map(|&a| cols.iter().position(|&b| b == a))
        .collect();
    let overwriters: Vec<Vec<usize>> = (0..cols.len())
        .map(|c| {
            let later = c + 1..cols.len();
            later
                .filter(|&d| writes_collide(catalog, cols[c], cols[d]))
                .collect()
        })
        .collect();
    let observed = |cells: &mut Vec<&Value>| {
        for c in 0..cells.len() {
            if goto(c) || overwriters[c].iter().any(|&d| *cells[d] != Value::Any) {
                cells[c] = &Value::Any;
            }
        }
    };
    let labelled = flat.action_attrs.contains(&exit);
    let mut found = vec![false; t.len()];
    let (mut got, mut want): (Vec<&Value>, Vec<&Value>) = (Vec::new(), Vec::new());
    for r in 0..flat.len() {
        if !match_key(sub, flat, r, &mut key) {
            return false;
        }
        let Some(&s) = by_match.get(key.as_slice()) else {
            return false;
        };
        if std::mem::replace(&mut found[s], true) {
            return false;
        }
        let to = exit_of(catalog, t, s);
        if !labelled && to.is_some() {
            return false;
        }
        got.clear();
        got.resize(cols.len(), &Value::Any);
        for (j, cell) in flat.entries[r].actions.iter().enumerate() {
            match column[j] {
                Some(c) => got[c] = cell,
                None if flat.action_attrs[j] == exit => {
                    let same = match (cell, to) {
                        (Value::Any, None) => true,
                        (Value::Sym(x), Some(y)) => **x == *y,
                        _ => false,
                    };
                    if !same {
                        return false;
                    }
                }
                None if *cell != Value::Any => return false,
                None => {}
            }
        }
        want.clear();
        want.extend(&t.entries[s].actions);
        observed(&mut got);
        observed(&mut want);
        if got != want {
            return false;
        }
    }
    true
}

/// `catalog` with the metadata `p` already had (the first `known` ids)
/// turned into header fields, whose value on entry to `T` is free, plus
/// an opaque action that labels exits.
fn sub_catalog(known: usize, catalog: &Catalog) -> (Catalog, AttrId) {
    let mut sub = Catalog::new();
    for (id, a) in catalog.iter() {
        let kind = match a.kind {
            AttrKind::Meta if id.index() < known => AttrKind::Field,
            ref k => k.clone(),
        };
        sub.add(a.name.clone(), kind, a.width);
    }
    let exit = sub.action(fresh_name(catalog, "exit"), ActionSem::Opaque);
    (sub, exit)
}

/// Every path through the stages, checked for the exit, action-order and
/// metadata premises.
struct Walk<'a> {
    t: &'a Table,
    catalog: &'a Catalog,
    stages: &'a [Table],
    /// Ids from here on are the split's own.
    known: usize,
    /// Per stage, the stages its rows continue at.
    succ: Vec<Vec<usize>>,
    /// The exits the stages take, each one of `T`'s continuations.
    exits: Vec<&'a str>,
    /// The current path, its actions in firing order (jumps aside) and
    /// the split's metadata its stages wrote in every row.
    path: Vec<usize>,
    fired: Vec<AttrId>,
    written: Vec<AttrId>,
    /// Stage visits left: a bound on the number of paths.
    budget: usize,
}

impl<'a> Walk<'a> {
    fn new(
        p: &Pipeline,
        t: &'a Table,
        catalog: &'a Catalog,
        stages: &'a [Table],
    ) -> Result<Self, Fallback> {
        let continues: HashSet<Option<&str>> = (0..t.len())
            .map(|r| exit_of(&p.catalog, t, r))
            .chain([t.next.as_deref()])
            .collect();
        let mut succ = vec![Vec::new(); stages.len()];
        let mut exits = Vec::new();
        for (i, s) in stages.iter().enumerate() {
            for r in 0..s.len() {
                let Some(to) = exit_of(catalog, s, r) else {
                    continue;
                };
                match stages.iter().position(|u| u.name == to) {
                    Some(j) => succ[i].push(j),
                    None if !continues.contains(&Some(to)) => return Err(Fallback::Exits),
                    None if !exits.contains(&to) => exits.push(to),
                    None => {}
                }
            }
            succ[i].sort_unstable();
            succ[i].dedup();
        }
        Ok(Walk {
            t,
            catalog,
            stages,
            known: p.catalog.len(),
            succ,
            exits,
            path: Vec::new(),
            fired: Vec::new(),
            written: Vec::new(),
            budget: 1 << 16,
        })
    }

    fn introduced_meta(&self, a: AttrId) -> bool {
        a.index() >= self.known && matches!(self.catalog.attr(a).kind, AttrKind::Meta)
    }

    /// Walk every path from stage `s` on.
    fn visit(&mut self, s: usize) -> Result<(), Fallback> {
        if self.path.contains(&s) || self.budget == 0 {
            return Err(Fallback::Exits);
        }
        self.budget -= 1;
        let (stages, t) = (self.stages, self.t);
        let st = &stages[s];
        if st
            .match_attrs
            .iter()
            .any(|&a| self.introduced_meta(a) && !self.written.contains(&a))
        {
            return Err(Fallback::Metadata);
        }
        let (fired, written) = (self.fired.len(), self.written.len());
        let column = |a: AttrId| t.action_attrs.iter().position(|&b| b == a);
        for (c, &a) in st.action_attrs.iter().enumerate() {
            match self.catalog.attr(a).kind {
                AttrKind::Action(ActionSem::Goto) => continue,
                AttrKind::Action(ActionSem::SetField(m))
                    if self.introduced_meta(m)
                        && st
                            .entries
                            .iter()
                            .all(|e| matches!(e.actions[c], Value::Int(_))) =>
                {
                    self.written.push(m);
                }
                _ => {}
            }
            for &b in &self.fired {
                let in_order = matches!((column(b), column(a)), (Some(i), Some(j)) if i < j);
                if b == a || (writes_collide(self.catalog, b, a) && !in_order) {
                    return Err(Fallback::ActionOrder);
                }
            }
            self.fired.push(a);
        }
        self.path.push(s);
        for k in 0..self.succ[s].len() {
            self.visit(self.succ[s][k])?;
        }
        self.path.pop();
        self.fired.truncate(fired);
        self.written.truncate(written);
        Ok(())
    }
}

/// `split`'s `verify` hook: the lemma, and the whole-program check where
/// it does not hold. A refuted lemma still runs the check, which finds the
/// counterexample the refusal carries.
pub(crate) fn verify_step(p: &Pipeline, out: &Pipeline, lemma: Lemma) -> Result<(), SplitError> {
    if lemma == Lemma::Holds {
        mapro_obs::counter!("normalize.verify.lemmas").inc();
        return Ok(());
    }
    let verdict = check_equivalent(p, out, &EquivConfig::default());
    match (lemma, &verdict) {
        (Lemma::Fallback(cause), _) => fallback(Some(cause)),
        // The rows differ, yet the programs agree: the lemma could not
        // tell, so the check decided.
        (_, Ok(EquivOutcome::Equivalent { .. })) => fallback(None),
        _ => mapro_obs::counter!("normalize.verify.lemmas").inc(),
    }
    match verdict {
        Ok(EquivOutcome::Equivalent { .. }) => Ok(()),
        Ok(EquivOutcome::Counterexample(cx)) => Err(SplitError::NotEquivalent(cx)),
        Err(e) => Err(SplitError::VerifyFailed(e.to_string())),
    }
}

/// Count one fallback, by cause (`None`: the rows differed but the whole
/// program check found the programs equivalent). Fallbacks are rare, so
/// the per-cause counter is looked up by name.
fn fallback(cause: Option<Fallback>) {
    mapro_obs::counter!("normalize.verify.fallbacks").inc();
    fallback_counter(cause.map_or("rows_differ", Fallback::name)).inc();
}

fn fallback_counter(cause: &str) -> std::sync::Arc<mapro_obs::Counter> {
    mapro_obs::registry().counter(&format!("normalize.verify.fallback.{cause}"))
}

/// Register every `normalize.verify.*` counter, so a scrape sees them at
/// zero before the first verified step.
pub(crate) fn register_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mapro_obs::counter!("normalize.verify.lemmas");
        mapro_obs::counter!("normalize.verify.fallbacks");
        for cause in Fallback::ALL
            .map(Fallback::name)
            .into_iter()
            .chain(["rows_differ"])
        {
            fallback_counter(cause);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinKind;
    use crate::split::{split, FactorPlacement, Split, SplitOpts};
    use mapro_core::Entry;

    /// `(src, dst, port | out)` with `dst → port`, behind a `front` table
    /// that jumps into it, and continuing at `tail`: the split happens
    /// mid-pipeline, so its exits are on the checked path.
    fn gw() -> (Pipeline, Vec<AttrId>) {
        let mut c = Catalog::new();
        let src = c.field("src", 4);
        let dst = c.field("dst", 4);
        let port = c.field("port", 8);
        let out = c.action("out", ActionSem::Output);
        let jump = c.action("jump", ActionSem::Goto);
        let mut front = Table::new("front", vec![src], vec![jump]);
        front.row(vec![Value::Any], vec![Value::sym("t0")]);
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
        t.next = Some("tail".into());
        let mut tail = Table::new("tail", vec![src], vec![]);
        tail.row(vec![Value::Any], vec![]);
        let p = Pipeline::new(c, vec![front, t, tail], "front");
        (p, vec![src, dst, port, out])
    }

    fn fd(x: AttrId, y: AttrId, join: JoinKind) -> Split {
        Split::Fd {
            x: vec![x],
            y: vec![y],
            join,
        }
    }

    /// The stages `split` put where `table` stood, and their catalog.
    fn stages(p: &Pipeline, table: &str, how: &Split, opts: &SplitOpts) -> (Catalog, Vec<Table>) {
        let q = split(p, table, how, opts).expect("splits");
        let stages = q
            .tables
            .into_iter()
            .filter(|s| s.name == table || p.table(&s.name).is_none())
            .collect();
        (q.catalog, stages)
    }

    fn lemma(p: &Pipeline, table: &str, (catalog, stages): &(Catalog, Vec<Table>)) -> Lemma {
        heath_lemma(p, table, catalog, stages)
    }

    #[test]
    fn holds_under_every_join() {
        let (p, ids) = gw();
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            let split = stages(&p, "t0", &fd(ids[1], ids[2], join), &SplitOpts::default());
            assert_eq!(lemma(&p, "t0", &split), Lemma::Holds, "{join}");
        }
    }

    #[test]
    fn holds_for_mvd_jd_and_constant_licences() {
        let (p, ids) = gw();
        let opts = SplitOpts::default();
        for how in [
            Split::Mvd {
                x: vec![ids[1]],
                y: vec![ids[2]],
            },
            Split::Jd(vec![vec![ids[1], ids[2]], vec![ids[1], ids[0], ids[3]]]),
        ] {
            assert_eq!(
                lemma(&p, "t0", &stages(&p, "t0", &how, &opts)),
                Lemma::Holds
            );
        }
        // A constant action column, factored after the remainder.
        let mut p = p;
        let ttl = p.catalog.action("ttl", ActionSem::Opaque);
        let t = p.table_mut("t0").unwrap();
        t.action_attrs.push(ttl);
        t.entries
            .iter_mut()
            .for_each(|e| e.actions.push(Value::sym("dec")));
        let how = Split::Constant {
            only: None,
            placement: FactorPlacement::After,
        };
        assert_eq!(
            lemma(&p, "t0", &stages(&p, "t0", &how, &opts)),
            Lemma::Holds
        );
    }

    /// Metadata the program wrote before the table is read as a header
    /// field: the lemma applies, and still sees a wrong stage.
    #[test]
    fn metadata_written_before_the_table_is_a_free_field() {
        let (mut p, ids) = gw();
        let m = p.catalog.meta("m", 4);
        let set_m = p.catalog.action("set_m", ActionSem::SetField(m));
        let front = p.table_mut("front").unwrap();
        front.action_attrs.insert(0, set_m);
        front.entries[0].actions.insert(0, Value::Int(5));
        let t = p.table_mut("t0").unwrap();
        t.match_attrs.push(m);
        for (i, e) in t.entries.iter_mut().enumerate() {
            e.matches.push(Value::Int(5 + (i as u64 % 2)));
        }
        let mut split = stages(
            &p,
            "t0",
            &fd(ids[1], ids[2], JoinKind::Goto),
            &SplitOpts::default(),
        );
        assert_eq!(lemma(&p, "t0", &split), Lemma::Holds);
        let cell = split.1[1].match_attrs.iter().position(|&a| a == m).unwrap();
        split.1[1].entries[0].matches[cell] = Value::Int(7);
        assert_eq!(lemma(&p, "t0", &split), Lemma::Refuted);
    }

    #[test]
    fn a_mutated_stage_action_is_refuted() {
        let (p, ids) = gw();
        let mut split = stages(
            &p,
            "t0",
            &fd(ids[1], ids[2], JoinKind::Metadata),
            &SplitOpts::default(),
        );
        let last = split.1.last_mut().unwrap();
        let out = last.action_attrs.iter().position(|&a| a == ids[3]).unwrap();
        last.entries[2].actions[out] = Value::sym("vm9");
        assert_eq!(lemma(&p, "t0", &split), Lemma::Refuted);
    }

    #[test]
    fn a_dropped_stage_row_is_refuted() {
        let (p, ids) = gw();
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            let mut split = stages(&p, "t0", &fd(ids[1], ids[2], join), &SplitOpts::default());
            split.1.last_mut().unwrap().entries.pop();
            assert_eq!(lemma(&p, "t0", &split), Lemma::Refuted, "{join}");
        }
    }

    #[test]
    fn a_goto_to_the_wrong_per_x_table_is_refuted() {
        let (p, ids) = gw();
        let mut split = stages(
            &p,
            "t0",
            &fd(ids[1], ids[2], JoinKind::Goto),
            &SplitOpts::default(),
        );
        // dst = 1 jumps to dst = 2's table.
        let first = &mut split.1[0];
        let to = first.entries[1].actions[0].clone();
        first.entries[0].actions[0] = to;
        assert_eq!(lemma(&p, "t0", &split), Lemma::Refuted);
    }

    #[test]
    fn a_stage_that_continues_elsewhere_falls_back() {
        let (p, ids) = gw();
        let mut split = stages(
            &p,
            "t0",
            &fd(ids[1], ids[2], JoinKind::Metadata),
            &SplitOpts::default(),
        );
        split.1.last_mut().unwrap().next = Some("front".into());
        assert_eq!(lemma(&p, "t0", &split), Lemma::Fallback(Fallback::Exits));
        // Ending where the table continues at `tail` is not a premise
        // failure but a different row: the exit label is missing.
        split.1.last_mut().unwrap().next = None;
        assert_eq!(lemma(&p, "t0", &split), Lemma::Refuted);
    }

    /// Fig. 3's `out → vlan` split under `allow_non_1nf`: its stages
    /// flatten to the table's own rows, yet the first stage's
    /// priorities misroute, so only the stage-1NF premise stops it.
    #[test]
    fn a_non_1nf_stage_falls_back() {
        let mut c = Catalog::new();
        let in_port = c.field("in_port", 8);
        let vlan = c.field("vlan", 12);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![in_port, vlan], vec![out]);
        for (ip, vl, o) in [(1u64, 1u64, "1"), (1, 2, "2"), (2, 1, "1"), (3, 1, "3")] {
            t.row(vec![Value::Int(ip), Value::Int(vl)], vec![Value::sym(o)]);
        }
        let p = Pipeline::single(c, t);
        let opts = SplitOpts {
            allow_non_1nf: true,
            ..Default::default()
        };
        let split = stages(&p, "t0", &fd(out, vlan, JoinKind::Metadata), &opts);
        assert_eq!(
            lemma(&p, "t0", &split),
            Lemma::Fallback(Fallback::StageNot1NF)
        );
    }

    /// Rows keyed by attribute cannot see action order, so the lemma
    /// refuses to judge stages that fire an action twice or reorder two
    /// that write the same thing.
    #[test]
    fn repeated_or_reordered_actions_fall_back() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let first = c.action("first", ActionSem::Output);
        let second = c.action("second", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![first, second]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a"), Value::sym("b")]);
        let p = Pipeline::single(c.clone(), t);
        let stage = |name: &str, action: AttrId, cell: &str, next: Option<&str>| {
            let mut s = Table::new(name, vec![f], vec![action]);
            s.push(Entry::new(vec![Value::Int(1)], vec![Value::sym(cell)]));
            s.next = next.map(str::to_owned);
            s
        };
        let swapped = vec![
            stage("t", second, "b", Some("t_2")),
            stage("t_2", first, "a", None),
        ];
        assert_eq!(
            heath_lemma(&p, "t", &c, &swapped),
            Lemma::Fallback(Fallback::ActionOrder)
        );
        let twice = vec![
            stage("t", first, "a", Some("t_2")),
            stage("t_2", first, "a", None),
        ];
        assert_eq!(
            heath_lemma(&p, "t", &c, &twice),
            Lemma::Fallback(Fallback::ActionOrder)
        );
        let in_order = vec![
            stage("t", first, "a", Some("t_2")),
            stage("t_2", second, "b", None),
        ];
        assert_eq!(heath_lemma(&p, "t", &c, &in_order), Lemma::Holds);
    }

    /// A tag the split introduced must be written before a stage reads
    /// it; a row that leaves it unwritten would read whatever it held.
    #[test]
    fn a_tag_read_before_it_is_written_falls_back() {
        let (p, ids) = gw();
        let mut split = stages(
            &p,
            "t0",
            &fd(ids[1], ids[2], JoinKind::Metadata),
            &SplitOpts::default(),
        );
        let first = &mut split.1[0];
        let tag = first.action_attrs.len() - 1;
        first.entries[0].actions[tag] = Value::Any;
        assert_eq!(lemma(&p, "t0", &split), Lemma::Fallback(Fallback::Metadata));
    }

    #[test]
    fn other_miss_policies_and_names_fall_back() {
        let (p, ids) = gw();
        let good = stages(
            &p,
            "t0",
            &fd(ids[1], ids[2], JoinKind::Goto),
            &SplitOpts::default(),
        );
        let mut split = good.clone();
        split.1[1].miss = MissPolicy::Controller;
        assert_eq!(
            lemma(&p, "t0", &split),
            Lemma::Fallback(Fallback::MissPolicy)
        );
        let mut split = good.clone();
        split.1[1].name = "tail".into();
        assert_eq!(lemma(&p, "t0", &split), Lemma::Fallback(Fallback::Naming));
        let mut split = good;
        split.1.swap(0, 1);
        assert_eq!(lemma(&p, "t0", &split), Lemma::Fallback(Fallback::Naming));
    }
}
