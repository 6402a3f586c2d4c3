//! Decompiling canonical policies back into match-action tables — the
//! converse of [`crate::compile`].
//!
//! A policy in the local OpenFlow normal form (see [`crate::canon`]) is a
//! sum of entry-shaped sequences; each summand becomes one table entry:
//! tests become match cells (repeated tests on a field intersect;
//! contradictions drop the summand), `Mod`s become set-field action cells,
//! and `Act` tokens of the shape `name(param)` resolve against the
//! catalog's action attributes. Together with [`crate::compile`] and
//! [`crate::canon::canonicalize`] this closes the loop
//! `Table → Pol → Table`, checked equivalent by the test suite.

use crate::canon::canonicalize;
use crate::pol::Pol;
use mapro_core::{ActionSem, AttrId, AttrKind, Catalog, Entry, Table, Value};
use std::fmt;

/// Why a policy could not be decompiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompileError {
    /// An `Act` token does not look like `name(param)`.
    MalformedToken(String),
    /// A token names an action attribute the catalog does not have.
    UnknownAction(String),
    /// A `Mod` writes a field with no `SetField` action attribute in the
    /// catalog to carry it.
    NoSetFieldAction(String),
    /// Two tokens target the same action attribute in one summand.
    DuplicateAction(String),
}

impl fmt::Display for DecompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompileError::MalformedToken(t) => write!(f, "malformed action token {t:?}"),
            DecompileError::UnknownAction(a) => write!(f, "unknown action attribute {a:?}"),
            DecompileError::NoSetFieldAction(t) => {
                write!(f, "no set-field action attribute targets {t:?}")
            }
            DecompileError::DuplicateAction(a) => {
                write!(f, "action {a:?} applied twice in one entry")
            }
        }
    }
}

impl std::error::Error for DecompileError {}

/// Decompile `pol` into a single table named `name`, resolving attribute
/// names against `catalog` (typically the catalog the policy was compiled
/// from). The policy is canonicalized first.
pub fn policy_to_table(pol: &Pol, catalog: &Catalog, name: &str) -> Result<Table, DecompileError> {
    let canon = canonicalize(pol);

    // Collect summands.
    fn summands(p: &Pol, out: &mut Vec<Pol>) {
        match p {
            Pol::Plus(a, b) => {
                summands(a, out);
                summands(b, out);
            }
            Pol::Drop => {}
            other => out.push(other.clone()),
        }
    }
    fn atoms(p: &Pol, out: &mut Vec<Pol>) {
        match p {
            Pol::Seq(a, b) => {
                atoms(a, out);
                atoms(b, out);
            }
            other => out.push(other.clone()),
        }
    }
    let mut ss = Vec::new();
    summands(&canon, &mut ss);

    // Schema: every tested field, in first-appearance order; every action
    // attribute used, in first-appearance order.
    let mut match_attrs: Vec<AttrId> = Vec::new();
    let mut action_attrs: Vec<AttrId> = Vec::new();
    // entries as (per-match-attr predicate, per-action-attr param)
    struct Row {
        matches: Vec<(AttrId, Value)>,
        actions: Vec<(AttrId, Value)>,
    }
    let mut rows: Vec<Row> = Vec::new();

    let setfield_for = |target: AttrId| -> Option<AttrId> {
        catalog
            .iter()
            .find(|(_, a)| {
                matches!(&a.kind, AttrKind::Action(ActionSem::SetField(t)) if *t == target)
            })
            .map(|(id, _)| id)
    };

    'summand: for s in ss {
        let mut at = Vec::new();
        atoms(&s, &mut at);
        let mut row = Row {
            matches: Vec::new(),
            actions: Vec::new(),
        };
        for a in at {
            match a {
                Pol::Id => {}
                Pol::Drop => continue 'summand,
                Pol::Test(f, v) => {
                    let width = catalog.attr(f).width;
                    match row.matches.iter_mut().find(|(g, _)| *g == f) {
                        None => row.matches.push((f, v)),
                        Some((_, cur)) => match cur.intersect(&v, width) {
                            Some(i) => *cur = i,
                            None => continue 'summand, // contradictory entry
                        },
                    }
                    if !match_attrs.contains(&f) {
                        match_attrs.push(f);
                    }
                }
                Pol::Mod(f, v) => {
                    let attr = setfield_for(f).ok_or_else(|| {
                        DecompileError::NoSetFieldAction(catalog.name(f).to_owned())
                    })?;
                    if row.actions.iter().any(|(a, _)| *a == attr) {
                        // Last write wins, like the evaluator.
                        row.actions.retain(|(a, _)| *a != attr);
                    }
                    row.actions.push((attr, Value::Int(v)));
                    if !action_attrs.contains(&attr) {
                        action_attrs.push(attr);
                    }
                }
                Pol::Act(tok) => {
                    let (aname, param) = parse_token(&tok)?;
                    let attr = catalog
                        .lookup(aname)
                        .filter(|&id| catalog.attr(id).kind.is_action())
                        .ok_or_else(|| DecompileError::UnknownAction(aname.to_owned()))?;
                    if row.actions.iter().any(|(a, _)| *a == attr) {
                        return Err(DecompileError::DuplicateAction(aname.to_owned()));
                    }
                    row.actions.push((attr, Value::sym(param)));
                    if !action_attrs.contains(&attr) {
                        action_attrs.push(attr);
                    }
                }
                Pol::Seq(..) | Pol::Plus(..) => unreachable!("canonical form"),
            }
        }
        rows.push(row);
    }

    let mut t = Table::new(name, match_attrs.clone(), action_attrs.clone());
    for row in rows {
        let matches = match_attrs
            .iter()
            .map(|a| {
                row.matches
                    .iter()
                    .find(|(b, _)| b == a)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Any)
            })
            .collect();
        let actions = action_attrs
            .iter()
            .map(|a| {
                row.actions
                    .iter()
                    .find(|(b, _)| b == a)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Any)
            })
            .collect();
        t.push(Entry::new(matches, actions));
    }
    Ok(t)
}

/// Parse an `Act` token of the shape `name(param)`. The formatting side
/// lives in [`crate::compile`]; the pair is covered by round-trip tests.
fn parse_token(tok: &str) -> Result<(&str, &str), DecompileError> {
    let open = tok
        .find('(')
        .ok_or_else(|| DecompileError::MalformedToken(tok.to_owned()))?;
    if !tok.ends_with(')') || open == 0 {
        return Err(DecompileError::MalformedToken(tok.to_owned()));
    }
    Ok((&tok[..open], &tok[open + 1..tok.len() - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_pipeline;
    use mapro_core::{assert_equivalent, Pipeline};

    /// Fig.1-flavoured single table for round-trips.
    fn sample() -> Pipeline {
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let ttl = c.field("ttl", 8);
        let set_ttl = c.action("set_ttl", ActionSem::SetField(ttl));
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst], vec![set_ttl, out]);
        t.row(
            vec![Value::prefix(0, 1, 32), Value::Int(1)],
            vec![Value::Int(63), Value::sym("vm1")],
        );
        t.row(
            vec![Value::prefix(0x8000_0000, 1, 32), Value::Int(1)],
            vec![Value::Any, Value::sym("vm2")],
        );
        t.row(
            vec![Value::Any, Value::Int(2)],
            vec![Value::Int(9), Value::sym("vm3")],
        );
        Pipeline::single(c, t)
    }

    #[test]
    fn table_policy_table_roundtrip() {
        let p = sample();
        let pol = compile_pipeline(&p).unwrap();
        let t2 = policy_to_table(&pol, &p.catalog, "back").unwrap();
        let p2 = Pipeline::single(p.catalog.clone(), t2);
        assert_equivalent(&p, &p2);
    }

    #[test]
    fn multi_table_pipeline_decompiles_to_equivalent_universal_table() {
        // compile() inlines the goto structure; decompiling the policy
        // therefore *denormalizes* — a NetKAT-side flatten.
        use mapro_workloads::Gwlb;
        let g = Gwlb::fig1();
        let goto = g.normalized(mapro_normalize::JoinKind::Goto).unwrap();
        let pol = compile_pipeline(&goto).unwrap();
        let t = policy_to_table(&pol, &goto.catalog, "flat").unwrap();
        let flat = Pipeline::single(goto.catalog.clone(), t);
        assert_equivalent(&g.universal, &flat);
    }

    #[test]
    fn contradictory_summands_dropped() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let pol = Pol::Test(f, 1u64.into())
            .seq(Pol::Test(f, 2u64.into()))
            .seq(Pol::act("out(x)"))
            .plus(Pol::Test(f, 3u64.into()).seq(Pol::act("out(y)")));
        let t = policy_to_table(&pol, &c, "t").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries[0].matches[0], Value::Int(3));
        let _ = out;
    }

    #[test]
    fn error_cases() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        c.action("out", ActionSem::Output);
        assert!(matches!(
            policy_to_table(&Pol::act("nope"), &c, "t"),
            Err(DecompileError::MalformedToken(_))
        ));
        assert!(matches!(
            policy_to_table(&Pol::act("mystery(x)"), &c, "t"),
            Err(DecompileError::UnknownAction(_))
        ));
        assert!(matches!(
            policy_to_table(&Pol::Mod(f, 1), &c, "t"),
            Err(DecompileError::NoSetFieldAction(_))
        ));
        assert!(matches!(
            policy_to_table(&Pol::act("out(a)").seq(Pol::act("out(b)")), &c, "t"),
            Err(DecompileError::DuplicateAction(_))
        ));
    }

    #[test]
    fn last_mod_wins_like_the_evaluator() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        c.action("set_g", ActionSem::SetField(g));
        let pol = Pol::Test(f, 1u64.into())
            .seq(Pol::Mod(g, 5))
            .seq(Pol::Mod(g, 7));
        let t = policy_to_table(&pol, &c, "t").unwrap();
        assert_eq!(t.entries[0].actions[0], Value::Int(7));
    }
}
