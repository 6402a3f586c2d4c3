//! Pipeline-level control-flow analysis: the jump graph.
//!
//! Nodes are tables; edges are every way control can transfer — `Goto`
//! action parameters, implicit [`Table::next`] chaining, and
//! `MissPolicy::Fall` targets. The pass reports jumps to nonexistent
//! tables, tables no path from the start reaches, reachable cycles (the
//! static counterpart of [`mapro_core::EvalError::GotoCycle`]), and
//! metadata-tag hygiene (tags written but never matched, or matched but
//! never written).

use crate::diag::{Diagnostic, LintReport};
use mapro_core::{ActionSem, AttrId, AttrKind, Pipeline, Table, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Every jump edge out of `t`, as `(target name, description)`.
fn edges(t: &Table, p: &Pipeline) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (col, &attr) in t.action_attrs.iter().enumerate() {
        if !matches!(p.catalog.attr(attr).kind, AttrKind::Action(ActionSem::Goto)) {
            continue;
        }
        for (row, e) in t.entries.iter().enumerate() {
            match &e.actions[col] {
                Value::Sym(s) => out.push((s.to_string(), format!("goto in entry {row}"))),
                Value::Any => {}
                other => out.push((
                    format!("<malformed: {other}>"),
                    format!("goto in entry {row}"),
                )),
            }
        }
    }
    if let Some(n) = &t.next {
        out.push((n.clone(), "next chaining".to_owned()));
    }
    if let mapro_core::MissPolicy::Fall(n) = &t.miss {
        out.push((n.clone(), "miss fall-through".to_owned()));
    }
    out
}

/// Run reachability, cycle, and metadata-hygiene checks.
pub(crate) fn check_graph(p: &Pipeline, out: &mut LintReport) {
    let names: BTreeSet<&str> = p.tables.iter().map(|t| t.name.as_str()).collect();

    // Adjacency over existing tables; unknown targets are reported and
    // dropped from the graph.
    let mut adj: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for t in &p.tables {
        let mut next = Vec::new();
        for (target, what) in edges(t, p) {
            if names.contains(target.as_str()) {
                next.push(target);
            } else {
                out.diagnostics.push(
                    Diagnostic::new(
                        "unknown-goto-target",
                        format!("{what} names {target:?}, which is not a table"),
                    )
                    .table(&t.name),
                );
            }
        }
        adj.insert(&t.name, next);
    }

    if !names.contains(p.start.as_str()) {
        out.diagnostics.push(Diagnostic::new(
            "unknown-goto-target",
            format!("start table {:?} does not exist", p.start),
        ));
        return;
    }

    // Reachability from the start table.
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![p.start.as_str()];
    while let Some(n) = stack.pop() {
        if !reachable.insert(n) {
            continue;
        }
        for m in &adj[n] {
            stack.push(*names.get(m.as_str()).expect("edge into known table"));
        }
    }
    for t in &p.tables {
        if !reachable.contains(t.name.as_str()) {
            out.diagnostics.push(
                Diagnostic::new(
                    "unreachable-table",
                    format!("no jump path from start table {:?} reaches it", p.start),
                )
                .table(&t.name)
                .suggest("remove the table or add a jump to it"),
            );
        }
    }

    // Cycle detection (DFS, white/grey/black) on the reachable subgraph.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<&str, Color> = reachable.iter().map(|&n| (n, Color::White)).collect();
    let mut trail: Vec<&str> = Vec::new();
    // Iterative DFS with an explicit enter/exit stack so the grey trail is
    // maintained correctly without recursion.
    enum Op<'a> {
        Enter(&'a str),
        Exit(&'a str),
    }
    let mut ops = vec![Op::Enter(p.start.as_str())];
    let mut cycle: Option<Vec<&str>> = None;
    while let Some(op) = ops.pop() {
        match op {
            Op::Enter(n) => match color[n] {
                Color::Grey | Color::Black => {}
                Color::White => {
                    color.insert(n, Color::Grey);
                    trail.push(n);
                    ops.push(Op::Exit(n));
                    for m in &adj[n] {
                        let m = *names.get(m.as_str()).expect("known");
                        match color[m] {
                            Color::Grey => {
                                if cycle.is_none() {
                                    let start = trail.iter().position(|&x| x == m).unwrap_or(0);
                                    let mut c: Vec<&str> = trail[start..].to_vec();
                                    c.push(m);
                                    cycle = Some(c);
                                }
                            }
                            Color::White => ops.push(Op::Enter(m)),
                            Color::Black => {}
                        }
                    }
                }
            },
            Op::Exit(n) => {
                color.insert(n, Color::Black);
                trail.pop();
            }
        }
    }
    if let Some(c) = cycle {
        out.diagnostics.push(
            Diagnostic::new(
                "goto-cycle",
                format!("reachable jump cycle: {}", c.join(" -> ")),
            )
            .table(c[0])
            .suggest("break the cycle; packets traversing it exhaust the evaluator's step budget"),
        );
    }

    // Metadata-tag hygiene, over reachable tables only (unreachable ones
    // are already reported wholesale).
    let mut written: BTreeMap<AttrId, &str> = BTreeMap::new(); // tag -> first writing table
    let mut matched: BTreeMap<AttrId, &str> = BTreeMap::new(); // tag -> first matching table
    for t in p
        .tables
        .iter()
        .filter(|t| reachable.contains(t.name.as_str()))
    {
        for (col, &attr) in t.action_attrs.iter().enumerate() {
            if let AttrKind::Action(ActionSem::SetField(target)) = p.catalog.attr(attr).kind {
                if matches!(p.catalog.attr(target).kind, AttrKind::Meta)
                    && t.entries
                        .iter()
                        .any(|e| !matches!(e.actions[col], Value::Any))
                {
                    written.entry(target).or_insert(&t.name);
                }
            }
        }
        for (col, &attr) in t.match_attrs.iter().enumerate() {
            if matches!(p.catalog.attr(attr).kind, AttrKind::Meta)
                && t.entries
                    .iter()
                    .any(|e| !matches!(e.matches[col], Value::Any))
            {
                matched.entry(attr).or_insert(&t.name);
            }
        }
    }
    for (&tag, &writer) in &written {
        if !matched.contains_key(&tag) {
            out.diagnostics.push(
                Diagnostic::new(
                    "meta-never-matched",
                    format!(
                        "metadata field {:?} is written but no reachable table matches it",
                        p.catalog.name(tag)
                    ),
                )
                .table(writer)
                .suggest("drop the write, or the field if nothing else uses it"),
            );
        }
    }
    for (&tag, &reader) in &matched {
        if !written.contains_key(&tag) {
            out.diagnostics.push(
                Diagnostic::new(
                    "meta-never-written",
                    format!(
                        "metadata field {:?} is matched but never written; it is always zero",
                        p.catalog.name(tag)
                    ),
                )
                .table(reader)
                .suggest("entries requiring a nonzero value can never fire"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{Catalog, Table};

    fn goto_chain() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Int(1)], vec![Value::sym("t1")]);
        let mut t1 = Table::new("t1", vec![f], vec![out]);
        t1.row(vec![Value::Any], vec![Value::sym("p")]);
        let mut t2 = Table::new("t2", vec![f], vec![out]);
        t2.row(vec![Value::Any], vec![Value::sym("q")]);
        Pipeline::new(c, vec![t0, t1, t2], "t0")
    }

    fn lint(p: &Pipeline) -> LintReport {
        let mut r = LintReport::default();
        check_graph(p, &mut r);
        r
    }

    #[test]
    fn unreachable_table_found() {
        let p = goto_chain();
        let r = lint(&p);
        let d: Vec<_> = r.with_lint("unreachable-table").collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].table.as_deref(), Some("t2"));
    }

    #[test]
    fn unknown_target_found() {
        let mut p = goto_chain();
        p.table_mut("t0").unwrap().entries[0].actions[0] = Value::sym("nope");
        let r = lint(&p);
        assert_eq!(r.with_lint("unknown-goto-target").count(), 1);
    }

    #[test]
    fn cycle_found() {
        let mut p = goto_chain();
        // t1 jumps back to t0.
        p.table_mut("t1").unwrap().next = Some("t0".into());
        let r = lint(&p);
        let d: Vec<_> = r.with_lint("goto-cycle").collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("t0 -> t1 -> t0"), "{}", d[0].message);
    }

    #[test]
    fn acyclic_reachable_pipeline_clean() {
        let mut p = goto_chain();
        p.tables.retain(|t| t.name != "t2");
        assert!(lint(&p).diagnostics.is_empty());
    }

    #[test]
    fn meta_hygiene() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let m1 = c.meta("tag_w", 8); // written, never matched
        let m2 = c.meta("tag_r", 8); // matched, never written
        let w1 = c.action("set_tag_w", ActionSem::SetField(m1));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![w1]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(3)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![m2], vec![out]);
        t1.row(vec![Value::Int(7)], vec![Value::sym("p")]);
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        let r = lint(&p);
        assert_eq!(r.with_lint("meta-never-matched").count(), 1);
        assert_eq!(r.with_lint("meta-never-written").count(), 1);
    }

    #[test]
    fn healthy_meta_join_is_clean() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let m = c.meta("tag", 8);
        let w = c.action("set_tag", ActionSem::SetField(m));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![w]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(3)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![m], vec![out]);
        t1.row(vec![Value::Int(3)], vec![Value::sym("p")]);
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        assert!(lint(&p).diagnostics.is_empty());
    }
}
