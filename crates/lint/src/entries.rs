//! Shadowed- and dead-entry detection — classifier minimization as a
//! *symbolic* pass.
//!
//! The pass finds the entries no packet can hit from the program text
//! alone, without enumerating the packet domain and independent of field
//! widths. The union-cover question ("do the higher-priority entries
//! together leave this one nothing to match?") is decided exactly by
//! decision-diagram subtraction ([`mapro_sym::TableLiveness`]); only a
//! table whose diagram outgrows the node arena leaves its verdicts
//! undecided.

use crate::diag::{Diagnostic, LintReport};
use crate::LintConfig;
use mapro_core::Pipeline;
use mapro_sym::cube::Cube;
use mapro_sym::{SymConfig, TableLiveness};

/// Run shadowed-/dead-entry detection over every table.
pub(crate) fn check_entries(p: &Pipeline, _cfg: &LintConfig, out: &mut LintReport) {
    entries_within(p, SymConfig::default().max_nodes, out);
}

/// [`check_entries`] with each table's liveness diagram held to
/// `max_nodes` interior nodes.
fn entries_within(p: &Pipeline, max_nodes: usize, out: &mut LintReport) {
    for t in &p.tables {
        let widths: Vec<u32> = t
            .match_attrs
            .iter()
            .map(|&a| p.catalog.attr(a).width)
            .collect();
        let cubes: Vec<Option<Cube>> = t
            .entries
            .iter()
            .map(|e| Cube::of(&e.matches, &widths))
            .collect();
        // DD liveness for this table, built on first use. Outer `None` =
        // not built yet; inner `None` = the arena limit was hit (every
        // union verdict of the table is then undecided).
        let mut dd: Option<Option<TableLiveness>> = None;
        for (j, cj) in cubes.iter().enumerate() {
            let Some(cj) = cj else {
                out.diagnostics.push(
                    Diagnostic::new(
                        "dead-entry",
                        "a match cell holds a symbolic value, which matches no packet",
                    )
                    .table(&t.name)
                    .entry(j),
                );
                continue;
            };
            // Single-cube shadow: the first earlier entry covering this one.
            if let Some(i) = cubes[..j]
                .iter()
                .position(|ci| ci.as_ref().is_some_and(|ci| ci.subsumes(cj)))
            {
                out.diagnostics.push(
                    Diagnostic::new(
                        "shadowed-entry",
                        format!("every packet it matches is claimed by entry {i} first"),
                    )
                    .table(&t.name)
                    .entry(j)
                    .suggest(format!("remove entry {j}; entry {i} subsumes it")),
                );
                continue;
            }
            // Union cover: no single entry shadows it, but together the
            // earlier entries leave it nothing to match.
            let earlier = cubes[..j].iter().flatten().count();
            if earlier < 2 {
                continue;
            }
            let verdict = dd
                .get_or_insert_with(|| TableLiveness::build(&widths, &cubes, max_nodes).ok())
                .as_ref()
                .and_then(|lv| lv.covered[j]);
            match verdict {
                Some(true) => {
                    out.diagnostics.push(
                        Diagnostic::new(
                            "dead-entry",
                            format!(
                                "the union of the {} higher-priority entries covers it",
                                earlier
                            ),
                        )
                        .table(&t.name)
                        .entry(j)
                        .suggest(format!("remove entry {j}; no packet can reach it")),
                    );
                }
                Some(false) => {}
                None => {
                    out.unknown_findings += 1;
                    mapro_obs::counter!("lint.unknown").inc();
                    out.diagnostics.push(
                        Diagnostic::new(
                            "undecided-liveness",
                            format!(
                                "the union-cover check against the {} higher-priority entries \
                                 outgrew the decision-diagram arena; liveness is undecided",
                                earlier
                            ),
                        )
                        .table(&t.name)
                        .entry(j)
                        .suggest(
                            "split the table so each part's diagram fits the arena".to_owned(),
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    fn lint_table(t: Table, c: Catalog) -> LintReport {
        let p = Pipeline::single(c, t);
        let mut r = LintReport::default();
        check_entries(&p, &LintConfig::default(), &mut r);
        r
    }

    fn cat() -> (Catalog, Vec<mapro_core::AttrId>, mapro_core::AttrId) {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        (c, vec![f, g], out)
    }

    #[test]
    fn shadowed_by_single_entry() {
        let (c, fs, out) = cat();
        let mut t = Table::new("t", fs, vec![out]);
        t.row(
            vec![Value::prefix(0, 1, 8), Value::Any],
            vec![Value::sym("a")],
        );
        t.row(vec![Value::Int(1), Value::Int(9)], vec![Value::sym("b")]);
        let r = lint_table(t, c);
        let d: Vec<_> = r.with_lint("shadowed-entry").collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].entry, Some(1));
    }

    #[test]
    fn dead_by_union_not_single() {
        let (c, fs, out) = cat();
        let mut t = Table::new("t", fs, vec![out]);
        // 0*/any and 1*/any together cover any/any; neither alone does.
        t.row(
            vec![Value::prefix(0, 1, 8), Value::Any],
            vec![Value::sym("a")],
        );
        t.row(
            vec![Value::prefix(0x80, 1, 8), Value::Any],
            vec![Value::sym("b")],
        );
        t.row(vec![Value::Any, Value::Any], vec![Value::sym("c")]);
        let r = lint_table(t, c);
        assert_eq!(r.with_lint("shadowed-entry").count(), 0);
        let d: Vec<_> = r.with_lint("dead-entry").collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].entry, Some(2));
    }

    #[test]
    fn live_entries_unflagged() {
        let (c, fs, out) = cat();
        let mut t = Table::new("t", fs, vec![out]);
        t.row(vec![Value::Int(1), Value::Any], vec![Value::sym("a")]);
        t.row(vec![Value::Int(2), Value::Any], vec![Value::sym("b")]);
        t.row(vec![Value::Any, Value::Int(5)], vec![Value::sym("c")]);
        let r = lint_table(t, c);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn liveness_overflow_reports_undecided_liveness() {
        let (c, fs, out) = cat();
        let mut t = Table::new("t", fs, vec![out]);
        // 0*/any ∪ 1*/any covers any/any by union only.
        t.row(
            vec![Value::prefix(0, 1, 8), Value::Any],
            vec![Value::sym("a")],
        );
        t.row(
            vec![Value::prefix(0x80, 1, 8), Value::Any],
            vec![Value::sym("b")],
        );
        t.row(vec![Value::Any, Value::Any], vec![Value::sym("c")]);
        let p = Pipeline::single(c, t);
        // An arena of no interior nodes overflows on the first row.
        let mut r = LintReport::default();
        entries_within(&p, 0, &mut r);
        assert_eq!(r.unknown_findings, 1);
        assert_eq!(r.with_lint("undecided-liveness").count(), 1);
        assert_eq!(r.with_lint("dead-entry").count(), 0);
        assert!(r.to_text().contains("1 unknown"), "{}", r.to_text());
        // The default arena decides it: dead, nothing unknown.
        let r = lint_table(p.tables[0].clone(), p.catalog.clone());
        assert_eq!(r.unknown_findings, 0);
        let d: Vec<_> = r.with_lint("dead-entry").collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].entry, Some(2));
    }

    #[test]
    fn symbolic_match_cell_is_dead() {
        let (c, fs, out) = cat();
        let mut t = Table::new("t", fs, vec![out]);
        t.row(vec![Value::sym("oops"), Value::Any], vec![Value::sym("a")]);
        let r = lint_table(t, c);
        assert_eq!(r.with_lint("dead-entry").count(), 1);
    }
}
