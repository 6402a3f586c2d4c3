//! Redundancy lints — the paper's normal-form theory as diagnostics.
//!
//! Each table is analyzed over its [`mapro_normalize::program_view`]
//! (plumbing columns excluded) with FDs mined from the instance plus any
//! caller-declared model-level dependencies. Violations of 1NF
//! order-independence, 2NF, 3NF, and BCNF become findings; where the
//! violation is decomposable, the suggestion is the concrete Heath
//! decomposition `mapro normalize` would apply (`X → X⁺ ∖ X`); where the
//! determinant contains actions and the dependents contain match fields,
//! the Fig. 3 action-to-match hazard is reported instead — that violation
//! cannot be fixed by decomposition.

use crate::diag::{Diagnostic, LintReport};
use crate::LintConfig;
use mapro_core::{AttrId, Pipeline};
use mapro_fd::{analyze_with, mine_fds, Fd, FdSet, FirstNfIssue};
use mapro_normalize::program_view;

/// A model-level dependency the program author declares to hold, named by
/// attribute (the paper's "inherently encoded" dependencies, e.g.
/// `ip_dst → tcp_dst` in Fig. 1a). Declared FDs are unioned with the
/// mined ones before normal-form analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeclaredFd {
    /// Table the dependency applies to.
    pub(crate) table: String,
    /// Determinant attribute names.
    pub(crate) lhs: Vec<String>,
    /// Dependent attribute names.
    pub(crate) rhs: Vec<String>,
}

/// Names of the attributes in `s`, via the report's universe.
fn decode_names(p: &Pipeline, fds: &FdSet, s: mapro_fd::AttrSet) -> Vec<String> {
    fds.universe
        .decode(s)
        .into_iter()
        .map(|a| p.catalog.name(a).to_owned())
        .collect()
}

/// Run the normal-form redundancy lints over every table.
pub(crate) fn check_redundancy(p: &Pipeline, cfg: &LintConfig, out: &mut LintReport) {
    for t in &p.tables {
        let view = program_view(t, p);
        if view.is_empty() {
            continue;
        }
        let mut fds = mine_fds(&view, &p.catalog).fds;
        for d in cfg.declared_fds.iter().filter(|d| d.table == t.name) {
            fn resolve(
                names: &[String],
                p: &Pipeline,
                uni: &mapro_fd::Universe,
            ) -> Option<Vec<AttrId>> {
                names
                    .iter()
                    .map(|n| p.catalog.lookup(n).filter(|&a| uni.position(a).is_some()))
                    .collect()
            }
            let lhs = resolve(&d.lhs, p, &fds.universe);
            let rhs = resolve(&d.rhs, p, &fds.universe);
            match (lhs, rhs) {
                (Some(lhs), Some(rhs)) => fds.add_ids(&lhs, &rhs),
                _ => out.diagnostics.push(
                    Diagnostic::new(
                        "unknown-declared-fd",
                        format!(
                            "declared FD ({}) -> ({}) names attributes outside the table",
                            d.lhs.join(", "),
                            d.rhs.join(", ")
                        ),
                    )
                    .table(&t.name),
                ),
            }
        }
        let rep = analyze_with(&view, &p.catalog, fds);

        for issue in &rep.first_issues {
            if let FirstNfIssue::OrderDependent { first, second } = issue {
                out.diagnostics.push(
                    Diagnostic::new(
                        "overlapping-entries",
                        format!(
                            "entries {first} and {second} can match the same packet; \
                             semantics depend on entry order (not 1NF)"
                        ),
                    )
                    .table(&t.name)
                    .entry(*second),
                );
            }
            // DuplicateMatch is subsumed by shadowed-entry (identical
            // predicates always shadow) — not re-reported here.
        }

        // Classify each violating FD once, at its most damning level:
        // partial ⊂ transitive ⊂ bcnf witnesses.
        let emit = |fd: Fd, lint: &'static str, out: &mut LintReport| {
            let lhs = decode_names(p, &rep.fds, fd.lhs);
            let closure = rep.fds.closure(fd.lhs);
            let gained = closure.minus(fd.lhs);
            let rhs = decode_names(p, &rep.fds, gained);
            let lhs_ids = rep.fds.universe.decode(fd.lhs);
            let gained_ids = rep.fds.universe.decode(gained);
            let lhs_has_action = lhs_ids.iter().any(|&a| p.catalog.attr(a).kind.is_action());
            let rhs_has_match = gained_ids
                .iter()
                .any(|&a| p.catalog.attr(a).kind.is_matchable());
            let mut d = Diagnostic::new(
                lint,
                format!(
                    "({}) -> ({}) holds, so those facts are stated once per matching entry",
                    lhs.join(", "),
                    rhs.join(", ")
                ),
            )
            .table(&t.name);
            if lhs_has_action && rhs_has_match {
                let msg = format!(
                    "violating FD ({}) -> ({}) has actions determining match fields; \
                     decomposing along it yields non-1NF stages that misroute packets (Fig. 3)",
                    lhs.join(", "),
                    rhs.join(", ")
                );
                // Several violating FDs can share a determinant; warn once.
                if !out
                    .diagnostics
                    .iter()
                    .any(|x| x.lint == "action-to-match-dependency" && x.message == msg)
                {
                    out.diagnostics
                        .push(Diagnostic::new("action-to-match-dependency", msg).table(&t.name));
                }
                d = d.suggest(
                    "not auto-fixable: the Fig. 3 action-to-match shape refuses decomposition",
                );
            } else {
                d = d.suggest(format!(
                    "decompose {} along ({}) -> ({}); `mapro normalize` applies this \
                     Heath decomposition",
                    t.name,
                    lhs.join(", "),
                    rhs.join(", ")
                ));
            }
            // Distinct FDs with the same closure (e.g. () -> a and () -> b)
            // collapse to one finding — the decomposition fixing one fixes all.
            if !out
                .diagnostics
                .iter()
                .any(|x| x.lint == d.lint && x.table == d.table && x.message == d.message)
            {
                out.diagnostics.push(d);
            }
        };

        for &fd in &rep.partial_deps {
            emit(fd, "partial-dependency", out);
        }
        for &fd in &rep.transitive_deps {
            if !rep.partial_deps.contains(&fd) {
                emit(fd, "transitive-dependency", out);
            }
        }
        for &fd in &rep.bcnf_deps {
            if !rep.transitive_deps.contains(&fd) {
                emit(fd, "bcnf-dependency", out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    fn lint(p: &Pipeline, cfg: &LintConfig) -> LintReport {
        let mut r = LintReport::default();
        check_redundancy(p, cfg, &mut r);
        r
    }

    /// Fig. 1a in miniature: (src, dst) key, dst → port partial dependency.
    fn fig1_like() -> Pipeline {
        let mut c = Catalog::new();
        let src = c.field("src", 8);
        let dst = c.field("dst", 8);
        let port = c.field("port", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![src, dst, port], vec![out]);
        for (s, d, pt, o) in [
            (0u64, 1u64, 80u64, "vm1"),
            (1, 1, 80, "vm2"),
            (0, 2, 80, "vm3"),
            (1, 2, 80, "vm4"),
            (0, 3, 22, "vm5"),
        ] {
            t.row(
                vec![Value::Int(s), Value::Int(d), Value::Int(pt)],
                vec![Value::sym(o)],
            );
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn partial_dependency_with_heath_suggestion() {
        let p = fig1_like();
        let r = lint(&p, &LintConfig::default());
        let d: Vec<_> = r.with_lint("partial-dependency").collect();
        assert!(!d.is_empty(), "{:?}", r.diagnostics);
        let fix = d[0].suggestion.as_deref().unwrap();
        assert!(fix.contains("decompose t along (dst) -> "), "{fix}");
        assert!(fix.contains("port"), "{fix}");
    }

    #[test]
    fn fig3_action_to_match_flagged() {
        let v = mapro_workloads::Vlan::fig3();
        let r = lint(&v.universal, &LintConfig::default());
        let d: Vec<_> = r.with_lint("action-to-match-dependency").collect();
        assert!(!d.is_empty(), "{:?}", r.diagnostics);
        assert!(d[0].message.contains("out"), "{}", d[0].message);
        // The underlying violation is reported as not auto-fixable.
        assert!(r.diagnostics.iter().any(|d| d
            .suggestion
            .as_deref()
            .is_some_and(|s| s.contains("not auto-fixable"))));
    }

    #[test]
    fn overlap_reported_as_order_dependence() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::prefix(0, 4, 8)], vec![Value::sym("a")]);
        t.row(vec![Value::prefix(0, 2, 8)], vec![Value::sym("b")]);
        let p = Pipeline::single(c, t);
        let r = lint(&p, &LintConfig::default());
        assert_eq!(r.with_lint("overlapping-entries").count(), 1);
    }

    #[test]
    fn declared_fd_participates() {
        // Instance too small for mining to see dst → port? Mining always
        // sees instance-true FDs, so declare one the instance does NOT
        // witness is impossible; instead declare one that mining already
        // finds and check nothing breaks, plus a bad declaration warns.
        let p = fig1_like();
        let cfg = LintConfig {
            declared_fds: vec![
                DeclaredFd {
                    table: "t".into(),
                    lhs: vec!["dst".into()],
                    rhs: vec!["port".into()],
                },
                DeclaredFd {
                    table: "t".into(),
                    lhs: vec!["nope".into()],
                    rhs: vec!["port".into()],
                },
            ],
            ..Default::default()
        };
        let r = lint(&p, &cfg);
        assert!(r.with_lint("partial-dependency").count() >= 1);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.message.contains("declared FD")));
    }

    #[test]
    fn normalized_pipeline_has_no_redundancy_errors() {
        let g = mapro_workloads::Gwlb::random(6, 4, 7);
        let n =
            mapro_normalize::normalize(&g.universal, &mapro_normalize::NormalizeOpts::default());
        assert!(n.complete());
        let r = lint(&n.pipeline, &LintConfig::default());
        assert_eq!(r.count(Severity::Error), 0, "{:?}", r.diagnostics);
        assert_eq!(r.with_lint("partial-dependency").count(), 0);
        assert_eq!(r.with_lint("transitive-dependency").count(), 0);
    }
}
