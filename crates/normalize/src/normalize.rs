//! The iterative normalizer: drive a pipeline to 2NF/3NF (§3).
//!
//! Strategy, following the paper's narrative: analyze each table of the
//! pipeline (mining minimal FDs from the instance), find a violating
//! dependency for the target normal form, and split that table along
//! `X → (X⁺ ∖ X)` — stating everything `X` determines in one stage — then
//! repeat until no violations remain. Dependencies whose decomposition is
//! rejected (the Fig. 3 action-to-match shape) are recorded as skipped and
//! never retried, so normalization always terminates with either a
//! normal-form pipeline or an explicit list of irremovable violations.

use crate::join::JoinKind;
use crate::split::{split, Split, SplitError, SplitOpts};
use mapro_core::{ActionSem, AttrId, AttrKind, Pipeline, Table};
use mapro_fd::{analyze, NfLevel, NfReport};
use std::collections::HashSet;

/// Which normal form to drive the pipeline to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Eliminate partial dependencies only.
    SecondNf,
    /// Eliminate partial and transitive dependencies (the paper's stop:
    /// "we stop at 3NF as we find this notion to capture most practical
    /// cases").
    ThirdNf,
    /// Eliminate every dependency whose determinant is not a superkey
    /// (Boyce–Codd, mentioned in §3 as the next rung). BCNF decomposition
    /// may be unreachable for some tables (dependency-preservation is not
    /// guaranteed in general, and action-to-match shapes refuse); such
    /// violations end up in [`Normalized::skipped`].
    Bcnf,
}

/// Options for [`normalize`].
#[derive(Debug, Clone)]
pub struct NormalizeOpts {
    /// The `≫` encoding for every decomposition step.
    pub join: JoinKind,
    /// The normal form to reach.
    pub target: Target,
    /// Verify semantic equivalence after every step.
    pub verify: bool,
    /// Safety bound on the number of decomposition steps.
    pub max_steps: usize,
}

impl Default for NormalizeOpts {
    fn default() -> Self {
        NormalizeOpts {
            join: JoinKind::Metadata,
            target: Target::ThirdNf,
            verify: false,
            max_steps: 64,
        }
    }
}

/// One performed decomposition.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The table that was decomposed.
    pub table: String,
    /// Determinant attribute names.
    pub lhs: Vec<String>,
    /// Decomposed-out attribute names (`X⁺ ∖ X`).
    pub rhs: Vec<String>,
}

/// One skipped (undecomposable) violation.
#[derive(Debug, Clone)]
pub struct SkipRecord {
    /// The table holding the violation.
    pub table: String,
    /// Determinant attribute names.
    pub lhs: Vec<String>,
    /// Why decomposition was refused.
    pub reason: SplitError,
}

/// Result of a normalization run.
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The (possibly partially) normalized pipeline.
    pub pipeline: Pipeline,
    /// Decompositions performed, in order.
    pub steps: Vec<StepRecord>,
    /// Violations whose decomposition was refused along the way. A skip is
    /// not necessarily fatal: a different dependency may have removed the
    /// violation later (check [`Normalized::complete`]).
    pub skipped: Vec<SkipRecord>,
    /// The normal form the final pipeline actually reached (weakest table).
    pub reached: NfLevel,
    /// The requested target.
    pub target: Target,
}

impl Normalized {
    /// True when every table reached the target form.
    pub fn complete(&self) -> bool {
        let need = match self.target {
            Target::SecondNf => NfLevel::Second,
            Target::ThirdNf => NfLevel::Third,
            Target::Bcnf => NfLevel::BoyceCodd,
        };
        self.reached >= need
    }
}

/// The program-meaningful view of a table: every match column, plus every
/// action column that is not representation *plumbing* (goto columns and
/// metadata-write tags exist to chain stages, not to express policy;
/// analyzing them would send the normalizer chasing its own tags — a tag
/// column is constant exactly when its determinant was the empty set).
pub fn program_view(t: &Table, p: &Pipeline) -> Table {
    let keep: Vec<AttrId> = t
        .action_attrs
        .iter()
        .copied()
        .filter(|&a| match &p.catalog.attr(a).kind {
            AttrKind::Action(ActionSem::Goto) => false,
            AttrKind::Action(ActionSem::SetField(target)) => {
                !matches!(p.catalog.attr(*target).kind, AttrKind::Meta)
            }
            _ => true,
        })
        .collect();
    let mut attrs = t.match_attrs.clone();
    attrs.extend(keep);
    let mut view = t.project(&p.catalog, t.name.clone(), &attrs);
    // Projection dedups rows; restore the original rows so 1NF checks see
    // the real entry list (match columns are all kept, so arity is safe).
    view.entries.clear();
    for row in 0..t.len() {
        let m = view
            .match_attrs
            .iter()
            .map(|&a| t.cell(row, a).clone())
            .collect();
        let a = view
            .action_attrs
            .iter()
            .map(|&a| t.cell(row, a).clone())
            .collect();
        view.push(mapro_core::Entry::new(m, a));
    }
    view
}

/// Per-table analysis of a whole pipeline (over each table's
/// [`program_view`]).
pub fn report(p: &Pipeline) -> Vec<(String, NfReport)> {
    p.tables
        .iter()
        .map(|t| (t.name.clone(), analyze(&program_view(t, p), &p.catalog)))
        .collect()
}

/// The weakest normal-form level among the pipeline's tables.
pub fn pipeline_level(p: &Pipeline) -> NfLevel {
    report(p)
        .into_iter()
        .map(|(_, r)| r.level)
        .min()
        .unwrap_or(NfLevel::BoyceCodd)
}

/// Drive `p` to the target normal form. See module docs for the strategy.
///
/// ```
/// use mapro_core::assert_equivalent;
/// use mapro_normalize::{normalize, pipeline_level, NormalizeOpts};
/// use mapro_fd::NfLevel;
///
/// let gwlb = mapro_workloads::Gwlb::random(6, 4, 7);
/// let n = normalize(&gwlb.universal, &NormalizeOpts::default());
/// assert!(n.complete());
/// assert!(pipeline_level(&n.pipeline) >= NfLevel::Third);
/// assert_equivalent(&gwlb.universal, &n.pipeline);
/// ```
pub fn normalize(p: &Pipeline, opts: &NormalizeOpts) -> Normalized {
    let mut cur = p.clone();
    let mut steps = Vec::new();
    let mut skipped = Vec::new();
    // (table, lhs-names) pairs already found undecomposable.
    let mut dead: HashSet<(String, Vec<String>)> = HashSet::new();
    // Each table's analysis, by position. A step replaces one table with
    // its stages in place and only appends to the catalog, so every other
    // table's report (a function of the table and of its own attributes)
    // stays what it was.
    let mut reports: Vec<Option<NfReport>> = vec![None; cur.tables.len()];
    let analyzed =
        |cur: &Pipeline, ti: usize| analyze(&program_view(&cur.tables[ti], cur), &cur.catalog);

    // One sweep: a table is left behind only when every violation it has is
    // dead, which no later step can change — so returning to it (as a
    // restart from table 0 after every step would) finds nothing new.
    let mut ti = 0;
    'tables: while ti < cur.tables.len() && steps.len() < opts.max_steps {
        let rep = reports[ti].get_or_insert_with(|| analyzed(&cur, ti));
        let violations = match opts.target {
            Target::SecondNf => &rep.partial_deps,
            Target::ThirdNf => &rep.transitive_deps,
            Target::Bcnf => &rep.bcnf_deps,
        };
        let tname = cur.tables[ti].name.clone();
        for fd in violations {
            let lhs: Vec<AttrId> = rep.fds.universe.decode(fd.lhs);
            let lhs_names: Vec<String> = lhs
                .iter()
                .map(|&a| cur.catalog.name(a).to_owned())
                .collect();
            let key = (tname.clone(), lhs_names.clone());
            if dead.contains(&key) {
                continue;
            }
            // Decompose along X → (X⁺ ∖ X).
            let closure = rep.fds.closure(fd.lhs);
            let rhs: Vec<AttrId> = rep.fds.universe.decode(closure.minus(fd.lhs));
            let rhs_names: Vec<String> = rhs
                .iter()
                .map(|&a| cur.catalog.name(a).to_owned())
                .collect();
            let fd = Split::Fd {
                x: lhs,
                y: rhs,
                join: opts.join,
            };
            let sopts = SplitOpts {
                verify: opts.verify,
                allow_non_1nf: false,
            };
            match split(&cur, &tname, &fd, &sopts) {
                Ok(next) => {
                    // The stages stand where the table stood; analyze them
                    // (the first keeps the table's name) before moving on.
                    let stages = 1 + next.tables.len() - cur.tables.len();
                    reports.splice(ti..=ti, (0..stages).map(|_| None));
                    cur = next;
                    steps.push(StepRecord {
                        table: tname,
                        lhs: lhs_names,
                        rhs: rhs_names,
                    });
                    continue 'tables;
                }
                Err(e) => {
                    dead.insert(key);
                    skipped.push(SkipRecord {
                        table: tname.clone(),
                        lhs: lhs_names,
                        reason: e,
                    });
                    // Try the table's next violating dependency.
                }
            }
        }
        ti += 1;
    }
    // Tables the step bound kept the sweep from reaching are analyzed now.
    let reached = (0..cur.tables.len())
        .map(|ti| match &reports[ti] {
            Some(rep) => rep.level,
            None => analyzed(&cur, ti).level,
        })
        .min()
        .unwrap_or(NfLevel::BoyceCodd);
    Normalized {
        pipeline: cur,
        steps,
        skipped,
        reached,
        target: opts.target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{assert_equivalent, ActionSem, Catalog, Table, Value};
    use mapro_fd::NfLevel;

    /// Miniature Fig. 1a (same as the split tests).
    fn mini_gw() -> Pipeline {
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
        Pipeline::single(c, t)
    }

    /// Fig. 2a miniature (same as the split tests), with repeated next-hops
    /// and shared smacs per port.
    fn mini_l3() -> Pipeline {
        let mut c = Catalog::new();
        let dst = c.field("dst", 4);
        let smac_f = c.field("eth_src", 8);
        let dmac_f = c.field("eth_dst", 8);
        let ttl = c.action("mod_ttl", ActionSem::Opaque);
        let smac = c.action("mod_smac", ActionSem::SetField(smac_f));
        let dmac = c.action("mod_dmac", ActionSem::SetField(dmac_f));
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("l3", vec![dst], vec![ttl, smac, dmac, out]);
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
        Pipeline::single(c, t)
    }

    #[test]
    fn gw_normalizes_to_3nf_and_stays_equivalent() {
        let p = mini_gw();
        assert!(pipeline_level(&p) < NfLevel::Second);
        for join in [JoinKind::Metadata, JoinKind::Goto, JoinKind::Rematch] {
            let opts = NormalizeOpts {
                join,
                ..Default::default()
            };
            let n = normalize(&p, &opts);
            assert!(n.complete(), "join {join}: skipped {:?}", n.skipped);
            assert!(!n.steps.is_empty());
            assert!(
                pipeline_level(&n.pipeline) >= NfLevel::Third,
                "join {join}: level {:?}",
                pipeline_level(&n.pipeline)
            );
            assert_equivalent(&p, &n.pipeline);
        }
    }

    #[test]
    fn l3_normalizes_through_fig2_chain() {
        let p = mini_l3();
        let n = normalize(&p, &NormalizeOpts::default());
        assert!(n.complete(), "skipped: {:?}", n.skipped);
        assert!(pipeline_level(&n.pipeline) >= NfLevel::Third);
        assert_equivalent(&p, &n.pipeline);
        // At least two decompositions (Fig. 2b then the out → smac step),
        // or one compound step if mining folds them; steps are recorded.
        assert!(!n.steps.is_empty());
    }

    #[test]
    fn already_normalized_pipeline_is_untouched() {
        let p = mini_gw();
        let n1 = normalize(&p, &NormalizeOpts::default());
        let n2 = normalize(&n1.pipeline, &NormalizeOpts::default());
        assert!(n2.steps.is_empty());
        assert_eq!(n2.pipeline.tables.len(), n1.pipeline.tables.len());
    }

    #[test]
    fn second_nf_target_stops_earlier() {
        let p = mini_gw();
        let opts = NormalizeOpts {
            target: Target::SecondNf,
            ..Default::default()
        };
        let n = normalize(&p, &opts);
        assert!(n.complete());
        assert!(pipeline_level(&n.pipeline) >= NfLevel::Second);
        assert_equivalent(&p, &n.pipeline);
    }

    #[test]
    fn fig3_style_violation_reported_as_skipped() {
        // (in_port, vlan | out) with out → vlan: 3NF wants it gone, the
        // decomposition is impossible, normalize must record the skip.
        let mut c = Catalog::new();
        let in_port = c.field("in_port", 8);
        let vlan = c.field("vlan", 12);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![in_port, vlan], vec![out]);
        for (ip, vl, o) in [(1u64, 1u64, "1"), (1, 2, "2"), (2, 1, "1"), (3, 1, "3")] {
            t.row(vec![Value::Int(ip), Value::Int(vl)], vec![Value::sym(o)]);
        }
        let p = Pipeline::single(c, t);
        let n = normalize(&p, &NormalizeOpts::default());
        // Equivalence must hold regardless of what was achieved.
        assert_equivalent(&p, &n.pipeline);
        if !n.complete() {
            assert!(n
                .skipped
                .iter()
                .any(|s| matches!(s.reason, SplitError::StageNot1NF { .. })));
        }
    }

    #[test]
    fn verify_mode_normalization() {
        let p = mini_gw();
        let opts = NormalizeOpts {
            verify: true,
            ..Default::default()
        };
        let n = normalize(&p, &opts);
        assert!(n.complete());
    }

    #[test]
    fn bcnf_target_goes_beyond_3nf() {
        // street/city/zip: 3NF but not BCNF (zip → city with all-prime
        // attributes). The BCNF target decomposes it; 3NF leaves it alone.
        let mut cat = Catalog::new();
        let street = cat.field("street", 8);
        let city = cat.field("city", 8);
        let zip = cat.field("zip", 8);
        let out = cat.action("out", ActionSem::Output);
        let mut t = Table::new("addr", vec![street, city, zip], vec![out]);
        t.row(
            vec![Value::Int(1), Value::Int(1), Value::Int(10)],
            vec![Value::sym("a")],
        );
        t.row(
            vec![Value::Int(2), Value::Int(1), Value::Int(10)],
            vec![Value::sym("b")],
        );
        t.row(
            vec![Value::Int(1), Value::Int(2), Value::Int(20)],
            vec![Value::sym("c")],
        );
        let p = Pipeline::single(cat, t);
        let third = normalize(&p, &NormalizeOpts::default());
        // 3NF target: nothing to do beyond 3NF...
        assert!(pipeline_level(&third.pipeline) >= NfLevel::Third);
        let bcnf = normalize(
            &p,
            &NormalizeOpts {
                target: Target::Bcnf,
                ..Default::default()
            },
        );
        assert_equivalent(&p, &bcnf.pipeline);
        if bcnf.complete() {
            assert_eq!(pipeline_level(&bcnf.pipeline), NfLevel::BoyceCodd);
            assert!(bcnf.pipeline.tables.len() > 1);
        }
    }

    #[test]
    fn bcnf_on_gwlb_equivalent() {
        let p = mini_gw();
        let n = normalize(
            &p,
            &NormalizeOpts {
                target: Target::Bcnf,
                ..Default::default()
            },
        );
        assert_equivalent(&p, &n.pipeline);
    }

    /// The sweep keeps the reports of tables a step did not touch; what it
    /// reads off them must be what a fresh analysis of the output says, on
    /// multi-step runs and when the step bound stops the sweep early.
    #[test]
    fn reached_is_the_level_of_the_output() {
        for p in [mini_gw(), mini_l3()] {
            for join in [JoinKind::Metadata, JoinKind::Goto, JoinKind::Rematch] {
                for target in [Target::SecondNf, Target::ThirdNf, Target::Bcnf] {
                    let full = NormalizeOpts {
                        join,
                        target,
                        ..Default::default()
                    };
                    let n = normalize(&p, &full);
                    assert_eq!(n.reached, pipeline_level(&n.pipeline));
                    for max_steps in 0..n.steps.len() {
                        let cut = normalize(&p, &NormalizeOpts { max_steps, ..full });
                        assert_eq!(cut.steps.len(), max_steps);
                        assert_eq!(cut.reached, pipeline_level(&cut.pipeline));
                    }
                }
            }
        }
    }

    #[test]
    fn report_names_tables() {
        let p = mini_gw();
        let r = report(&p);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, "t0");
    }
}
