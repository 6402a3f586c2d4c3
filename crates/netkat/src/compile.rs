//! Compiling match-action tables and pipelines to NetKAT policies.
//!
//! A 1NF table (Eq. (1) of the paper) compiles to the parallel composition
//! of its entries, each entry being the sequential composition of its match
//! predicates and its actions. A multi-table pipeline compiles by inlining
//! `goto` targets and `next` continuations (the pipelines normalization
//! produces are acyclic by construction).
//!
//! Compilation demands **order-independence**: NetKAT's `+` sums *all*
//! matching entries, whereas a priority table takes the first, so the two
//! semantics coincide exactly on 1NF tables. This is the same observation
//! that makes Fig. 3's decomposition incorrect.

use crate::pol::Pol;
use mapro_core::{ActionSem, AttrKind, MissPolicy, Pipeline, Table, Value};
use std::fmt;

/// Why a program could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The table has overlapping entries; `+` semantics would diverge from
    /// priority semantics.
    NotOrderIndependent {
        /// Offending table.
        table: String,
    },
    /// Miss policies other than `Drop` need negation, which the restricted
    /// fragment lacks.
    UnsupportedMissPolicy {
        /// Offending table.
        table: String,
    },
    /// A `goto` chain exceeded the inline budget (cycle).
    GotoCycle {
        /// Offending table.
        table: String,
    },
    /// A `goto`/`set-field` parameter had the wrong value kind.
    BadActionParam {
        /// Offending table.
        table: String,
        /// Offending attribute name.
        attr: String,
    },
    /// A `goto` target does not exist.
    UnknownTable(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotOrderIndependent { table } => {
                write!(f, "table {table:?} is not order-independent (not 1NF)")
            }
            CompileError::UnsupportedMissPolicy { table } => {
                write!(
                    f,
                    "table {table:?}: only drop-on-miss compiles to the fragment"
                )
            }
            CompileError::GotoCycle { table } => write!(f, "goto cycle through {table:?}"),
            CompileError::BadActionParam { table, attr } => {
                write!(f, "table {table:?}: bad parameter for {attr:?}")
            }
            CompileError::UnknownTable(t) => write!(f, "unknown goto target {t:?}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile a whole pipeline, starting at its start table.
pub fn compile_pipeline(p: &Pipeline) -> Result<Pol, CompileError> {
    compile_from(p, &p.start, p.tables.len() + 1)
}

/// Compile the sub-pipeline rooted at `table`.
pub(crate) fn compile_from(p: &Pipeline, table: &str, budget: usize) -> Result<Pol, CompileError> {
    if budget == 0 {
        return Err(CompileError::GotoCycle {
            table: table.to_owned(),
        });
    }
    let t = p
        .table(table)
        .ok_or_else(|| CompileError::UnknownTable(table.to_owned()))?;
    if !matches!(t.miss, MissPolicy::Drop) {
        return Err(CompileError::UnsupportedMissPolicy {
            table: t.name.clone(),
        });
    }
    if !t.order_independence(&p.catalog).is_empty() || !t.rows_unique() {
        return Err(CompileError::NotOrderIndependent {
            table: t.name.clone(),
        });
    }
    let mut entries = Vec::with_capacity(t.len());
    for row in 0..t.len() {
        entries.push(compile_entry(p, t, row, budget)?);
    }
    Ok(Pol::sum(entries))
}

/// Compile one entry: predicates, then actions, then the continuation.
fn compile_entry(p: &Pipeline, t: &Table, row: usize, budget: usize) -> Result<Pol, CompileError> {
    let e = &t.entries[row];
    let mut parts: Vec<Pol> = Vec::new();
    for (i, &attr) in t.match_attrs.iter().enumerate() {
        match &e.matches[i] {
            Value::Any => {} // vacuous predicate
            v => parts.push(Pol::Test(attr, v.clone())),
        }
    }
    let mut goto: Option<&str> = None;
    for (i, &attr) in t.action_attrs.iter().enumerate() {
        let a = p.catalog.attr(attr);
        let param = &e.actions[i];
        if matches!(param, Value::Any) {
            continue;
        }
        let sem = match &a.kind {
            AttrKind::Action(s) => s,
            _ => unreachable!("action column holds non-action attribute"),
        };
        match sem {
            ActionSem::Output => match param {
                Value::Sym(s) => parts.push(Pol::act(format!("out({s})"))),
                _ => {
                    return Err(CompileError::BadActionParam {
                        table: t.name.clone(),
                        attr: a.name.clone(),
                    })
                }
            },
            ActionSem::Opaque => parts.push(Pol::act(format!("{}({param})", a.name))),
            ActionSem::SetField(target) => match param {
                Value::Int(v) => parts.push(Pol::Mod(*target, *v)),
                _ => {
                    return Err(CompileError::BadActionParam {
                        table: t.name.clone(),
                        attr: a.name.clone(),
                    })
                }
            },
            ActionSem::Goto => match param {
                Value::Sym(s) => goto = Some(s.as_ref()),
                _ => {
                    return Err(CompileError::BadActionParam {
                        table: t.name.clone(),
                        attr: a.name.clone(),
                    })
                }
            },
        }
    }
    let continuation = match goto.map(str::to_owned).or_else(|| t.next.clone()) {
        Some(target) => compile_from(p, &target, budget - 1)?,
        None => Pol::Id,
    };
    Ok(Pol::sequence(parts).seq(continuation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pol::{eval, Pk};
    use mapro_core::{ActionSem, AttrId, Catalog, Packet, Table};
    use std::collections::BTreeSet;

    /// Run both semantics on the same field assignment and check agreement.
    fn agree(p: &Pipeline, fields: &[(&str, u64)]) {
        let pol = compile_pipeline(p).expect("compiles");
        let width = |a: AttrId| p.catalog.attr(a).width;
        let pk = Pk {
            fields: fields
                .iter()
                .map(|(n, v)| (p.catalog.lookup(n).unwrap(), *v))
                .collect(),
            acts: BTreeSet::new(),
        };
        let nk = eval(&pol, &pk, &width);

        let pkt = Packet::from_fields(&p.catalog, fields);
        let v = p.run(&pkt).unwrap();

        if v.dropped {
            assert!(nk.is_empty(), "table dropped but NetKAT produced {nk:?}");
            return;
        }
        assert_eq!(nk.len(), 1, "1NF pipeline must be deterministic");
        let got = nk.iter().next().unwrap();
        // Outputs and opaque actions appear as tokens.
        if let Some(out) = &v.output {
            assert!(got.acts.iter().any(|a| **a == *format!("out({out})")));
        }
        for (name, param) in &v.opaque {
            assert!(got.acts.iter().any(|a| **a == *format!("{name}({param})")));
        }
        // Header modifications appear as final field values.
        for (attr, val) in &v.header_mods {
            assert_eq!(got.get(*attr), *val);
        }
    }

    fn two_stage() -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let m = c.meta("m", 8);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let goto = c.action("goto", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![set_m, goto]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(10), Value::sym("t1")]);
        t0.row(vec![Value::Int(2)], vec![Value::Int(20), Value::sym("t1")]);
        let mut t1 = Table::new("t1", vec![m], vec![out]);
        t1.row(vec![Value::Int(10)], vec![Value::sym("p1")]);
        t1.row(vec![Value::Int(20)], vec![Value::sym("p2")]);
        Pipeline::new(c, vec![t0, t1], "t0")
    }

    #[test]
    fn pipeline_compiles_and_agrees() {
        let p = two_stage();
        agree(&p, &[("f", 1)]);
        agree(&p, &[("f", 2)]);
        agree(&p, &[("f", 3)]); // miss → drop
    }

    #[test]
    fn wildcards_become_vacuous_tests() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.field("g", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f, g], vec![out]);
        t.row(vec![Value::Int(1), Value::Any], vec![Value::sym("a")]);
        let p = Pipeline::single(c, t);
        let pol = compile_pipeline(&p).unwrap();
        // Only one Test in the term (the Any is dropped).
        assert_eq!(pol.tests().len(), 1);
        agree(&p, &[("f", 1), ("g", 77)]);
    }

    #[test]
    fn non_order_independent_rejected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("a")]);
        t.row(vec![Value::Any], vec![Value::sym("b")]);
        let p = Pipeline::single(c, t);
        assert!(matches!(
            compile_pipeline(&p),
            Err(CompileError::NotOrderIndependent { .. })
        ));
    }

    #[test]
    fn controller_miss_rejected() {
        let mut p = two_stage();
        p.table_mut("t0").unwrap().miss = MissPolicy::Controller;
        assert!(matches!(
            compile_pipeline(&p),
            Err(CompileError::UnsupportedMissPolicy { .. })
        ));
    }

    #[test]
    fn goto_cycle_rejected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t = Table::new("t0", vec![f], vec![goto]);
        t.row(vec![Value::Int(1)], vec![Value::sym("t0")]);
        let p = Pipeline::new(c, vec![t], "t0");
        assert!(matches!(
            compile_pipeline(&p),
            Err(CompileError::GotoCycle { .. })
        ));
    }

    #[test]
    fn unknown_target_rejected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t = Table::new("t0", vec![f], vec![goto]);
        t.row(vec![Value::Int(1)], vec![Value::sym("zzz")]);
        let p = Pipeline::new(c, vec![t], "t0");
        assert!(matches!(
            compile_pipeline(&p),
            Err(CompileError::UnknownTable(_))
        ));
    }

    #[test]
    fn header_rewrite_compiles_to_mod() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let ttl = c.field("ttl", 8);
        let set_ttl = c.action("set_ttl", ActionSem::SetField(ttl));
        let mut t = Table::new("t", vec![f], vec![set_ttl]);
        t.row(vec![Value::Int(1)], vec![Value::Int(63)]);
        let p = Pipeline::single(c, t);
        agree(&p, &[("f", 1), ("ttl", 64)]);
    }
}
