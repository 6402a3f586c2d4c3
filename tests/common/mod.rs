//! Generators and checks the differential suites share.

#![allow(dead_code)] // each suite uses its own subset

pub mod spec;

use mapro_control::RuleUpdate;
use mapro_core::{
    ActionSem, AttrKind, Catalog, Counterexample, Entry, MissPolicy, Pipeline, Table, Value,
};
use mapro_workloads::{Enterprise, Gwlb, Sdx, Vlan, L3};
use rand::rngs::SmallRng;
use rand::Rng;

/// A random four-table program with everything a symbolic executor's row
/// skip has to get right: overlapping-priority rows, per-row gotos, a
/// `next` edge, `Fall`/`Controller`/`Drop` misses, metadata written then
/// matched, and a `SetField` of header `g` that `t1` and `t2` re-match —
/// so by the time their rows are tested `g` is concrete, and nothing known
/// about the *input* packet's `g` may exclude a row there, nor may such a
/// row narrow what is known about the input on the way to `t3`. `t2` may
/// write `g` again, so a walk can set one field twice (the last write
/// wins). `cell(rng, width)` draws one match cell.
pub fn rewrite_zoo(rng: &mut SmallRng, cell: fn(&mut SmallRng, u32) -> Value) -> Pipeline {
    let mut c = Catalog::new();
    let f = c.field("f", 6);
    let g = c.field("g", 6);
    let h = c.field("h", 4);
    let m = c.meta("m", 4);
    let set_m = c.action("set_m", ActionSem::SetField(m));
    let set_g = c.action("set_g", ActionSem::SetField(g));
    let goto = c.action("goto", ActionSem::Goto);
    let out = c.action("out", ActionSem::Output);
    let mut t0 = Table::new("t0", vec![f, g], vec![set_m, set_g, goto]);
    let mut t1 = Table::new("t1", vec![m, g], vec![out]);
    let mut t2 = Table::new("t2", vec![g, h], vec![set_g, out]);
    let mut t3 = Table::new("t3", vec![f, h], vec![out]);
    for i in 0..6u64 {
        let rewrite = if rng.gen_bool(0.6) {
            Value::Int(rng.gen_range(0..64))
        } else {
            Value::Any
        };
        let target = match rng.gen_range(0..4u8) {
            0 | 1 => Value::sym("t2"),
            2 => Value::sym("t3"),
            _ => Value::Any, // falls to `next`
        };
        t0.row(
            vec![cell(rng, 6), cell(rng, 6)],
            vec![Value::Int(i % 4), rewrite, target],
        );
        t1.row(
            vec![Value::Int(i % 4), cell(rng, 6)],
            vec![Value::sym(format!("a{i}"))],
        );
        let rewrite_again = if rng.gen_bool(0.5) {
            Value::Int(rng.gen_range(0..64))
        } else {
            Value::Any
        };
        t2.row(
            vec![cell(rng, 6), cell(rng, 4)],
            vec![rewrite_again, Value::sym(format!("b{i}"))],
        );
        t3.row(
            vec![cell(rng, 6), cell(rng, 4)],
            vec![Value::sym(format!("c{i}"))],
        );
    }
    t0.next = Some("t1".into());
    t0.miss = MissPolicy::Fall("t3".into());
    t1.next = Some("t3".into());
    t1.miss = MissPolicy::Controller;
    t2.next = Some("t3".into());
    t2.miss = MissPolicy::Fall("t3".into());
    t3.miss = MissPolicy::Controller;
    Pipeline::new(c, vec![t0, t1, t2, t3], "t0")
}

/// One random match cell of `width` bits: a wildcard, an exact value, a
/// prefix or a sparse ternary.
fn any_cell(rng: &mut SmallRng, width: u32) -> Value {
    let full = (1u64 << width) - 1;
    match rng.gen_range(0..4u8) {
        0 => Value::Any,
        1 => Value::Int(rng.gen_range(0..=full)),
        2 => Value::prefix(
            rng.gen_range(0..=full),
            rng.gen_range(1..=width as u8),
            width,
        ),
        _ => {
            let mask = rng.gen_range(0..=full) & rng.gen_range(0..=full);
            Value::Ternary {
                bits: rng.gen_range(0..=full) & mask,
                mask,
            }
        }
    }
}

/// A random program in which what a flow-mod can change depends on the
/// path that reaches the edited table. `front` fans out by goto on `f`
/// (never written, so each branch's selector survives to the sub-table)
/// into three per-service tables; its hits without a goto continue at
/// `svc0` and its misses fall to `svc2`. The sub-tables match `h` (never
/// written) and `g`, which `front` matches and then may `SetField` — so
/// nothing about the input `g` may narrow a footprint there, though the
/// walk pinned it. `svc0` continues at `tail` by
/// `next`, `svc1`'s misses fall to it, some sub-table rows goto it, and
/// `tail` joins on the metadata `m` that `front` wrote. No edge leads
/// back, so every walk ends. Edit it with [`reach_zoo_edit`].
pub fn reach_zoo(rng: &mut SmallRng) -> Pipeline {
    let mut c = Catalog::new();
    let f = c.field("f", 6);
    let g = c.field("g", 6);
    let h = c.field("h", 4);
    let m = c.meta("m", 4);
    let set_m = c.action("set_m", ActionSem::SetField(m));
    let set_g = c.action("set_g", ActionSem::SetField(g));
    let goto = c.action("goto", ActionSem::Goto);
    let out = c.action("out", ActionSem::Output);
    let mut tables = vec![Table::new("front", vec![f, g, h], vec![set_m, set_g, goto])];
    for svc in ["svc0", "svc1", "svc2"] {
        tables.push(Table::new(svc, vec![h, g], vec![out, goto]));
    }
    tables.push(Table::new("tail", vec![m, f], vec![out]));
    tables[0].next = Some("svc0".into());
    tables[0].miss = MissPolicy::Fall("svc2".into());
    tables[1].next = Some("tail".into());
    tables[2].miss = MissPolicy::Fall("tail".into());
    tables[3].miss = MissPolicy::Controller;
    tables[4].miss = MissPolicy::Controller;
    let mut p = Pipeline::new(c, tables, "front");
    for ti in 0..p.tables.len() {
        for _ in 0..rng.gen_range(3..6) {
            let entry = zoo_entry(&p, ti, rng, 0);
            p.tables[ti].push(entry);
        }
    }
    p
}

/// A random row for table `ti` of a [`reach_zoo`] program. `front`'s `f`
/// cell is mostly an exact selector, so that the fan-out is one.
fn zoo_entry(p: &Pipeline, ti: usize, rng: &mut SmallRng, step: u64) -> Entry {
    let t = &p.tables[ti];
    let matches = t
        .match_attrs
        .iter()
        .map(|&a| {
            let width = p.catalog.attr(a).width;
            if ti == 0 && p.catalog.name(a) == "f" && rng.gen_bool(0.7) {
                Value::Int(rng.gen_range(0..1 << width))
            } else {
                any_cell(rng, width)
            }
        })
        .collect();
    let actions = t
        .action_attrs
        .iter()
        .map(|&a| zoo_param(p, ti, a, rng, step))
        .collect();
    Entry::new(matches, actions)
}

/// A random parameter for action `attr` of table `ti`: a fresh port, a
/// later table (or no goto), a rewrite (or none).
fn zoo_param(
    p: &Pipeline,
    ti: usize,
    attr: mapro_core::AttrId,
    rng: &mut SmallRng,
    step: u64,
) -> Value {
    match p.catalog.attr(attr).kind {
        AttrKind::Action(ActionSem::Output) => {
            Value::sym(format!("p{step}-{}", rng.gen_range(0..4u8)))
        }
        AttrKind::Action(ActionSem::Goto) => {
            let later = &p.tables[ti + 1..];
            if later.is_empty() || rng.gen_bool(0.25) {
                Value::Any
            } else {
                Value::sym(&later[rng.gen_range(0..later.len())].name)
            }
        }
        AttrKind::Action(ActionSem::SetField(target)) => {
            if rng.gen_bool(0.3) {
                Value::Any
            } else {
                Value::Int(rng.gen_range(0..1 << p.catalog.attr(target).width))
            }
        }
        _ => Value::Any,
    }
}

/// One random flow-mod against a [`reach_zoo`] program, on a row of any of
/// its tables: delete a row, insert one, re-point an action (a port, a
/// goto target, a rewrite) or re-shape a match cell.
pub fn reach_zoo_edit(p: &Pipeline, step: u64, rng: &mut SmallRng) -> RuleUpdate {
    let ti = rng.gen_range(0..p.tables.len());
    let t = &p.tables[ti];
    let table = t.name.clone();
    let matches = t.entries[rng.gen_range(0..t.len())].matches.clone();
    match rng.gen_range(0..4u8) {
        0 if t.len() > 1 => RuleUpdate::Delete { table, matches },
        1 => RuleUpdate::Insert {
            table,
            entry: zoo_entry(p, ti, rng, step),
        },
        2 => {
            let attr = t.action_attrs[rng.gen_range(0..t.action_attrs.len())];
            RuleUpdate::Modify {
                table,
                matches,
                set: vec![(attr, zoo_param(p, ti, attr, rng, step))],
            }
        }
        _ => {
            let attr = t.match_attrs[rng.gen_range(0..t.match_attrs.len())];
            RuleUpdate::Modify {
                table,
                matches,
                set: vec![(attr, any_cell(rng, p.catalog.attr(attr).width))],
            }
        }
    }
}

/// The six paper workloads the lint and equivalence sweeps pin down.
pub fn paper_workloads() -> Vec<(&'static str, Pipeline)> {
    vec![
        ("gwlb fig1", Gwlb::fig1().universal),
        ("l3 fig2", L3::fig2().universal),
        ("vlan fig3", Vlan::fig3().universal),
        ("sdx fig5", Sdx::fig5().universal),
        ("gwlb random", Gwlb::random(6, 4, 7).universal),
        ("enterprise random", Enterprise::random(12, 3, 5).pipeline),
    ]
}

/// Rename the first symbolic output parameter found in the pipeline —
/// an observable divergence on the paper workloads, whose rows are all
/// reachable (exact, deduplicated matches).
pub fn perturb_one_output(p: &Pipeline) -> Pipeline {
    let mut q = p.clone();
    'edit: for t in &mut q.tables {
        for e in &mut t.entries {
            for v in &mut e.actions {
                if let Value::Sym(s) = v {
                    *v = Value::sym(format!("{s}-perturbed"));
                    break 'edit;
                }
            }
        }
    }
    q
}

/// A counterexample is only as good as the packet it names: re-run both
/// pipelines on it through the concrete `mapro-core` evaluator and
/// require observably different behavior matching the recorded verdicts.
pub fn confirm_counterexample(l: &Pipeline, r: &Pipeline, cx: &Counterexample, ctx: &str) {
    let lv = l
        .run_indexed(&cx.packet, &l.name_index())
        .unwrap_or_else(|e| panic!("{ctx}: cx packet fails on left: {e}"));
    let rv = r
        .run_indexed(&cx.packet, &r.name_index())
        .unwrap_or_else(|e| panic!("{ctx}: cx packet fails on right: {e}"));
    assert_ne!(
        lv.observable(),
        rv.observable(),
        "{ctx}: reported counterexample does not distinguish the pipelines"
    );
    assert_eq!(lv.observable(), cx.left.observable(), "{ctx}: stale left");
    assert_eq!(rv.observable(), cx.right.observable(), "{ctx}: stale right");
}
