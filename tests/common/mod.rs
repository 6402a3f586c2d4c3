//! A generator two differential suites share.

use mapro_core::{ActionSem, Catalog, MissPolicy, Pipeline, Table, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// A random four-table program with everything a symbolic executor's row
/// skip has to get right: overlapping-priority rows, per-row gotos, a
/// `next` edge, `Fall`/`Controller`/`Drop` misses, metadata written then
/// matched, and a `SetField` of header `g` that `t1` and `t2` re-match —
/// so by the time their rows are tested `g` is concrete, and nothing known
/// about the *input* packet's `g` may exclude a row there, nor may such a
/// row narrow what is known about the input on the way to `t3`.
/// `cell(rng, width)` draws one match cell.
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
    let mut t2 = Table::new("t2", vec![g, h], vec![out]);
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
        t2.row(
            vec![cell(rng, 6), cell(rng, 4)],
            vec![Value::sym(format!("b{i}"))],
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
