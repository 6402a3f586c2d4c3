//! The `dd.*` obs counters against the managers' own tallies. A manager
//! counts its work in plain integers and hands the counters the difference
//! at the end of a compile, a check or a collection — so what a reader of
//! the registry sees between calls must be exactly what the managers have
//! done, never a count still waiting for a drop. Counts repeat exactly,
//! which is what lets this be an equality.
//!
//! One `#[test]`: the obs registry is process-global, and a second test
//! running beside this one would show up in it.

use mapro::prelude::*;
use mapro_core::{apply_update, delta_rows, RuleUpdate};
use mapro_obs::Counter;
use mapro_sym::dd::{NodeRef, Stats};
use mapro_sym::{
    check_symbolic, match_rows, DdEngine, FieldSpace, IncrementalChecker, Side, SymConfig,
    TableLiveness,
};
use std::sync::Arc;

/// The four counters a manager publishes to, zeroed.
struct ObsCounters([Arc<Counter>; 4]);

impl ObsCounters {
    fn reset() -> ObsCounters {
        let c = |name| {
            let counter = mapro_obs::registry().counter(name);
            counter.reset();
            counter
        };
        ObsCounters([
            c("dd.nodes"),
            c("dd.unique.hits"),
            c("dd.memo.hits"),
            c("dd.memo.misses"),
        ])
    }

    fn read(&self) -> Stats {
        let [nodes, unique_hits, memo_hits, memo_misses] = &self.0;
        Stats {
            nodes: nodes.get(),
            unique_hits: unique_hits.get(),
            memo_hits: memo_hits.get(),
            memo_misses: memo_misses.get(),
        }
    }
}

fn plus(a: Stats, b: Stats) -> Stats {
    Stats {
        nodes: a.nodes + b.nodes,
        unique_hits: a.unique_hits + b.unique_hits,
        memo_hits: a.memo_hits + b.memo_hits,
        memo_misses: a.memo_misses + b.memo_misses,
    }
}

#[test]
fn counters_are_exact_at_call_boundaries() {
    let g = Gwlb::random(8, 4, 7919);
    let goto = g.normalized(JoinKind::Goto).unwrap();
    let cfg = SymConfig::default();
    let obs = ObsCounters::reset();
    // What managers that no longer exist had tallied when they went.
    let mut retired = Stats::default();

    // An engine driven by hand: every public call leaves the registry
    // level with the manager.
    let space = FieldSpace::from_pipelines(&[&g.universal, &goto]);
    let mut eng = DdEngine::new(&space, &cfg);
    let exact = |eng: &DdEngine, what: &str| {
        assert_eq!(obs.read(), eng.mgr.stats(), "after {what}");
    };
    let l = eng.compile(&g.universal, &space, &cfg).unwrap();
    exact(&eng, "compile");
    assert!(eng.mgr.stats().nodes > 0 && eng.mgr.stats().memo_misses > 0);
    let r = eng.compile(&goto, &space, &cfg).unwrap();
    exact(&eng, "a second compile");
    assert_eq!(l, r);
    let dirty = [space.universe()];
    let d = eng.region(&dirty).unwrap();
    exact(&eng, "region");
    eng.compile_within(&goto, &space, &cfg, d, &dirty, &match_rows(&goto))
        .unwrap();
    exact(&eng, "compile_within");
    let mut roots = [l];
    eng.mgr.gc(&mut roots);
    exact(&eng, "gc");
    // Work on the manager itself waits for the next publish — or the drop.
    let x = eng.mgr.var(0).unwrap();
    eng.mgr.ite(x, roots[0], NodeRef::term(0)).unwrap();
    assert_ne!(obs.read(), eng.mgr.stats());
    let by_hand = eng.mgr.stats();
    drop(eng);
    assert_eq!(obs.read(), by_hand, "after drop");
    retired = plus(retired, by_hand);

    // A one-shot check builds and drops its own engine: the registry moves
    // by what the same two compiles cost an engine we can read.
    let mut eng = DdEngine::new(&space, &cfg);
    eng.compile(&g.universal, &space, &cfg).unwrap();
    eng.compile(&goto, &space, &cfg).unwrap();
    let two_compiles = eng.mgr.stats();
    drop(eng);
    retired = plus(retired, two_compiles);
    assert!(check_symbolic(&g.universal, &goto, &cfg)
        .unwrap()
        .is_equivalent());
    retired = plus(retired, two_compiles);
    assert_eq!(obs.read(), retired, "after check_symbolic");

    // Per-table liveness: its manager is gone when it returns.
    let (widths, rows) = {
        let t = &g.universal.tables[0];
        let widths: Vec<u32> = t
            .match_attrs
            .iter()
            .map(|&a| g.universal.catalog.attr(a).width)
            .collect();
        (widths, match_rows(&g.universal).remove(0))
    };
    let before = obs.read();
    TableLiveness::build(&widths, &rows, cfg.max_nodes).unwrap();
    let once = obs.read();
    assert!(once.nodes > before.nodes);
    TableLiveness::build(&widths, &rows, cfg.max_nodes).unwrap();
    assert_eq!(
        plus(once, once),
        plus(before, obs.read()),
        "same work twice"
    );
    retired = obs.read();

    // A session never drops its manager: every update must publish.
    let mut s = IncrementalChecker::new(&goto, &goto, &cfg).unwrap();
    assert_eq!(obs.read(), plus(retired, s.dd_stats()), "after new");
    let out = goto.catalog.lookup("out").expect("gwlb outputs");
    for step in 0..40 {
        let left = s.left();
        let t = &left.tables[1 + step % (left.tables.len() - 1)];
        let u = RuleUpdate::Modify {
            table: t.name.clone(),
            matches: t.entries[step % t.entries.len()].matches.clone(),
            set: vec![(out, Value::sym(format!("moved-{step}")))],
        };
        let rows = delta_rows(left, &u);
        let worked = s.dd_stats();
        s.update(Side::Left, &rows, 1, step as u64, |p| {
            apply_update(p, &u).map(drop)
        })
        .unwrap();
        assert!(!s.last_dirty().is_empty(), "step {step} fell back");
        assert_ne!(s.dd_stats(), worked, "step {step} did no work");
        assert_eq!(
            obs.read(),
            plus(retired, s.dd_stats()),
            "after update {step}"
        );
    }
}
