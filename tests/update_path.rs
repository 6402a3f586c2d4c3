//! The one table-granular update path: an engine edited flow-mod by
//! flow-mod (`CompiledEngine::apply_update` → `recompile_table`, the path
//! `LiveSwitch`, `CachedEngine` and plan rollback all take) must be
//! indistinguishable from a fresh compile of the resulting pipeline — in
//! every `ProcessOut` field, accumulated f64 costs included.
//!
//! Streams mix `Insert`, `Delete`, `Modify` of an output and `Modify`
//! that rewrites a match cell, interleaved with plans that fail midway
//! (second flow-mod names a missing entry, or no longer compiles) and must
//! roll back to the pre-plan state. The "untouched tables are not rebuilt"
//! half of the contract needs engine internals and is asserted by
//! `live::tests::incremental_recompile_reuses_untouched_tables`.

use mapro::control::{RuleUpdate, UpdatePlan};
use mapro::core::{AttrKind, Domain, Entry};
use mapro::prelude::*;
use mapro::switch::{CachedEngine, LiveSwitch, ProcessOut};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random flow-mod against `p`. `fresh` is a value no match cell holds
/// yet, so rewritten and inserted match tuples stay unique.
fn random_update(p: &Pipeline, rng: &mut SmallRng, fresh: u64) -> RuleUpdate {
    let t = &p.tables[rng.gen_range(0..p.tables.len())];
    let e = &t.entries[rng.gen_range(0..t.len())];
    let col = rng.gen_range(0..t.match_attrs.len());
    let out_col = t
        .action_attrs
        .iter()
        .position(|&a| matches!(p.catalog.attr(a).kind, AttrKind::Action(ActionSem::Output)));
    match rng.gen_range(0..4u32) {
        0 if t.len() > 1 => RuleUpdate::Delete {
            table: t.name.clone(),
            matches: e.matches.clone(),
        },
        1 => {
            let mut matches = e.matches.clone();
            matches[col] = Value::Int(fresh);
            RuleUpdate::Insert {
                table: t.name.clone(),
                entry: Entry::new(matches, e.actions.clone()),
            }
        }
        2 if out_col.is_some() => RuleUpdate::Modify {
            table: t.name.clone(),
            matches: e.matches.clone(),
            set: vec![(
                t.action_attrs[out_col.unwrap()],
                Value::sym(format!("port{fresh}")),
            )],
        },
        _ => RuleUpdate::Modify {
            table: t.name.clone(),
            matches: e.matches.clone(),
            set: vec![(t.match_attrs[col], Value::Int(fresh))],
        },
    }
}

/// A flow-mod that cannot land: a missing entry (`ApplyError`) or a
/// symbolic match cell (the edited table no longer compiles).
fn failing_update(p: &Pipeline, rng: &mut SmallRng) -> RuleUpdate {
    let t = &p.tables[rng.gen_range(0..p.tables.len())];
    if rng.gen::<bool>() {
        RuleUpdate::Delete {
            table: t.name.clone(),
            matches: vec![Value::Int(0xdead); t.match_attrs.len()],
        }
    } else {
        RuleUpdate::Modify {
            table: t.name.clone(),
            matches: t.entries[0].matches.clone(),
            set: vec![(t.match_attrs[0], Value::sym("oops"))],
        }
    }
}

/// Probe packets over the current pipeline's match boundaries: hits and
/// misses of every table, tracking rewritten match cells.
fn probes(p: &Pipeline, seed: u64) -> Vec<Packet> {
    Domain::from_pipelines(&[p])
        .expect("interval predicates")
        .sample(&Packet::zero(&p.catalog), 64, seed)
}

/// The incrementally edited switches against fresh compiles of `want`.
fn assert_equals_fresh_compile(
    live: &mut LiveSwitch,
    cached: &mut [CachedEngine],
    want: &Pipeline,
    seed: u64,
    ctx: &str,
) {
    assert_eq!(live.pipeline(), want, "{ctx}: control state");
    let mut fresh_live = LiveSwitch::eswitch(want.clone()).expect("compiles");
    let mut fresh = SwitchModel::eswitch(want).expect("compiles");
    for pkt in probes(want, seed) {
        let walk = fresh.process(&pkt);
        assert_eq!(live.process(&pkt), walk, "{ctx}: live vs fresh model");
        assert_eq!(fresh_live.process(&pkt), walk, "{ctx}: fresh live");
        for ce in cached.iter_mut() {
            let r = ce.process(&pkt);
            if r.slow_path {
                // A miss is the inner engine's walk plus the install cost.
                let miss = ProcessOut {
                    service_ns: walk.service_ns + ce.install_ns,
                    latency_ns: walk.latency_ns + ce.install_ns,
                    slow_path: true,
                    ..walk.clone()
                };
                assert_eq!(r, miss, "{ctx}: cached miss vs fresh walk");
            } else {
                // A hit is a verdict that survived every invalidation.
                assert_eq!(
                    (&r.output, r.dropped, r.lookups),
                    (&walk.output, walk.dropped, 1),
                    "{ctx}: stale megaflow served"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn recompiled_engines_equal_fresh_compiles(seed in 0u64..10_000, goto in any::<bool>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Gwlb::random(4, 4, seed);
        let start = if goto {
            g.normalized(JoinKind::Goto).expect("decomposes")
        } else {
            g.universal.clone()
        };
        let mut want = start.clone();
        let mut live = LiveSwitch::eswitch(start.clone()).expect("compiles");
        // Default capacity (hits survive disjoint updates) and capacity 1
        // (nearly every probe walks the recompiled inner engine).
        let mut cached = [
            CachedEngine::eswitch(&start).expect("compiles"),
            CachedEngine::eswitch(&start).expect("compiles"),
        ];
        cached[1].set_cache_capacity(1);
        assert_equals_fresh_compile(&mut live, &mut cached, &want, seed, "install");

        for step in 0..10u64 {
            let u = random_update(&want, &mut rng, 50_000 + step);
            let ctx = format!("seed {seed} step {step} {u:?}");
            mapro::control::apply_update(&mut want, &u).expect("generated against `want`");
            live.apply_update(&u).expect("valid update");
            for ce in cached.iter_mut() {
                ce.apply_update(&u).expect("valid update");
            }
            assert_equals_fresh_compile(&mut live, &mut cached, &want, seed ^ step, &ctx);

            // Every third step: a plan whose second flow-mod fails. The
            // first one landed and was recompiled; rollback must undo both
            // halves. The cached engines refuse the bad flow-mod outright.
            if step % 3 == 2 {
                let ok = random_update(&want, &mut rng, 60_000 + step);
                let bad = failing_update(&want, &mut rng);
                let ctx = format!("seed {seed} step {step} rollback of [{ok:?}, {bad:?}]");
                let plan = UpdatePlan {
                    intent: "fails midway".into(),
                    updates: vec![ok, bad.clone()],
                };
                prop_assert!(live.apply_plan(&plan).is_err(), "{}", ctx);
                for ce in cached.iter_mut() {
                    prop_assert!(ce.apply_update(&bad).is_err(), "{}", ctx);
                }
                assert_equals_fresh_compile(&mut live, &mut cached, &want, seed, &ctx);
            }
        }
        // Both halves of the cached comparison were exercised.
        let s = cached[0].stats();
        prop_assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0, "{:?}", s);
    }
}
