//! The one table-granular update path: an engine edited flow-mod by
//! flow-mod (`CompiledEngine::apply_update` → `recompile_table`, the path
//! `LiveSwitch`, `CachedEngine` and plan rollback all take) must be
//! indistinguishable from a fresh compile of the resulting pipeline — in
//! every `ProcessOut` field, accumulated f64 costs included.
//!
//! Streams mix `Insert`, `Delete`, `Modify` of an output and `Modify`
//! that rewrites a match cell, interleaved with plans that fail midway
//! (second flow-mod names a missing entry, or no longer compiles) and must
//! roll back to the pre-plan state; `planted_failures_roll_back_exactly`
//! plants an unknown-row delete, a dangling goto or a symbolic match cell
//! at a random position of random `reach_zoo` plans and requires the
//! pipeline `==` to before. The "untouched tables are not rebuilt"
//! half of the contract needs engine internals and is asserted by
//! `live::tests::incremental_recompile_reuses_untouched_tables`.
//!
//! The same streams are the test of megaflow invalidation, which has no
//! behaviour cover to lean on: after every flow-mod a cache hit must be a
//! verdict the fresh compile would give. They run on GWLB (both forms), on
//! Enterprise (NAT rewrites what L3 matches, so most footprints constrain
//! nothing and must evict conservatively), on a random table of
//! overlapping ternary rows, and on `common::reach_zoo`, whose footprints
//! are narrowed by the path that reaches the edited table.

mod common;

use mapro::control::{RuleUpdate, UpdatePlan};
use mapro::core::value::low_mask;
use mapro::core::{AttrKind, Domain, Entry};
use mapro::prelude::*;
use mapro::switch::{CachedEngine, LiveSwitch, ProcessOut};
use mapro::workloads::Enterprise;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random flow-mod against `p`. `fresh` is a value no match cell holds
/// yet, so rewritten and inserted exact match tuples stay unique. Some
/// draws change a table's shape — a prefix or wildcard cell inserted into
/// an all-exact table, the only non-exact row of a table deleted — and
/// some plant a duplicate exact key and then delete its owner, so the
/// copy it shadowed must take over.
fn random_update(p: &Pipeline, fresh: u64, rng: &mut SmallRng) -> RuleUpdate {
    let t = &p.tables[rng.gen_range(0..p.tables.len())];
    let e = &t.entries[rng.gen_range(0..t.len())];
    let col = rng.gen_range(0..t.match_attrs.len());
    // A new parameter for one action column: a fresh port for an output,
    // another row's value for a set-field (later tables still match it).
    let new_param = (!t.action_attrs.is_empty())
        .then(|| rng.gen_range(0..t.action_attrs.len()))
        .and_then(|acol| {
            let attr = t.action_attrs[acol];
            match p.catalog.attr(attr).kind {
                AttrKind::Action(ActionSem::Output) => {
                    Some((attr, Value::sym(format!("port{fresh}"))))
                }
                AttrKind::Action(ActionSem::SetField(_)) => {
                    let donor = &t.entries[rng.gen_range(0..t.len())];
                    Some((attr, donor.actions[acol].clone()))
                }
                _ => None,
            }
        });
    let exact = |e: &Entry| e.matches.iter().all(|v| matches!(v, Value::Int(_)));
    // A table one delete away from all-exact, and that row.
    let lone_wildcard = p.tables.iter().find_map(|t| {
        let mut inexact = t.entries.iter().filter(|e| !exact(e));
        match (inexact.next(), inexact.next()) {
            (Some(row), None) if t.len() > 1 => Some((t, row)),
            _ => None,
        }
    });
    // A table holding an exact row twice, and that row.
    let duplicate = p.tables.iter().find_map(|t| {
        let mut rows = t.entries.iter().enumerate();
        rows.find_map(|(i, e)| {
            (exact(e) && t.entries[i + 1..].iter().any(|d| d.matches == e.matches))
                .then_some((t, e))
        })
    });
    match rng.gen_range(0..7u32) {
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
        2 if new_param.is_some() => RuleUpdate::Modify {
            table: t.name.clone(),
            matches: e.matches.clone(),
            set: vec![new_param.unwrap()],
        },
        4 => {
            let width = p.catalog.attr(t.match_attrs[col]).width;
            let mut matches = e.matches.clone();
            matches[col] = if rng.gen::<bool>() {
                Value::Any
            } else {
                let len = width.min(16);
                Value::prefix((fresh & low_mask(len)) << (width - len), len as u8, width)
            };
            RuleUpdate::Insert {
                table: t.name.clone(),
                entry: Entry::new(matches, e.actions.clone()),
            }
        }
        5 if lone_wildcard.is_some() => {
            let (t, row) = lone_wildcard.unwrap();
            RuleUpdate::Delete {
                table: t.name.clone(),
                matches: row.matches.clone(),
            }
        }
        5 | 6 => match duplicate {
            // Deletes the first copy: the owner of the key.
            Some((t, row)) => RuleUpdate::Delete {
                table: t.name.clone(),
                matches: row.matches.clone(),
            },
            None => RuleUpdate::Insert {
                table: t.name.clone(),
                entry: Entry::new(e.matches.clone(), vec![Value::Any; e.actions.len()]),
            },
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

/// Probe packets for the current pipeline: samples of its match boundaries
/// (uniform noise where a ternary cell has none), then as many again with
/// one random row's match cells laid over them, so that rows deep in a
/// chain and rows just rewritten are actually reached.
fn probes(p: &Pipeline, seed: u64) -> Vec<Packet> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = match Domain::from_pipelines(&[p]) {
        Ok(domain) => domain.sample(&Packet::zero(&p.catalog), 64, seed),
        Err(_) => (0..64)
            .map(|_| {
                let mut pkt = Packet::zero(&p.catalog);
                for &a in p.tables.iter().flat_map(|t| &t.match_attrs) {
                    pkt.set(a, rng.gen::<u64>() & low_mask(p.catalog.attr(a).width));
                }
                pkt
            })
            .collect(),
    };
    for i in 0..out.len() {
        let mut pkt = out[i].clone();
        let t = &p.tables[rng.gen_range(0..p.tables.len())];
        let e = &t.entries[rng.gen_range(0..t.len())];
        for (cell, &a) in e.matches.iter().zip(&t.match_attrs) {
            let w = p.catalog.attr(a).width;
            let (bits, care) = cell.as_ternary(w).expect("numeric match cell");
            pkt.set(a, bits | (pkt.get(a) & !care & low_mask(w)));
        }
        out.push(pkt);
    }
    out
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

/// Drive `start` through ten flow-mods drawn by `next` (every third
/// followed by a plan that fails midway), comparing against a fresh compile
/// throughout.
fn churn_equals_fresh_compiles(
    start: Pipeline,
    seed: u64,
    mut next: impl FnMut(&Pipeline, u64, &mut SmallRng) -> RuleUpdate,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
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
        let u = next(&want, 50_000 + step, &mut rng);
        let ctx = format!("seed {seed} step {step} {u:?}");
        mapro::core::apply_update(&mut want, &u).expect("generated against `want`");
        live.apply_update(&u).expect("valid update");
        for ce in cached.iter_mut() {
            ce.apply_update(&u).expect("valid update");
        }
        assert_equals_fresh_compile(&mut live, &mut cached, &want, seed ^ step, &ctx);

        // Every third step: a plan whose second flow-mod fails. The
        // first one landed and was recompiled; rollback must undo both
        // halves. The cached engines refuse the bad flow-mod outright.
        if step % 3 == 2 {
            let ok = random_update(&want, 60_000 + step, &mut rng);
            let bad = failing_update(&want, &mut rng);
            let ctx = format!("seed {seed} step {step} rollback of [{ok:?}, {bad:?}]");
            let plan = UpdatePlan {
                intent: "fails midway".into(),
                updates: vec![ok, bad.clone()],
            };
            assert!(live.apply_plan(&plan).is_err(), "{ctx}");
            for ce in cached.iter_mut() {
                assert!(ce.apply_update(&bad).is_err(), "{ctx}");
            }
            assert_equals_fresh_compile(&mut live, &mut cached, &want, seed, &ctx);
        }
    }
    // Both halves of the cached comparison were exercised.
    let s = cached[0].stats();
    assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0, "{s:?}");
}

/// One table of overlapping ternary rows over two 16-bit fields (wide
/// enough for `random_update`'s fresh values), earlier rows shadowing later.
fn ternary_table(rng: &mut SmallRng) -> Pipeline {
    let mut c = Catalog::new();
    let fields = [c.field("f", 16), c.field("g", 16)];
    let out = c.action("out", ActionSem::Output);
    let mut t = Table::new("t", fields.to_vec(), vec![out]);
    for i in 0..rng.gen_range(6..14u32) {
        let mut cell = || match rng.gen_range(0..3u32) {
            0 => Value::Any,
            1 => Value::prefix(rng.gen_range(0..1 << 16), rng.gen_range(1..6), 16),
            // Few care bits, so that rows overlap and probes land in them.
            _ => Value::Ternary {
                bits: rng.gen_range(0..1 << 16),
                mask: 1 << rng.gen_range(0..16u32) | 1 << rng.gen_range(0..16u32),
            },
        };
        t.row(vec![cell(), cell()], vec![Value::sym(format!("p{i}"))]);
    }
    Pipeline::new(c, vec![t], "t")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn recompiled_engines_equal_fresh_compiles(seed in 0u64..10_000, goto in any::<bool>()) {
        let g = Gwlb::random(4, 4, seed);
        let start = if goto {
            g.normalized(JoinKind::Goto).expect("decomposes")
        } else {
            g.universal.clone()
        };
        churn_equals_fresh_compiles(start, seed, random_update);
    }

    #[test]
    fn rewritten_fields_are_invalidated_conservatively(seed in 0u64..10_000) {
        churn_equals_fresh_compiles(Enterprise::random(8, 3, seed).pipeline, seed, random_update);
    }

    #[test]
    fn overlapping_ternary_rows_are_invalidated_by_their_own_cubes(seed in 0u64..10_000) {
        let start = ternary_table(&mut SmallRng::seed_from_u64(seed));
        churn_equals_fresh_compiles(start, seed, random_update);
    }
}

/// A failure planted into a `reach_zoo` program's state `q`: a delete of
/// a row that is not there, a goto to a table that is not there, or a
/// symbolic match cell — the first refused by `apply_update`, the other
/// two by the recompile after it.
fn planted_failure(q: &Pipeline, rng: &mut SmallRng) -> RuleUpdate {
    let t = &q.tables[rng.gen_range(0..q.tables.len())];
    let matches = t.entries[rng.gen_range(0..t.len())].matches.clone();
    let goto = t
        .action_attrs
        .iter()
        .copied()
        .find(|&a| matches!(q.catalog.attr(a).kind, AttrKind::Action(ActionSem::Goto)));
    match (rng.gen_range(0..3u8), goto) {
        (0, _) => RuleUpdate::Delete {
            table: t.name.clone(),
            matches: vec![Value::Int(0xdead); t.match_attrs.len()],
        },
        (1, Some(goto)) => RuleUpdate::Modify {
            table: t.name.clone(),
            matches,
            set: vec![(goto, Value::sym("nowhere"))],
        },
        _ => RuleUpdate::Modify {
            table: t.name.clone(),
            matches,
            set: vec![(t.match_attrs[0], Value::sym("oops"))],
        },
    }
}

/// A random plan of 1–5 `reach_zoo` edits against `p` with a planted
/// failure at a random position (everything after it is drawn against the
/// state before it). Returns the plan, the failure's index and the state
/// its prefix leads to.
fn planted_plan(p: &Pipeline, rng: &mut SmallRng) -> (UpdatePlan, usize, Pipeline) {
    let len = rng.gen_range(1..6);
    let at = rng.gen_range(0..len);
    let mut q = p.clone();
    let mut updates = Vec::with_capacity(len);
    for i in 0..len {
        if i == at {
            updates.push(planted_failure(&q, rng));
            continue;
        }
        let u = common::reach_zoo_edit(&q, 70_000 + i as u64, rng);
        if i < at {
            mapro::core::apply_update(&mut q, &u).expect("drawn against `q`");
        }
        updates.push(u);
    }
    let plan = UpdatePlan {
        intent: format!("fails at {at} of {len}"),
        updates,
    };
    (plan, at, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A plan with a failure planted at a random position rolls back
    /// exactly: after `LiveSwitch::apply_plan` refuses it, the pipeline is
    /// `==` to before and the engine equals a fresh compile. Flow-mod by
    /// flow-mod, a second switch and two caches take the prefix and refuse
    /// the planted flow-mod whole, and equal a fresh compile of the prefix.
    #[test]
    fn planted_failures_roll_back_exactly(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut want = common::reach_zoo(&mut rng);
        let mut live = LiveSwitch::eswitch(want.clone()).expect("compiles");
        // Some history first, so the rollback lands on an edited engine.
        for step in 0..3 {
            let u = common::reach_zoo_edit(&want, step, &mut rng);
            mapro::core::apply_update(&mut want, &u).expect("drawn against `want`");
            live.apply_update(&u).expect("valid update");
        }
        let (plan, at, q) = planted_plan(&want, &mut rng);
        let ctx = format!("seed {seed}: {plan:?}");
        prop_assert!(live.apply_plan(&plan).is_err(), "{}", ctx);
        assert_equals_fresh_compile(&mut live, &mut [], &want, seed, &ctx);

        let mut single = LiveSwitch::eswitch(want.clone()).expect("compiles");
        let mut cached = [
            CachedEngine::eswitch(&want).expect("compiles"),
            CachedEngine::eswitch(&want).expect("compiles"),
        ];
        cached[1].set_cache_capacity(1);
        // Fill the caches, so that the prefix has megaflows to evict.
        assert_equals_fresh_compile(&mut single, &mut cached, &want, seed, &ctx);
        for u in &plan.updates[..at] {
            single.apply_update(u).expect("valid update");
            for ce in cached.iter_mut() {
                ce.apply_update(u).expect("valid update");
            }
        }
        let planted = &plan.updates[at];
        prop_assert!(single.apply_update(planted).is_err(), "{}", ctx);
        for ce in cached.iter_mut() {
            prop_assert!(ce.apply_update(planted).is_err(), "{}", ctx);
        }
        assert_equals_fresh_compile(&mut single, &mut cached, &q, seed ^ 1, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flow-mods on every table of a program whose footprints are narrowed
    /// by the path that reaches the edited table — goto fan-out, `next`,
    /// `Fall` misses, a rewritten header and a metadata join (see
    /// `common::reach_zoo`): ten updates a case, after each of which every
    /// probe through the cached engines gets the fresh engine's verdict. A
    /// footprint that drops a `Fall` edge or keeps a rewritten attribute
    /// leaves a stale megaflow behind and fails here.
    #[test]
    fn reach_conditioned_invalidation_serves_no_stale_megaflow(seed in 0u64..1_000_000) {
        let start = common::reach_zoo(&mut SmallRng::seed_from_u64(seed));
        churn_equals_fresh_compiles(start, seed, |p, step, rng| {
            common::reach_zoo_edit(p, step, rng)
        });
    }
}

/// A flow-mod against a table the megaflow reached only through a rewritten
/// register: the L3 row matches the *private* address NAT stored, which the
/// megaflow — keyed on the packet as it arrived — never mentions. Nothing in
/// the row constrains the input, so the megaflow must go; an ACL row for the
/// other half of `ip_src` does constrain it, and must leave it alone.
#[test]
fn flowmod_behind_a_rewrite_evicts_the_megaflow_that_reached_it() {
    let e = Enterprise::random(6, 2, 5);
    let p = &e.pipeline;
    let (pub_ip, pub_port, priv_ip, _) = e.services[0];
    let mut pkt = Packet::zero(&p.catalog);
    pkt.set(e.ip_src, 7);
    pkt.set(e.ip_dst, pub_ip as u64);
    pkt.set(e.tcp_dst, pub_port as u64);
    let mut cached = CachedEngine::eswitch(p).expect("compiles");
    let before = cached.process(&pkt);
    assert!(before.slow_path && before.output.is_some());
    assert!(!cached.process(&pkt).slow_path, "second packet hits");
    // Its megaflow never pinned the private address.
    let mask = cached.megaflow_mask(&pkt).expect("resident");
    assert!(mask.contains(&(e.ip_src, 1 << 31)), "{mask:?}");

    let acl = p.table("acl").unwrap();
    let other_half = acl
        .entries
        .iter()
        .find(|r| r.matches[0] == Value::prefix(1 << 31, 1, 32))
        .expect("every service admits both halves");
    cached
        .apply_update(&RuleUpdate::Delete {
            table: "acl".into(),
            matches: other_half.matches.clone(),
        })
        .unwrap();
    assert_eq!(cached.stats().invalidations, 0, "disjoint on ip_src");
    assert!(!cached.process(&pkt).slow_path);

    let l3 = p.table("l3").unwrap();
    let route = l3
        .entries
        .iter()
        .find(|r| r.matches[0].matches(priv_ip as u64, 32))
        .expect("every backend has a route");
    cached
        .apply_update(&RuleUpdate::Modify {
            table: "l3".into(),
            matches: route.matches.clone(),
            set: vec![(e.out, Value::sym("elsewhere"))],
        })
        .unwrap();
    assert_eq!(cached.stats().invalidations, 1);
    let after = cached.process(&pkt);
    assert!(after.slow_path, "the stale megaflow is gone");
    assert_eq!(after.output.as_deref(), Some("elsewhere"));
}
