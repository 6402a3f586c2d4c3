//! Differential harness for the incremental equivalence session: drive a
//! pipeline pair through a random flow-mod stream and require that after
//! *every* mod the session's verdict equals a from-scratch
//! `check_symbolic` of the session's own pipelines. Every `NotEquivalent`
//! verdict must come with a counterexample the concrete evaluator
//! confirms, byte-identical to the fresh check's (the module contract).
//!
//! The streams exercise every delta class the session distinguishes —
//! action-only modifies, match-cell modifies (old and new row: two dirty
//! cubes), inserts and deletes — on four kinds of program: one random
//! exact-match table; Enterprise ACL→NAT→L3, where the modified L3 and NAT
//! rows sit behind the NAT rewrite (their columns are concrete by the time
//! the executor reaches them, so no dirty cube may exclude them); a ternary
//! table whose low-priority rows are partly shadowed by higher-priority
//! ones; and `common::reach_zoo`, where the footprint of a row is narrowed
//! by the path that reaches its table (goto fan-out, `next`, `Fall`, a
//! rewritten header, a metadata join) and every table is edited. Each mod
//! is first applied to one side (divergence window) and then mirrored
//! (convergence). Underneath the
//! session, the restricted compile is held to its definition on random
//! multi-table programs and random dirty-cube sets. CI runs this file at
//! `MAPRO_THREADS=1` and `=4`, so everything asserted here must be
//! thread-count independent.

mod common;

use common::confirm_counterexample;
use mapro_core::{apply_update, delta_rows, RuleUpdate};
use mapro_core::{ActionSem, Catalog, Entry, EquivOutcome, Pipeline, Table, Value};
use mapro_sym::cube::{Cube, Tern};
use mapro_sym::dd::NodeRef;
use mapro_sym::{
    check_symbolic, match_rows, DdEngine, FieldSpace, IncrementalChecker, Side, SymConfig,
};
use mapro_workloads::{random_table, Enterprise, RandomSpec, RandomTable};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One random flow-mod against the current pipeline, spanning all four
/// delta classes. Inserted rows use match values above the generator's
/// domain so they never collide with an existing tuple.
fn random_mod(p: &Pipeline, rt: &RandomTable, step: usize, rng: &mut SmallRng) -> RuleUpdate {
    let t = &p.tables[0];
    let nrows = t.entries.len();
    match rng.gen_range(0..4u8) {
        // Action-only modify: rewrite the out port of one row.
        0 if nrows > 0 => {
            let row = rng.gen_range(0..nrows);
            RuleUpdate::Modify {
                table: t.name.clone(),
                matches: t.entries[row].matches.clone(),
                set: vec![(rt.out, Value::sym(format!("churn-{step}")))],
            }
        }
        // Match-cell modify: move one row to an unoccupied tuple.
        1 if nrows > 0 => {
            let row = rng.gen_range(0..nrows);
            let col = rng.gen_range(0..rt.field_ids.len());
            RuleUpdate::Modify {
                table: t.name.clone(),
                matches: t.entries[row].matches.clone(),
                set: vec![(rt.field_ids[col], Value::Int(1000 + step as u64))],
            }
        }
        // Delete one row (only while a few remain, so the stream keeps
        // having targets).
        2 if nrows > 2 => {
            let row = rng.gen_range(0..nrows);
            RuleUpdate::Delete {
                table: t.name.clone(),
                matches: t.entries[row].matches.clone(),
            }
        }
        // Insert a fresh row on a tuple outside the generator's domain.
        _ => {
            let matches: Vec<Value> = (0..rt.field_ids.len())
                .map(|c| Value::Int(2000 + step as u64 * 8 + c as u64))
                .collect();
            RuleUpdate::Insert {
                table: t.name.clone(),
                entry: Entry::new(matches, vec![Value::sym(format!("new-{step}"))]),
            }
        }
    }
}

/// One flow-mod against Enterprise ACL→NAT→L3. `nat` rewrites `ip_dst` and
/// `tcp_dst`, so an `l3` or `nat` row says nothing about the input packet
/// (its dirty cube is the universe) and its columns are concrete when the
/// restricted compile reaches it; `acl` matches the never-written `ip_src`,
/// so moving one of its rows between disjoint prefixes gives two cubes.
fn enterprise_mod(p: &Pipeline, e: &Enterprise, step: usize, rng: &mut SmallRng) -> RuleUpdate {
    let row_of = |table: &str, rng: &mut SmallRng| {
        let t = p.table(table).expect("stage exists");
        t.entries[rng.gen_range(0..t.entries.len())].matches.clone()
    };
    let rack = rng.gen_range(0..4u64);
    match rng.gen_range(0..5u8) {
        // Behind the rewrite, action-only: re-home one rack.
        0 => RuleUpdate::Modify {
            table: "l3".into(),
            matches: row_of("l3", rng),
            set: vec![(e.out, Value::sym(format!("uplink-{step}")))],
        },
        // Behind the rewrite, match-changing: narrow or move a rack route.
        1 => RuleUpdate::Modify {
            table: "l3".into(),
            matches: row_of("l3", rng),
            set: vec![(
                e.ip_dst,
                Value::prefix((10 << 24) | (rack << 16) | (step as u64) << 8, 24, 32),
            )],
        },
        // The rewrite itself: NAT one service onto another rack.
        2 => RuleUpdate::Modify {
            table: "nat".into(),
            matches: row_of("nat", rng),
            set: vec![(e.set_ip, Value::Int((10 << 24) | (rack << 16) | 77))],
        },
        // A matched-then-rewritten column: move a service's public port.
        3 => RuleUpdate::Modify {
            table: "nat".into(),
            matches: row_of("nat", rng),
            set: vec![(e.tcp_dst, Value::Int(8000 + step as u64))],
        },
        // Ahead of the rewrite: admit a different client prefix.
        _ => RuleUpdate::Modify {
            table: "acl".into(),
            matches: row_of("acl", rng),
            set: vec![(e.ip_src, Value::prefix(rng.gen_range(0..4u64) << 30, 2, 32))],
        },
    }
}

/// One ternary table in which every row but the first is partly shadowed:
/// `f = 0001****` and `g = 3` sit above the half-space `f = 0*******` and
/// the catch-all, so the low-priority rows win only what is left over.
fn shadowed_table() -> (Pipeline, [mapro_core::AttrId; 3]) {
    let mut c = Catalog::new();
    let f = c.field("f", 8);
    let g = c.field("g", 8);
    let out = c.action("out", ActionSem::Output);
    let mut t = Table::new("t", vec![f, g], vec![out]);
    let tern = |bits, mask| Value::Ternary { bits, mask };
    t.row(vec![tern(0x10, 0xf0), Value::Any], vec![Value::sym("a")]);
    t.row(vec![Value::Any, Value::Int(3)], vec![Value::sym("b")]);
    t.row(vec![tern(0x00, 0x80), Value::Any], vec![Value::sym("c")]);
    t.row(vec![Value::Any, Value::Any], vec![Value::sym("d")]);
    (Pipeline::single(c, t), [f, g, out])
}

/// One flow-mod against [`shadowed_table`]: re-point or re-shape any row —
/// editing a low-priority row changes behavior only where the rows above
/// let packets through, editing a high-priority one un-shadows the rest.
fn shadowed_mod(
    p: &Pipeline,
    [f, g, out]: [mapro_core::AttrId; 3],
    step: usize,
    rng: &mut SmallRng,
) -> RuleUpdate {
    let t = &p.tables[0];
    let matches = t.entries[rng.gen_range(0..t.entries.len())].matches.clone();
    let mask = rng.gen_range(0..=0xffu64) & rng.gen_range(0..=0xffu64);
    let cell = Value::Ternary {
        bits: rng.gen_range(0..=0xffu64) & mask,
        mask,
    };
    let set = match rng.gen_range(0..3u8) {
        0 => vec![(out, Value::sym(format!("churn-{step}")))],
        1 => vec![(f, cell)],
        _ => vec![(g, cell), (out, Value::sym(format!("both-{step}")))],
    };
    RuleUpdate::Modify {
        table: t.name.clone(),
        matches,
        set,
    }
}

/// Assert the session verdict equals a fresh check of the session's own
/// pipelines; confirm and byte-compare the witness when they disagree
/// somewhere.
fn verdict_matches_fresh(s: &IncrementalChecker, ctx: &str) {
    let fresh = check_symbolic(s.left(), s.right(), &SymConfig::default())
        .unwrap_or_else(|e| panic!("{ctx}: fresh check errored: {e}"));
    assert_eq!(
        s.verdict().is_equivalent(),
        fresh.is_equivalent(),
        "{ctx}: session verdict diverged from a from-scratch check"
    );
    let session_cx = s.counterexample().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    match (&session_cx, &fresh) {
        (Some(cx), EquivOutcome::Counterexample(fresh_cx)) => {
            confirm_counterexample(s.left(), s.right(), cx, ctx);
            assert_eq!(
                cx.fields, fresh_cx.fields,
                "{ctx}: session witness differs from the fresh check's"
            );
        }
        (None, EquivOutcome::Counterexample(_)) | (Some(_), _) => {
            panic!("{ctx}: witness presence disagrees with the verdict")
        }
        (None, _) => {}
    }
}

/// Drive one seeded stream of `steps` `next_mod`s through a session over
/// two copies of `base`, checking the verdict against a fresh check after
/// every single mod. A mod whose rows some packet can reach must stay on
/// the delta path; one that no packet can reach dirties nothing.
fn stream_tracks_fresh_checks(
    base: &Pipeline,
    seed: u64,
    steps: usize,
    mut next_mod: impl FnMut(&Pipeline, usize, &mut SmallRng) -> RuleUpdate,
) {
    let mut s = IncrementalChecker::new(base, base, &SymConfig::default()).unwrap();
    assert!(
        s.verdict().is_equivalent(),
        "identical pair at session start"
    );

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1CE);
    let mut txn = 0u64;
    for step in 0..steps {
        let u = next_mod(s.left(), step, &mut rng);

        // Divergence window: the mod lands on the left only.
        let rows = delta_rows(s.left(), &u);
        txn += 1;
        let t = s
            .update(Side::Left, &rows, 1, txn, |p| apply_update(p, &u).map(drop))
            .unwrap();
        assert_eq!(t.verdict, s.verdict(), "token reports the session verdict");
        let reachable = s
            .left()
            .flowmod_footprint(&rows)
            .iter()
            .any(Option::is_some);
        assert_eq!(
            s.last_dirty().is_empty(),
            !reachable,
            "seed {seed} step {step}: {u:?} fell back to a full rebuild"
        );
        verdict_matches_fresh(&s, &format!("seed {seed} step {step} diverged {u:?}"));

        // Convergence: mirror the same mod to the right.
        let rows = delta_rows(s.right(), &u);
        txn += 1;
        s.update(Side::Right, &rows, 1, txn, |p| {
            apply_update(p, &u).map(drop)
        })
        .unwrap();
        assert!(
            s.verdict().is_equivalent(),
            "seed {seed} step {step}: mirrored mod must reconverge"
        );
        verdict_matches_fresh(&s, &format!("seed {seed} step {step} converged"));
    }
}

/// A match-changing `Modify` dirties the old row and the new one: the
/// session must see two cubes (and re-derive both) when they are disjoint.
#[test]
fn match_changing_modify_dirties_old_and_new_row() {
    let (p, [f, _, _]) = shadowed_table();
    let mut s = IncrementalChecker::new(&p, &p, &SymConfig::default()).unwrap();
    let u = RuleUpdate::Modify {
        table: "t".into(),
        matches: p.tables[0].entries[2].matches.clone(),
        set: vec![(
            f,
            Value::Ternary {
                bits: 0xc0,
                mask: 0xc0,
            },
        )],
    };
    let rows = delta_rows(&p, &u);
    s.update(Side::Left, &rows, 1, 1, |p| apply_update(p, &u).map(drop))
        .unwrap();
    assert_eq!(s.last_dirty().len(), 2, "{:?}", s.last_dirty());
    verdict_matches_fresh(&s, "moved half-space");
}

/// `compile_within(p, D)` is `compile(p)` cut to `D` — the same node as
/// `ite(D, compile(p), term(0))` — whatever cubes `D` is handed over as.
/// The cubes decide only the cost: handing the build the universe instead
/// of the dirty cubes (so that it can skip by nothing but the rows taken on
/// the way) never builds fewer leaves — the count the session reports as
/// `sym.incr.atoms_rechecked` — and builds more wherever a row is skipped.
#[test]
fn restricted_compile_is_the_full_compile_cut_to_the_dirty_region() {
    fn tern(rng: &mut SmallRng, w: u32) -> Tern {
        let full = (1u64 << w) - 1;
        let mask = rng.gen_range(0..=full) & rng.gen_range(0..=full);
        Tern {
            bits: rng.gen_range(0..=full) & mask,
            mask,
        }
    }
    let mut rng = SmallRng::seed_from_u64(2019);
    let cfg = SymConfig::default();
    let (mut skipped_somewhere, mut fewer_somewhere) = (false, false);
    for case in 0..200 {
        let p = common::rewrite_zoo(&mut rng, |rng, w| {
            let Tern { bits, mask } = tern(rng, w);
            Value::Ternary { bits, mask }
        });
        let space = FieldSpace::from_pipelines(&[&p]);
        let rows = match_rows(&p);
        let mut eng = DdEngine::new(&space, &cfg);
        let full = eng.compile(&p, &space, &cfg).unwrap();
        for _ in 0..4 {
            let dirty: Vec<Cube> = (0..rng.gen_range(1..4))
                .map(|_| {
                    Cube(
                        space
                            .coords
                            .iter()
                            .map(|&(_, w)| tern(&mut rng, w))
                            .collect(),
                    )
                })
                .collect();
            let d = eng.region(&dirty).unwrap();
            let want = eng.mgr.ite(d, full, NodeRef::term(0)).unwrap();
            let (got, local_leaves) = eng
                .compile_within(&p, &space, &cfg, d, &dirty, &rows)
                .unwrap();
            assert_eq!(got, want, "case {case}, dirty {dirty:?}");
            let (blind, leaves) = eng
                .compile_within(&p, &space, &cfg, d, &[space.universe()], &rows)
                .unwrap();
            assert_eq!(blind, want, "case {case}");
            assert!(
                local_leaves <= leaves,
                "case {case}: {local_leaves} > {leaves}"
            );
            fewer_somewhere |= local_leaves < leaves;
            skipped_somewhere |= rows[0]
                .iter()
                .flatten()
                .any(|r| !dirty.iter().any(|c| Cube(c.0[..2].to_vec()).intersects(r)));
        }
    }
    assert!(skipped_somewhere, "no case exercised the skip");
    assert!(fewer_somewhere, "the dirty cubes never saved a leaf");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random pipeline + random flow-mod stream: the incremental verdict
    /// equals a from-scratch check after every mod.
    #[test]
    fn incremental_session_tracks_fresh_checks(
        seed in 0u64..2000,
        fields in 2usize..4,
        rows in 4usize..10,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![(0, 1)] };
        let rt = random_table(&spec, seed);
        stream_tracks_fresh_checks(&rt.pipeline, seed, 6, |p, step, rng| random_mod(p, &rt, step, rng));
        let e = Enterprise::random(rows, 3, seed);
        stream_tracks_fresh_checks(&e.pipeline, seed, 6, |p, step, rng| enterprise_mod(p, &e, step, rng));
        let (shadowed, attrs) = shadowed_table();
        stream_tracks_fresh_checks(&shadowed, seed, 6, |p, step, rng| shadowed_mod(p, attrs, step, rng));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// Flow-mods on every table of a program whose footprints are narrowed
    /// by the path that reaches the edited table — goto fan-out, `next`,
    /// `Fall` misses, a rewritten header and a metadata join (see
    /// `common::reach_zoo`): twelve updates a case, each followed by a
    /// fresh check of verdict and witness. A footprint that drops a `Fall`
    /// edge or keeps a rewritten attribute loses a changed region and fails
    /// here.
    #[test]
    fn reach_conditioned_footprints_track_fresh_checks(seed in 0u64..1_000_000) {
        let p = common::reach_zoo(&mut SmallRng::seed_from_u64(seed));
        stream_tracks_fresh_checks(&p, seed, 6, |p, step, rng| {
            common::reach_zoo_edit(p, step as u64, rng)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The goto form of a GWLB, edited on its dispatch table and on its
    /// per-service sub-tables in turn: a dispatch edit moves a service's
    /// reach cube (its goto row selects the sub-table), a sub-table edit
    /// cannot (no goto column, no `next`), so each side of the session
    /// keeps its reach across the latter and recomputes it after the
    /// former. Either way the verdict tracks a fresh check after every mod.
    #[test]
    fn goto_gwlb_dispatch_and_sub_table_edits_track_fresh_checks(seed in 0u64..1_000_000) {
        let g = mapro_workloads::Gwlb::random(6, 4, seed);
        let p = g.normalized(mapro_normalize::JoinKind::Goto).expect("GWLB decomposes");
        let dispatch = p.start.clone();
        assert!(p.moves_reach(&dispatch));
        stream_tracks_fresh_checks(&p, seed, 8, |p, step, rng| {
            if step % 2 == 0 {
                // Move one service to another port: a match cell of its
                // dispatch row.
                let t = p.table(&dispatch).expect("dispatch table");
                let row = &t.entries[rng.gen_range(0..t.len())];
                RuleUpdate::Modify {
                    table: dispatch.clone(),
                    matches: row.matches.clone(),
                    set: vec![(g.tcp_dst, Value::Int(20_000 + step as u64))],
                }
            } else {
                // Swap one backend: the output of a sub-table row.
                let subs: Vec<&Table> = p.tables.iter().filter(|t| t.name != dispatch).collect();
                let t = subs[rng.gen_range(0..subs.len())];
                assert!(!p.moves_reach(&t.name), "{} moves the reach", t.name);
                let row = &t.entries[rng.gen_range(0..t.len())];
                RuleUpdate::Modify {
                    table: t.name.clone(),
                    matches: row.matches.clone(),
                    set: vec![(g.out, Value::sym(format!("vm-{step}")))],
                }
            }
        });
    }
}
