//! Differential harness for the symbolic engine (decision diagrams)
//! against oracles that share none of its code: the enumerative checker
//! in `mapro-core`, brute-force `Pipeline::run` over every input packet,
//! and a brute-force sweep of table rows for the lint's liveness verdicts.
//!
//! Workloads: the paper pipelines and their normal forms, random tables,
//! random multi-table programs from `tests/common` (gotos, `next`, `Fall`
//! misses, metadata joins, header rewrites a later table re-matches), and
//! the deep-overlap plant. Every counterexample is confirmed by evaluating
//! both pipelines on the reported packet.
//!
//! CI runs this file at `MAPRO_THREADS=1` and `=4`, so everything asserted
//! here must be thread-count independent.

mod common;

use common::{confirm_counterexample, paper_workloads, perturb_one_output};
use mapro::core::{AttrKind, Packet};
use mapro::prelude::*;
use mapro_bench::{deep_overlap, deep_pair, DEEP_ROWS};
use mapro_sym::{check_symbolic, cube::Cube, SymConfig, TableLiveness};
use mapro_workloads::{random_table, RandomSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// The diagram verdict on a pair: an equivalent outcome must be a complete
/// symbolic proof, and a counterexample must be real.
fn symbolic_verdict(l: &Pipeline, r: &Pipeline, ctx: &str) -> bool {
    let s = check_symbolic(l, r, &SymConfig::default())
        .unwrap_or_else(|err| panic!("{ctx}: symbolic engine errored: {err}"));
    match &s {
        EquivOutcome::Equivalent {
            method, exhaustive, ..
        } => {
            assert_eq!(*method, CheckMethod::Symbolic, "{ctx}: wrong method tag");
            assert!(*exhaustive, "{ctx}: symbolic verdicts are always complete");
        }
        EquivOutcome::Counterexample(cx) => confirm_counterexample(l, r, cx, ctx),
    }
    s.is_equivalent()
}

/// Run the enumerative oracle and the symbolic engine on the same pair;
/// assert they agree on equivalence, that each reports its own method
/// honestly, and that any counterexample either produces is real. Returns
/// the shared verdict.
fn engines_agree(l: &Pipeline, r: &Pipeline, ctx: &str) -> bool {
    let enum_cfg = EquivConfig {
        mode: EquivMode::Enumerate,
        ..EquivConfig::default()
    };
    let e = mapro::core::check_equivalent(l, r, &enum_cfg)
        .unwrap_or_else(|err| panic!("{ctx}: enumerative engine errored: {err}"));
    match &e {
        EquivOutcome::Equivalent { method, .. } => {
            assert_eq!(*method, CheckMethod::Exhaustive, "{ctx}: wrong method tag");
        }
        EquivOutcome::Counterexample(cx) => {
            confirm_counterexample(l, r, cx, &format!("{ctx} (enumerative)"));
        }
    }
    assert_eq!(
        symbolic_verdict(l, r, ctx),
        e.is_equivalent(),
        "{ctx}: engines disagree — enumerative says {e:?}"
    );
    e.is_equivalent()
}

#[test]
fn paper_workloads_agree_on_both_engines() {
    let g = Gwlb::fig1();
    for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
        let n = g.normalized(join).unwrap();
        assert!(engines_agree(
            &g.universal,
            &n,
            &format!("gwlb fig1 {join:?}")
        ));
    }
    // Self-equivalence, then equivalence with the normalized form.
    for (name, p) in paper_workloads() {
        assert!(engines_agree(&p, &p, &format!("{name} self")));
        let n = normalize(&p, &NormalizeOpts::default());
        assert!(engines_agree(
            &p,
            &n.pipeline,
            &format!("{name} normalized")
        ));
    }
}

#[test]
fn paper_workload_perturbations_caught_by_both_engines() {
    for (name, p) in paper_workloads() {
        let bad = perturb_one_output(&p);
        assert!(
            !engines_agree(&p, &bad, &format!("{name} perturbed")),
            "{name}: perturbation went undetected"
        );
    }
}

#[test]
fn auto_mode_front_door_reports_symbolic() {
    // The prelude `check_equivalent` is mapro-sym's mode-dispatching front
    // door; on a fully supported pipeline the default `Auto` mode must
    // decide symbolically, not silently fall back.
    let g = Gwlb::fig1();
    let n = g.normalized(JoinKind::Goto).unwrap();
    let out = check_equivalent(&g.universal, &n, &EquivConfig::default()).unwrap();
    match out {
        EquivOutcome::Equivalent { method, .. } => assert_eq!(method, CheckMethod::Symbolic),
        other => panic!("expected equivalence, got {other:?}"),
    }
}

#[test]
fn deep_overlap_pair_decided_by_dd() {
    // The deep plant fragments any cube list past a practical budget,
    // while the DD proof is immediate. The pair is equivalent iff the
    // plant is dead, which generation proved; a perturbed variant's
    // counterexample is confirmed by the evaluator.
    let (l, r) = deep_pair(DEEP_ROWS, 2019);
    assert!(
        symbolic_verdict(&l, &r, "deep"),
        "planted dead entry must be unobservable"
    );
    let bad = perturb_one_output(&l);
    assert!(!symbolic_verdict(&l, &bad, "deep perturbed"));
}

#[test]
fn deep_overlap_fixture_in_sync_with_generator() {
    // The committed fixture is what CI lints; it must stay byte-for-byte
    // in sync with the generator (regenerate with
    // `target/release/mapro demo deep > tests/golden/deep_overlap.json`).
    let committed: Pipeline = serde_json::from_str(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/deep_overlap.json"
        ))
        .expect("fixture readable"),
    )
    .expect("fixture parses");
    assert_eq!(
        committed,
        deep_overlap(DEEP_ROWS, 2019),
        "tests/golden/deep_overlap.json drifted from the generator"
    );
}

#[test]
fn deep_fixture_flags_planted_entry_error_under_dd_with_zero_unknowns() {
    // The lint completeness regression: the planted entry is dead only by
    // the union of many earlier entries, and must be flagged Error with
    // nothing left undecided.
    let p = deep_overlap(DEEP_ROWS, 2019);
    let planted = p.tables[0].entries.len() - 1;
    let r = mapro_lint::lint(&p, &mapro_lint::LintConfig::default());
    assert_eq!(r.unknown_findings, 0);
    let planted_diag = r
        .with_lint("dead-entry")
        .find(|d| d.entry == Some(planted))
        .unwrap_or_else(|| panic!("planted entry not flagged:\n{}", r.to_text()));
    assert_eq!(planted_diag.severity, mapro_lint::Severity::Error);
}

/// One random match cell of `width` bits: a wildcard, an exact value, a
/// prefix, a sparse ternary, and now and then a symbolic value (which
/// matches nothing).
fn lint_cell(rng: &mut SmallRng, width: u32) -> Value {
    let full = (1u64 << width) - 1;
    match rng.gen_range(0..8u8) {
        0 | 1 => Value::Any,
        2 | 3 => Value::Int(rng.gen_range(0..=full)),
        4 => Value::prefix(
            rng.gen_range(0..=full),
            rng.gen_range(1..=width as u8),
            width,
        ),
        5 | 6 => {
            let mask = rng.gen_range(0..=full);
            Value::Ternary {
                bits: rng.gen_range(0..=full) & mask,
                mask,
            }
        }
        _ => Value::sym("oops"),
    }
}

/// Random tables of at most 12 match bits: the lint's liveness verdict
/// per row must be the brute-force answer to "no packet of row `j`
/// escapes rows `< j`", read off `Value::matches` for every packet.
#[test]
fn lint_liveness_matches_brute_force() {
    let mut rng = SmallRng::seed_from_u64(2019);
    let (mut covered, mut live) = (0, 0);
    for case in 0..200 {
        let mut widths = Vec::new();
        let mut budget = 12u32;
        while budget > 0 && widths.len() < 3 {
            let w = rng.gen_range(1..=budget.min(6));
            widths.push(w);
            budget -= w;
        }
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(2..10))
            .map(|_| widths.iter().map(|&w| lint_cell(&mut rng, w)).collect())
            .collect();
        let cubes: Vec<Option<Cube>> = rows.iter().map(|r| Cube::of(r, &widths)).collect();
        let lv = TableLiveness::build(&widths, &cubes, SymConfig::default().max_nodes)
            .expect("a 12-bit table fits the arena");

        let bits: u32 = widths.iter().sum();
        let packets: Vec<Vec<u64>> = (0..1u64 << bits)
            .map(|mut n| {
                widths
                    .iter()
                    .map(|&w| {
                        let v = n & ((1 << w) - 1);
                        n >>= w;
                        v
                    })
                    .collect()
            })
            .collect();
        let hits = |row: &[Value], pkt: &[u64]| {
            row.iter()
                .zip(pkt)
                .zip(&widths)
                .all(|((cell, &v), &w)| cell.matches(v, w))
        };
        for (j, row) in rows.iter().enumerate() {
            let satisfiable = row.iter().all(|c| !matches!(c, Value::Sym(_)));
            let expect = satisfiable.then(|| {
                packets
                    .iter()
                    .filter(|pkt| hits(row, pkt))
                    .all(|pkt| rows[..j].iter().any(|earlier| hits(earlier, pkt)))
            });
            assert_eq!(
                lv.covered[j], expect,
                "table {case} row {j} of {rows:?} over widths {widths:?}"
            );
            match expect {
                Some(true) => covered += 1,
                Some(false) => live += 1,
                None => {}
            }
        }
    }
    assert!(covered > 0 && live > 0, "{covered} covered, {live} live");
}

/// One interval-shaped match cell of `w` bits (so the enumerative oracle
/// applies): a wildcard, an exact value or a short prefix.
fn interval_cell(rng: &mut SmallRng, w: u32) -> Value {
    match rng.gen_range(0..4u8) {
        0 => Value::Any,
        1 => Value::Int(rng.gen_range(0..1u64 << w)),
        _ => {
            // Short prefixes: wide rows overlap, and often hold the
            // value an earlier table wrote.
            let len = rng.gen_range(1..=3u32);
            let bits = rng.gen_range(0..1u64 << len) << (w - len);
            Value::prefix(bits, len as u8, w)
        }
    }
}

/// Four tables joined by goto, by metadata and by re-matching a header
/// field an earlier table `SetField`s: a row behind the rewrite must be
/// neither skipped nor used to narrow a state on account of what the input
/// packet's field was. Interval-shaped cells, so the enumerative oracle
/// applies; it and the diagrams must agree on a program against itself and
/// against a one-cell mutant.
#[test]
fn rewritten_then_rematched_fields_agree_with_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(2019);
    let (mut equal, mut different) = (0, 0);
    for case in 0..48 {
        let p = common::rewrite_zoo(&mut rng, interval_cell);
        assert!(engines_agree(&p, &p, &format!("zoo {case} self")));

        let mut q = p.clone();
        let t = &mut q.tables[rng.gen_range(0..4usize)];
        let e = &mut t.entries[rng.gen_range(0..6usize)];
        if rng.gen_bool(0.5) {
            let col = rng.gen_range(0..e.matches.len());
            let width = q.catalog.attr(t.match_attrs[col]).width;
            e.matches[col] = interval_cell(&mut rng, width);
        } else {
            let col = e.actions.len() - 1;
            e.actions[col] = match &e.actions[col] {
                Value::Sym(s) if s.starts_with('t') => Value::sym("t3"),
                _ => Value::sym("mutant"),
            };
        }
        if engines_agree(&p, &q, &format!("zoo {case} mutant")) {
            equal += 1;
        } else {
            different += 1;
        }
    }
    assert!(equal > 0 && different > 0, "{equal} equal, {different} not");
}

/// Whether `q` — `p` with one action cell of row `row` of table `table`
/// changed — treats every input packet as `p` does, by running the two on
/// all of them: every header field they match, 16 bits in the zoos (`f`,
/// `g` and `h`; metadata is not input). A packet whose walk through `p`
/// never fires that row takes the same walk through `q`, so only the
/// packets that fire it are run twice. The two halves of the space are
/// swept on two threads.
fn evaluator_says_equivalent(p: &Pipeline, q: &Pipeline, table: &str, row: usize) -> bool {
    let fields: Vec<(mapro::core::AttrId, u32)> = (0..p.catalog.len() as u32)
        .map(mapro::core::AttrId)
        .filter(|&a| p.catalog.attr(a).kind == AttrKind::Field)
        .map(|a| (a, p.catalog.attr(a).width))
        .collect();
    let bits: u32 = fields.iter().map(|&(_, w)| w).sum();
    assert_eq!(bits, 16, "the zoos' input space");
    let (pi, qi) = (p.name_index(), q.name_index());
    let differs = AtomicBool::new(false);
    let sweep = |inputs: std::ops::Range<u64>| {
        let mut pkt = Packet::zero(&p.catalog);
        for mut n in inputs {
            if differs.load(Ordering::Relaxed) {
                return;
            }
            for &(a, w) in &fields {
                pkt.set(a, n & ((1 << w) - 1));
                n >>= w;
            }
            let l = p.run_indexed(&pkt, &pi).expect("zoo walks end");
            let fired = l
                .path
                .iter()
                .zip(&l.hits)
                .any(|(t, &hit)| t == table && hit == Some(row));
            if fired
                && q.run_indexed(&pkt, &qi)
                    .expect("zoo walks end")
                    .observable()
                    != l.observable()
            {
                differs.store(true, Ordering::Relaxed);
            }
        }
    };
    let half = 1u64 << (bits - 1);
    std::thread::scope(|s| {
        s.spawn(|| sweep(half..2 * half));
        sweep(0..half);
    });
    !differs.into_inner()
}

/// Multi-table programs from both of `tests/common`'s zoos — goto fan-out,
/// `next`, `Fall` misses, metadata joins and a `SetField` of a field a later
/// table re-matches — each against a one-leaf mutant (one row's output
/// renamed, which may or may not be observable): the diagram's verdict is
/// the one running both programs on every input packet gives, and every
/// witness is confirmed by the evaluator on both sides.
#[test]
fn multi_table_zoos_agree_with_the_evaluator() {
    let mut rng = SmallRng::seed_from_u64(7919);
    let (mut equal, mut different) = (0, 0);
    for case in 0..200 {
        let p = if case % 2 == 0 {
            common::reach_zoo(&mut rng)
        } else {
            common::rewrite_zoo(&mut rng, interval_cell)
        };
        // Every table of both zoos but the first has an output column.
        let mut q = p.clone();
        let t = &mut q.tables[rng.gen_range(1..p.tables.len())];
        let table = t.name.clone();
        let col = t
            .action_attrs
            .iter()
            .position(|&a| p.catalog.attr(a).kind == AttrKind::Action(ActionSem::Output))
            .expect("an output column");
        let row = rng.gen_range(0..t.entries.len());
        t.entries[row].actions[col] = Value::sym("mutant");
        let ctx = format!("zoo {case} mutant");
        let verdict = symbolic_verdict(&p, &q, &ctx);
        let oracle = evaluator_says_equivalent(&p, &q, &table, row);
        assert_eq!(verdict, oracle, "{ctx}");
        if verdict {
            equal += 1;
        } else {
            different += 1;
        }
    }
    assert!(equal > 0 && different > 0, "{equal} equal, {different} not");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tables, their normalized forms, and a planted divergence:
    /// both engines must agree on all three pairings.
    #[test]
    fn random_tables_agree_on_both_engines(
        seed in 0u64..2000,
        fields in 2usize..4,
        rows in 4usize..12,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![(0, 1)] };
        let rt = random_table(&spec, seed);

        // Self-check: trivially equivalent, both engines.
        prop_assert!(engines_agree(&rt.pipeline, &rt.pipeline, "random self"));

        // Normalization preserves semantics — both engines must concur.
        let n = normalize(&rt.pipeline, &NormalizeOpts::default());
        prop_assert!(engines_agree(&rt.pipeline, &n.pipeline, "random normalized"));

        // Planted divergence: both engines must find it, and the symbolic
        // counterexample is confirmed by direct evaluation inside
        // `engines_agree`.
        let bad = perturb_one_output(&rt.pipeline);
        prop_assert!(!engines_agree(&rt.pipeline, &bad, "random perturbed"));
    }
}
