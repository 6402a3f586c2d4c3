//! Differential harness for the decision-diagram backend: on every
//! workload — the six paper pipelines, the deep-overlap plant, and random
//! tables — the DD engine must return the *same verdict* as the cube
//! engine (where the cube engine's budgets let it answer at all), every
//! counterexample must be confirmed by directly evaluating both pipelines
//! through `mapro-core`, and the lint findings of the two backends must be
//! set-equal wherever the cube backend decided. Random multi-table
//! programs whose later tables match what earlier ones rewrote hold both
//! backends to the enumerative oracle.
//!
//! CI runs this file at `MAPRO_THREADS=1` and `=4` and diffs the verdict
//! digests, so everything asserted here must be thread-count independent.

mod common;

use mapro::prelude::*;
use mapro_bench::{deep_overlap, deep_pair, DEEP_ROWS};
use mapro_sym::{check_symbolic, CoverBackend, SymConfig};
use mapro_workloads::{random_table, RandomSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn backend_cfg(backend: CoverBackend) -> SymConfig {
    SymConfig {
        backend,
        ..SymConfig::default()
    }
}

/// Run the cube and DD backends on the same pair; assert they agree on
/// equivalence and that any counterexample either backend produces is
/// real. Returns the shared verdict.
fn backends_agree(l: &Pipeline, r: &Pipeline, ctx: &str) -> bool {
    let c = check_symbolic(l, r, &backend_cfg(CoverBackend::Cube))
        .unwrap_or_else(|err| panic!("{ctx}: cube backend errored: {err}"));
    let d = check_symbolic(l, r, &backend_cfg(CoverBackend::Dd))
        .unwrap_or_else(|err| panic!("{ctx}: dd backend errored: {err}"));
    assert_eq!(
        c.is_equivalent(),
        d.is_equivalent(),
        "{ctx}: backends disagree — cube says {c:?}, dd says {d:?}"
    );
    for (backend, out) in [("cube", &c), ("dd", &d)] {
        if let EquivOutcome::Equivalent {
            method, exhaustive, ..
        } = out
        {
            assert_eq!(*method, CheckMethod::Symbolic, "{ctx} ({backend})");
            assert!(
                *exhaustive,
                "{ctx} ({backend}): symbolic proofs are complete"
            );
        }
        if let EquivOutcome::Counterexample(cx) = out {
            confirm_counterexample(l, r, cx, &format!("{ctx} ({backend})"));
        }
    }
    d.is_equivalent()
}

/// A counterexample is only as good as the packet it names: re-run both
/// pipelines on it through the concrete `mapro-core` evaluator and require
/// observably different behavior matching the recorded verdicts.
fn confirm_counterexample(l: &Pipeline, r: &Pipeline, cx: &mapro::core::Counterexample, ctx: &str) {
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

/// Rename the first symbolic output parameter found in the pipeline.
fn perturb_one_output(p: &Pipeline) -> Pipeline {
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

/// The six paper workloads the lint and equivalence sweeps pin down.
fn paper_workloads() -> Vec<(&'static str, Pipeline)> {
    vec![
        ("gwlb fig1", Gwlb::fig1().universal),
        ("l3 fig2", L3::fig2().universal),
        ("vlan fig3", Vlan::fig3().universal),
        ("sdx fig5", Sdx::fig5().universal),
        ("gwlb random", Gwlb::random(6, 4, 7).universal),
        (
            "enterprise random",
            mapro_workloads::Enterprise::random(12, 3, 5).pipeline,
        ),
    ]
}

#[test]
fn paper_workloads_and_normal_forms_agree_on_both_backends() {
    for (name, p) in paper_workloads() {
        // Self-equivalence, then equivalence with the normalized form.
        assert!(backends_agree(&p, &p, &format!("{name} self")));
        let n = normalize(&p, &NormalizeOpts::default());
        assert!(backends_agree(
            &p,
            &n.pipeline,
            &format!("{name} normalized")
        ));
        // Planted divergence: both backends must find it, and the
        // counterexamples are confirmed through the concrete evaluator
        // inside `backends_agree`.
        let bad = perturb_one_output(&p);
        assert!(
            !backends_agree(&p, &bad, &format!("{name} perturbed")),
            "{name}: perturbation went undetected"
        );
    }
}

#[test]
fn deep_overlap_pair_decided_by_dd_where_cube_budget_fails() {
    // The deep plant compiles to ~3×10^5 cube atoms per side — far past
    // any practical cross-intersection — while the DD proof is immediate.
    // Under a cube budget that admits the compile the verdicts agree; this
    // test uses the DD backend alone plus the enumerative confirmation of
    // a perturbed variant to keep runtime bounded.
    let (l, r) = deep_pair(DEEP_ROWS, 2019);
    let d = check_symbolic(&l, &r, &backend_cfg(CoverBackend::Dd)).expect("dd decides deep");
    assert!(d.is_equivalent(), "planted dead entry must be unobservable");

    let bad = perturb_one_output(&l);
    let d = check_symbolic(&l, &bad, &backend_cfg(CoverBackend::Dd)).expect("dd decides deep");
    match d {
        EquivOutcome::Counterexample(cx) => confirm_counterexample(&l, &bad, &cx, "deep perturbed"),
        other => panic!("expected counterexample, got {other:?}"),
    }
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

/// Lint both backends; the DD report must decide everything, and the two
/// finding sets must be equal wherever the cube backend decided (i.e. the
/// DD set minus the cube set is at most the verdicts cube left unknown).
fn lint_findings_set_equal_where_decided(p: &Pipeline, ctx: &str) {
    let cfg = |backend| mapro_lint::LintConfig {
        backend,
        ..mapro_lint::LintConfig::default()
    };
    let cube = mapro_lint::lint(p, &cfg(CoverBackend::Cube));
    let dd = mapro_lint::lint(p, &cfg(CoverBackend::Dd));
    assert_eq!(dd.unknown_findings, 0, "{ctx}: DD left a verdict undecided");

    let key =
        |d: &mapro_lint::Diagnostic| (d.lint.clone(), d.table.clone(), d.entry, d.message.clone());
    let cube_set: BTreeSet<_> = cube
        .diagnostics
        .iter()
        .filter(|d| d.lint != "undecided-liveness")
        .map(key)
        .collect();
    let dd_set: BTreeSet<_> = dd.diagnostics.iter().map(key).collect();
    // Everything cube decided, DD reports identically.
    for k in &cube_set {
        assert!(
            dd_set.contains(k),
            "{ctx}: cube finding missing under DD: {k:?}"
        );
    }
    // DD may add only dead-entry verdicts for the questions cube left
    // unknown — and exactly as many.
    let extra: Vec<_> = dd_set.difference(&cube_set).collect();
    assert!(
        extra.len() <= cube.unknown_findings,
        "{ctx}: DD added {} findings but cube left only {} unknown: {extra:?}",
        extra.len(),
        cube.unknown_findings
    );
    for k in &extra {
        assert_eq!(k.0, "dead-entry", "{ctx}: unexpected extra finding {k:?}");
    }
}

#[test]
fn lint_findings_agree_across_backends() {
    for (name, p) in paper_workloads() {
        lint_findings_set_equal_where_decided(&p, name);
    }
    lint_findings_set_equal_where_decided(&deep_overlap(DEEP_ROWS, 2019), "deep");
}

#[test]
fn deep_fixture_flags_planted_entry_error_under_dd_with_zero_unknowns() {
    // The lint completeness regression: the planted entry exhausts the
    // cube budget (surfacing as an unknown finding) but the DD backend
    // must flag it Error with nothing left undecided.
    let p = deep_overlap(DEEP_ROWS, 2019);
    let planted = p.tables[0].entries.len() - 1;

    let cube = mapro_lint::lint(
        &p,
        &mapro_lint::LintConfig {
            backend: CoverBackend::Cube,
            ..mapro_lint::LintConfig::default()
        },
    );
    assert!(
        cube.unknown_findings > 0,
        "deep fixture no longer exhausts the cube budget:\n{}",
        cube.to_text()
    );

    let dd = mapro_lint::lint(
        &p,
        &mapro_lint::LintConfig {
            backend: CoverBackend::Dd,
            ..mapro_lint::LintConfig::default()
        },
    );
    assert_eq!(dd.unknown_findings, 0);
    let planted_diag = dd
        .with_lint("dead-entry")
        .find(|d| d.entry == Some(planted))
        .unwrap_or_else(|| panic!("planted entry not flagged:\n{}", dd.to_text()));
    assert_eq!(planted_diag.severity, mapro_lint::Severity::Error);
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
/// applies; it, the cube backend and diagrams must agree on a program
/// against itself and against a one-cell mutant.
#[test]
fn rewritten_then_rematched_fields_agree_with_the_oracle() {
    let enumerate = EquivConfig {
        mode: EquivMode::Enumerate,
        ..EquivConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(2019);
    let (mut equal, mut different) = (0, 0);
    for case in 0..48 {
        let p = common::rewrite_zoo(&mut rng, interval_cell);
        assert!(backends_agree(&p, &p, &format!("zoo {case} self")));

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
        let ctx = format!("zoo {case} mutant");
        let oracle = mapro::core::check_equivalent(&p, &q, &enumerate)
            .unwrap_or_else(|err| panic!("{ctx}: oracle errored: {err}"));
        assert_eq!(
            backends_agree(&p, &q, &ctx),
            oracle.is_equivalent(),
            "{ctx}"
        );
        if oracle.is_equivalent() {
            equal += 1;
        } else {
            different += 1;
        }
    }
    assert!(equal > 0 && different > 0, "{equal} equal, {different} not");
}

/// Multi-table programs from both of `tests/common`'s zoos — goto fan-out,
/// `next`, `Fall` misses, metadata joins and a `SetField` of a field a later
/// table re-matches — each against a one-leaf mutant (one row's output
/// renamed, which may or may not be observable): the diagram's verdict is the cube
/// compiler's, and every witness is confirmed by the evaluator on both
/// sides. Where a diagram built bottom-up and a top-down walk could
/// disagree, this is where they would.
#[test]
fn multi_table_zoos_agree_with_the_cube_compiler() {
    use mapro::core::AttrKind;
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
        let col = t
            .action_attrs
            .iter()
            .position(|&a| p.catalog.attr(a).kind == AttrKind::Action(ActionSem::Output))
            .expect("an output column");
        let row = rng.gen_range(0..t.entries.len());
        t.entries[row].actions[col] = Value::sym("mutant");
        if backends_agree(&p, &q, &format!("zoo {case} mutant")) {
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
    /// cube and DD backends must agree on all three pairings.
    #[test]
    fn random_tables_agree_on_both_backends(
        seed in 0u64..2000,
        fields in 2usize..4,
        rows in 4usize..12,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![(0, 1)] };
        let rt = random_table(&spec, seed);

        prop_assert!(backends_agree(&rt.pipeline, &rt.pipeline, "random self"));

        let n = normalize(&rt.pipeline, &NormalizeOpts::default());
        prop_assert!(backends_agree(&rt.pipeline, &n.pipeline, "random normalized"));

        let bad = perturb_one_output(&rt.pipeline);
        prop_assert!(!backends_agree(&rt.pipeline, &bad, "random perturbed"));
    }
}
