//! Differential harness: both symbolic equivalence engines — decision
//! diagrams, the default, and the cube comparison engine — must return the
//! *same verdict* as the enumerative oracle on every workload — the paper
//! pipelines, their normalized forms, and random tables — and every
//! symbolic counterexample must be confirmed by directly evaluating both
//! pipelines on the reported packet.
//!
//! CI runs this file at `MAPRO_THREADS=1` and `=4` and diffs the verdict
//! digests, so everything asserted here must be thread-count independent.

use mapro::prelude::*;
use mapro_sym::{check_symbolic, CoverBackend, SymConfig};
use mapro_workloads::{random_table, RandomSpec};
use proptest::prelude::*;

/// Run the enumerative oracle and both symbolic engines on the same pair;
/// assert they agree on equivalence, that each reports its own method
/// honestly, and that any counterexample an engine produces is real.
/// Returns the shared verdict.
fn engines_agree(l: &Pipeline, r: &Pipeline, ctx: &str) -> bool {
    let enum_cfg = EquivConfig {
        mode: EquivMode::Enumerate,
        ..EquivConfig::default()
    };
    let e = mapro::core::check_equivalent(l, r, &enum_cfg)
        .unwrap_or_else(|err| panic!("{ctx}: enumerative engine errored: {err}"));
    if let EquivOutcome::Equivalent { method, .. } = &e {
        assert_eq!(*method, CheckMethod::Exhaustive, "{ctx}: wrong method tag");
    }
    if let EquivOutcome::Counterexample(cx) = &e {
        confirm_counterexample(l, r, cx, &format!("{ctx} (enumerative)"));
    }
    for backend in [CoverBackend::Dd, CoverBackend::Cube] {
        let cfg = SymConfig {
            backend,
            ..SymConfig::default()
        };
        let s = check_symbolic(l, r, &cfg)
            .unwrap_or_else(|err| panic!("{ctx}: {backend:?} engine errored: {err}"));
        assert_eq!(
            e.is_equivalent(),
            s.is_equivalent(),
            "{ctx}: engines disagree — enumerative says {e:?}, {backend:?} says {s:?}"
        );
        match &s {
            EquivOutcome::Equivalent {
                method, exhaustive, ..
            } => {
                assert_eq!(*method, CheckMethod::Symbolic, "{ctx}: wrong method tag");
                assert!(*exhaustive, "{ctx}: symbolic verdicts are always complete");
            }
            EquivOutcome::Counterexample(cx) => {
                confirm_counterexample(l, r, cx, &format!("{ctx} ({backend:?})"));
            }
        }
    }
    e.is_equivalent()
}

/// A counterexample is only as good as the packet it names: re-run both
/// pipelines on it and require observably different behavior, matching
/// the verdicts recorded in the report.
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
        "{ctx}: reported counterexample does not actually distinguish the pipelines"
    );
    assert_eq!(
        lv.observable(),
        cx.left.observable(),
        "{ctx}: stale left verdict"
    );
    assert_eq!(
        rv.observable(),
        cx.right.observable(),
        "{ctx}: stale right verdict"
    );
}

/// Rename the first symbolic output parameter found in the pipeline —
/// guaranteed observable divergence because every row of these workloads
/// is reachable (exact, deduplicated matches).
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

    let l3 = L3::fig2();
    let n = normalize(&l3.universal, &NormalizeOpts::default());
    assert!(engines_agree(
        &l3.universal,
        &n.pipeline,
        "l3 fig2 normalized"
    ));

    let vlan = Vlan::fig3();
    let n = normalize(&vlan.universal, &NormalizeOpts::default());
    assert!(engines_agree(
        &vlan.universal,
        &n.pipeline,
        "vlan fig3 normalized"
    ));

    let sdx = Sdx::fig5();
    let n = normalize(&sdx.universal, &NormalizeOpts::default());
    assert!(engines_agree(
        &sdx.universal,
        &n.pipeline,
        "sdx fig5 normalized"
    ));
}

#[test]
fn paper_workload_perturbations_caught_by_both_engines() {
    for (name, p) in [
        ("gwlb fig1", Gwlb::fig1().universal),
        ("l3 fig2", L3::fig2().universal),
        ("vlan fig3", Vlan::fig3().universal),
        ("sdx fig5", Sdx::fig5().universal),
    ] {
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
