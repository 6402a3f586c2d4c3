//! Differential harness for the two ways the decision-diagram engine
//! decides a pair: a cold `check_symbolic`, and the initial proof state of
//! an `IncrementalChecker` session compiled on the same pair. On the six
//! paper pipelines, their normal forms and random tables, both must return
//! the same verdict and the same witness, and every counterexample must be
//! confirmed by directly evaluating both pipelines through `mapro-core`.
//!
//! Everything asserted here must be thread-count independent.

mod common;

use common::{confirm_counterexample, paper_workloads, perturb_one_output};
use mapro::prelude::*;
use mapro_sym::{check_symbolic, IncrementalChecker, SymConfig};
use mapro_workloads::{random_table, RandomSpec};
use proptest::prelude::*;

/// Decide the pair cold and through a fresh session; assert the two
/// agree on equivalence and on the witness, that an equivalence is a
/// complete symbolic proof, and that any counterexample is real. Returns
/// the shared verdict.
fn backends_agree(l: &Pipeline, r: &Pipeline, ctx: &str) -> bool {
    let cfg = SymConfig::default();
    let cold =
        check_symbolic(l, r, &cfg).unwrap_or_else(|err| panic!("{ctx}: cold check errored: {err}"));
    let session = IncrementalChecker::new(l, r, &cfg)
        .unwrap_or_else(|err| panic!("{ctx}: session compile errored: {err}"));
    assert_eq!(
        cold.is_equivalent(),
        session.verdict().is_equivalent(),
        "{ctx}: backends disagree — cold says {cold:?}, session says {:?}",
        session.verdict()
    );
    let witness = session
        .counterexample()
        .unwrap_or_else(|err| panic!("{ctx}: session witness errored: {err}"));
    match &cold {
        EquivOutcome::Equivalent {
            method, exhaustive, ..
        } => {
            assert_eq!(*method, CheckMethod::Symbolic, "{ctx}: wrong method tag");
            assert!(*exhaustive, "{ctx}: symbolic proofs are complete");
            assert_eq!(witness, None, "{ctx}: session has a witness for a proof");
        }
        EquivOutcome::Counterexample(cx) => {
            confirm_counterexample(l, r, cx, ctx);
            assert_eq!(
                witness.as_ref(),
                Some(&**cx),
                "{ctx}: session and cold check name different witnesses"
            );
        }
    }
    cold.is_equivalent()
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
        // counterexample is confirmed through the concrete evaluator
        // inside `backends_agree`.
        let bad = perturb_one_output(&p);
        assert!(
            !backends_agree(&p, &bad, &format!("{name} perturbed")),
            "{name}: perturbation went undetected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tables, their normalized forms, and a planted divergence:
    /// the cold check and a fresh session must agree on all three pairings.
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
