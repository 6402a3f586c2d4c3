//! Shape-machinery fuzzing: random tables with randomly *kinded* columns
//! (match fields vs output/opaque/set-field actions), random planted
//! dependencies, random join kinds. Whatever `split` accepts must be
//! semantically equivalent; whatever it refuses must be a structured
//! error. This exercises shapes A–D and the Fig. 3 refusal far beyond the
//! paper's hand-picked instances, and hostile arguments (attributes that
//! are not columns, overlapping or empty sides) on the MVD and JD paths.

mod common;

use common::spec::{arb_spec, build, ColKind, Spec};
use mapro::normalize::{chain_components_naive, SplitError};
use mapro::prelude::*;
use proptest::prelude::*;

/// Split `spec`'s table along its planted `det → dep` (the two must
/// differ): whatever `split` accepts is equivalent to its source, and
/// whatever it refuses is refused with one of the structured errors.
fn split_is_sound_or_refuses_with_structure(spec: &Spec) {
    let Some((p, ids)) = build(spec) else {
        return;
    };
    let x = vec![ids[spec.det]];
    let y = vec![ids[spec.dep]];
    let fd = Split::Fd {
        x,
        y,
        join: spec.join,
    };
    match split(&p, "t", &fd, &SplitOpts::default()) {
        Ok(q) => {
            // Anything accepted must preserve semantics.
            match check_equivalent(&p, &q, &EquivConfig::default()).unwrap() {
                EquivOutcome::Equivalent { .. } => {}
                EquivOutcome::Counterexample(cx) => {
                    panic!("ACCEPTED BUT WRONG: {:?}\nspec {:?}", cx.fields, spec);
                }
            }
        }
        Err(
            SplitError::FdDoesNotHold { .. }
            | SplitError::StageNot1NF { .. }
            | SplitError::RematchNeedsFieldX
            | SplitError::GotoNotInLastStage
            | SplitError::SourceNot1NF
            | SplitError::OrderSensitiveActionSplit { .. }
            | SplitError::RewriteBeforeMatch { .. }
            | SplitError::BadSides,
        ) => {}
        Err(e) => panic!("unexpected error {e:?} for {spec:?}"),
    }
}

/// The two shrunk cases an earlier proptest run recorded (one per join
/// that failed then), written out so they run on every `cargo test`.
#[test]
fn recorded_regressions_stay_sound() {
    use ColKind::{Field, Output};
    let metadata = Spec {
        kinds: vec![Field, Field, Output, Output],
        rows: vec![vec![0, 0, 3, 0]; 11],
        det: 0,
        dep: 2,
        join: JoinKind::Metadata,
    };
    let goto = Spec {
        kinds: vec![Output, Field, Output, Field],
        rows: vec![vec![3, 0, 0, 0]; 6],
        det: 2,
        dep: 0,
        join: JoinKind::Goto,
    };
    split_is_sound_or_refuses_with_structure(&metadata);
    split_is_sound_or_refuses_with_structure(&goto);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn decompose_is_sound_or_refuses_with_structure(spec in arb_spec()) {
        prop_assume!(spec.det != spec.dep);
        split_is_sound_or_refuses_with_structure(&spec);
    }

    /// When the planted dependency holds and both sides are fields, every
    /// join kind must accept (Theorem 1's hypothesis) — refusal would be a
    /// completeness bug.
    #[test]
    fn field_to_field_dependencies_always_decompose(mut spec in arb_spec()) {
        // Remap det/dep onto two distinct *field* columns (the generator
        // guarantees at least two), replant, and rebuild.
        let fields: Vec<usize> = spec
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == ColKind::Field)
            .map(|(i, _)| i)
            .collect();
        spec.det = fields[spec.det % fields.len()];
        spec.dep = fields[spec.dep % fields.len()];
        prop_assume!(spec.det != spec.dep);
        for row in spec.rows.iter_mut() {
            row[spec.dep] = (row[spec.det] * 7 + 3) % 4;
        }
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        // Planting happened before 1NF dedup; re-check the FD on the built
        // table (dedup can only remove rows, never break an FD).
        let x = vec![ids[spec.det]];
        let y = vec![ids[spec.dep]];
        let fd = Split::Fd { x, y, join: spec.join };
        let q = split(&p, "t", &fd, &SplitOpts::default());
        prop_assert!(q.is_ok(), "refused field→field FD: {:?} ({spec:?})", q.err());
        assert_equivalent(&p, &q.unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The join-dependency decomposition under the same fuzz: any accepted
    /// split must be equivalent; refusals must be structured. One case in
    /// four names a catalog attribute that is not a column of the table,
    /// which the tagged and the naive chain must both refuse.
    #[test]
    fn decompose_jd_sound_or_refuses(spec in arb_spec(), cut in 1usize..4, hostile in 0usize..4) {
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        let n = ids.len();
        let cut = cut.min(n - 1);
        // Binary split with one shared column (the first) as join glue.
        let mut a: Vec<_> = ids[..cut].to_vec();
        let b: Vec<_> = std::iter::once(ids[0])
            .chain(ids[cut..].iter().copied())
            .collect();
        if a.is_empty() {
            a.push(ids[0]);
        }
        if hostile == 0 {
            let stranger = p.catalog.lookup("t0").expect("set-field target");
            a.push(stranger);
            let comps = [a.clone(), b.clone()];
            let want = Err(SplitError::AttrNotInTable(stranger));
            prop_assert_eq!(split(&p, "t", &Split::Jd(comps.to_vec()), &SplitOpts::default()), want.clone());
            prop_assert_eq!(chain_components_naive(&p, "t", &comps), want);
            return Ok(());
        }
        match split(&p, "t", &Split::Jd(vec![a.clone(), b.clone()]), &SplitOpts::default()) {
            Ok(q) => match check_equivalent(&p, &q, &EquivConfig::default()).unwrap() {
                EquivOutcome::Equivalent { .. } => {}
                EquivOutcome::Counterexample(cx) => {
                    prop_assert!(
                        false,
                        "JD ACCEPTED BUT WRONG: {:?}\nsplit {a:?} | {b:?}\nspec {spec:?}",
                        cx.fields
                    );
                }
            },
            Err(
                SplitError::JoinDependencyDoesNotHold
                | SplitError::StageNot1NF { .. }
                | SplitError::OrderSensitiveActionSplit { .. }
                | SplitError::RewriteBeforeMatch { .. }
                | SplitError::SourceNot1NF
                | SplitError::ComponentsDontCover,
            ) => {}
            Err(e) => prop_assert!(false, "unexpected JD error {e:?}"),
        }
    }

    /// Same for the MVD binary split. One case in four overlaps `X` and
    /// `Y`, one leaves `Y` empty: both are bad sides.
    #[test]
    fn decompose_mvd_sound_or_refuses(spec in arb_spec(), hostile in 0usize..4) {
        prop_assume!(spec.det != spec.dep);
        prop_assume!(spec.kinds[spec.det] == ColKind::Field);
        let Some((p, ids)) = build(&spec) else { return Ok(()); };
        let x = vec![ids[spec.det]];
        let y = match hostile {
            0 => vec![ids[spec.det], ids[spec.dep]],
            1 => vec![],
            _ => vec![ids[spec.dep]],
        };
        let bad_sides = hostile < 2;
        match split(&p, "t", &Split::Mvd { x, y }, &SplitOpts::default()) {
            Err(SplitError::BadSides) if bad_sides => {}
            _ if bad_sides => prop_assert!(false, "hostile sides accepted ({spec:?})"),
            Ok(q) => match check_equivalent(&p, &q, &EquivConfig::default()).unwrap() {
                EquivOutcome::Equivalent { .. } => {}
                EquivOutcome::Counterexample(cx) => {
                    prop_assert!(false, "MVD ACCEPTED BUT WRONG: {:?}\nspec {spec:?}", cx.fields);
                }
            },
            Err(
                SplitError::JoinDependencyDoesNotHold
                | SplitError::StageNot1NF { .. }
                | SplitError::OrderSensitiveActionSplit { .. }
                | SplitError::RewriteBeforeMatch { .. }
                | SplitError::SourceNot1NF,
            ) => {}
            Err(e) => prop_assert!(false, "unexpected MVD error {e:?}"),
        }
    }
}
